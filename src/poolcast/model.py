"""Recurrent forecaster with exact reverse-mode gradients.

Architecture: a learned linear mixing matrix projects each P-dimensional
observation to an r-dimensional latent, a single-layer GRU consumes the
latent sequence, and a linear head maps the final hidden state back to the
latent space; decoding to observation space reuses the transpose of the
mixing matrix. The head gives a monotone fan of levels as a base plus
cumulative softplus increments, so predicted quantile levels can never cross
in latent space; a point forecast is a one-level fan, the linear base.

Everything is plain float64 numpy. Gradients are backpropagated through the
exact forward graph (verified against central finite differences), training
is Adam over seeded mini-batch shuffles, and all reductions run in a fixed
order so results are bitwise reproducible for a given seed.
"""

from __future__ import annotations

import functools
import math
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .data import atomic_open
from .losses import huber_deriv, huber_elem, loss_elem, objective

CHECKPOINT_MAGIC = b"PCM3"
_MODE_FLAGS = {"point": 0, "quantile": 1}
_FLAG_MODES = {v: k for k, v in _MODE_FLAGS.items()}
STACK_BYTES = 6 << 20  # the workspace budget of one train_stacked stack


class TrainingDiverged(Exception):
    """Raised when a non-finite loss appears during training."""

    def __init__(self, message: str, last_finite_epoch: int):
        super().__init__(message)
        self.last_finite_epoch = last_finite_epoch

    def __reduce__(self):
        # pickled from sweep workers back to the parent with both fields
        return TrainingDiverged, (self.args[0], self.last_finite_epoch)


def derive_seed(base: int, *keys) -> int:
    """Deterministically derive a child seed from a base seed and tags."""
    ints = [int(base) & 0xFFFFFFFF]
    for k in keys:
        ints.append(zlib.crc32(str(k).encode()) if isinstance(k, str) else int(k) & 0xFFFFFFFF)
    return int(np.random.SeedSequence(ints).generate_state(1)[0])


def softplus(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.logaddexp(0.0, x, out)


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # exp(-x) overflows to inf for very negative x, which correctly yields 0;
    # callers silence that overflow with np.errstate
    s = np.negative(x, out)
    np.exp(s, s)
    np.add(s, 1.0, s)
    return np.divide(1.0, s, s)


def median_index(levels) -> int:
    """Index of the quantile level closest to 0.5 (lowest index on ties)."""
    return int(np.argmin(np.abs(np.asarray(levels, dtype=np.float64) - 0.5)))


# ---------------------------------------------------------------------------
# parameters and configuration
# ---------------------------------------------------------------------------


class ParamSet:
    """All learnable tensors of one forecaster, in checkpoint order.

    ``mix`` is the shared encoder/decoder pair (decode = mix.T); everything
    else is the specialized part that cluster prototypes are allowed to move.
    The GRU's gates are stored fused, as the cell multiplies them: the input
    maps ``w_gates`` (3H, r) and biases ``b_gates`` (3H,) hold the update,
    reset and candidate gates' rows in that order, ``u_zr`` (2H, H) the
    update and reset recurrent maps, and ``u_cand`` (H, H) the candidate's.
    The one output head, ``w_head`` (L * r, H) and ``b_head`` (L * r,), gives
    a fan of L latent levels (:func:`_fan_from_hidden`): L is the number of
    quantile levels in quantile mode and 1 in point mode, whose forecast is
    the fan's base (:attr:`TrainConfig.n_levels`). Tensors are views into
    one flat float64 buffer so the optimizer and gradient clipping can
    operate with a few vectorized calls; ``mix`` sits first, which makes the
    specialized part the contiguous tail.
    """

    def __init__(self, layout: "_Layout", flat: np.ndarray):
        """Adopt the float64 buffer ``flat`` of a cached :class:`_Layout`
        without copying, or the (M, size) buffer of a stack of M models (see
        :meth:`stack`)."""
        if (flat.dtype != np.float64 or flat.ndim not in (1, 2)
                or flat.shape[-1] != layout.size):
            raise ValueError(f"expected a float64 buffer of {layout.size} values")
        self.layout = layout
        self.flat = flat
        lead = flat.shape[:-1]
        for name, shape, lo, hi in layout.slots:
            setattr(self, name, flat[..., lo:hi].reshape(lead + shape))
        self.spec_offset = layout.spec_offset  # everything after mix is specialized

    def __reduce__(self):
        # rebuild the tensor views over the unpickled buffer
        return ParamSet, (self.layout, self.flat)

    @classmethod
    def stack(cls, models: list["ParamSet"]) -> "ParamSet":
        """The M models of one layout as one set whose tensors carry a
        leading model axis; the forward pass runs all of them at once, each
        model bitwise as on its own."""
        if not models:
            raise ValueError("cannot stack zero models")
        layout = models[0].layout
        if any(m.flat.ndim != 1 or m.layout.slots != layout.slots for m in models):
            raise ValueError("stacked models must share one tensor layout")
        return cls(layout, np.stack([m.flat for m in models]))

    @property
    def latent(self) -> int:
        return self.mix.shape[-2]

    @property
    def p_dim(self) -> int:
        return self.mix.shape[-1]

    @property
    def hidden(self) -> int:
        return self.u_cand.shape[-1]

    @property
    def n_levels(self) -> int:
        return self.w_head.shape[-2] // self.latent

    def copy(self) -> "ParamSet":
        return ParamSet(self.layout, self.flat.copy())

    def zeros_like(self) -> "ParamSet":
        return ParamSet(self.layout, np.zeros_like(self.flat))

    @staticmethod
    def shapes(p_dim: int, latent: int, hidden: int, n_levels: int):
        return (
            ("mix", (latent, p_dim)),
            ("w_gates", (3 * hidden, latent)), ("u_zr", (2 * hidden, hidden)),
            ("u_cand", (hidden, hidden)), ("b_gates", (3 * hidden,)),
            ("w_head", (n_levels * latent, hidden)), ("b_head", (n_levels * latent,)),
        )


class _Layout:
    """Name, shape and flat-buffer slice of every tensor for one model size."""

    def __init__(self, p_dim: int, latent: int, hidden: int, n_levels: int):
        slots = []
        offset = 0
        for name, shape in ParamSet.shapes(p_dim, latent, hidden, n_levels):
            size = math.prod(shape)  # exact for any header's sizes
            slots.append((name, shape, offset, offset + size))
            offset += size
        self.slots = tuple(slots)
        self.size = offset
        self.spec_offset = slots[0][3]


@functools.lru_cache(maxsize=64)
def _layout(p_dim: int, latent: int, hidden: int, n_levels: int) -> _Layout:
    return _Layout(p_dim, latent, hidden, n_levels)


def init_params(p_dim: int, latent: int, hidden: int, n_levels: int,
                seed: int) -> ParamSet:
    """Fresh parameters: weights ~ U(-1/sqrt(fan_in), +1/sqrt(fan_in)), biases zero.

    The draws keep the order of the earlier per-gate, two-head layout, so a
    seed gives the values it always gave: ``mix``, then each gate's input
    map and recurrent map (update, reset, candidate), then the (r, H) block
    of the point head, which a one-level head keeps, then, for L > 1, the
    (L * r, H) block of the fan, which replaces it."""
    rng = np.random.default_rng(seed)
    layout = _layout(p_dim, latent, hidden, n_levels)
    params = ParamSet(layout, np.zeros(layout.size))
    w_gates, u_zr, w_head = params.w_gates, params.u_zr, params.w_head
    fan = (w_head,) if n_levels > 1 else ()
    for t in (params.mix, w_gates[:hidden], u_zr[:hidden],
              w_gates[hidden:2 * hidden], u_zr[hidden:], w_gates[2 * hidden:],
              params.u_cand, w_head[:latent]) + fan:
        bound = 1.0 / np.sqrt(t.shape[1])  # fan-in
        t[...] = rng.uniform(-bound, bound, size=t.shape)
    return params


@dataclass(frozen=True)
class TrainConfig:
    """Training and loss knobs shared across the pipeline."""

    w: int = 12
    epochs: int = 30
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8
    batch: int = 64
    l2sp_weight: float = 1e-3     # anchor pull used when training prototypes
    huber_delta: float = 1.0
    quantiles: tuple = (0.1, 0.5, 0.9)
    seed: int = 0
    mode: str = "point"
    clip: float = 5.0

    def __post_init__(self):
        # errors name the config keys (RunConfig), which a user can set; the
        # comparisons are written so that NaN fails them
        for name, value, low in (("window", self.w, 1),
                                 ("batch", self.batch, 1),
                                 ("epochs", self.epochs, 0)):
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        for name, value, ok, rule in (
                ("lr", self.lr, self.lr > 0, "> 0"),
                ("beta1", self.beta1, 0 <= self.beta1 < 1, "in [0, 1)"),
                ("beta2", self.beta2, 0 <= self.beta2 < 1, "in [0, 1)"),
                ("eps_adam", self.eps_adam, self.eps_adam > 0, "> 0"),
                ("l2sp", self.l2sp_weight, self.l2sp_weight >= 0, ">= 0"),
                ("huber_delta", self.huber_delta, self.huber_delta > 0, "> 0"),
                ("clip", self.clip, self.clip >= 0, ">= 0 (0: no clipping)")):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {value}")
        if self.mode not in ("point", "quantile"):
            raise ValueError(f"unknown mode {self.mode!r}")
        q = tuple(self.quantiles)
        if len(q) < 1 or any(not (0.0 < x < 1.0) for x in q):
            raise ValueError("quantiles must lie in (0, 1)")
        if any(b <= a for a, b in zip(q, q[1:])):
            raise ValueError("quantiles must be strictly increasing")

    @property
    def n_levels(self) -> int:
        """The output head's level count: the quantile levels in quantile
        mode, the base alone in point mode."""
        return len(self.quantiles) if self.mode == "quantile" else 1

    @property
    def point_level(self) -> int:
        """The fan level of the point forecast: the base, or the median."""
        return median_index(self.quantiles) if self.mode == "quantile" else 0


# ---------------------------------------------------------------------------
# forward graph
# ---------------------------------------------------------------------------


class _Workspace:
    """Every buffer of one training step of a stack of M models on batches
    of n windows: the gathered batch, the activations backprop reads, the
    temporaries and the gradients. The weights are read where they are
    stored, so the workspace holds no copy of them.

    The buffers are views into one float64 arena. A stack allocates the
    arena of its largest step and carves every smaller step's workspace out
    of the same arena, so no step allocates: the large buffers, allocated
    anew on every step, are mapped and unmapped by the allocator each time,
    which costs more than stacking the models saves.
    """

    def __init__(self, params: ParamSet, m: int, n: int, w: int,
                 arena: np.ndarray | None = None):
        specs = self.specs(params, m, n, w)
        if arena is None:
            arena = np.empty(sum(math.prod(s) for _, s in specs))
        self.arena = arena
        offset = 0
        for name, shape in specs:
            size = math.prod(shape)
            setattr(self, name, arena[offset:offset + size].reshape(shape))
            offset += size
        self.mask = self.mask.view(np.bool_)[:self.pred.size].reshape(self.pred.shape)
        self.d_acts = self.gates.reshape(m, n, w, -1)  # series-major
        # the candidate activations are dead once the backward loop ends;
        # the hidden states, then the reset-gated ones, are written
        # series-major over them
        self.h_seq = self.cand.reshape(m, n, w, -1)
        self.grads = ParamSet(params.layout, self.grads)

    @staticmethod
    def specs(params: ParamSet, m: int, n: int, w: int) -> list:
        """(name, shape) of every float64 buffer of the arena, in order, the
        last holding the bool mask of the loss elements eight to a float64:
        the workspace's size, known without allocating it."""
        p, r, hid, nq = (params.p_dim, params.latent, params.hidden,
                         params.n_levels)
        layout = params.layout
        lat, out, head = (m, n, nq, r), (m, n, nq, p), nq * r
        return [
            ("x", (m, n, w, p)), ("y", (m, n, p)),
            ("xt", (m, w * n, p)), ("z_in", (m, w * n, r)),
            # the gate inputs are dead once the forward pass ends; the
            # backward pass writes the gate gradients (d_acts) over them
            ("gates", (m, w * n, 3 * hid)),
            ("zr", (w, m, n, 2 * hid)), ("cand", (w, m, n, hid)),
            ("hs", (w + 1, m, n, hid)),
            ("tmp", (m, n, hid)), ("tmp2", (m, n, hid)), ("tmp3", (m, n, hid)),
            ("d_rh", (m, n, hid)), ("dh", (m, n, hid)),
            ("z_sm", (m, n, w, r)), ("dz_in", (m, n * w, r)),
            ("dw_all", (m, 3 * hid, r)), ("db_all", (m, 3 * hid)),
            ("du", (m, hid, hid)), ("dmix", (m, r, p)),
            ("raw", (m, n, head)), ("lat", lat), ("sp", (m, n, nq - 1, r)),
            ("pred", out), ("err", out), ("elem", out), ("quad", out),
            ("dpred", out),
            ("draw", (m, n, head)), ("dwo", (m, head, hid)), ("dbo", (m, head)),
            ("dpen", (m, layout.size - layout.spec_offset)),
            ("grads", (m, layout.size)),
            ("mask", (-(-math.prod(out) // 8),)),
        ]


def _gate_inputs(params: ParamSet, rows: np.ndarray,
                 z_in: np.ndarray | None = None,
                 out: np.ndarray | None = None) -> np.ndarray:
    """The gate inputs (..., k, 3H) of k observed rows (k, P), columns in the
    row order of ``w_gates`` (update, reset, candidate): the latent
    projection (into ``z_in``), the fused input map and the biases. At
    latent >= 2 a row's gate inputs are the same in every product of two or
    more rows; a one-row product runs as a GEMV, which rounds differently."""
    z_in = np.matmul(rows, params.mix.swapaxes(-1, -2), z_in)
    gates = np.matmul(z_in, params.w_gates.swapaxes(-1, -2), out)
    gates += params.b_gates[..., None, :]
    return gates


def _gru_cells(params: ParamSet, g_zr, g_c, h_states, zr_all, cand,
               tmp: np.ndarray) -> None:
    """The GRU cell of ``params`` over the time steps of the gate inputs:
    ``h_states[t + 1]`` from ``h_states[t]``, the update and reset inputs
    ``g_zr[t]`` (..., k, 2H), which meet ``h @ u_zr.T`` in one product, and
    the candidate inputs ``g_c[t]`` (..., k, H), with the step's activations
    written into ``zr_all[t]`` and ``cand[t]``.

    Every step writes contiguous (k, .) blocks in place, and its matmuls make
    one GEMM call per model, so every model's state is bitwise its own
    pass's. A row's state is the same in every batch of two or more rows;
    one row runs as a GEMV, which rounds differently.
    """
    hid = params.hidden
    # transposed views, not copies: at k = 1 a copy would change the BLAS call
    u_zr_t, u_cand_t = params.u_zr.swapaxes(-1, -2), params.u_cand.swapaxes(-1, -2)
    with np.errstate(over="ignore"):
        for t in range(len(g_zr)):
            zr, c, h, h_next = zr_all[t], cand[t], h_states[t], h_states[t + 1]
            z = zr[..., :hid]
            # zr = sigmoid(g_zr + h @ u_zr.T), in place (out arguments are
            # positional: keyword parsing costs more than the small ops)
            np.matmul(h, u_zr_t, zr)
            np.add(zr, g_zr[t], zr)
            np.negative(zr, zr)
            np.exp(zr, zr)
            np.add(zr, 1.0, zr)
            np.divide(1.0, zr, zr)
            # c = tanh(g_c + (r * h) @ u_cand.T)
            np.multiply(zr[..., hid:], h, tmp)
            np.matmul(tmp, u_cand_t, c)
            np.add(c, g_c[t], c)
            np.tanh(c, c)
            # h_next = z * h + (1 - z) * c
            np.multiply(z, h, h_next)
            np.subtract(1.0, z, tmp)
            np.multiply(tmp, c, tmp)
            np.add(h_next, tmp, h_next)


def _encode(params: ParamSet, gates: np.ndarray, runs: int, starts: int,
            w: int, keep: int) -> np.ndarray:
    """The states of the first ``starts`` windows of each of ``runs``
    time-major runs, whose rows' gate inputs are ``gates`` (..., T * runs,
    3H): window b reads row b + t at step t, so one step's windows are the
    contiguous rows t * runs .. (t + starts) * runs, start-major. Returns
    the states after the last ``keep`` of w steps from a zero state,
    (keep, ..., starts * runs, H).

    One step's activations are rewritten every step, and two states take
    turns until the kept ones."""
    hid = params.hidden
    shape = params.mix.shape[:-2] + (starts * runs, hid)
    kept = np.empty((keep,) + shape)
    turns = [np.empty(shape), np.empty(shape)]
    h_states = ([np.zeros(shape)] + [turns[t % 2] for t in range(1, w - keep + 1)]
                + list(kept))
    # steps[t] views step t's rows in the contiguous ``gates``
    steps = np.ndarray((w,) + shape[:-1] + (3 * hid,), np.float64, gates, 0,
                       (runs * gates.strides[-2],) + gates.strides)
    _gru_cells(params, steps[..., :2 * hid], steps[..., 2 * hid:], h_states,
               [np.empty(shape[:-1] + (2 * hid,))] * w, [np.empty(shape)] * w,
               np.empty(shape))
    return kept


def _gru_forward(params: ParamSet, x: np.ndarray,
                 work: _Workspace | None = None) -> np.ndarray:
    """Final hidden state of a batch of windows.

    Without ``work`` (inference), ``x`` is (n, w, P), run by one model or
    by every model of a stack (:meth:`ParamSet.stack`, which returns (M, n,
    H)). With ``work`` (training), ``params`` is a stack, ``x`` holds one
    batch per model (M, n, w, P), and the workspace keeps every activation
    backprop reads. The windows are encoded time-major (see :func:`_encode`).
    """
    n, w, p = x.shape[-3:]
    if work is None:
        rows = x.transpose(1, 0, 2).reshape(w * n, p)
        return _encode(params, _gate_inputs(params, rows), n, 1, w, 1)[0]
    lead = params.mix.shape[:-2]
    hid = params.hidden
    np.copyto(work.xt.reshape(lead + (w, n, p)), x.swapaxes(-3, -2))
    gates = _gate_inputs(params, work.xt, work.z_in, work.gates)
    work.hs[0] = 0.0
    # time-major: gates[t] holds step t of every model
    gates = gates.reshape(lead + (w, n, 3 * hid)).swapaxes(0, -3)
    _gru_cells(params, gates[..., :2 * hid], gates[..., 2 * hid:], work.hs,
               work.zr, work.cand, work.tmp)
    return work.hs[w]


def _gru_backward(params: ParamSet, work: _Workspace, x: np.ndarray,
                  dh: np.ndarray, grads: ParamSet, frozen_mix: bool) -> None:
    """Add the GRU's gradients of a stack into ``grads``, from the
    activations :func:`_gru_forward` kept in ``work`` and the gradient
    ``dh`` of the final hidden state, which is overwritten. Without
    ``frozen_mix`` the encoder's share of the mixing gradient is added too."""
    m, n, w, p = x.shape
    hid, r = params.hidden, params.latent
    u_zr, u_cand = params.u_zr, params.u_cand
    omz, tmp, da_c, d_rh = work.tmp, work.tmp2, work.tmp3, work.d_rh
    # series-major, like the activations copied below, so the weight
    # gradients sum over windows in series-major order
    d_acts = work.d_acts
    for t in range(w - 1, -1, -1):
        h_prev, c = work.hs[t], work.cand[t]
        z, r_gate = work.zr[t][..., :hid], work.zr[t][..., hid:]
        acts = d_acts[:, :, t]
        # the gradients are formed in contiguous buffers, each copied once
        # into its strided slot
        np.subtract(1.0, z, omz)
        # da_c = (dh * (1 - z)) * (1 - c * c)
        np.multiply(dh, omz, da_c)
        np.multiply(c, c, tmp)
        np.subtract(1.0, tmp, tmp)
        np.multiply(da_c, tmp, da_c)
        acts[..., 2 * hid:] = da_c
        np.matmul(da_c, u_cand, d_rh)
        # d_z = (dh * (h_prev - c)) * z * (1 - z)
        np.subtract(h_prev, c, tmp)
        np.multiply(dh, tmp, tmp)
        np.multiply(tmp, z, tmp)
        np.multiply(tmp, omz, tmp)
        acts[..., :hid] = tmp
        # d_r = (d_rh * h_prev) * r * (1 - r)
        np.multiply(d_rh, h_prev, tmp)
        np.multiply(tmp, r_gate, tmp)
        np.subtract(1.0, r_gate, omz)
        np.multiply(tmp, omz, tmp)
        acts[..., hid:2 * hid] = tmp
        # dh = dh * z + d_rh * r + [d_z, d_r] @ u_zr
        np.multiply(dh, z, dh)
        np.multiply(d_rh, r_gate, tmp)
        np.add(dh, tmp, dh)
        np.matmul(acts[..., :2 * hid], u_zr, tmp)
        np.add(dh, tmp, dh)
    flat_acts = d_acts.reshape(m, n * w, 3 * hid)
    np.copyto(work.z_sm, work.z_in.reshape(m, w, n, r).swapaxes(1, 2))
    grads.w_gates += np.matmul(flat_acts.swapaxes(-1, -2),
                               work.z_sm.reshape(m, n * w, r), work.dw_all)
    grads.b_gates += np.add.reduce(flat_acts, 1, None, work.db_all)
    h_prevs = work.hs[:w].transpose(1, 2, 0, 3)
    states = work.h_seq.reshape(m, n * w, hid)
    np.copyto(work.h_seq, h_prevs)
    for lo in (0, hid):  # the update, then the reset rows of u_zr
        grads.u_zr[:, lo:lo + hid] += np.matmul(
            flat_acts[..., lo:lo + hid].swapaxes(-1, -2), states, work.du)
    np.multiply(work.zr[..., hid:].transpose(1, 2, 0, 3), h_prevs, work.h_seq)
    grads.u_cand += np.matmul(flat_acts[..., 2 * hid:].swapaxes(-1, -2),
                              states, work.du)
    if not frozen_mix:
        dz_in = np.matmul(flat_acts, params.w_gates, work.dz_in)
        grads.mix += np.matmul(dz_in.swapaxes(-1, -2), x.reshape(m, n * w, p),
                               work.dmix)


def _fan_from_hidden(params: ParamSet, h: np.ndarray,
                     work: _Workspace | None = None
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(fan (..., n, L, P), latent levels (..., n, L, r), raw head output
    (..., n, L, r)) of hidden states (..., n, H), in ``work`` when given:
    the base plus the cumulative softplus increments, each model's n * L
    levels decoded in one product."""
    q, r = params.n_levels, params.latent
    raw = np.matmul(h, params.w_head.swapaxes(-1, -2),
                    None if work is None else work.raw)
    raw += params.b_head[..., None, :]
    raw = latents = raw.reshape(h.shape[:-1] + (q, r))
    if q > 1:
        latents = np.empty_like(raw) if work is None else work.lat
        latents[..., 0, :] = raw[..., 0, :]
        rest = latents[..., 1:, :]
        np.cumsum(softplus(raw[..., 1:, :], None if work is None else work.sp),
                  axis=-2, out=rest)
        np.add(raw[..., :1, :], rest, rest)
    lead, p = h.shape[:-2], params.p_dim
    out = None if work is None else work.pred.reshape(lead + (-1, p))
    fan = np.matmul(latents.reshape(lead + (-1, r)), params.mix, out)
    return fan.reshape(raw.shape[:-1] + (p,)), latents, raw


def _check_levels(params: ParamSet, cfg: TrainConfig) -> None:
    """Refuse a quantile-mode config whose level count is not the head's."""
    if cfg.mode == "quantile" and cfg.n_levels != params.n_levels:
        raise ValueError(f"{cfg.n_levels} levels given but head "
                         f"produces {params.n_levels}")


def rollout(params: ParamSet, window: np.ndarray, h: int, cfg: TrainConfig
            ) -> np.ndarray:
    """The h-step forecast paths of every window of S runs (S, T, P), T >=
    w = ``cfg.w``, in the config's mode: the one forward pass outside
    training.

    Each length-w slice of a run is a window, n = T - w + 1 per run, so a
    batch of windows (n, w, P) is the case T = w. Returns the fan
    (S * n, h, L, P) of the head's L levels over the S * n windows run by
    run, with step j at ``[:, j - 1]``; level ``cfg.point_level`` is the
    point forecast, which is fed back, dropping the oldest window row each
    step. A rollout to h thus serves every horizon up to h.

    The windows of a run share prefixes. Step j < w of window i reads the
    last w - j rows of the window, then the j fed-back forecasts; window
    i + j starts on those same w - j rows from the same zero state. So each
    run's rows are projected once, its windows are encoded once, and step j
    of window i resumes from the state window i + j reached after w - j
    rows; the last windows of a run, which have no such neighbour, resume
    from starts encoded past the run's last window. A step then costs
    min(j, w) cell steps, not w. A lone window runs as two runs of itself:
    NumPy runs a one-row product as a GEMV, which rounds differently from a
    GEMM, whose rows do not depend on the row count. So at latent >= 2
    every forecast is bitwise that of encoding each step's windows whole,
    in any batch. At latent 1 the latent projection and a one-level head
    are one-column GEMVs, whose rows can depend on their place in the product.

    A stack of M models (:meth:`ParamSet.stack`) forecasts one step of the
    same windows, (M, S * n, 1, L, P), each model bitwise as on its own;
    it raises ``ValueError`` for h > 1.
    """
    if h < 1:
        raise ValueError("horizon must be >= 1")
    lead = params.flat.shape[:-1]  # () for one model, (M,) for a stack
    if lead and h > 1:
        raise ValueError("a stack of models forecasts one step only")
    _check_levels(params, cfg)
    level = cfg.point_level  # the one fed back
    x = np.asarray(window, dtype=np.float64)
    s, length, p = x.shape
    w, hid = cfg.w, params.hidden
    n = length - w + 1
    if n < 1:
        raise ValueError(f"a run of {length} rows holds no window of w = {w}")
    served = s * n
    if served == 1:  # a lone window runs as two runs of itself
        x, s = np.concatenate((x, x)), 2
    rows = s * n  # window-major inside: row i * s + r is window i of run r
    # starts past each run's last window, for the steps that resume there
    extra = min(h - 1, w - 1)
    # the runs time-major, padded with zero rows the extra starts never keep
    runs = np.zeros((length + extra, s, p))
    runs[:length] = x.swapaxes(0, 1)
    gates = _gate_inputs(params, runs.reshape(-1, p))
    # kept[k]: every start's state after w - extra + k rows
    kept = _encode(params, gates, s, n + extra, w, extra + 1)
    fan = np.empty(lead + (s, n, h, params.n_levels, p))
    if h > 1:  # a stack has no later step
        # the gate inputs of the fed-back rows, which a later step reads
        # after the state it resumes from
        fed = np.empty((h - 1, rows, 3 * hid))
        # a zero state, the activations, and two states that take turns
        zero, zr, c, tmp = (np.zeros((rows, k * hid)) for k in (1, 2, 1, 1))
        turns = [np.empty((rows, hid)), np.empty((rows, hid))] * w
    for j in range(h):
        if j == 0:
            state = kept[-1][..., :rows, :]
        else:
            h0 = kept[-1 - j][j * s:(j + n) * s] if j <= extra else zero
            seq = fed[max(0, j - w):j]
            _gru_cells(params, seq[..., :2 * hid], seq[..., 2 * hid:],
                       [h0] + turns, [zr] * len(seq), [c] * len(seq), tmp)
            state = turns[len(seq) - 1]
        fan_j = _fan_from_hidden(params, state)[0]
        fan[..., j, :, :] = fan_j.reshape(lead + (n, s) + fan_j.shape[-2:]
                                          ).swapaxes(-4, -3)
        if j < h - 1:
            _gate_inputs(params, fan_j[..., level, :], out=fed[j])
    return fan.reshape(lead + (rows,) + fan.shape[-3:])[..., :served, :, :, :]


# ---------------------------------------------------------------------------
# loss and gradients
# ---------------------------------------------------------------------------


def _anchor_penalty(params: ParamSet, anchor: ParamSet | None, eta: float,
                    grads: ParamSet | None, diff: np.ndarray | None = None):
    """The anchor pull eta * |d|^2, d the distance of the specialized
    tensors to the anchor's: a float for one model, one value per model of a
    stack. Its gradient 2 * eta * d is added into ``grads`` when given;
    ``diff`` holds d when given."""
    if anchor is None or eta == 0.0:
        return 0.0
    off = params.spec_offset  # mix is shared and frozen under an anchor
    d = np.subtract(params.flat[..., off:], anchor.flat[off:], diff)
    pulls = [eta * float(row @ row) for row in d.reshape(-1, d.shape[-1])]
    if grads is not None:
        d *= 2.0 * eta
        grads.flat[..., off:] += d
    return pulls[0] if d.ndim == 1 else np.array(pulls)


def batch_loss(params: ParamSet, anchor: ParamSet | None, x: np.ndarray,
               y: np.ndarray, cfg: TrainConfig) -> float:
    """Forward-only objective value of one model on one batch: the mean
    loss of its one-step :func:`rollout` plus the anchor pull."""
    if len(x) == 0:
        raise ValueError("empty batch")
    kind, pred = objective(rollout(params, x, 1, cfg), cfg)
    data = float(np.mean(loss_elem(kind, pred[:, 0], y, cfg)))
    return data + _anchor_penalty(params, anchor, cfg.l2sp_weight, None)


def loss_and_gradients(params: ParamSet, anchor: ParamSet | None, x: np.ndarray,
                       y: np.ndarray, cfg: TrainConfig,
                       grads: ParamSet | None = None,
                       work: _Workspace | None = None,
                       freeze_mix: bool = False) -> tuple:
    """Batch objective and its exact gradient, of one model or of a stack.

    The data term is the batch mean of the Huber loss of the fan's first
    level, its linear base (point mode; the levels above it, if the head has
    any, get zero gradient), or of the pinball loss of every level (quantile
    mode); one head forward and one head backward serve both. With an
    anchor, the squared distance of the specialized tensors to the anchor is
    added with weight ``l2sp_weight``. The shared mixing matrix is frozen
    (zero gradient, none of it computed) under an anchor or ``freeze_mix``,
    as :func:`train_stacked` freezes it. The gradient is accumulated into
    ``grads`` when given, which must then be all zero, and into a new
    :class:`ParamSet` otherwise; it is returned.

    A stack of M models (:meth:`ParamSet.stack`) takes one batch per model,
    ``x`` (M, n, w, P) and ``y`` (M, n, P), and returns an array of M
    losses; each model's loss and gradient are bitwise those of its own
    call. Every buffer of the step is taken from ``work``, a
    :class:`_Workspace` of the stack and batch size, made for the call when
    not given.
    """
    if x.shape[-3] == 0:
        raise ValueError("empty batch")
    _check_levels(params, cfg)
    if grads is None:
        grads = params.zeros_like()
    single = params.flat.ndim == 1
    stack, g = params, grads
    if single:  # a stack of one model computes bitwise the same
        stack, g = (ParamSet(s.layout, s.flat[None]) for s in (params, grads))
        x, y = x[None], y[None]
    m, n, w, p = x.shape
    if work is None:
        work = _Workspace(stack, m, n, w)
    frozen = anchor is not None or freeze_mix
    h = _gru_forward(stack, x, work)
    preds, latents, raw = _fan_from_hidden(stack, h, work)
    nq, r = stack.n_levels, stack.latent
    dpreds = work.dpred
    if cfg.mode == "quantile":
        q = np.asarray(cfg.quantiles).reshape(-1, 1)
        u = np.subtract(y[:, :, None, :], preds, work.err)
        below = np.less(u, 0.0, work.mask)
        elem = np.subtract(q, below, work.elem)
        elem *= u
        loss = np.add.reduce(elem, (1, 2, 3)) / (n * nq * p)
        np.subtract(below, q, dpreds)
        dpreds /= n * nq * p
    else:  # Huber on the base alone: the levels above it get zero gradient
        err, elem, quad, small = (buf[:, :, 0] for buf in (
            work.err, work.elem, work.quad, work.mask))
        np.subtract(preds[:, :, 0], y, err)
        # each model's mean, as np.mean reduces it
        loss = np.add.reduce(huber_elem(err, cfg.huber_delta, elem, quad, small),
                             (1, 2)) / (n * p)
        dpred = huber_deriv(err, cfg.huber_delta, dpreds[:, :, 0])
        dpred /= n * p
        dpreds[:, :, 1:] = 0.0
    # every model's n * L levels as the rows of one product
    dpreds = dpreds.reshape(m, n * nq, p)
    if not frozen:
        g.mix += np.matmul(latents.reshape(m, n * nq, r).swapaxes(-1, -2),
                           dpreds, work.dmix)
    draw = np.matmul(dpreds, stack.mix.swapaxes(-1, -2),
                     work.draw.reshape(m, n * nq, r)).reshape(m, n, nq, r)
    if nq > 1:
        # suffix sums in place: increment j feeds every level from j on,
        # the base all
        np.cumsum(draw[:, :, ::-1], axis=2, out=draw[:, :, ::-1])
        with np.errstate(over="ignore"):
            draw[:, :, 1:] *= _sigmoid(raw[:, :, 1:], work.sp)
    g.w_head += np.matmul(work.draw.swapaxes(-1, -2), h, work.dwo)
    g.b_head += np.add.reduce(work.draw, 1, None, work.dbo)
    dh = np.matmul(work.draw, stack.w_head, work.dh)

    _gru_backward(stack, work, x, dh, g, frozen)
    loss += _anchor_penalty(stack, anchor, cfg.l2sp_weight, g, work.dpen)
    return (float(loss[0]) if single else loss), grads


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


class Adam:
    """Standard Adam with bias correction over the flat parameter buffer of
    one model, or of each model of a stack with its own moments and step
    count."""

    def __init__(self, params: ParamSet, lr: float, beta1: float, beta2: float,
                 eps: float, skip_mix: bool = False):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.start = params.spec_offset if skip_mix else 0
        shape = params.flat[..., self.start:].shape
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = np.zeros(shape[:-1], dtype=np.int64)
        self._scratch = np.empty((2,) + shape)

    def step(self, params: ParamSet, grads: ParamSet, rows=...) -> None:
        """One update of the models ``rows`` of the stack ``params`` (all of
        them by default, and for one model) from ``grads``, which holds their
        gradients in order. Rows given as a list are gathered and written
        back; a slice works in place."""
        steps = self.t[rows] + 1
        k = int(steps.flat[0])
        if (steps != k).any():
            raise ValueError("models that step together must have taken "
                             "equal steps")
        self.t[rows] = steps
        c1 = 1.0 - self.beta1 ** k
        c2 = 1.0 - self.beta2 ** k
        m, v, flat = self.m[rows], self.v[rows], params.flat[rows]
        a, b = self._scratch[:, rows]
        g = grads.flat[..., self.start:]
        m *= self.beta1
        m += np.multiply(g, 1.0 - self.beta1, a)
        v *= self.beta2
        np.multiply(g, g, a)
        a *= 1.0 - self.beta2
        v += a
        # lr * (m / c1) / (sqrt(v / c2) + eps)
        np.divide(m, c1, a)
        a *= self.lr
        np.divide(v, c2, b)
        np.sqrt(b, b)
        b += self.eps
        a /= b
        flat[..., self.start:] -= a
        # writing a view back onto itself copies nothing
        self.m[rows], self.v[rows], params.flat[rows] = m, v, flat


def clip_gradients_(grads: ParamSet, max_norm: float, skip_mix: bool = False):
    """Scale each model's gradients so their global L2 norm is at most
    ``max_norm``; returns the norm before scaling, one per model of a
    stack."""
    g = grads.flat[..., grads.spec_offset if skip_mix else 0:]
    norms = []
    for row in g.reshape(-1, g.shape[-1]):
        norm = float(np.sqrt(row @ row))
        if max_norm > 0 and norm > max_norm:
            row *= max_norm / norm
        norms.append(norm)
    return norms[0] if g.ndim == 1 else norms


def train_stacked(initials: list[ParamSet], anchor: ParamSet | None,
                  data: list[tuple[np.ndarray, np.ndarray]], cfg: TrainConfig,
                  seeds: list[int], epochs: int | None = None,
                  freeze_mix: bool = False) -> list[ParamSet]:
    """Train M models in lock-step, each bitwise as :func:`train` trains it
    on its own.

    Model i starts at ``initials[i]`` and trains on the (window, target)
    pairs ``data[i]``, shuffled by the seed ``seeds[i]``; the anchor,
    ``freeze_mix``, the epochs and the rest of ``cfg`` are shared. Each
    model keeps its own permutations, Adam moments and step count. At every
    tick each unfinished model takes its next step, and the models whose
    batches have the same size take it in one stacked call. Every buffer of
    a step lives in one workspace, allocated once per stack. Stacks are
    bounded: models whose workspaces at the fit's largest batch together
    exceed :data:`STACK_BYTES` train as consecutive stacks of as many as
    fit in it (at least one), each with its own parameters, moments and
    arena. Stacking never changes a model's bits, however the fit is
    split. If models diverge, the :class:`TrainingDiverged` of the
    lowest-index one is raised, from the first stack that holds one, as
    training them one after another would raise it.
    """
    if not data:
        return []
    if any(len(x) == 0 for x, _ in data):
        raise ValueError("empty training window set")
    sizes = [len(x) for x, _ in data]
    batch = [min(cfg.batch, n) for n in sizes]
    w = data[0][0].shape[1]
    one = _Workspace.specs(initials[0], 1, max(batch), w)
    depth = max(1, STACK_BYTES // (8 * sum(math.prod(s) for _, s in one)))
    if len(data) > depth:
        # each part's largest batch is at most the fit's: none splits again
        return [trained for lo in range(0, len(data), depth)
                for trained in train_stacked(
                    initials[lo:lo + depth], anchor, data[lo:lo + depth], cfg,
                    seeds[lo:lo + depth], epochs, freeze_mix)]
    params = ParamSet.stack(initials)
    skip_mix = anchor is not None or freeze_mix
    opt = Adam(params, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps_adam,
               skip_mix=skip_mix)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    per_epoch = [-(-n // bs) for n, bs in zip(sizes, batch)]
    n_epochs = cfg.epochs if epochs is None else epochs
    largest = _Workspace(params, len(data), max(batch), w)
    spaces = {(len(data), max(batch)): largest}
    orders = [None] * len(data)
    diverged = {}
    live = len(data)  # models from here on are dropped: a lower one diverged
    for tick in range(n_epochs * max(per_epoch)):
        # this tick's batch of every unfinished model, by batch size
        groups = {}
        for i in range(live):
            epoch, pos = divmod(tick, per_epoch[i])
            if epoch >= n_epochs:
                continue
            if pos == 0:
                orders[i] = rngs[i].permutation(sizes[i])
            idx = orders[i][pos * batch[i]:(pos + 1) * batch[i]]
            groups.setdefault(len(idx), []).append((i, idx))
        for n, members in groups.items():
            members = [(i, idx) for i, idx in members if i < live]
            while members:
                rows = [i for i, _ in members]
                key = (len(rows), n)
                if key not in spaces:
                    spaces[key] = _Workspace(params, *key, w, largest.arena)
                work = spaces[key]
                # (the indices are valid; "clip" writes straight into out,
                # where "raise" would gather into a temporary first)
                for j, (i, idx) in enumerate(members):
                    np.take(data[i][0], idx, axis=0, out=work.x[j], mode="clip")
                    np.take(data[i][1], idx, axis=0, out=work.y[j], mode="clip")
                # all models step on the stack itself, a contiguous run of
                # them on a view, any other set on a gathered copy
                sel = (slice(rows[0], rows[-1] + 1)
                       if rows[-1] - rows[0] == len(rows) - 1 else rows)
                group = (params if len(rows) == len(data)
                         else ParamSet(params.layout, params.flat[sel]))
                work.grads.flat.fill(0.0)
                losses, _ = loss_and_gradients(group, anchor, work.x, work.y,
                                               cfg, work.grads, work, skip_mix)
                bad = [i for i, loss in zip(rows, losses) if not np.isfinite(loss)]
                if not bad:
                    clip_gradients_(work.grads, cfg.clip, skip_mix=skip_mix)
                    opt.step(params, work.grads, sel)
                    break
                for i in bad:
                    epoch = tick // per_epoch[i]
                    diverged[i] = TrainingDiverged(
                        f"non-finite training loss in epoch {epoch}; "
                        f"last finite epoch was {epoch - 1}", epoch - 1)
                live = min(diverged)
                # the others' step again without the diverged ones: every
                # model computes bitwise the same in any stack
                members = [(i, idx) for i, idx in members if i < live]
    if diverged:
        raise diverged[live]
    return [ParamSet(params.layout, row.copy()) for row in params.flat]


def train(initial: ParamSet, anchor: ParamSet | None, x: np.ndarray,
          y: np.ndarray, cfg: TrainConfig, epochs: int | None = None,
          freeze_mix: bool = False) -> ParamSet:
    """Adam training over seeded mini-batch shuffles of (window, target) pairs.

    Deterministic for a given seed: the shuffle stream, batch boundaries, and
    reduction order are all fixed. The shared mixing matrix is frozen when an
    anchor is present (prototype training) or when ``freeze_mix`` is set
    explicitly (the TRAIN+VAL refit, which must keep the encoder shared with
    already-specialized prototypes). A non-finite loss aborts with the last
    finite epoch in the exception. One model of :func:`train_stacked`.
    """
    return train_stacked([initial], anchor, [(x, y)], cfg, [cfg.seed],
                         epochs, freeze_mix)[0]


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(params: ParamSet, w: int, mode: str, path: str) -> None:
    """Binary checkpoint: magic, (r, P, H, w, L, mode) header, then tensors
    in declared order as little-endian float64, written atomically."""
    with atomic_open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<QQQQQQ", params.latent, params.p_dim,
                             params.hidden, w, params.n_levels,
                             _MODE_FLAGS[mode]))
        fh.write(params.flat.astype("<f8").tobytes())


def load_checkpoint(path: str) -> tuple[ParamSet, int, str]:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: bad checkpoint magic {magic!r}")
        head = fh.read(48)
        if len(head) != 48:
            raise ValueError(f"{path}: truncated checkpoint header")
        latent, p_dim, hidden, w, n_levels, mode_flag = struct.unpack("<QQQQQQ", head)
        if mode_flag not in _FLAG_MODES:
            raise ValueError(f"{path}: unknown mode flag {mode_flag}")
        if min(latent, p_dim, hidden, w, n_levels) < 1:
            raise ValueError(f"{path}: checkpoint dimensions must be >= 1")
        layout = _layout(p_dim, latent, hidden, n_levels)
        # the payload size the header implies, checked against the file
        # before anything is allocated for it
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload < layout.size * 8:
            raise ValueError(f"{path}: truncated checkpoint payload")
        if payload > layout.size * 8:
            raise ValueError(f"{path}: trailing bytes in checkpoint")
        buf = fh.read(layout.size * 8)
    flat = np.frombuffer(buf, dtype="<f8").astype(np.float64)
    return ParamSet(layout, flat), int(w), _FLAG_MODES[mode_flag]
