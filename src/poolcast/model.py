"""Recurrent forecaster with exact reverse-mode gradients.

Architecture: a learned linear mixing matrix projects each P-dimensional
observation to an r-dimensional latent, a single-layer GRU consumes the
latent sequence, and a linear head maps the final hidden state back to the
latent space; decoding to observation space reuses the transpose of the
mixing matrix. A second head parameterizes a monotone fan of quantiles as a
base plus cumulative softplus increments, so predicted quantile levels can
never cross in latent space.

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
from .losses import huber_deriv, huber_elem, loss_elem

CHECKPOINT_MAGIC = b"PCM1"
_MODE_FLAGS = {"point": 0, "quantile": 1}
_FLAG_MODES = {v: k for k, v in _MODE_FLAGS.items()}


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


def softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-x) overflows to inf for very negative x, which correctly yields 0;
    # callers silence that overflow with one np.errstate around their loop
    return 1.0 / (1.0 + np.exp(-x))


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
    Tensors are views into one flat float64 buffer so the optimizer and
    gradient clipping can operate with a few vectorized calls; ``mix`` sits
    first, which makes the specialized part the contiguous tail.
    """

    NAMES = ("mix", "w_update", "u_update", "b_update", "w_reset", "u_reset",
             "b_reset", "w_cand", "u_cand", "b_cand", "w_out", "b_out",
             "w_quant", "b_quant")

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
        return self.w_update.shape[-2]

    @property
    def n_levels(self) -> int:
        return self.w_quant.shape[-2] // self.latent

    def copy(self) -> "ParamSet":
        return ParamSet(self.layout, self.flat.copy())

    def zeros_like(self) -> "ParamSet":
        return ParamSet(self.layout, np.zeros_like(self.flat))

    @staticmethod
    def shapes(p_dim: int, latent: int, hidden: int, n_levels: int):
        return (
            ("mix", (latent, p_dim)),
            ("w_update", (hidden, latent)), ("u_update", (hidden, hidden)),
            ("b_update", (hidden,)),
            ("w_reset", (hidden, latent)), ("u_reset", (hidden, hidden)),
            ("b_reset", (hidden,)),
            ("w_cand", (hidden, latent)), ("u_cand", (hidden, hidden)),
            ("b_cand", (hidden,)),
            ("w_out", (latent, hidden)), ("b_out", (latent,)),
            ("w_quant", (n_levels * latent, hidden)), ("b_quant", (n_levels * latent,)),
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
    """Fresh parameters: weights ~ U(-1/sqrt(fan_in), +1/sqrt(fan_in)), biases zero."""
    rng = np.random.default_rng(seed)
    layout = _layout(p_dim, latent, hidden, n_levels)
    flat = np.zeros(layout.size)
    for name, shape, lo, hi in layout.slots:
        if not name.startswith("b_"):
            bound = 1.0 / np.sqrt(shape[1])  # fan-in
            flat[lo:hi] = rng.uniform(-bound, bound, size=hi - lo)
    return ParamSet(layout, flat)


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


# ---------------------------------------------------------------------------
# forward graph
# ---------------------------------------------------------------------------


@dataclass
class _GruCache:
    x: np.ndarray          # inputs (n, w, P)
    z_in: np.ndarray       # encoded inputs, time-major (w, n, r)
    zr: np.ndarray         # update and reset activations, time-major (w, n, 2H)
    cand: np.ndarray       # candidate activations, time-major (w, n, H)
    h_states: np.ndarray   # time-major (w+1, n, H), h_states[0] = 0
    w_all: np.ndarray      # input weights of the three gates, (3H, r)
    u_zr: np.ndarray       # recurrent weights of update and reset, (2H, H)


def _gru_forward(params: ParamSet, x: np.ndarray, keep: bool = True
                 ) -> tuple[np.ndarray, _GruCache | None]:
    """Final hidden state of a batch of windows (n, w, P), plus the
    activations backprop needs when ``keep``.

    The windows are encoded time-major, so every step reads and writes
    contiguous (n, .) blocks in place; ``x`` may itself be a view of
    time-major memory, which then encodes without a copy. Without ``keep``
    two hidden-state buffers take turns. A stack of M models
    (:meth:`ParamSet.stack`) runs every model on the same windows without
    ``keep`` and returns (M, n, H): each step's matmuls make one GEMM call
    per model, so every model's state is bitwise its own pass's.
    """
    n, w, p = x.shape
    hid = params.hidden
    lead = params.mix.shape[:-2]  # () for one model, (M,) for a stack
    z_in = x.transpose(1, 0, 2).reshape(w * n, p) @ params.mix.swapaxes(-1, -2)
    w_all = np.concatenate([params.w_update, params.w_reset, params.w_cand], -2)
    b_all = np.concatenate([params.b_update, params.b_reset, params.b_cand], -1)
    gates_in = z_in @ w_all.swapaxes(-1, -2)
    gates_in += b_all[..., None, :]
    # time-major: gates_in[t] holds step t of every model
    gates_in = gates_in.reshape(lead + (w, n, 3 * hid)).swapaxes(0, -3)
    g_zr, g_c = gates_in[..., :2 * hid], gates_in[..., 2 * hid:]
    u_zr = np.concatenate([params.u_update, params.u_reset], -2)
    # transposed views, not copies: at n = 1 a copy would change the BLAS call
    u_zr_t, u_cand_t = u_zr.swapaxes(-1, -2), params.u_cand.swapaxes(-1, -2)

    step = lead + (n, hid)
    if keep:
        zr_all = np.empty((w,) + lead + (n, 2 * hid))
        cand, h_states = np.empty((w,) + step), np.empty((w + 1,) + step)
        h_states[0] = 0.0
    else:
        # one step's activations, rewritten every step, and two hidden
        # states that take turns
        zr_all = [np.empty(lead + (n, 2 * hid))] * w
        cand = [np.empty(step)] * w
        h_states = [np.zeros(step), np.empty(step)] * (w // 2 + 1)
    tmp = np.empty(step)
    with np.errstate(over="ignore"):
        for t in range(w):
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
    if not keep:
        return h_states[w], None
    return h_states[w], _GruCache(x, z_in.reshape(w, n, params.latent),
                                  zr_all, cand, h_states, w_all, u_zr)


def _gru_backward(params: ParamSet, cache: _GruCache, dh: np.ndarray,
                  grads: ParamSet) -> None:
    n, w, _ = cache.x.shape
    hid = params.hidden
    u_zr, u_cand = cache.u_zr, params.u_cand
    # series-major, like the activations transposed back below, so the
    # weight gradients sum over windows in series-major order
    d_acts = np.empty((n, w, 3 * hid))
    dh = dh.copy()
    for t in range(w - 1, -1, -1):
        h_prev = cache.h_states[t]
        z, r, c = cache.zr[t, :, :hid], cache.zr[t, :, hid:], cache.cand[t]
        one_m_z = 1.0 - z
        da_c = (dh * one_m_z) * (1.0 - c * c)
        d_rh = da_c @ u_cand
        d_acts[:, t, :hid] = (dh * (h_prev - c)) * z * one_m_z
        d_acts[:, t, hid:2 * hid] = (d_rh * h_prev) * r * (1.0 - r)
        d_acts[:, t, 2 * hid:] = da_c
        dh = dh * z + d_rh * r + d_acts[:, t, :2 * hid] @ u_zr
    flat_acts = d_acts.reshape(n * w, 3 * hid)
    flat_z = cache.z_in.transpose(1, 0, 2).reshape(n * w, params.latent)
    dw_all = flat_acts.T @ flat_z
    grads.w_update += dw_all[:hid]
    grads.w_reset += dw_all[hid:2 * hid]
    grads.w_cand += dw_all[2 * hid:]
    db_all = flat_acts.sum(axis=0)
    grads.b_update += db_all[:hid]
    grads.b_reset += db_all[hid:2 * hid]
    grads.b_cand += db_all[2 * hid:]
    h_prevs = cache.h_states[:w].transpose(1, 0, 2).reshape(n * w, hid)
    grads.u_update += d_acts[:, :, :hid].reshape(n * w, hid).T @ h_prevs
    grads.u_reset += d_acts[:, :, hid:2 * hid].reshape(n * w, hid).T @ h_prevs
    rh_all = (cache.zr[:, :, hid:] * cache.h_states[:w]).transpose(1, 0, 2)
    rh_all = rh_all.reshape(n * w, hid)
    grads.u_cand += d_acts[:, :, 2 * hid:].reshape(n * w, hid).T @ rh_all
    dz_in = flat_acts @ cache.w_all
    grads.mix += dz_in.T @ cache.x.reshape(n * w, params.p_dim)


def _point_from_hidden(params: ParamSet, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    latent = h @ params.w_out.swapaxes(-1, -2) + params.b_out[..., None, :]
    return latent @ params.mix, latent


def _quantiles_from_hidden(params: ParamSet, h: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    q, r = params.n_levels, params.latent
    raw = h @ params.w_quant.swapaxes(-1, -2) + params.b_quant[..., None, :]
    raw = raw.reshape(h.shape[:-1] + (q, r))
    latents = np.empty_like(raw)
    latents[..., 0, :] = raw[..., 0, :]
    if q > 1:
        latents[..., 1:, :] = raw[..., :1, :] + np.cumsum(
            softplus(raw[..., 1:, :]), axis=-2)
    return latents @ params.mix[..., None, :, :], latents, raw


def rollout(params: ParamSet, window: np.ndarray, h: int, cfg: TrainConfig
            ) -> tuple[np.ndarray, np.ndarray | None]:
    """The h-step forecast paths of a batch of windows (n, w, P) in the
    config's mode.

    One-step predictions are fed back, dropping the oldest window row each
    step; in quantile mode the value fed back is the median path. Returns
    ``(point, fan)`` with step j at ``[:, j - 1]``: in point mode the point
    forecasts (n, h, P) and None; in quantile mode the median path
    (n, h, P) and the fan (n, h, Q, P) at ``cfg.quantiles``. A rollout to h
    thus serves every horizon up to h. Every forecast outside training,
    :func:`batch_loss` and :func:`batch_losses` runs through here.
    """
    if h < 1:
        raise ValueError("horizon must be >= 1")
    quantile = cfg.mode == "quantile"
    if quantile:
        if len(cfg.quantiles) != params.n_levels:
            raise ValueError(f"{len(cfg.quantiles)} levels given but head "
                             f"produces {params.n_levels}")
        med = median_index(cfg.quantiles)
    x = np.asarray(window, dtype=np.float64)
    n, w, p = x.shape
    # the windows and the fed-back forecasts, time-major: step j reads rows
    # j .. j + w - 1, which the GRU encodes without a copy
    path = np.empty((w + h - 1, n, p))
    path[:w] = x.transpose(1, 0, 2)
    point = np.empty((n, h, p))
    fan = np.empty((n, h, params.n_levels, p)) if quantile else None
    for step in range(h):
        hidden, _ = _gru_forward(params, path[step:step + w].transpose(1, 0, 2),
                                 keep=False)
        if quantile:
            fan[:, step] = _quantiles_from_hidden(params, hidden)[0]
            point[:, step] = fan[:, step, med]
        else:
            point[:, step] = _point_from_hidden(params, hidden)[0]
        if step < h - 1:
            path[w + step] = point[:, step]
    return point, fan


# ---------------------------------------------------------------------------
# loss and gradients
# ---------------------------------------------------------------------------


def _anchor_penalty(params: ParamSet, anchor: ParamSet, eta: float,
                    grads: ParamSet | None) -> float:
    if anchor is None or eta == 0.0:
        return 0.0
    off = params.spec_offset  # mix is shared and frozen under an anchor
    d = params.flat[off:] - anchor.flat[off:]
    if grads is not None:
        grads.flat[off:] += 2.0 * eta * d
    return eta * float(d @ d)


def _loss_elems(params: ParamSet, x: np.ndarray, y: np.ndarray,
                cfg: TrainConfig) -> np.ndarray:
    """Elementwise one-step data loss of one model or a stack on one batch."""
    if len(x) == 0:
        raise ValueError("empty batch")
    h, _ = _gru_forward(params, x, keep=False)
    if cfg.mode == "point":
        return loss_elem("huber", _point_from_hidden(params, h)[0], y, cfg)
    return loss_elem("pinball", _quantiles_from_hidden(params, h)[0], y, cfg)


def batch_loss(params: ParamSet, anchor: ParamSet | None, x: np.ndarray,
               y: np.ndarray, cfg: TrainConfig) -> float:
    """Forward-only objective value on one batch (data term + anchor pull)."""
    data = float(np.mean(_loss_elems(params, x, y, cfg)))
    return data + _anchor_penalty(params, anchor, cfg.l2sp_weight, None)


def batch_losses(models: list[ParamSet], x: np.ndarray, y: np.ndarray,
                 cfg: TrainConfig) -> list[float]:
    """:func:`batch_loss` without anchor of every model, in one stacked
    forward pass; each value is bitwise that model's own ``batch_loss``."""
    # each model's losses are a contiguous block, reduced as on its own
    return [float(np.mean(e))
            for e in _loss_elems(ParamSet.stack(models), x, y, cfg)]


def loss_and_gradients(params: ParamSet, anchor: ParamSet | None, x: np.ndarray,
                       y: np.ndarray, cfg: TrainConfig,
                       grads: ParamSet | None = None) -> tuple[float, ParamSet]:
    """Batch objective and its exact gradient.

    The data term is the batch mean of the Huber loss (point mode) or of the
    multi-quantile pinball loss (quantile mode). With an anchor, the squared
    distance of the specialized tensors to the anchor is added with weight
    ``l2sp_weight``, and the shared mixing matrix is frozen (zero gradient).
    The gradient is accumulated into ``grads`` when given, which must then be
    all zero, and into a new :class:`ParamSet` otherwise; it is returned.
    """
    if len(x) == 0:
        raise ValueError("empty batch")
    n = x.shape[0]
    p = params.p_dim
    if grads is None:
        grads = params.zeros_like()
    h, cache = _gru_forward(params, x)

    if cfg.mode == "point":
        pred, latent = _point_from_hidden(params, h)
        err = pred - y
        loss = float(np.mean(huber_elem(err, cfg.huber_delta)))
        dpred = huber_deriv(err, cfg.huber_delta) / (n * p)
        grads.mix += latent.T @ dpred
        dlatent = dpred @ params.mix.T
        grads.w_out += dlatent.T @ h
        grads.b_out += dlatent.sum(axis=0)
        dh = dlatent @ params.w_out
    else:
        preds, latents, raw = _quantiles_from_hidden(params, h)
        nq = params.n_levels
        q = np.asarray(cfg.quantiles).reshape(1, -1, 1)
        u = y[:, None, :] - preds
        loss = float(np.mean(u * (q - (u < 0))))
        dpreds = ((u < 0) - q) / (n * nq * p)
        grads.mix += np.einsum("nqr,nqp->rp", latents, dpreds)
        dlatents = dpreds @ params.mix.T
        # suffix sums: increment m feeds every level j >= m
        suffix = np.cumsum(dlatents[:, ::-1], axis=1)[:, ::-1]
        draw = np.empty_like(dlatents)
        draw[:, 0] = suffix[:, 0]     # base feeds all levels
        if nq > 1:
            with np.errstate(over="ignore"):
                draw[:, 1:] = suffix[:, 1:] * _sigmoid(raw[:, 1:])
        draw = draw.reshape(n, nq * params.latent)
        grads.w_quant += draw.T @ h
        grads.b_quant += draw.sum(axis=0)
        dh = draw @ params.w_quant

    _gru_backward(params, cache, dh, grads)
    loss += _anchor_penalty(params, anchor, cfg.l2sp_weight, grads)
    if anchor is not None:
        grads.mix[:] = 0.0
    return loss, grads


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


class Adam:
    """Standard Adam with bias correction over the flat parameter buffer."""

    def __init__(self, params: ParamSet, lr: float, beta1: float, beta2: float,
                 eps: float, skip_mix: bool = False):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.start = params.spec_offset if skip_mix else 0
        size = params.flat.size - self.start
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, params: ParamSet, grads: ParamSet) -> None:
        self.t += 1
        g = grads.flat[self.start:]
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * g
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * (g * g)
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        params.flat[self.start:] -= self.lr * (self.m / c1) / (np.sqrt(self.v / c2) + self.eps)


def clip_gradients_(grads: ParamSet, max_norm: float, skip_mix: bool = False) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``."""
    g = grads.flat[grads.spec_offset if skip_mix else 0:]
    norm = float(np.sqrt(g @ g))
    if max_norm > 0 and norm > max_norm:
        g *= max_norm / norm
    return norm


def train(initial: ParamSet, anchor: ParamSet | None, x: np.ndarray,
          y: np.ndarray, cfg: TrainConfig, epochs: int | None = None,
          freeze_mix: bool = False) -> ParamSet:
    """Adam training over seeded mini-batch shuffles of (window, target) pairs.

    Deterministic for a given seed: the shuffle stream, batch boundaries, and
    reduction order are all fixed. The shared mixing matrix is frozen when an
    anchor is present (prototype training) or when ``freeze_mix`` is set
    explicitly (the TRAIN+VAL refit, which must keep the encoder shared with
    already-specialized prototypes). A non-finite loss aborts with the last
    finite epoch in the exception.
    """
    if len(x) == 0:
        raise ValueError("empty training window set")
    params = initial.copy()
    grads = params.zeros_like()  # one buffer, zeroed before every step
    skip_mix = anchor is not None or freeze_mix
    opt = Adam(params, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps_adam,
               skip_mix=skip_mix)
    rng = np.random.default_rng(cfg.seed)
    n = len(x)
    bs = min(cfg.batch, n)
    n_epochs = cfg.epochs if epochs is None else epochs
    for epoch in range(n_epochs):
        order = rng.permutation(n)
        for lo in range(0, n, bs):
            idx = order[lo:lo + bs]
            grads.flat.fill(0.0)
            loss, _ = loss_and_gradients(params, anchor, x[idx], y[idx], cfg,
                                         grads)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite training loss in epoch {epoch}; "
                    f"last finite epoch was {epoch - 1}", epoch - 1)
            clip_gradients_(grads, cfg.clip, skip_mix=skip_mix)
            opt.step(params, grads)
    return params


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(params: ParamSet, w: int, mode: str, path: str) -> None:
    """Binary checkpoint: magic, (r, P, H, w, Q, mode) header, then tensors
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
