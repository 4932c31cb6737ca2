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
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .data import atomic_open
from .losses import huber_deriv, huber_elem, pinball_elem

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

    def __init__(self, *tensors):
        """``ParamSet(*tensors)`` copies the 14 tensors, in :attr:`NAMES`
        order, into a new flat buffer; ``ParamSet(layout, flat)`` adopts the
        float64 buffer ``flat`` of a cached :class:`_Layout` without copying."""
        if len(tensors) == 2 and isinstance(tensors[0], _Layout):
            layout, flat = tensors
            if flat.dtype != np.float64 or flat.shape != (layout.size,):
                raise ValueError(f"expected a float64 buffer of {layout.size} values")
        else:
            if len(tensors) != len(self.NAMES):
                raise ValueError(f"expected {len(self.NAMES)} tensors")
            latent, p_dim = tensors[0].shape
            hidden = tensors[1].shape[0]
            n_levels = tensors[12].shape[0] // latent
            layout = _layout(p_dim, latent, hidden, n_levels)
            flat = np.empty(layout.size)
            for (name, shape, lo, hi), t in zip(layout.slots, tensors):
                t = np.asarray(t, dtype=np.float64)
                if t.shape != shape:
                    raise ValueError(f"{name}: expected shape {shape}, got {t.shape}")
                flat[lo:hi].reshape(shape)[...] = t
        self.layout = layout
        self.flat = flat
        for name, shape, lo, hi in layout.slots:
            setattr(self, name, flat[lo:hi].reshape(shape))
        self.spec_offset = layout.spec_offset  # everything after mix is specialized

    def __reduce__(self):
        # rebuild the tensor views over the unpickled buffer
        return ParamSet, (self.layout, self.flat)

    @property
    def latent(self) -> int:
        return self.mix.shape[0]

    @property
    def p_dim(self) -> int:
        return self.mix.shape[1]

    @property
    def hidden(self) -> int:
        return self.w_update.shape[0]

    @property
    def n_levels(self) -> int:
        return self.w_quant.shape[0] // self.latent

    def tensors(self) -> list[np.ndarray]:
        return [getattr(self, n) for n in self.NAMES]

    def copy(self) -> "ParamSet":
        return ParamSet(self.layout, self.flat.copy())

    def zeros_like(self) -> "ParamSet":
        return ParamSet(self.layout, np.zeros(self.layout.size))

    def max_diff(self, other: "ParamSet", specialized_only: bool = False) -> float:
        off = self.spec_offset if specialized_only else 0
        return float(np.max(np.abs(self.flat[off:] - other.flat[off:])))

    def specialized_sq_distance(self, other: "ParamSet") -> float:
        d = self.flat[self.spec_offset:] - other.flat[other.spec_offset:]
        return float(d @ d)

    def validate(self) -> None:
        if not np.all(np.isfinite(self.flat)):
            for name, t in zip(self.NAMES, self.tensors()):
                if not np.all(np.isfinite(t)):
                    raise ValueError(f"non-finite entries in parameter {name}")

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
            size = int(np.prod(shape))
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
    tensors = []
    for name, shape in ParamSet.shapes(p_dim, latent, hidden, n_levels):
        if name.startswith("b_"):
            tensors.append(np.zeros(shape))
        else:
            fan_in = shape[1]
            bound = 1.0 / np.sqrt(fan_in)
            tensors.append(rng.uniform(-bound, bound, size=shape))
    return ParamSet(*tensors)


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
        if self.l2sp_weight < 0:
            raise ValueError("l2sp_weight must be >= 0")
        if self.huber_delta <= 0:
            raise ValueError("huber_delta must be > 0")
        if self.mode not in ("point", "quantile"):
            raise ValueError(f"unknown mode {self.mode!r}")
        q = tuple(self.quantiles)
        if len(q) < 1 or any(not (0.0 < x < 1.0) for x in q):
            raise ValueError("quantile levels must lie in (0, 1)")
        if any(b <= a for a, b in zip(q, q[1:])):
            raise ValueError("quantile levels must be strictly increasing")


@dataclass
class QuantilePrediction:
    """Ordered quantile forecasts for one window: values[j] predicts levels[j]."""

    levels: tuple
    values: np.ndarray  # (Q, P)

    @property
    def median(self) -> np.ndarray:
        return self.values[median_index(self.levels)]


# ---------------------------------------------------------------------------
# forward graph
# ---------------------------------------------------------------------------


@dataclass
class _GruCache:
    x: np.ndarray
    z_in: np.ndarray       # encoded inputs (n, w, r)
    upd: np.ndarray        # gate activations, all (n, w, H)
    rst: np.ndarray
    cand: np.ndarray
    h_states: np.ndarray   # (n, w+1, H), h_states[:, 0] = 0
    w_all: np.ndarray      # input weights of the three gates, (3H, r)
    u_zr: np.ndarray       # recurrent weights of update and reset, (2H, H)


def _gru_forward(params: ParamSet, x: np.ndarray, keep: bool = True
                 ) -> tuple[np.ndarray, _GruCache | None]:
    """Final hidden state, plus the activations backprop needs when ``keep``."""
    n, w, p = x.shape
    hid = params.hidden
    z_in = x.reshape(n * w, p) @ params.mix.T
    w_all = np.concatenate([params.w_update, params.w_reset, params.w_cand])
    b_all = np.concatenate([params.b_update, params.b_reset, params.b_cand])
    gates_in = (z_in @ w_all.T + b_all).reshape(n, w, 3 * hid)
    g_zr, g_c = gates_in[:, :, :2 * hid], gates_in[:, :, 2 * hid:]
    u_zr = np.concatenate([params.u_update, params.u_reset])
    u_zr_t, u_cand_t = u_zr.T, params.u_cand.T

    if keep:
        zr_all = np.empty((n, w, 2 * hid))
        cand = np.empty((n, w, hid))
        h_states = np.empty((n, w + 1, hid))
    h = np.zeros((n, hid))
    with np.errstate(over="ignore"):
        for t in range(w):
            zr = _sigmoid(g_zr[:, t] + h @ u_zr_t)
            z = zr[:, :hid]
            c = np.tanh(g_c[:, t] + (zr[:, hid:] * h) @ u_cand_t)
            if keep:
                h_states[:, t] = h
                zr_all[:, t] = zr
                cand[:, t] = c
            h = z * h + (1.0 - z) * c
    if not keep:
        return h, None
    h_states[:, w] = h
    return h, _GruCache(x, z_in.reshape(n, w, params.latent), zr_all[:, :, :hid],
                        zr_all[:, :, hid:], cand, h_states, w_all, u_zr)


def _gru_backward(params: ParamSet, cache: _GruCache, dh: np.ndarray,
                  grads: ParamSet) -> None:
    n, w, _ = cache.x.shape
    hid = params.hidden
    u_zr, u_cand = cache.u_zr, params.u_cand
    d_acts = np.empty((n, w, 3 * hid))
    dh = dh.copy()
    for t in range(w - 1, -1, -1):
        h_prev = cache.h_states[:, t]
        z, r, c = cache.upd[:, t], cache.rst[:, t], cache.cand[:, t]
        one_m_z = 1.0 - z
        da_c = (dh * one_m_z) * (1.0 - c * c)
        d_rh = da_c @ u_cand
        d_acts[:, t, :hid] = (dh * (h_prev - c)) * z * one_m_z
        d_acts[:, t, hid:2 * hid] = (d_rh * h_prev) * r * (1.0 - r)
        d_acts[:, t, 2 * hid:] = da_c
        dh = dh * z + d_rh * r + d_acts[:, t, :2 * hid] @ u_zr
    flat_acts = d_acts.reshape(n * w, 3 * hid)
    flat_z = cache.z_in.reshape(n * w, params.latent)
    dw_all = flat_acts.T @ flat_z
    grads.w_update += dw_all[:hid]
    grads.w_reset += dw_all[hid:2 * hid]
    grads.w_cand += dw_all[2 * hid:]
    db_all = flat_acts.sum(axis=0)
    grads.b_update += db_all[:hid]
    grads.b_reset += db_all[hid:2 * hid]
    grads.b_cand += db_all[2 * hid:]
    h_prevs = cache.h_states[:, :w].reshape(n * w, hid)
    grads.u_update += d_acts[:, :, :hid].reshape(n * w, hid).T @ h_prevs
    grads.u_reset += d_acts[:, :, hid:2 * hid].reshape(n * w, hid).T @ h_prevs
    rh_all = (cache.rst * cache.h_states[:, :w]).reshape(n * w, hid)
    grads.u_cand += d_acts[:, :, 2 * hid:].reshape(n * w, hid).T @ rh_all
    dz_in = flat_acts @ cache.w_all
    grads.mix += dz_in.T @ cache.x.reshape(n * w, params.p_dim)


def _point_from_hidden(params: ParamSet, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    latent = h @ params.w_out.T + params.b_out
    return latent @ params.mix, latent


def _quantiles_from_hidden(params: ParamSet, h: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = h.shape[0]
    q, r = params.n_levels, params.latent
    raw = (h @ params.w_quant.T + params.b_quant).reshape(n, q, r)
    latents = np.empty_like(raw)
    latents[:, 0] = raw[:, 0]
    if q > 1:
        latents[:, 1:] = raw[:, :1] + np.cumsum(softplus(raw[:, 1:]), axis=1)
    return latents @ params.mix, latents, raw


def _point_batch(params: ParamSet, x: np.ndarray) -> np.ndarray:
    h, _ = _gru_forward(params, x, keep=False)
    return _point_from_hidden(params, h)[0]


def _quantile_batch(params: ParamSet, x: np.ndarray) -> np.ndarray:
    h, _ = _gru_forward(params, x, keep=False)
    return _quantiles_from_hidden(params, h)[0]


def forward_point(params: ParamSet, window: np.ndarray) -> np.ndarray:
    """One-step point forecast: (w, P) -> (P,), or batched (n, w, P) -> (n, P)."""
    window = np.asarray(window, dtype=np.float64)
    if window.ndim == 2:
        return _point_batch(params, window[None])[0]
    return _point_batch(params, window)


def forward_quantiles(params: ParamSet, window: np.ndarray, levels):
    """One-step quantile fan; single windows return a :class:`QuantilePrediction`."""
    levels = tuple(levels)
    if len(levels) != params.n_levels:
        raise ValueError(
            f"{len(levels)} levels given but head produces {params.n_levels}")
    window = np.asarray(window, dtype=np.float64)
    if window.ndim == 2:
        values = _quantile_batch(params, window[None])[0]
        return QuantilePrediction(levels=levels, values=values)
    return _quantile_batch(params, window)


def rollout(params: ParamSet, window: np.ndarray, h: int, mode: str = "point",
            levels=None):
    """Forecast h steps ahead by feeding one-step predictions back.

    The oldest window row is dropped each step. In quantile mode the value
    fed back is the median path; the full fan is produced only at the final
    step. h = 1 reduces to the plain one-step forward.
    """
    if h < 1:
        raise ValueError("horizon must be >= 1")
    window = np.asarray(window, dtype=np.float64)
    single = window.ndim == 2
    x = window[None] if single else window
    if mode == "quantile":
        levels = tuple(levels if levels is not None else ())
        if len(levels) != params.n_levels:
            raise ValueError("quantile rollout needs the level grid")
        med = median_index(levels)
    for step in range(h):
        if mode == "point":
            out = _point_batch(params, x)
            fed = out
        elif mode == "quantile":
            out = _quantile_batch(params, x)
            fed = out[:, med]
        else:
            raise ValueError(f"unknown mode {mode!r}")
        if step < h - 1:
            x = np.concatenate([x[:, 1:], fed[:, None, :]], axis=1)
    if single:
        if mode == "quantile":
            return QuantilePrediction(levels=levels, values=out[0])
        return out[0]
    return out


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


def batch_loss(params: ParamSet, anchor: ParamSet | None, x: np.ndarray,
               y: np.ndarray, cfg: TrainConfig) -> float:
    """Forward-only objective value on one batch (data term + anchor pull)."""
    if len(x) == 0:
        raise ValueError("empty batch")
    h, _ = _gru_forward(params, x, keep=False)
    if cfg.mode == "point":
        pred, _ = _point_from_hidden(params, h)
        data = float(np.mean(huber_elem(pred - y, cfg.huber_delta)))
    else:
        preds, _, _ = _quantiles_from_hidden(params, h)
        q = np.asarray(cfg.quantiles).reshape(1, -1, 1)
        data = float(np.mean(pinball_elem(preds, y[:, None, :], q)))
    return data + _anchor_penalty(params, anchor, cfg.l2sp_weight, None)


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
    bs = max(1, min(cfg.batch, n))
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
            if skip_mix:
                grads.mix[:] = 0.0
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
        layout = _layout(p_dim, latent, hidden, n_levels)
        buf = fh.read(layout.size * 8)
        if len(buf) != layout.size * 8:
            raise ValueError(f"{path}: truncated checkpoint payload")
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes in checkpoint")
    flat = np.frombuffer(buf, dtype="<f8").astype(np.float64)
    return ParamSet(layout, flat), int(w), _FLAG_MODES[mode_flag]
