"""Independent reference implementations that tests compare the library with."""

import warnings

import numpy as np


def huber(pred, target, delta: float) -> float:
    """Component-mean Huber loss of one forecast: quadratic within delta,
    linear outside."""
    e = np.asarray(pred, dtype=np.float64) - np.asarray(target, dtype=np.float64)
    a = np.abs(e)
    return float(np.mean(np.where(a <= delta, 0.5 * e * e,
                                  delta * a - 0.5 * delta * delta)))


def empirical_quantile(sample, q: float) -> float:
    """Smallest sample value y with F_n(y) >= q (the sort oracle)."""
    ys = np.sort(np.asarray(sample, dtype=np.float64))
    k = int(np.ceil(q * len(ys)))
    return float(ys[max(k, 1) - 1])


def cached_windows(values, series, ends, w: int, h: int):
    """Flat (inputs, targets) of the given series at the given window end
    times, gathered from a contiguous copy of every window of the panel, the
    way an all-ends window cache serves them: X (S * n, w, P) and Y
    (S * n, P), series-major."""
    p = values.shape[-1]
    every = np.ascontiguousarray(np.swapaxes(
        np.lib.stride_tricks.sliding_window_view(values, w, axis=1), 2, 3))
    x = every[series][:, ends - (w - 1)]
    y = values[series][:, ends + h]
    return x.reshape(-1, w, p), y.reshape(-1, p)


def apply_factor(median, lower, upper, s: float):
    """An interval's two ends with both half-widths rescaled around the
    median by s: the calibration formula served and TEST fans are checked
    against."""
    return median + s * (lower - median), median + s * (upper - median)


def grid_coverage(median, lower, upper, target_values, grid):
    """Coverage of the intervals rescaled about the median by every grid
    factor, from (len(grid), N) matrices of every factor's bounds."""
    lo_half = median - lower
    hi_half = upper - median
    lo_all = median[None, :] - grid[:, None] * lo_half[None, :]
    hi_all = median[None, :] + grid[:, None] * hi_half[None, :]
    return ((target_values >= lo_all) & (target_values <= hi_all)).mean(axis=1)


def calibrate_factor(median, lower, upper, target_values, target_coverage,
                     grid):
    """The calibration factor from the whole coverage-by-factor curve: the
    first grid factor whose coverage reaches the target, else the last one
    with a RuntimeWarning naming the coverage there, which need not be the
    highest on the grid."""
    cov = grid_coverage(median, lower, upper, target_values, grid)
    reached = np.flatnonzero(cov >= target_coverage)
    if len(reached) == 0:
        warnings.warn(
            f"target coverage {target_coverage:.3f} unreachable on the grid "
            f"(coverage {cov[-1]:.3f} at its largest factor s={grid[-1]:.3f})",
            RuntimeWarning)
        return float(grid[-1])
    return float(grid[reached[0]])


def legacy_init(p_dim: int, latent: int, hidden: int, n_levels: int,
                seed: int) -> dict:
    """Fresh parameters as the per-gate layout drew them: name -> tensor.

    The weights are drawn in that layout's slot order (mix, then the
    update, reset and candidate input and recurrent maps, then the two
    heads), each from U(-1/sqrt(fan_in), +1/sqrt(fan_in)); biases are zero
    and draw nothing."""
    rng = np.random.default_rng(seed)
    r, h = latent, hidden
    tensors = {}
    for name, shape in (("mix", (r, p_dim)),
                        ("w_update", (h, r)), ("u_update", (h, h)),
                        ("b_update", (h,)),
                        ("w_reset", (h, r)), ("u_reset", (h, h)),
                        ("b_reset", (h,)),
                        ("w_cand", (h, r)), ("u_cand", (h, h)),
                        ("b_cand", (h,)),
                        ("w_out", (r, h)), ("b_out", (r,)),
                        ("w_quant", (n_levels * r, h)),
                        ("b_quant", (n_levels * r,))):
        if len(shape) == 1:
            tensors[name] = np.zeros(shape)
        else:
            bound = 1.0 / np.sqrt(shape[1])
            tensors[name] = rng.uniform(-bound, bound, size=shape[0] * shape[1]
                                        ).reshape(shape)
    return tensors
