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
