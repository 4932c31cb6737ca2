"""Scalar interval calibration selected on VAL, one factor per horizon.

Fans are inflated (or sharpened) around the median: every level moves to
m + s * (level - m), so the levels keep their order for any s > 0. The
factor is the first value of a geometric grid, scanned upwards, whose
coverage of the outer interval reaches the target. Coverage need not grow
with s: for a crossed pair (the lower level above the median, or the upper
one below it) m - s * (m - lo) rises with s, so that element can leave the
interval as s grows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

GRID = 0.5 * 1.05 ** np.arange(61)  # 0.5 .. ~9.34, 5% relative steps


def calibrate_factor(median, lower, upper, target_values,
                     target_coverage: float) -> float:
    """First grid factor whose coverage reaches the target.

    Falls back to the grid maximum (with a warning naming the coverage
    there, which a smaller factor may exceed) when no grid factor reaches
    the target. The factors are tried one at a time, each with a
    few temporaries of the stream's length.
    """
    median = np.asarray(median, dtype=np.float64).ravel()
    lower = np.asarray(lower, dtype=np.float64).ravel()
    upper = np.asarray(upper, dtype=np.float64).ravel()
    target_values = np.asarray(target_values, dtype=np.float64).ravel()
    lo_half = median - lower
    hi_half = upper - median
    for s in GRID:
        inside = ((target_values >= median - s * lo_half)
                  & (target_values <= median + s * hi_half))
        cov = inside.mean()  # an exact count over the stream's length
        if cov >= target_coverage:
            return float(s)
    warnings.warn(
        f"target coverage {target_coverage:.3f} unreachable on the grid "
        f"(coverage {cov:.3f} at its largest factor s={GRID[-1]:.3f})",
        RuntimeWarning)
    return float(GRID[-1])


@dataclass
class CalibrationTable:
    """Per-horizon inflation factors plus the coverage level they target."""

    target: float
    factors: dict[int, float] = field(default_factory=dict)

    def apply(self, h: int, median: np.ndarray, fan: np.ndarray) -> np.ndarray:
        """The fan (..., Q, P) with every level rescaled about the median
        (..., P) by the factor s of horizon h: m + s * (level - m), so s = 1
        is the identity."""
        m = median[..., None, :]
        return m + self.factors[h] * (fan - m)

    def as_dict(self) -> dict:
        return {"target": self.target,
                "factors": {str(h): s for h, s in sorted(self.factors.items())}}

    @classmethod
    def from_dict(cls, d: dict) -> "CalibrationTable":
        return cls(target=float(d["target"]),
                   factors={int(h): float(s) for h, s in d["factors"].items()})


def calibrate(streams: dict, target_coverage: float = 0.8) -> CalibrationTable:
    """Fit one factor per horizon from (median, lower, upper, target) streams."""
    if not streams:
        raise ValueError("no calibration streams (the streams dict is empty)")
    table = CalibrationTable(target=target_coverage)
    for h, (med, lo, hi, tv) in sorted(streams.items()):
        table.factors[h] = calibrate_factor(med, lo, hi, tv, target_coverage)
    return table
