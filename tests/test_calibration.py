import numpy as np
import pytest

from poolcast.calibration import (GRID, CalibrationTable, apply_factor,
                                  calibrate, calibrate_factor)
from poolcast.losses import interval_stats


def coverage_at(med, lo, hi, target, s):
    """Coverage of the intervals rescaled by s, as the program reports it."""
    return interval_stats(target, *apply_factor(med, lo, hi, s))[0]


def make_stream(seed=0, n=400, spread=1.0):
    rng = np.random.default_rng(seed)
    med = rng.normal(size=n)
    lo = med - spread * rng.uniform(0.5, 1.5, size=n)
    hi = med + spread * rng.uniform(0.5, 1.5, size=n)
    target = med + rng.normal(scale=1.0, size=n)
    return med, lo, hi, target


def test_apply_factor_formula():
    lo, hi = apply_factor(np.array([0.0]), np.array([-1.0]), np.array([1.0]), 2.0)
    assert lo[0] == -2.0 and hi[0] == 2.0


def test_apply_identity_and_collapse():
    med, lo, hi, _ = make_stream()
    lo1, hi1 = apply_factor(med, lo, hi, 1.0)
    np.testing.assert_allclose(lo1, lo, atol=1e-15)
    np.testing.assert_allclose(hi1, hi, atol=1e-15)
    lo0, hi0 = apply_factor(med, lo, hi, 0.0)
    np.testing.assert_array_equal(lo0, med)
    np.testing.assert_array_equal(hi0, med)


def test_apply_scales_half_widths_exactly():
    med, lo, hi, _ = make_stream(1)
    s = 1.7
    lo2, hi2 = apply_factor(med, lo, hi, s)
    np.testing.assert_allclose(hi2 - med, s * (hi - med), rtol=1e-15)
    np.testing.assert_allclose(med - lo2, s * (med - lo), rtol=1e-15)


def test_coverage_monotone_in_factor():
    med, lo, hi, target = make_stream(2)
    covs = [coverage_at(med, lo, hi, target, s) for s in GRID]
    assert all(a <= b + 1e-15 for a, b in zip(covs, covs[1:]))


def test_calibrate_picks_smallest_sufficient_factor():
    med, lo, hi, target = make_stream(3)
    s = calibrate_factor(med, lo, hi, target, 0.8)
    assert coverage_at(med, lo, hi, target, s) >= 0.8
    idx = int(np.argmin(np.abs(GRID - s)))
    assert GRID[idx] == s
    if idx > 0:
        assert coverage_at(med, lo, hi, target, GRID[idx - 1]) < 0.8


def test_calibrate_grid_minimum_when_already_covered():
    med, lo, hi, _ = make_stream(4, spread=50.0)
    target = med.copy()  # always inside even at s = 0.5
    assert calibrate_factor(med, lo, hi, target, 0.8) == GRID[0]


def test_calibrate_warns_when_unreachable():
    med = np.zeros(50)
    lo = med - 1e-9
    hi = med + 1e-9
    target = np.ones(50)  # never covered
    with pytest.warns(RuntimeWarning, match="unreachable"):
        s = calibrate_factor(med, lo, hi, target, 0.8)
    assert s == GRID[-1]


def test_calibration_table_roundtrip():
    med, lo, hi, target = make_stream(5)
    table = calibrate({1: (med, lo, hi, target), 3: (med, lo, hi, target)},
                      target_coverage=0.8)
    again = CalibrationTable.from_dict(table.as_dict())
    assert again.factors == table.factors
    assert again.target == table.target
    lo2, _, hi2 = table.apply(1, med, np.stack([lo, med, hi]))
    assert np.mean((target >= lo2) & (target <= hi2)) >= 0.8


def test_table_rescales_every_level_about_the_median():
    # five levels sharpened by s = 0.5 keep their order: the inner levels
    # move with the outer ones
    table = CalibrationTable(target=0.8, factors={1: 0.5, 3: 2.0})
    fan = np.array([[[-2.0], [-1.5], [0.0], [1.5], [2.0]]])
    median = fan[:, 2]
    np.testing.assert_array_equal(table.apply(1, median, fan)[0, :, 0],
                                  [-1.0, -0.75, 0.0, 0.75, 1.0])
    np.testing.assert_array_equal(table.apply(3, median, fan)[0, :, 0],
                                  [-4.0, -3.0, 0.0, 3.0, 4.0])
    # at three levels the outer ones are bitwise m - s (m - lo) and
    # m + s (hi - m), and the median stays as it is
    med, lo, hi, _ = make_stream(6)
    got = table.apply(1, med, np.stack([lo, med, hi]))
    want_lo, want_hi = med - 0.5 * (med - lo), med + 0.5 * (hi - med)
    assert got[0].tobytes() == want_lo.tobytes()
    assert got[1].tobytes() == med.tobytes()
    assert got[2].tobytes() == want_hi.tobytes()


def test_calibrate_requires_streams():
    with pytest.raises(ValueError):
        calibrate({}, 0.8)
