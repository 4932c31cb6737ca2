import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from oracles import apply_factor
from poolcast.calibration import GRID, CalibrationTable, calibrate, calibrate_factor
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


def crossed_stream(seed, n=500):
    """A stream in which about a fifth of the pairs cross: the lower level
    above the median, the upper one below it, or both."""
    med, lo, hi, target = make_stream(seed, n)
    rng = np.random.default_rng(seed + 100)
    side = rng.choice(4, size=n, p=[0.8, 0.07, 0.07, 0.06])
    lo_crossed = np.isin(side, (1, 3))
    hi_crossed = np.isin(side, (2, 3))
    lo[lo_crossed] = 2 * med[lo_crossed] - lo[lo_crossed]
    hi[hi_crossed] = 2 * med[hi_crossed] - hi[hi_crossed]
    # a crossed pair's target sits in its interval at small factors and
    # leaves it as the factor grows
    one = side == 1
    target[one] = lo[one] + rng.uniform(0.5, 3.0, one.sum()) * (lo - med)[one]
    two = side == 2
    target[two] = hi[two] + rng.uniform(0.5, 3.0, two.sum()) * (hi - med)[two]
    return med, lo, hi, target


def factor_and_warnings(fn, stream, target_coverage, *extra):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        s = fn(*stream, target_coverage, *extra)
    return s, [(w.category, str(w.message)) for w in caught]


def assert_matches_oracle(stream, target_coverage):
    got = factor_and_warnings(calibrate_factor, stream, target_coverage)
    want = factor_and_warnings(oracles.calibrate_factor, stream,
                               target_coverage, GRID)
    assert got == want
    return got


def table_interval(med, lo, hi, s):
    """The interval's two ends as ``CalibrationTable.apply`` rescales them by
    s, checked bitwise against the oracle's formula."""
    got_lo, _, got_hi = CalibrationTable(0.8, {1: s}).apply(
        1, med, np.stack([lo, med, hi]))
    want_lo, want_hi = apply_factor(med, lo, hi, s)
    assert got_lo.tobytes() == want_lo.tobytes()
    assert got_hi.tobytes() == want_hi.tobytes()
    return got_lo, got_hi


def test_apply_factor_formula():
    lo, hi = table_interval(np.array([0.0]), np.array([-1.0]), np.array([1.0]), 2.0)
    assert lo[0] == -2.0 and hi[0] == 2.0


def test_apply_identity_and_collapse():
    med, lo, hi, _ = make_stream()
    lo1, hi1 = table_interval(med, lo, hi, 1.0)
    np.testing.assert_allclose(lo1, lo, atol=1e-15)
    np.testing.assert_allclose(hi1, hi, atol=1e-15)
    lo0, hi0 = table_interval(med, lo, hi, 0.0)
    np.testing.assert_array_equal(lo0, med)
    np.testing.assert_array_equal(hi0, med)


def test_apply_scales_half_widths_exactly():
    med, lo, hi, _ = make_stream(1)
    s = 1.7
    lo2, hi2 = table_interval(med, lo, hi, s)
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


@pytest.mark.parametrize("seed", range(6))
def test_calibrate_factor_equals_the_grid_matrix_oracle(seed):
    stream = crossed_stream(seed)
    med, lo, hi, target = stream
    assert np.any(lo > med) and np.any(hi < med)
    cov = oracles.grid_coverage(*stream, GRID)
    # crossed pairs leave the interval as s grows: coverage falls somewhere
    assert np.any(np.diff(cov) < 0)
    for target_coverage in (0.3, 0.5, 0.8, 0.9):
        assert_matches_oracle(stream, target_coverage)
    # targets met exactly at a grid factor that first reaches them
    records = [j for j in range(1, len(GRID)) if cov[j] > cov[:j].max()]
    assert records
    for j in records[::3]:
        s, caught = assert_matches_oracle(stream, cov[j])
        assert s == GRID[j] and not caught
    # covered already at the grid's first factor
    s, caught = assert_matches_oracle(stream, cov[0])
    assert s == GRID[0] and not caught
    s, caught = assert_matches_oracle(
        (med, lo - 50.0, hi + 50.0, target), 0.8)
    assert s == GRID[0] and not caught
    # unreachable: the warning names the coverage at the last factor, and
    # does not call it the best
    s, caught = assert_matches_oracle(stream, cov.max() + 1e-3)
    assert s == GRID[-1]
    assert caught == [(RuntimeWarning,
                       f"target coverage {cov.max() + 1e-3:.3f} unreachable "
                       f"on the grid (coverage {cov[-1]:.3f} at its largest "
                       f"factor s={GRID[-1]:.3f})")]


def test_calibrate_factor_memory_is_a_few_stream_copies():
    # tracemalloc counts NumPy's buffers; the stream itself is allocated
    # before tracing starts
    n = 50_000
    stream = crossed_stream(7, n)
    tracemalloc.start()
    try:
        s = calibrate_factor(*stream, 0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s == oracles.calibrate_factor(*stream, 0.7, GRID)
    assert peak / n < 100
