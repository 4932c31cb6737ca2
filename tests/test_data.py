import csv
import json

import numpy as np
import pytest

from poolcast.data import (DataError, MtsDataset, SplitSpec, Standardizer,
                           _check_csv_records, _load_csv_file,
                           fit_impute_standardize, load_dataset, prepare,
                           save_csv, save_packed)
from poolcast.losses import split_forecasts
from poolcast.model import TrainConfig, init_params
from oracles import cached_windows


def make_ds(n=2, t=10, p=3, seed=0, missing=()):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, t, p))
    for pos in missing:
        values[pos] = np.nan
    return MtsDataset(values)


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def test_dataset_takes_values_and_names_only():
    # a bool mask in the names' place (the old MtsDataset(values, mask) call)
    # is refused, not taken as names
    values = make_ds(n=2, t=4, p=1).values
    with pytest.raises(DataError, match="one name"):
        MtsDataset(values, np.isfinite(values))
    with pytest.raises(DataError, match="one name"):
        MtsDataset(values, ["a"])
    assert MtsDataset(values, ["a", "b"]).names == ["a", "b"]


def test_csv_roundtrip_shapes(tmp_path):
    ds = make_ds(n=2, t=10, p=3)
    save_csv(ds, tmp_path / "d")
    loaded = load_dataset(str(tmp_path / "d"))
    assert (loaded.n_series, loaded.n_times, loaded.n_components) == (2, 10, 3)
    np.testing.assert_array_equal(loaded.values, ds.values)


def test_csv_empty_cell_becomes_missing(tmp_path):
    d = tmp_path / "d"
    d.mkdir()
    (d / "a.csv").write_text("1,2\n,4\n5,6\n")
    ds = load_dataset(str(d))
    assert np.isnan(ds.values[0, 1, 0])
    assert ds.values[0, 1, 1] == 4.0


def test_csv_nan_token_and_unreadable(tmp_path):
    d = tmp_path / "d"
    d.mkdir()
    (d / "a.csv").write_text("1,NaN\n2,3\n")
    ds = load_dataset(str(d))
    assert np.isnan(ds.values[0, 0, 1])
    assert np.isnan(ds.values).sum() == 1
    (d / "a.csv").write_text("1,bogus\n2,3\n")
    with pytest.raises(DataError, match="unreadable"):
        load_dataset(str(d))


def test_csv_dimension_mismatch(tmp_path):
    d = tmp_path / "d"
    d.mkdir()
    (d / "a.csv").write_text("1,2\n3,4\n")
    (d / "b.csv").write_text("1,2,3\n4,5,6\n")
    with pytest.raises(DataError, match="does not match"):
        load_dataset(str(d))


def test_series_order_is_lexicographic(tmp_path):
    d = tmp_path / "d"
    d.mkdir()
    (d / "b.csv").write_text("2\n2\n")
    (d / "a.csv").write_text("1\n1\n")
    ds = load_dataset(str(d))
    assert ds.names == ["a", "b"]
    assert ds.values[0, 0, 0] == 1


def test_packed_roundtrip(tmp_path):
    ds = make_ds(n=3, t=7, p=2, missing=[(1, 2, 0)])
    path = tmp_path / "data.mts"
    save_packed(ds, str(path))
    loaded = load_dataset(str(path), fmt="packed")
    assert loaded.values.tobytes() == ds.values.tobytes()  # NaN included
    assert np.isnan(loaded.values[1, 2, 0]) and np.isnan(loaded.values).sum() == 1
    raw = path.read_bytes()
    assert raw[:4] == b"MTS1"
    assert int.from_bytes(raw[4:12], "little") == 3


def test_packed_truncated(tmp_path):
    path = tmp_path / "bad.mts"
    path.write_bytes(b"MTS1" + (3).to_bytes(8, "little") * 3 + b"\0" * 10)
    with pytest.raises(DataError, match="payload"):
        load_dataset(str(path), fmt="packed")


# ---------------------------------------------------------------------------
# CSV reader: one-pass parse and the checked per-cell path
# ---------------------------------------------------------------------------


def checked_parse(path, header=False):
    with open(path, newline="") as fh:
        return _check_csv_records(str(path), list(csv.reader(fh)), header)


def test_csv_fast_path_matches_checked_path_bitwise(tmp_path):
    rng = np.random.default_rng(7)
    values = rng.normal(size=(40, 5)) * 10.0 ** rng.integers(-12, 12, size=(40, 5))
    values[rng.random(values.shape) < 0.2] *= -1.0
    path = tmp_path / "a.csv"
    path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n"
                            for row in values))
    fast = _load_csv_file(str(path), header=False)
    assert fast.tobytes() == checked_parse(path).tobytes()
    assert fast.tobytes() == values.tobytes()


def test_csv_empty_nan_and_padded_cells(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text(" 1.5 ,NaN,\n-2, nan ,\t3e2\n")
    out = _load_csv_file(str(path), header=False)
    assert out.tobytes() == checked_parse(path).tobytes()
    expected = np.array([[1.5, np.nan, np.nan], [-2.0, np.nan, 300.0]])
    np.testing.assert_array_equal(out, expected)


@pytest.mark.parametrize("token", ["inf", "-inf", " Infinity"])
def test_csv_infinite_cell_names_file_row_col(tmp_path, token):
    d = tmp_path / "d"
    d.mkdir()
    (d / "a.csv").write_text(f"1,2\n3,{token}\n")
    with pytest.raises(DataError, match=r"non-finite value .* at a\.csv:2:2$"):
        load_dataset(str(d))


def test_csv_ragged_rows_and_header(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(DataError, match=r"ragged rows \(column counts \[1, 2\]\)"):
        _load_csv_file(str(path), header=False)
    path.write_text("x,y\n1,2\n\n3,4\n")
    out = _load_csv_file(str(path), header=True)
    np.testing.assert_array_equal(out, [[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(DataError, match=r"unreadable cell 'x' at a\.csv:1:1"):
        _load_csv_file(str(path), header=False)
    path.write_text("x,y\n")
    with pytest.raises(DataError, match="no data rows"):
        _load_csv_file(str(path), header=True)


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


def test_split_bounds_cover_time_axis():
    spec = prepare(make_ds(t=288), SplitSpec(200, 40, 48)).spec
    bounds = {tag: spec.bounds(tag) for tag in ("tr", "va", "te")}
    assert bounds == {"tr": (0, 200), "va": (200, 240), "te": (240, 288)}
    flat = [t for t0, t1 in sorted(bounds.values()) for t in range(t0, t1)]
    assert flat == list(range(288))
    assert spec.bounds("trval") == (0, 240)


def test_split_sum_mismatch_and_short_segment():
    ds = make_ds(t=144)
    for bad in (lambda: prepare(ds, SplitSpec(100, 22, 23)),
                lambda: fit_impute_standardize(ds, SplitSpec(100, 22, 23))):
        with pytest.raises(DataError,
                           match=r"split lengths sum to 145 but dataset has T=144"):
            bad()
    prepared = prepare(ds, SplitSpec(100, 22, 22), min_segment=22)
    assert prepared.spec.bounds("va") == (100, 122)
    with pytest.raises(DataError, match=r"t_val=22 is shorter than "
                                        r"window \+ max horizon = 23"):
        prepare(ds, SplitSpec(100, 22, 22), min_segment=23)


def test_split_spec_rejects_zero_segment():
    with pytest.raises(DataError):
        SplitSpec(288, 0, 0)


def test_prepared_values_are_read_only():
    dataset = prepare(make_ds(), SplitSpec(4, 3, 3)).dataset
    with pytest.raises(ValueError):
        dataset.values[0, 0, 0] = 1.0


# ---------------------------------------------------------------------------
# imputation and standardization
# ---------------------------------------------------------------------------


def test_standardizer_matches_hand_computation():
    # one component whose observed TRAIN entries are {1, 2, 3}
    values = np.array([[[1.0], [2.0], [3.0], [0.5], [0.5], [0.5]]])
    ds = MtsDataset(values)
    std, out = fit_impute_standardize(ds, SplitSpec(3, 2, 1))
    assert std.mu[0] == pytest.approx(2.0)
    assert std.sigma[0] == pytest.approx(np.sqrt(2.0 / 3.0 + 1e-8))
    assert out.values[0, 2, 0] == pytest.approx((3.0 - 2.0) / np.sqrt(2.0 / 3.0 + 1e-8))


def test_missing_val_cell_imputed_to_zero():
    ds = make_ds(n=2, t=10, p=2, missing=[(0, 5, 1)])  # time 5 is in VAL below
    _, out = fit_impute_standardize(ds, SplitSpec(4, 3, 3))
    assert np.isnan(ds.values[0, 5, 1])  # the input keeps its NaN
    assert out.values[0, 5, 1] == pytest.approx(0.0)
    assert np.isfinite(out.values).all()  # no missing values remain anywhere


@pytest.mark.parametrize("impute", ["mean", "median"])
def test_manifest_standardizer_fills_and_scales_as_prepare(impute):
    """The standardizer rebuilt from its JSON manifest record fills and
    rescales a panel with missing cells in TRAIN, VAL and TEST bitwise as
    ``prepare`` did: the one fill-and-scale step serves both."""
    ds = make_ds(n=3, t=30, p=2, seed=5,
                 missing=[(0, 3, 1), (2, 11, 0), (1, 22, 0), (0, 27, 1)])
    prepared = prepare(ds, SplitSpec(20, 5, 5), impute=impute)
    record = json.loads(json.dumps(prepared.standardizer.as_dict()))
    assert list(record) == ["mu", "sigma", "eps", "fill"]
    got = Standardizer.from_dict(record).transform(ds.values)
    assert got.tobytes() == prepared.dataset.values.tobytes()
    assert np.isfinite(got).all()


def test_median_imputation_variant():
    values = np.array([[[1.0], [1.0], [10.0], [np.nan], [2.0], [2.0]]])
    ds = MtsDataset(values)
    std_mean, out_mean = fit_impute_standardize(ds, SplitSpec(3, 2, 1))
    _, out_med = fit_impute_standardize(ds, SplitSpec(3, 2, 1), impute="median")
    # fill value differs (mean 4 vs median 1), standardization stays mean-based
    assert out_mean.values[0, 3, 0] == pytest.approx(0.0)
    filled_med = out_med.values[0, 3, 0] * std_mean.sigma[0] + std_mean.mu[0]
    assert filled_med == pytest.approx(1.0)


def test_component_fully_missing_on_train_raises():
    ds = make_ds(n=1, t=6, p=2,
                 missing=[(0, 0, 1), (0, 1, 1), (0, 2, 1)])
    with pytest.raises(DataError, match="component 1"):
        fit_impute_standardize(ds, SplitSpec(3, 2, 1))


@pytest.mark.parametrize("where", ["everywhere", "train_only"])
def test_constant_train_component_needs_positive_eps(where):
    """With eps = 0 a component constant on TRAIN has no scale: a DataError
    names it; eps > 0 gives it the scale sqrt(eps)."""
    ds = make_ds(n=6, t=10, p=2, seed=3)
    values = ds.values.copy()
    values[:, :6 if where == "train_only" else None, 1] = 5.0
    ds = MtsDataset(values)
    spec = SplitSpec(6, 2, 2)
    with pytest.raises(DataError, match="component 1 is constant on TRAIN.*eps > 0"):
        fit_impute_standardize(ds, spec, eps=0.0)
    std, out = fit_impute_standardize(ds, spec, eps=1e-8)
    assert std.sigma[1] == np.sqrt(1e-8) and np.isfinite(out.values).all()


def test_train_only_statistics_bitwise_invariant():
    ds = make_ds(n=3, t=30, p=4, seed=1)
    spec = SplitSpec(20, 5, 5)
    std_a, _ = fit_impute_standardize(ds, spec)
    tampered = make_ds(n=3, t=30, p=4, seed=1)
    tampered.values[:, 20:, :] = 123.456
    std_b, _ = fit_impute_standardize(tampered, spec)
    assert np.array_equal(std_a.mu, std_b.mu)
    assert np.array_equal(std_a.sigma, std_b.sigma)


def test_standardized_train_moments():
    ds = make_ds(n=4, t=50, p=3, seed=2)
    spec = SplitSpec(30, 10, 10)
    _, out = fit_impute_standardize(ds, spec)
    tr = out.values[:, :30, :].reshape(-1, 3)
    assert np.all(np.abs(tr.mean(axis=0)) < 1e-9)
    assert np.all(np.abs(tr.var(axis=0) - 1.0) < 1e-6)


# ---------------------------------------------------------------------------
# window enumeration
# ---------------------------------------------------------------------------


def window_index(t_train=200, t_val=40, t_test=48, tag="tr", w=12,
                 horizons=(1,)):
    ds = make_ds(n=1, t=t_train + t_val + t_test, p=1)
    return prepare(ds, SplitSpec(t_train, t_val, t_test)).window_index(
        tag, w, horizons)


def windows_for(tag="tr", w=12, h=1):
    return window_index(tag=tag, w=w, horizons=[h]).end_times[h]


def test_train_window_count_and_range():
    ends = windows_for(tag="tr", w=12, h=1)
    # 1-based {12..199}: both window and target inside TRAIN
    assert ends[0] == 11 and ends[-1] == 198 and len(ends) == 188
    # the refit segment is self-contained too, over TRAIN + VAL = [0, 240)
    ends = windows_for(tag="trval", w=12, h=1)
    assert ends[0] == 11 and ends[-1] == 238 and len(ends) == 228


def test_val_windows_cross_boundary_backward():
    ends = windows_for(tag="va", w=12, h=1)
    # 1-based end-times 200..239 for targets 201..240
    assert ends[0] == 199 and ends[-1] == 238 and len(ends) == 40


def test_val_too_short_for_horizon_is_refused():
    with pytest.raises(ValueError, match=r"segment 'va' has no window at w=12, h=6"):
        window_index(200, 5, 40, tag="va", w=12, horizons=[6, 1])
    idx = window_index(200, 5, 40, tag="va", w=12, horizons=[5, 1])
    assert idx.end_times[5].dtype == np.int64 and idx.count(5) == 1
    assert idx.count(1) == 5


@pytest.mark.parametrize("tag,last", [("tr", 24 - 5), ("va", 6), ("te", 10),
                                      ("trval", 30 - 5)])
def test_each_segment_is_refused_past_its_last_horizon(tag, last):
    # TRAIN segments end a window and its target inside; VAL and TEST keep
    # only the forecast path inside, so their last horizon is their length
    prepared = prepare(make_ds(n=3, t=40, p=2), SplitSpec(24, 6, 10))
    assert prepared.window_index(tag, 5, [last]).count(last) == 1
    prepared.audit.set_phase("refused")
    with pytest.raises(ValueError, match=f"segment {tag!r} has no window at "
                                         f"w=5, h={last + 1}"):
        prepared.window_index(tag, 5, [1, last + 1])
    with pytest.raises(ValueError, match="no window"):
        prepared.windows(tag, last + 1, 5)
    assert prepared.audit.phases() == []


def test_window_index_shared_across_series():
    prepared = prepare(make_ds(n=3, t=60, p=1), SplitSpec(40, 10, 10))
    idx = prepared.window_index("te", 5, [2])
    # one grid for every series: TEST targets t + 2 for t in 49..57
    np.testing.assert_array_equal(idx.end_times[2], np.arange(49, 58))
    with pytest.raises(ValueError, match="window length"):
        prepared.window_index("te", 0, [2])
    with pytest.raises(ValueError, match="horizons"):
        prepared.window_index("te", 5, [0])


# ---------------------------------------------------------------------------
# prepared bundle and audit
# ---------------------------------------------------------------------------


def test_gather_shapes_and_alignment():
    ds = make_ds(n=2, t=30, p=3, seed=3)
    prepared = prepare(ds, SplitSpec(20, 5, 5))
    x, y = prepared.windows("tr", 1, 4)
    assert x.shape == (2 * 16, 4, 3) and y.shape == (2 * 16, 3)
    # first window of the first series covers times 0..3, target 4
    np.testing.assert_array_equal(x[0], prepared.dataset.values[0, 0:4])
    np.testing.assert_array_equal(y[0], prepared.dataset.values[0, 4])


@pytest.mark.parametrize("tag", ["tr", "va", "te", "trval"])
def test_windows_equal_the_cached_gather(tag):
    # a 2-step VAL segment has no windows at h = 3: the refusal
    prepared = prepare(make_ds(n=5, t=40, p=3, seed=6, missing=[(1, 7, 2)]),
                       SplitSpec(24, 2, 14))
    values = prepared.dataset.values
    for w in (1, 2, 5):
        for h in (1, 3):
            if tag == "va" and h == 3:
                with pytest.raises(ValueError, match="no window"):
                    prepared.windows(tag, h, w)
                continue
            ends = prepared.window_index(tag, w, [h]).end_times[h]
            for series in (None, [3], [4, 0, 2]):
                rows = np.arange(5) if series is None else np.asarray(series)
                got = prepared.windows(tag, h, w, series)
                want = cached_windows(values, rows, ends, w, h)
                for a, b in zip(got, want):
                    assert a.shape == b.shape and a.dtype == b.dtype
                    assert a.tobytes() == b.tobytes()
    with pytest.raises(ValueError, match="segment 'va' has no window at w=5, h=3"):
        prepared.window_index("va", 5, [3])


def window_cells(prepared, tag, w, horizons, series):
    """The (series, time) cells that the windows of ``tag`` at ``horizons``
    read as inputs or targets, window by window from the window index."""
    cells = np.zeros((prepared.n_series, prepared.spec.total), dtype=bool)
    index = prepared.window_index(tag, w, horizons)
    for h in horizons:
        for t in index.end_times[h]:
            cells[series, t - w + 1:t + 1] = True
            cells[series, t + h] = True
    return cells


@pytest.mark.parametrize("tag", ["tr", "va", "te", "trval"])
def test_split_reads_mark_exactly_the_windows_cells(tag):
    """A split's audit grid is the union of its windows' input and target
    cells, and its rows less the shortest horizon's targets, viewed as
    sliding windows, are bitwise the windows' gather."""
    prepared = prepare(make_ds(n=4, t=44, p=2, seed=8), SplitSpec(24, 10, 10))
    cfg = TrainConfig(w=3)
    params = init_params(2, 2, 4, cfg.n_levels, seed=0)
    series = np.array([3, 1])
    for horizons in ((1,), (2, 5), (4, 1, 3)):
        prepared.audit.set_phase(str(horizons))
        split_forecasts([(params, series)], prepared, tag, horizons, cfg)
        np.testing.assert_array_equal(
            prepared.audit._touched[str(horizons)],
            window_cells(prepared, tag, cfg.w, horizons, series))
        h = min(horizons)
        rows = prepared.rows(tag, cfg.w, horizons, series)
        x, y = prepared.windows(tag, h, cfg.w, series)
        view = np.lib.stride_tricks.sliding_window_view(rows[:, :-h], cfg.w,
                                                        axis=1)
        assert np.swapaxes(view, 2, 3).reshape(x.shape).tobytes() == x.tobytes()
        assert rows[:, cfg.w - 1 + h:].reshape(y.shape).tobytes() == y.tobytes()


def test_split_read_leaves_the_rows_between_inputs_and_targets_unmarked():
    # w = 2 and h = 6 on a 7-step VAL from t0 = 20: the two windows read
    # t0 - 2 .. t0 and their targets t0 + 5 and t0 + 6, so t0 + 1 .. t0 + 4
    # are rows of the slice that no window reads. A direct spec: the CLI's
    # min_segment (window + max horizon = 8) refuses this split.
    prepared = prepare(make_ds(n=3, t=34, p=2, seed=9), SplitSpec(20, 7, 7))
    cfg = TrainConfig(w=2)
    params = init_params(2, 2, 4, cfg.n_levels, seed=0)
    prepared.audit.set_phase("gap")
    _, by_h = split_forecasts([(params, np.arange(3))], prepared, "va", (6,),
                              cfg)
    grid = prepared.audit._touched["gap"]
    np.testing.assert_array_equal(
        grid, window_cells(prepared, "va", 2, (6,), np.arange(3)))
    assert grid[:, [18, 19, 20, 25, 26]].all() and grid.sum() == 3 * 5
    assert not grid[:, 21:25].any()
    assert by_h[6][1].tobytes() == prepared.dataset.values[:, 25:27].tobytes()


def test_audit_records_phases_and_splits():
    ds = make_ds(n=2, t=30, p=2, seed=4)
    prepared = prepare(ds, SplitSpec(20, 5, 5))
    prepared.audit.set_phase("fit-global")
    prepared.windows("tr", 1, 4)
    prepared.audit.set_phase("reassign")
    prepared.windows("va", 1, 4)
    assert prepared.audit.counts("fit-global")["te"] == 0
    assert prepared.audit.counts("reassign")["te"] == 0
    assert prepared.audit.counts("reassign")["va"] > 0
    # VAL windows legitimately reach back into TRAIN
    assert prepared.audit.counts("reassign")["tr"] > 0
    assert prepared.audit.test_reads_outside() == 0
    prepared.audit.set_phase("evaluate")
    prepared.windows("te", 1, 4)
    assert prepared.audit.counts("evaluate")["te"] > 0
    assert prepared.audit.test_reads_outside(allowed=("evaluate",)) == 0
    assert [ph for ph in ("fit-global", "reassign", "evaluate")
            if prepared.audit.counts(ph)["te"] > 0] == ["evaluate"]
    assert prepared.audit.phases() == ["fit-global", "reassign", "evaluate"]


def test_trval_segment_for_refit():
    ds = make_ds(n=1, t=30, p=1)
    prepared = prepare(ds, SplitSpec(20, 5, 5))
    x, y = prepared.windows("trval", 1, 4)
    # self-contained over [0, 25): end-times 3..23
    assert len(x) == 21
    assert prepared.audit.counts(prepared.audit.phase)["te"] == 0
