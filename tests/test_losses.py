import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poolcast.losses import (REPORT_COLUMNS, interval_stats, loss_elem,
                             paper_scale, summarize_method, write_report_csv)
from poolcast.model import TrainConfig

from oracles import empirical_quantile, huber


def huber_mean(pred, target, delta):
    """Mean of :func:`loss_elem` "huber" over the components of one forecast."""
    return float(loss_elem("huber", np.asarray(pred, dtype=np.float64),
                           np.asarray(target, dtype=np.float64),
                           TrainConfig(huber_delta=delta)).mean())


def pinball_mean(pred, targets, q):
    """Mean of :func:`loss_elem` "pinball" of the one-level, one-component
    forecast ``pred`` against each of ``targets``."""
    targets = np.asarray(targets, dtype=np.float64).reshape(-1, 1)
    fan = np.full((len(targets), 1, 1), float(pred))
    return float(loss_elem("pinball", fan, targets,
                           TrainConfig(quantiles=(q,))).mean())


# ---------------------------------------------------------------------------
# huber
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("e,delta,expected", [
    (0.5, 1.0, 0.125),
    (2.0, 1.0, 1.5),
    (-2.0, 1.0, 1.5),
    (1.0, 1.0, 0.5),
])
def test_huber_scalar_values(e, delta, expected):
    assert huber_mean([e], [0.0], delta) == pytest.approx(expected, abs=1e-12)


def test_huber_component_mean():
    assert huber_mean([0.5, 2.0], [0.0, 0.0], 1.0) == pytest.approx(0.8125, abs=1e-12)


def test_huber_smooth_at_transition():
    delta, eps = 1.0, 1e-7
    left = (huber_mean([delta], [0.0], delta)
            - huber_mean([delta - eps], [0.0], delta)) / eps
    right = (huber_mean([delta + eps], [0.0], delta)
             - huber_mean([delta], [0.0], delta)) / eps
    assert abs(left - right) < 1e-6


@given(st.floats(-50, 50), st.floats(0.1, 5.0))
@settings(max_examples=200, deadline=None)
def test_huber_upper_bounds(e, delta):
    v = huber_mean([e], [0.0], delta)
    assert v <= 0.5 * e * e + 1e-12
    assert v <= delta * abs(e) + 1e-12


# ---------------------------------------------------------------------------
# pinball
# ---------------------------------------------------------------------------


def test_pinball_asymmetry():
    # u = target - pred
    assert pinball_mean(0.0, [1.0], 0.9) == pytest.approx(0.9, abs=1e-12)
    assert pinball_mean(0.0, [-1.0], 0.9) == pytest.approx(0.1, abs=1e-12)
    assert pinball_mean(5.0, [5.0], 0.3) == 0.0


def test_multi_pinball_averages_levels_and_components():
    preds = np.array([[0.0, 0.0], [1.0, 1.0]])  # levels 0.2 and 0.8
    target = np.array([1.0, 1.0])
    # u = 1 at level 0.2 on both components (0.2 each), u = 0 at level 0.8
    expected = (0.2 + 0.2 + 0.0 + 0.0) / 4
    cfg = TrainConfig(quantiles=(0.2, 0.8))
    elems = loss_elem("pinball", preds, target, cfg)
    assert elems.shape == (2, 2)
    assert elems.mean() == pytest.approx(expected)


def test_pinball_refuses_a_fan_of_another_level_count():
    # a point model's one-level fan against the three default levels would
    # broadcast to three levels' losses; it is refused instead
    with pytest.raises(ValueError, match="3 levels given but fan has 1"):
        loss_elem("pinball", np.zeros((4, 1, 2)), np.zeros((4, 2)), TrainConfig())


def test_empirical_minimizer_matches_sort_oracle_fixed():
    sample = np.arange(1.0, 11.0)
    assert empirical_quantile(sample, 0.3) == 3.0
    losses = [pinball_mean(a, sample, 0.3) for a in sample]
    best = sample[int(np.argmin(losses))]
    oracle_loss = pinball_mean(3.0, sample, 0.3)
    assert min(losses) <= oracle_loss + 1e-12
    assert best == 3.0


@given(st.integers(0, 10_000), st.sampled_from([0.1, 0.25, 0.5, 0.7, 0.9]))
@settings(max_examples=100, deadline=None)
def test_empirical_minimizer_property(seed, q):
    rng = np.random.default_rng(seed)
    sample = rng.normal(size=rng.integers(3, 40))
    candidates = np.unique(sample)
    losses = [pinball_mean(a, sample, q) for a in candidates]
    oracle = empirical_quantile(sample, q)
    oracle_loss = pinball_mean(oracle, sample, q)
    assert min(losses) <= oracle_loss + 1e-12
    # the sort-oracle quantile is itself a minimizer
    assert oracle_loss <= min(losses) + 1e-12


# ---------------------------------------------------------------------------
# intervals and report rows
# ---------------------------------------------------------------------------


def test_interval_stats_basics():
    cov, wid = interval_stats(np.array([0.0]), np.array([-1.0]), np.array([1.0]))
    assert cov == 1.0 and wid == 2.0
    big = 1e300
    cov, wid = interval_stats(np.array([5.0, -7.0]),
                              np.array([-big, -big]), np.array([big, big]))
    assert cov == 1.0
    cov, wid = interval_stats(np.array([3.0]), np.array([3.0]), np.array([3.0]))
    assert cov == 1.0 and wid == 0.0


def test_summarize_method_delta_and_ben():
    ref = np.array([10.0, 10.0])
    # method: mse 8 on both series -> delta +20, ben 100
    row = summarize_method("m", 1, np.array([8.0, 8.0]), np.array([1.0, 1.0]),
                           ref, fallback_share=0.3)
    assert row["delta_pct"] == pytest.approx(20.0)
    assert row["ben_pct"] == 100.0
    assert row["fb_pct"] == pytest.approx(30.0)
    # ties count as not benefited
    row = summarize_method("m", 1, np.array([10.0, 8.0]), np.array([1.0, 1.0]),
                           ref, fallback_share=0.0)
    assert row["ben_pct"] == 50.0


def test_split_mean_loss_sentinel_and_mean():
    from poolcast.data import SplitSpec, prepare
    from poolcast.losses import per_series_split_losses
    from poolcast.model import init_params, rollout
    from poolcast.synthetic import SyntheticSpec, generate

    ds, _ = generate(SyntheticSpec(n_series=2, n_times=40, n_components=2,
                                   n_regimes=2, seed=0))
    prepared = prepare(ds, SplitSpec(26, 7, 7))
    cfg = TrainConfig(w=4, seed=0)
    params = init_params(2, 2, 4, cfg.n_levels, seed=0)

    def series_0(h):
        return float(per_series_split_losses(params, prepared, "va", h, cfg,
                                             series=[0])[0])

    # mean over windows equals the mean of manually computed per-window losses
    got = series_0(1)
    x, y = prepared.windows("va", 1, cfg.w, [0])
    per_window = [huber(rollout(params, w_[None], 1, cfg)[0, -1, 0], t,
                        cfg.huber_delta)
                  for w_, t in zip(x, y)]
    assert got == pytest.approx(np.mean(per_window), rel=0, abs=1e-15)

    # h=7 leaves exactly one valid window: the mean of one is that loss
    single = series_0(7)
    x7, y7 = prepared.windows("va", 7, cfg.w, [0])
    assert len(x7) == 1
    only = huber(rollout(params, x7[:1], 7, cfg)[0, -1, 0], y7[0],
                 cfg.huber_delta)
    assert single == pytest.approx(only, rel=0, abs=1e-15)
    # h=8 exceeds the segment: refused, not a mean over no window
    with pytest.raises(ValueError, match="segment 'va' has no window at w=4, h=8"):
        series_0(8)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(l2sp_weight=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(huber_delta=0.0)
    with pytest.raises(ValueError):
        TrainConfig(quantiles=(0.5, 0.1))
    with pytest.raises(ValueError):
        TrainConfig(quantiles=(0.0, 0.5))
    with pytest.raises(ValueError):
        TrainConfig(mode="soft")


def test_metrics_row_from_streams():
    rng = np.random.default_rng(0)
    targets = rng.normal(size=(10, 5, 2))
    ref = targets + 1.0          # per-series reference MSE exactly 1
    preds = targets.copy()
    preds[3:] = targets[3:] + 2.0  # three series beat the reference
    cfg = TrainConfig(quantiles=(0.1, 0.5, 0.9))

    def series_mean(kind, pred):
        return loss_elem(kind, pred, targets, cfg).mean(axis=(1, 2))

    row = summarize_method("m", 1, series_mean("mse", preds),
                           series_mean("mae", preds), series_mean("mse", ref),
                           fallback_share=0.3)
    assert row["ben_pct"] == pytest.approx(30.0)
    assert row["fb_pct"] == pytest.approx(30.0)
    assert row["mse"] == pytest.approx((3 * 0.0 + 7 * 4.0) / 10)
    assert row["mae"] == pytest.approx((3 * 0.0 + 7 * 2.0) / 10)
    assert row["delta_pct"] == pytest.approx(100.0 * (1.0 - row["mse"]) / 1.0)

    coverage, width = interval_stats(targets, targets - 1.0, targets + 1.0)
    fan = np.stack([targets - 0.5, targets, targets + 0.5], axis=2)
    series_pin = loss_elem("pinball", fan, targets, cfg).mean(axis=(1, 2, 3))
    row = summarize_method("m", 1, series_mean("mse", preds),
                           series_mean("mae", preds), series_mean("mse", ref),
                           0.0, series_pin, coverage, width)
    assert row["coverage"] == 1.0 and row["width"] == pytest.approx(2.0)
    # fan offsets -0.5 / 0 / +0.5 at levels 0.1 / 0.5 / 0.9:
    # rho = 0.5*0.1, 0, 0.5*(1-0.9), averaged over the three levels
    expected_pin = (0.5 * 0.1 + 0.0 + 0.5 * (1 - 0.9)) / 3
    assert row["pinball"] == pytest.approx(expected_pin)


def test_metric_table_serialization(tmp_path):
    # mse 0.0758 and mae 0.1521 against itself: delta, ben and fb all 0
    rows = [summarize_method("global", 1, np.array([0.0758]),
                             np.array([0.1521]), np.array([0.0758]), 0.0)]
    path = tmp_path / "t.csv"
    write_report_csv(str(path), paper_scale(rows), REPORT_COLUMNS)
    text = path.read_text().splitlines()
    assert text[0].startswith("method,horizon,mse")
    assert "7.58" in text[1]  # x100 convention
    rec = rows[0]
    assert rec["pinball"] is None
