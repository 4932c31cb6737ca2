import math
from dataclasses import replace

import numpy as np
import pytest

from poolcast import clustering, model
from poolcast.baselines import (fit_baseline, fit_individual, kmeans,
                                training_feature_vectors)
from poolcast.clustering import SelectionConfig
from poolcast.data import SplitSpec, prepare
from poolcast.model import TrainConfig, derive_seed, init_params, train
from poolcast.synthetic import SyntheticSpec, generate

CFG = TrainConfig(w=6, epochs=4, batch=64, mode="point", seed=0)


def report_row(report, method, horizon):
    """The row of ``method`` at ``horizon`` in an evaluation's report."""
    (row,) = [r for r in report
              if r["method"] == method and r["horizon"] == horizon]
    return row


@pytest.fixture(scope="module")
def world():
    ds, labels = generate(SyntheticSpec(n_series=9, n_times=120,
                                        n_components=4, n_regimes=3, seed=5))
    prepared = prepare(ds, SplitSpec(80, 20, 20))
    x, y = prepared.windows("tr", 1, CFG.w)
    gp = train(init_params(4, 3, 8, CFG.n_levels, seed=1), None, x, y, CFG)
    return prepared, gp, labels


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------


def test_kmeans_recovers_separated_blobs():
    rng = np.random.default_rng(0)
    blob_a = rng.normal(0.0, 0.2, size=(20, 3))
    blob_b = rng.normal(6.0, 0.2, size=(20, 3))
    labels = kmeans(np.vstack([blob_a, blob_b]), 2, seed=0)
    assert len(set(labels[:20])) == 1
    assert len(set(labels[20:])) == 1
    assert labels[0] != labels[20]


def test_kmeans_k_equals_n_zero_inertia():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(6, 2))
    labels = kmeans(x, 6, seed=3)
    assert sorted(labels) == list(range(6))


def test_kmeans_identical_points_repair():
    x = np.zeros((5, 2))
    labels = kmeans(x, 2, seed=0)
    # repair leaves both clusters non-empty
    assert set(labels) == {0, 1}


def test_kmeans_deterministic_and_bounded():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(30, 4))
    a = kmeans(x, 4, seed=7)
    b = kmeans(x, 4, seed=7)
    np.testing.assert_array_equal(a, b)
    with pytest.raises(ValueError):
        kmeans(x, 31, seed=0)


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------


def test_feature_vectors_shape_and_train_only(world):
    prepared, _, _ = world
    feats = training_feature_vectors(prepared)
    assert feats.shape == (9, 8)  # 2P with P=4
    prepared.dataset.values.flags.writeable = True
    prepared.dataset.values[:, 80:, :] += 123.0
    try:
        feats_b = training_feature_vectors(prepared)
        assert np.array_equal(feats, feats_b)
    finally:
        prepared.dataset.values[:, 80:, :] -= 123.0
        prepared.dataset.values.flags.writeable = False


def test_feature_vectors_separate_regimes(world):
    prepared, _, labels = world
    feats = training_feature_vectors(prepared)
    d2 = ((feats[:, None, :] - feats[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    acc = np.mean(labels[np.argmin(d2, axis=1)] == labels)
    assert acc > 0.9


# ---------------------------------------------------------------------------
# baseline runners
# ---------------------------------------------------------------------------


def test_fit_baseline_selects_k_and_seed(world):
    prepared, gp, _ = world
    sel = SelectionConfig(candidates=(2, 3), seeds=(0, 1), assign_horizons=(1,))
    fit = fit_baseline("random_balanced", prepared, gp, CFG, sel, proto_epochs=1)
    assert fit.k_star in (2, 3) and fit.seed_star in (0, 1)
    assert len(fit.table) == 4
    best = min(fit.table, key=lambda r: (r["sel_pen"], r["k"], r["seed"]))
    assert (fit.k_star, fit.seed_star) == (best["k"], best["seed"])
    # labels stay at their initial deal: no reassignment iterations
    assert fit.assignment.iterations == 0
    assert [t.tolist() for t in fit.label_trace] == [fit.assignment.labels.tolist()]


def test_individual_baseline_one_model_per_series(world, monkeypatch):
    prepared, gp, _ = world
    # the reference: each series' model trained on its own
    reference = [train(
        init_params(gp.p_dim, gp.latent, gp.hidden, gp.n_levels,
                    derive_seed(CFG.seed, "individual", i)),
        None, *prepared.windows("tr", 1, CFG.w, [i]),
        replace(CFG, seed=derive_seed(CFG.seed, "fit-ind", i)))
        for i in range(9)]
    # in one stack, and in stacks of four, four and one
    one = model._Workspace.specs(gp, 1, CFG.batch, CFG.w)
    for budget in (model.STACK_BYTES,
                   4 * 8 * sum(math.prod(s) for _, s in one)):
        monkeypatch.setattr(model, "STACK_BYTES", budget)
        models = fit_individual(prepared, gp, CFG)
        assert len(models) == 9
        # distinct parameters per series
        assert not np.array_equal(models[0].flat, models[1].flat)
        for params, alone in zip(models, reference):
            assert params.flat.tobytes() == alone.flat.tobytes()


def test_all_flagged_collapses_to_global_bitwise(world):
    prepared, gp, _ = world
    a = clustering.init_assignments(9, 3, seed=0)
    protos = [p.copy() for p in [gp, gp, gp]]
    rng = np.random.default_rng(0)
    for p in protos:
        p.flat[p.spec_offset:] += rng.normal(scale=9.0,
                                             size=p.flat.size - p.spec_offset)
    own = clustering.group_val_losses(
        prepared, [(protos[j], a.members(j)) for j in range(3)], CFG, kind="mse")
    pooled = clustering.group_val_losses(prepared, [(gp, np.arange(9))], CFG,
                                         kind="mse")
    flags = clustering.compute_fallback(clustering.cluster_val_means(a, own, pooled))
    assert flags.flagged == (True, True, True)
    art = clustering.final_refit_and_test(prepared, a, flags, gp, protos, CFG,
                                          horizons=(1,), method="random_balanced",
                                          refit_epochs=2)
    row_g = report_row(art.report, "global", 1)
    row_m = report_row(art.report, "random_balanced", 1)
    assert row_m["fb_pct"] == 100.0
    assert row_m["mse"] == row_g["mse"] and row_m["mae"] == row_g["mae"]
    assert row_m["delta_pct"] == 0.0 and row_m["ben_pct"] == 0.0
    np.testing.assert_array_equal(art.series_mse[("random_balanced", 1)],
                                  art.series_mse[("global", 1)])


def test_global_method_reports_global_row_only(world):
    prepared, gp, _ = world
    art = clustering.final_refit_and_test(prepared, None, None, gp, None, CFG,
                                          horizons=(1,), method="global",
                                          refit_epochs=1)
    methods = {r["method"] for r in art.report}
    assert methods == {"global"}
