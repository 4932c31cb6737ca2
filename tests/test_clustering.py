import ctypes
import itertools
import os
import tracemalloc

from dataclasses import replace

import numpy as np
import pytest

from poolcast import clustering, losses
from poolcast.baselines import fit_baseline
from poolcast.clustering import (Assignment, CostMatrix, FallbackFlags,
                                 SelectionConfig, assign_new_series,
                                 LoopResult, cluster_val_means,
                                 compute_cost_matrix, compute_fallback,
                                 fit_prototypes, group_val_losses,
                                 init_assignments, outer_loop, reassign,
                                 run_sweep, val_risk_pair)
from poolcast.data import SplitSpec, prepare
from poolcast.model import (TrainConfig, TrainingDiverged, derive_seed,
                            init_params, rollout, train, train_stacked)
from poolcast.synthetic import SyntheticSpec, generate

from oracles import huber

CFG = TrainConfig(w=6, epochs=4, batch=64, mode="point", seed=0)

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="sweep workers are forked")


@pytest.fixture(scope="module")
def small_world():
    """Tiny heterogeneous dataset with a trained pooled model."""
    ds, labels = generate(SyntheticSpec(n_series=9, n_times=120,
                                        n_components=4, n_regimes=3, seed=5))
    prepared = prepare(ds, SplitSpec(80, 20, 20))
    x, y = prepared.windows("tr", 1, CFG.w)
    global_params = train(init_params(4, 3, 8, 3, seed=1), None, x, y, CFG)
    return prepared, global_params, labels


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def test_random_balanced_sizes():
    a = init_assignments(6, 2, seed=0)
    assert sorted(a.sizes()) == [3, 3]
    b = init_assignments(7, 3, seed=1)
    assert sorted(b.sizes()) == [2, 2, 3]


def test_init_deterministic_per_seed():
    a = init_assignments(20, 4, seed=9)
    b = init_assignments(20, 4, seed=9)
    np.testing.assert_array_equal(a.labels, b.labels)
    c = init_assignments(20, 4, seed=10)
    assert not np.array_equal(a.labels, c.labels)


def test_init_rejects_k_above_n():
    with pytest.raises(ValueError):
        init_assignments(3, 4, seed=0)


def test_feature_init_uses_kmeans():
    rng = np.random.default_rng(0)
    feats = np.concatenate([rng.normal(0, 0.1, size=(5, 2)),
                            rng.normal(8, 0.1, size=(5, 2))])
    a = init_assignments(10, 2, seed=0, strategy="feature", features=feats)
    assert len(set(a.labels[:5])) == 1
    assert len(set(a.labels[5:])) == 1
    assert a.labels[0] != a.labels[5]


# ---------------------------------------------------------------------------
# reassignment
# ---------------------------------------------------------------------------


def test_reassign_argmin_and_ties():
    c = np.array([[0.3, 0.1, 0.2], [0.1, 0.1, 0.5], [np.nan, 0.2, 0.1]])
    cost = CostMatrix(c, {1: c})
    prev = Assignment(np.array([0, 2, 0]), 3)
    new = reassign(cost, prev)
    np.testing.assert_array_equal(new.labels, [1, 0, 2])


def test_reassign_keeps_label_for_undefined_rows():
    c = np.array([[np.nan, np.nan], [0.5, 0.1]])
    cost = CostMatrix(c, {1: c})
    prev = Assignment(np.array([1, 0]), 2)
    new = reassign(cost, prev)
    assert new.labels[0] == 1 and new.labels[1] == 1


def test_reassign_attains_row_minimum():
    rng = np.random.default_rng(0)
    c = rng.uniform(size=(12, 4))
    new = reassign(CostMatrix(c, {1: c}), Assignment(np.zeros(12, dtype=int), 4))
    assert np.sum(c[np.arange(12), new.labels]) == np.sum(c.min(axis=1))


def test_reassign_matches_bruteforce_enumeration():
    rng = np.random.default_rng(3)
    c = rng.uniform(size=(6, 2))
    new = reassign(CostMatrix(c, {1: c}), Assignment(np.zeros(6, dtype=int), 2))
    got = np.sum(c[np.arange(6), new.labels])
    best = min(sum(c[i, lab[i]] for i in range(6))
               for lab in itertools.product(range(2), repeat=6))
    assert got == best


def test_reassign_never_increases_cost():
    rng = np.random.default_rng(4)
    c = rng.uniform(size=(15, 3))
    prev_labels = rng.integers(0, 3, size=15)
    new = reassign(CostMatrix(c, {1: c}), Assignment(prev_labels, 3))
    assert (np.sum(c[np.arange(15), new.labels])
            <= np.sum(c[np.arange(15), prev_labels]))


# ---------------------------------------------------------------------------
# prototypes, cost matrix, loop
# ---------------------------------------------------------------------------


def test_fit_prototypes_empty_cluster_is_inert_global_copy(small_world):
    prepared, gp, _ = small_world
    a = Assignment(np.zeros(9, dtype=int), 2)  # cluster 1 empty
    protos, inert = fit_prototypes(prepared, a, gp, CFG, proto_epochs=1)
    assert inert[1] and not inert[0]
    assert np.array_equal(protos[1].flat, gp.flat)
    assert not np.array_equal(protos[0].flat, gp.flat)


def test_fit_prototypes_train_each_cluster_as_on_its_own(small_world):
    # unequal member counts (74 windows a series), an empty cluster, and with
    # batches of 100 partial last batches and a one-series cluster below one
    # batch
    prepared, gp, _ = small_world
    a = Assignment(np.array([0, 0, 0, 0, 1, 1, 3, 4, 4]), 5)
    cfg = replace(CFG, batch=100)
    protos, inert = fit_prototypes(prepared, a, gp, cfg, proto_epochs=2)
    assert inert.tolist() == [False, False, True, False, False]
    for k in range(5):
        if inert[k]:
            assert protos[k].flat.tobytes() == gp.flat.tobytes()
            continue
        x, y = prepared.windows("tr", 1, cfg.w, a.members(k))
        alone = train(gp, gp, x, y, cfg, epochs=2)
        assert protos[k].flat.tobytes() == alone.flat.tobytes()


def test_refit_prototypes_train_each_cluster_as_on_its_own(small_world):
    prepared, gp, _ = small_world
    a = Assignment(np.array([0, 0, 0, 0, 1, 1, 3, 2, 2]), 4)
    flags = FallbackFlags((False, True, False, False))
    protos, _ = fit_prototypes(prepared, a, gp, CFG, proto_epochs=1)
    art = clustering.final_refit_and_test(prepared, a, flags, gp, protos, CFG,
                                          horizons=(1,), refit_epochs=2)
    refit_global = art.refit_global
    served = {tuple(ids): params for params, ids in art.groups}
    for k in range(4):
        members = a.members(k)
        routed = served[tuple(members)]
        if flags.flagged[k]:
            assert routed is refit_global
            continue
        warm = protos[k].copy()
        warm.mix[...] = refit_global.mix
        x, y = prepared.windows("trval", 1, CFG.w, members)
        alone = train(warm, refit_global, x, y,
                      replace(CFG, seed=derive_seed(CFG.seed, "refit-proto", k)),
                      epochs=2)
        assert routed.flat.tobytes() == alone.flat.tobytes()


@pytest.mark.parametrize("method", ["cluster", "individual", "global"])
def test_refit_groups_cover_every_series_once_in_first_use_order(small_world,
                                                                 method):
    """The evaluated models as (params, series) groups: the refit pooled
    model with the series of flagged clusters, each kept cluster's refit
    prototype with its members, or one refit model per series; ordered by
    their lowest series id, ids ascending."""
    prepared, gp, _ = small_world
    a = Assignment(np.array([1, 0, 0, 2, 1, 3, 3, 2, 0]), 4)
    flags = FallbackFlags((False, True, False, True))
    protos, _ = fit_prototypes(prepared, a, gp, CFG, proto_epochs=1)
    kwargs = {"cluster": dict(assignment=a, flags=flags, prototypes=protos),
              "individual": dict(assignment=None, flags=None, prototypes=None,
                                 individual_models=[gp] * 9),
              "global": dict(assignment=None, flags=None, prototypes=None)}
    art = clustering.final_refit_and_test(
        prepared, global_params=gp, cfg=CFG, horizons=(1,), method=method,
        refit_epochs=1, **kwargs[method])
    ids = [ids.tolist() for _, ids in art.groups]
    assert sorted(sum(ids, [])) == list(range(9))
    assert [i[0] for i in ids] == sorted(i[0] for i in ids)
    assert all(i == sorted(i) for i in ids)
    pooled = [i.tolist() for params, i in art.groups
              if params is art.refit_global]
    models = [params for params, _ in art.groups]
    assert len({id(m) for m in models}) == len(models)
    if method == "cluster":
        assert ids == [[0, 4, 5, 6], [1, 2, 8], [3, 7]]
        assert pooled == [[0, 4, 5, 6]]
    elif method == "individual":
        assert ids == [[i] for i in range(9)] and pooled == []
        # each series' refit is its own one-model fit on its TRAIN+VAL windows
        for i, params in enumerate(models):
            (alone,) = train_stacked(
                [gp], None, [prepared.windows("trval", 1, CFG.w, [i])], CFG,
                [derive_seed(CFG.seed, "refit-individual", i)], epochs=1)
            assert params.flat.tobytes() == alone.flat.tobytes()
    else:
        assert ids == pooled == [list(range(9))]


def test_prototypes_share_frozen_mix(small_world):
    prepared, gp, _ = small_world
    a = init_assignments(9, 3, seed=0)
    protos, _ = fit_prototypes(prepared, a, gp, CFG, proto_epochs=2)
    for proto in protos:
        np.testing.assert_array_equal(proto.mix, gp.mix)


def test_large_anchor_weight_keeps_prototypes_at_global(small_world):
    prepared, gp, _ = small_world
    a = init_assignments(9, 3, seed=0)
    cfg = TrainConfig(w=6, epochs=4, batch=64, seed=0, l2sp_weight=1e6, lr=1e-4)
    protos, _ = fit_prototypes(prepared, a, gp, cfg, proto_epochs=3)
    for proto in protos:
        assert np.max(np.abs(proto.flat - gp.flat)) < 1e-3


def test_cost_matrix_single_k_and_single_horizon(small_world):
    prepared, gp, _ = small_world
    cost = compute_cost_matrix(prepared, [gp], (1,), CFG)
    assert cost.values.shape == (9, 1)
    per = losses.per_series_split_losses(gp, prepared, "va", 1, CFG)
    np.testing.assert_array_equal(cost.values[:, 0], per)
    new = reassign(cost, Assignment(np.zeros(9, dtype=int), 1))
    np.testing.assert_array_equal(new.labels, np.zeros(9))


def test_cost_matrix_agrees_with_composition_oracle(small_world):
    # rollout-based entries equal the manual one-step composition exactly
    prepared, gp, _ = small_world
    cost = compute_cost_matrix(prepared, [gp], (3,), CFG)
    x, y = prepared.windows("va", 3, CFG.w, [2])
    preds = []
    for window in x:
        cur = window.copy()
        for step in range(3):
            p = rollout(gp, cur[None], 1, CFG)[0][:, -1][0]
            cur = np.concatenate([cur[1:], p[None, :]], axis=0)
        preds.append(p)
    manual = np.mean([huber(p, t, CFG.huber_delta)
                      for p, t in zip(preds, y)])
    assert cost.values[2, 0] == pytest.approx(manual, abs=0, rel=0)


def test_cost_matrix_keeps_each_horizon_and_h1(small_world):
    prepared, gp, _ = small_world
    other = gp.copy()
    other.flat[other.spec_offset:] += 0.05
    cost = compute_cost_matrix(prepared, [gp, other], (3, 6), CFG)
    assert sorted(cost.by_horizon) == [1, 3, 6]
    for h in (1, 3, 6):
        for k, proto in enumerate([gp, other]):
            np.testing.assert_array_equal(
                cost.by_horizon[h][:, k],
                losses.per_series_split_losses(proto, prepared, "va", h, CFG))
    np.testing.assert_array_equal(
        cost.values, np.mean([cost.by_horizon[3], cost.by_horizon[6]], axis=0))


@pytest.mark.parametrize("mode", ["point", "quantile"])
def test_cost_matrix_holds_one_prototype_panel_at_a_time(small_world, mode):
    # tracemalloc counts NumPy's buffers: scoring four prototypes peaks no
    # higher than scoring one, because each panel is released before the
    # next prototype's rollout
    prepared, gp, _ = small_world
    cfg = replace(CFG, mode=mode)
    protos = [gp.copy() for _ in range(4)]
    for j, proto in enumerate(protos):
        proto.flat[proto.spec_offset:] += 0.01 * j
    compute_cost_matrix(prepared, protos[:1], (1, 3, 6), cfg)  # warm caches
    peaks = []
    for k in (1, 4):
        tracemalloc.start()
        try:
            compute_cost_matrix(prepared, protos[:k], (1, 3, 6), cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0]


@pytest.mark.parametrize("mode", ["point", "quantile"])
def test_own_losses_of_member_batches_equal_the_cost_matrix(small_world, mode):
    # the fallback reads each series' own-prototype loss from the cost
    # matrix, scored in one all-series batch; member-only batches agree
    prepared, gp, _ = small_world
    cfg = replace(CFG, mode=mode)
    kind = "pinball" if mode == "quantile" else "huber"
    for seed in range(3):
        a = init_assignments(9, 3, seed=seed)
        protos, _ = fit_prototypes(prepared, a, gp, cfg, proto_epochs=1)
        cost = compute_cost_matrix(prepared, protos, (1, 3), cfg)
        own = group_val_losses(prepared, member_groups(a, protos), cfg, kind)
        assert own.tobytes() == cost.own_losses(a).tobytes()


@pytest.mark.parametrize("tag", ["va", "te"])
@pytest.mark.parametrize("mode", ["point", "quantile"])
def test_split_forecasts_over_horizons_equal_single_horizon_calls(
        small_world, mode, tag):
    prepared, gp, _ = small_world
    cfg = replace(CFG, mode=mode)
    other = gp.copy()
    other.flat[other.spec_offset:] += 0.05
    groups = [(gp, np.array([0, 4, 7])), (other, np.array([1, 2, 3, 5, 6, 8]))]
    horizons = (1, 3, 6, 21)  # a 20-step segment has no windows at h = 21

    def assert_bitwise(got, want):
        for g, w in zip(got, want, strict=True):
            if w is None:
                assert g is None
            else:
                assert g.shape == w.shape
                assert g.tobytes() == w.tobytes()

    prepared.audit.set_phase("multi")
    series, multi = losses.split_forecasts(groups, prepared, tag, horizons, cfg)
    prepared.audit.set_phase("single")
    for h in horizons:
        ids_s, single = losses.split_forecasts(groups, prepared, tag, (h,), cfg)
        np.testing.assert_array_equal(series, ids_s)
        assert_bitwise(multi[h], single[h])
    assert multi[21][2].shape == (9, 0, 4)
    assert prepared.audit.counts("multi") == prepared.audit.counts("single")
    np.testing.assert_array_equal(prepared.audit._touched["multi"],
                                  prepared.audit._touched["single"])
    # the panel: the groups' ids in group order, and each group's rows
    # exactly its own call's forecasts
    np.testing.assert_array_equal(series, [0, 4, 7, 1, 2, 3, 5, 6, 8])
    start = 0
    for params, ids in groups:
        own_ids, own = losses.split_forecasts([(params, ids)], prepared, tag,
                                              horizons, cfg)
        assert own_ids is ids
        rows = slice(start, start + len(ids))
        for h in horizons:
            assert_bitwise([None if a is None else a[rows] for a in multi[h]],
                           own[h])
        start += len(ids)


def test_outer_loop_stops_at_fixed_point(small_world):
    prepared, gp, _ = small_world
    sel = SelectionConfig(candidates=(2,), seeds=(0,), max_outer_iters=10,
                          assign_horizons=(1,))
    init = init_assignments(9, 2, seed=3)
    loop = outer_loop(prepared, gp, init, CFG, sel, proto_epochs=2)
    if loop.converged:
        assert np.array_equal(loop.label_trace[-1], loop.label_trace[-2])
        assert loop.assignment.iterations <= 10
    cap = SelectionConfig(candidates=(2,), seeds=(0,), max_outer_iters=1,
                          assign_horizons=(1,))
    loop1 = outer_loop(prepared, gp, init, CFG, cap, proto_epochs=2)
    assert loop1.assignment.iterations == 1
    assert len(loop1.label_trace) == 2


# ---------------------------------------------------------------------------
# fallback and routed risk
# ---------------------------------------------------------------------------


def member_groups(assignment, protos):
    """(prototype, members) of every cluster."""
    return [(protos[j], assignment.members(j))
            for j in range(assignment.n_clusters)]


def val_means(prepared, assignment, protos, gp):
    """(sizes, cluster means, pooled means) of the members' VAL losses at h=1."""
    return cluster_val_means(
        assignment,
        group_val_losses(prepared, member_groups(assignment, protos), CFG),
        group_val_losses(prepared, [(gp, np.arange(prepared.n_series))], CFG))


def test_fallback_equality_is_not_flagged(small_world):
    prepared, gp, _ = small_world
    a = init_assignments(9, 3, seed=0)
    protos = [gp.copy(), gp.copy(), gp.copy()]
    flags = compute_fallback(val_means(prepared, a, protos, gp))
    assert flags.flagged == (False, False, False)


def test_fallback_flags_corrupted_prototype(small_world):
    prepared, gp, _ = small_world
    a = init_assignments(9, 3, seed=0)
    protos = [gp.copy(), gp.copy(), gp.copy()]
    rng = np.random.default_rng(0)
    protos[1].flat[protos[1].spec_offset:] += rng.normal(
        scale=5.0, size=protos[1].flat.size - protos[1].spec_offset)
    flags = compute_fallback(val_means(prepared, a, protos, gp))
    assert flags.flagged[1] is True
    assert flags.flagged[0] is False and flags.flagged[2] is False


def test_empty_cluster_flagged_by_convention(small_world):
    prepared, gp, _ = small_world
    a = Assignment(np.zeros(9, dtype=int), 2)
    flags = compute_fallback(val_means(prepared, a, [gp.copy(), gp.copy()], gp))
    assert flags.flagged[1] is True


def test_routed_risk_full_fallback_equals_global(small_world):
    prepared, gp, _ = small_world
    a = init_assignments(9, 3, seed=1)
    protos, _ = fit_prototypes(prepared, a, gp, CFG, proto_epochs=1)
    flags = FallbackFlags(flagged=(True, True, True))
    routed, glob = val_risk_pair(val_means(prepared, a, protos, gp), flags)
    assert routed == glob


def test_routed_risk_dominance_exact(small_world):
    prepared, gp, _ = small_world
    for seed in range(4):
        a = init_assignments(9, 3, seed=seed)
        protos, _ = fit_prototypes(prepared, a, gp, CFG, proto_epochs=2)
        means = val_means(prepared, a, protos, gp)
        routed, glob = val_risk_pair(means, compute_fallback(means))
        assert routed <= glob
        no_fallback = FallbackFlags(flagged=(False,) * 3)
        fully, _ = val_risk_pair(means, no_fallback)
        assert routed <= fully


def test_fallback_frozen_against_test_perturbation(small_world):
    prepared, gp, _ = small_world
    a = init_assignments(9, 3, seed=0)
    protos, _ = fit_prototypes(prepared, a, gp, CFG, proto_epochs=1)
    flags = compute_fallback(val_means(prepared, a, protos, gp))
    before = tuple(flags.flagged)
    # flags live in a frozen dataclass; mutating TEST data afterwards cannot
    # change them because nothing recomputes after the freeze
    prepared.dataset.values.flags.writeable = True
    prepared.dataset.values[:, 100:, :] += 99.0
    assert tuple(flags.flagged) == before
    prepared.dataset.values[:, 100:, :] -= 99.0
    prepared.dataset.values.flags.writeable = False


def test_group_val_losses_leave_ungrouped_series_nan(small_world):
    prepared, gp, _ = small_world
    other = gp.copy()
    other.flat[other.spec_offset:] += 0.05
    groups = [(gp, np.array([4, 0])), (other, np.array([7]))]
    for kind in (None, "mse"):
        got = group_val_losses(prepared, groups, CFG, kind=kind)
        for params, ids in groups:
            want = losses.per_series_split_losses(params, prepared, "va", 1, CFG,
                                                  kind=kind, series=ids)
            assert got[ids].tobytes() == want.tobytes()
        assert np.isnan(np.delete(got, [0, 4, 7])).all()


def test_group_val_losses_need_a_val_window_at_h1(small_world):
    _, gp, _ = small_world
    ds, _ = generate(SyntheticSpec(n_series=3, n_times=120, n_components=4,
                                   n_regimes=3, seed=5))
    # t_train + t_val <= w: every VAL target lies before a full window
    prepared = prepare(ds, SplitSpec(4, 2, 114), min_segment=None)
    with pytest.raises(ValueError, match="no VAL windows at h=1"):
        group_val_losses(prepared, [(gp, np.arange(3))], CFG)


# ---------------------------------------------------------------------------
# new-series routing
# ---------------------------------------------------------------------------


def test_new_series_routes_to_matching_regime():
    ds, labels = generate(SyntheticSpec(n_series=12, n_times=220,
                                        n_components=4, n_regimes=3, seed=7))
    prepared = prepare(ds, SplitSpec(160, 30, 30))
    cfg = TrainConfig(w=6, epochs=8, batch=64, seed=0)
    x, y = prepared.windows("tr", 1, cfg.w)
    gp = train(init_params(4, 4, 12, 3, seed=2), None, x, y, cfg)
    truth = Assignment(labels.copy(), 3)
    protos, _ = fit_prototypes(prepared, truth, gp, cfg, proto_epochs=8)
    flags = FallbackFlags(flagged=(False, False, False))

    # a fresh draw from regime 1's generator: reuse series 1's own TEST tail
    hits = 0
    for i in range(12):
        segment = prepared.dataset.values[i, 160:, :]
        routed = assign_new_series(segment, gp, protos, flags, cfg)
        hits += routed == labels[i]
    assert hits >= 10


def test_new_series_noise_falls_back_to_global(small_world):
    prepared, gp, _ = small_world
    protos = [gp.copy() for _ in range(3)]  # no prototype strictly improves
    flags = FallbackFlags(flagged=(False, False, False))
    rng = np.random.default_rng(0)
    segment = rng.normal(size=(30, 4))
    assert assign_new_series(segment, gp, protos, flags, CFG) == -1


def test_new_series_segment_too_short(small_world):
    prepared, gp, _ = small_world
    flags = FallbackFlags(flagged=())
    with pytest.raises(ValueError, match="w \\+ 1"):
        assign_new_series(np.zeros((CFG.w, 4)), gp, [], flags, CFG)


def test_flagged_prototypes_excluded_from_routing(small_world):
    prepared, gp, _ = small_world
    better = gp.copy()
    flags = FallbackFlags(flagged=(True,))
    rng = np.random.default_rng(1)
    segment = rng.normal(size=(30, 4))
    # even a prototype identical to global is skipped when flagged
    assert assign_new_series(segment, gp, [better], flags, CFG) == -1


def test_nan_loss_never_wins_routing(small_world):
    prepared, gp, _ = small_world
    worse = gp.copy()
    worse.flat += np.random.default_rng(2).normal(scale=0.5, size=worse.flat.shape)
    broken = gp.copy()
    broken.w_out[...] = np.nan
    segment = prepared.dataset.values[0, :40]
    flags = FallbackFlags(flagged=(False, False))
    # a NaN loss, before or after the best candidate, is passed over
    assert assign_new_series(segment, worse, [broken, gp], flags, CFG) == 1
    assert assign_new_series(segment, worse, [gp, broken], flags, CFG) == 0
    assert assign_new_series(segment, gp, [broken, broken], flags, CFG) == -1


# ---------------------------------------------------------------------------
# the (K, seed) sweep driver
# ---------------------------------------------------------------------------


def test_sweep_workers_one_per_usable_cpu_and_run(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    assert [clustering.sweep_workers(n) for n in (1, 2, 3, 20)] == [1, 2, 3, 3]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5},
                        raising=False)
    assert clustering.sweep_workers(20) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    monkeypatch.delattr(os, "fork", raising=False)
    assert clustering.sweep_workers(20) == 1


def _sweep_outputs(method, global_params):
    ds, _ = generate(SyntheticSpec(n_series=9, n_times=120, n_components=4,
                                   n_regimes=3, seed=5))
    prepared = prepare(ds, SplitSpec(80, 20, 20))
    sel = SelectionConfig(candidates=(2, 3), seeds=(0, 1), max_outer_iters=3,
                          assign_horizons=(1,))
    if method == "cluster":
        res = clustering.select_k(prepared, global_params, CFG, sel,
                                  proto_epochs=2)
    else:
        res = fit_baseline(method, prepared, global_params, CFG, sel,
                           proto_epochs=2)
    audit = {ph: prepared.audit.counts(ph) for ph in prepared.audit.phases()}
    return (res.k_star, res.seed_star, res.table, res.assignment.labels.tolist(),
            [t.tolist() for t in res.label_trace], res.flags.flagged,
            [p.flat.tobytes() for p in res.prototypes], audit)


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_fork)])
def test_run_sweep_decides_each_runs_fallback(small_world, monkeypatch,
                                              workers):
    # runs hand back (loop, own); each run's flags and risks are decided
    # from them in run_sweep, serially or with forked workers alike
    prepared, _, _ = small_world
    monkeypatch.setattr(clustering, "sweep_workers", lambda n: workers)
    rng = np.random.default_rng(0)
    pooled = rng.uniform(1.0, 2.0, size=9)
    runs = {}
    for k in (2, 3):
        for seed in (0, 1):
            a = init_assignments(9, k, seed=seed)
            own = pooled + rng.normal(scale=0.5, size=9)
            runs[(k, seed)] = (LoopResult(a, [], [a.labels], True, None), own)
    sel = SelectionConfig(candidates=(3, 2), seeds=(1, 0), assign_horizons=(1,),
                          gamma=0.1)
    res = run_sweep(prepared, sel, lambda k, seed: runs[(k, seed)], pooled)
    assert [(r["k"], r["seed"]) for r in res.table] == [(2, 1), (2, 0),
                                                        (3, 1), (3, 0)]
    decided = {}
    for row in res.table:
        assert tuple(row) == clustering.SELECTION_COLUMNS
        key = (row["k"], row["seed"])
        loop, own = runs[key]
        means = cluster_val_means(loop.assignment, own, pooled)
        decided[key] = compute_fallback(means)
        assert (row["sel_abs"], row["global_risk"]) == val_risk_pair(
            means, decided[key])
        assert row["sel_pen"] == row["sel_abs"] + 0.1 * row["k"] / 9
        assert (row["iterations"], row["converged"]) == (0, True)
    # the hand-made losses flag some clusters and keep others
    assert {f for flags in decided.values() for f in flags.flagged} == {True,
                                                                        False}
    best = min(res.table, key=lambda r: (r["sel_pen"], r["k"], r["seed"]))
    best_key = (best["k"], best["seed"])
    assert (res.k_star, res.seed_star) == best_key
    assert res.flags == decided[best_key]
    np.testing.assert_array_equal(res.assignment.labels,
                                  runs[best_key][0].assignment.labels)


@needs_fork
@pytest.mark.parametrize("method", ["cluster", "feat_kmeans",
                                    "random_balanced"])
def test_parallel_sweep_is_bitwise_serial(small_world, monkeypatch, method):
    _, global_params, _ = small_world
    outputs = []
    for workers in (1, 2):
        monkeypatch.setattr(clustering, "sweep_workers",
                            lambda n, w=workers: w)
        outputs.append(_sweep_outputs(method, global_params))
    serial, parallel = outputs
    assert len(serial[2]) == 4
    if method == "cluster":  # reassign reads happen only inside the runs
        assert serial[7]["reassign"]["va"] > 0
    # so do the prototype fits, and they read TRAIN alone
    assert serial[7]["fit-prototypes"]["tr"] > 0
    assert serial[7]["fit-prototypes"]["va"] == 0
    assert serial[7]["fit-prototypes"]["te"] == 0
    assert parallel == serial


@pytest.fixture
def blas_threads():
    """OpenBLAS's thread-count getter, with this process at two BLAS threads
    during the test and at its own count again after it."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    getter = next((getattr(lib, name) for name in clustering._BLAS_GET_THREADS
                   if hasattr(lib, name)), None)
    if getter is None:
        pytest.skip("no OpenBLAS thread-count getter found")
    getter.argtypes = []
    getter.restype = ctypes.c_int
    previous = clustering._set_blas_threads(2)
    yield getter
    clustering._set_blas_threads(previous)


@needs_fork
def test_sweep_workers_inherit_one_blas_thread(small_world, monkeypatch,
                                              blas_threads):
    prepared, _, _ = small_world
    calls = []
    set_blas_threads = clustering._set_blas_threads

    def record(n):
        calls.append(n)
        return set_blas_threads(n)

    monkeypatch.setattr(clustering, "_set_blas_threads", record)
    keys = [(2, 0), (2, 1), (3, 0), (3, 1)]
    parent = os.getpid()

    def run(k, seed):
        return os.getpid(), blas_threads()

    monkeypatch.setattr(clustering, "sweep_workers", lambda n: 1)
    serial = dict(clustering._sweep_outcomes(prepared, run, keys))
    assert serial == {key: (parent, 2) for key in keys}
    assert calls == []  # the serial path leaves BLAS alone
    monkeypatch.setattr(clustering, "sweep_workers", lambda n: 2)
    outcomes = dict(clustering._sweep_outcomes(prepared, run, keys))
    assert list(outcomes) == keys
    assert all(pid != parent and threads == 1
               for pid, threads in outcomes.values())
    assert blas_threads() == 2
    # set once before the workers fork, restored once after them
    assert calls == [1, 2]


@needs_fork
def test_failed_sweep_restores_the_callers_blas_threads(small_world,
                                                        monkeypatch,
                                                        blas_threads):
    prepared, _, _ = small_world
    monkeypatch.setattr(clustering, "sweep_workers", lambda n: 2)

    def run(k, seed):
        if seed == 1:
            raise TrainingDiverged("non-finite training loss in epoch 1; "
                                   "last finite epoch was 0", 0)
        return k, seed

    with pytest.raises(TrainingDiverged) as err:
        list(clustering._sweep_outcomes(prepared, run, [(2, 0), (2, 1)]))
    assert err.value.last_finite_epoch == 0
    assert blas_threads() == 2


def test_blas_thread_helper_needs_setter_and_getter(monkeypatch):
    monkeypatch.setattr(clustering, "_BLAS_GET_THREADS",
                        ("no_such_getter",) * len(clustering._BLAS_SET_THREADS))
    assert clustering._set_blas_threads(1) is None
