import itertools
import os

import numpy as np
import pytest

from poolcast import clustering, losses
from poolcast.baselines import fit_baseline
from poolcast.clustering import (Assignment, CostMatrix, FallbackFlags,
                                 SelectionConfig, assign_new_series,
                                 compute_cost_matrix, compute_fallback,
                                 fit_prototypes, init_assignments, outer_loop,
                                 reassign, routed_val_risk, val_risk_pair)
from poolcast.data import SplitSpec, prepare
from poolcast.model import TrainConfig, init_params, train
from poolcast.synthetic import SyntheticSpec, generate

CFG = TrainConfig(w=6, epochs=4, batch=64, mode="point", seed=0)


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
    cost = CostMatrix(np.array([[0.3, 0.1, 0.2],
                                [0.1, 0.1, 0.5],
                                [np.nan, 0.2, 0.1]]), (1,))
    prev = Assignment(np.array([0, 2, 0]), 3)
    new = reassign(cost, prev)
    np.testing.assert_array_equal(new.labels, [1, 0, 2])


def test_reassign_keeps_label_for_undefined_rows():
    cost = CostMatrix(np.array([[np.nan, np.nan], [0.5, 0.1]]), (1,))
    prev = Assignment(np.array([1, 0]), 2)
    new = reassign(cost, prev)
    assert new.labels[0] == 1 and new.labels[1] == 1


def test_reassign_attains_row_minimum():
    rng = np.random.default_rng(0)
    c = rng.uniform(size=(12, 4))
    new = reassign(CostMatrix(c, (1,)), Assignment(np.zeros(12, dtype=int), 4))
    assert np.sum(c[np.arange(12), new.labels]) == np.sum(c.min(axis=1))


def test_reassign_matches_bruteforce_enumeration():
    rng = np.random.default_rng(3)
    c = rng.uniform(size=(6, 2))
    new = reassign(CostMatrix(c, (1,)), Assignment(np.zeros(6, dtype=int), 2))
    got = np.sum(c[np.arange(6), new.labels])
    best = min(sum(c[i, lab[i]] for i in range(6))
               for lab in itertools.product(range(2), repeat=6))
    assert got == best


def test_reassign_never_increases_cost():
    rng = np.random.default_rng(4)
    c = rng.uniform(size=(15, 3))
    prev_labels = rng.integers(0, 3, size=15)
    new = reassign(CostMatrix(c, (1,)), Assignment(prev_labels, 3))
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
    assert protos[1].max_diff(gp) == 0.0
    assert protos[0].max_diff(gp) > 0.0


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
        assert proto.max_diff(gp) < 1e-3


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
    from poolcast.model import forward_point
    prepared, gp, _ = small_world
    cost = compute_cost_matrix(prepared, [gp], (3,), CFG)
    x, y = prepared.per_series_windows("va", 3, CFG.w, [2])
    preds = []
    for window in x[0]:
        cur = window.copy()
        for step in range(3):
            p = forward_point(gp, cur)
            cur = np.concatenate([cur[1:], p[None, :]], axis=0)
        preds.append(p)
    manual = np.mean([losses.huber(p, t, CFG.huber_delta)
                      for p, t in zip(preds, y[0])])
    assert cost.values[2, 0] == pytest.approx(manual, abs=0, rel=0)


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


def test_fallback_equality_is_not_flagged(small_world):
    prepared, gp, _ = small_world
    a = init_assignments(9, 3, seed=0)
    protos = [gp.copy(), gp.copy(), gp.copy()]
    flags = compute_fallback(prepared, a, protos, gp, CFG)
    assert flags.flagged == (False, False, False)


def test_fallback_flags_corrupted_prototype(small_world):
    prepared, gp, _ = small_world
    a = init_assignments(9, 3, seed=0)
    protos = [gp.copy(), gp.copy(), gp.copy()]
    rng = np.random.default_rng(0)
    protos[1].flat[protos[1].spec_offset:] += rng.normal(
        scale=5.0, size=protos[1].flat.size - protos[1].spec_offset)
    flags = compute_fallback(prepared, a, protos, gp, CFG)
    assert flags.flagged[1] is True
    assert flags.flagged[0] is False and flags.flagged[2] is False


def test_empty_cluster_flagged_by_convention(small_world):
    prepared, gp, _ = small_world
    a = Assignment(np.zeros(9, dtype=int), 2)
    flags = compute_fallback(prepared, a, [gp.copy(), gp.copy()], gp, CFG)
    assert flags.flagged[1] is True


def test_routed_risk_full_fallback_equals_global(small_world):
    prepared, gp, _ = small_world
    a = init_assignments(9, 3, seed=1)
    protos, _ = fit_prototypes(prepared, a, gp, CFG, proto_epochs=1)
    flags = FallbackFlags(flagged=(True, True, True))
    routed, glob = val_risk_pair(prepared, a, flags, protos, gp, CFG)
    assert routed == glob


def test_routed_risk_dominance_exact(small_world):
    prepared, gp, _ = small_world
    for seed in range(4):
        a = init_assignments(9, 3, seed=seed)
        protos, _ = fit_prototypes(prepared, a, gp, CFG, proto_epochs=2)
        flags = compute_fallback(prepared, a, protos, gp, CFG)
        routed, glob = val_risk_pair(prepared, a, flags, protos, gp, CFG)
        assert routed <= glob
        no_fallback = FallbackFlags(flagged=(False,) * 3)
        fully, _ = val_risk_pair(prepared, a, no_fallback, protos, gp, CFG)
        assert routed <= fully
        assert routed == routed_val_risk(prepared, a, flags, protos, gp, CFG)


def test_fallback_frozen_against_test_perturbation(small_world):
    prepared, gp, _ = small_world
    a = init_assignments(9, 3, seed=0)
    protos, _ = fit_prototypes(prepared, a, gp, CFG, proto_epochs=1)
    flags = compute_fallback(prepared, a, protos, gp, CFG)
    before = tuple(flags.flagged)
    # flags live in a frozen dataclass; mutating TEST data afterwards cannot
    # change them because nothing recomputes after the freeze
    prepared.dataset.values.flags.writeable = True
    prepared.dataset.values[:, 100:, :] += 99.0
    assert tuple(flags.flagged) == before
    prepared.dataset.values[:, 100:, :] -= 99.0
    prepared.dataset.values.flags.writeable = False


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
        fit = (res.k_star, res.seed_star, res.table, res.assignment, res.flags,
               res.prototypes, [t.tolist() for t in res.label_trace])
    else:
        res = fit_baseline(method, prepared, global_params, CFG, sel,
                           proto_epochs=2)
        fit = (res.k, res.seed, res.selection_table, res.assignment, res.flags,
               res.prototypes, None)
    k, seed, table, assignment, flags, protos, trace = fit
    audit = {ph: prepared.audit.counts(ph) for ph in prepared.audit._touched}
    return (k, seed, table, assignment.labels.tolist(), trace, flags.flagged,
            [p.flat.tobytes() for p in protos], audit)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked")
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
    assert parallel == serial
