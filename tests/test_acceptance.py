"""Acceptance suite: one test per numbered criterion.

The terminal summary (see conftest) prints one PASS/FAIL line per criterion.
Pipeline-level criteria run at a desk-scale budget (smaller recurrent state,
shorter window, fewer epochs than the CLI defaults) tuned so the whole
heterogeneity-recovery sweep stays inside its five-minute runtime target;
every threshold asserted here is frozen at the values stated in the
criteria.
"""

import time

import numpy as np
import pytest

from poolcast import baselines, clustering, losses, model
from poolcast.calibration import GRID
from poolcast.data import SplitSpec, load_pems, prepare
from poolcast.losses import interval_stats, loss_elem
from poolcast.model import (TrainConfig, batch_loss, derive_seed, init_params,
                            loss_and_gradients, rollout, train)
from poolcast.synthetic import SyntheticSpec, generate, adjusted_rand_index

from oracles import apply_factor, empirical_quantile

LATENT, HIDDEN = 6, 16
SPLIT = SplitSpec(200, 50, 50)
PROTO_EPOCHS = 8
REFIT_EPOCHS = 5


def report_row(report, method, horizon):
    """The row of ``method`` at ``horizon`` in an evaluation's report."""
    (row,) = [r for r in report
              if r["method"] == method and r["horizon"] == horizon]
    return row


def acc_config(seed, mode="point"):
    return TrainConfig(w=8, epochs=10, batch=64, mode=mode, seed=seed)


def selection_config():
    return clustering.SelectionConfig(candidates=(2, 3, 4, 5),
                                      seeds=(0, 1, 2, 3, 4),
                                      max_outer_iters=3, assign_horizons=(1,))


def fit_global(prepared, cfg, seed):
    prepared.audit.set_phase("fit-global")
    x, y = prepared.windows("tr", 1, cfg.w)
    fresh = init_params(prepared.dataset.n_components, LATENT, HIDDEN,
                        cfg.n_levels, derive_seed(seed, "init"))
    return train(fresh, None, x, y, cfg)


# ---------------------------------------------------------------------------
# expensive shared runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def heterogeneous_runs():
    """Five independent dataset draws, each through the full select-k sweep."""
    out = []
    started = time.perf_counter()
    for rep in range(5):
        ds, labels = generate(SyntheticSpec(seed=rep))
        prepared = prepare(ds, SPLIT)
        cfg = acc_config(seed=rep)
        gp = fit_global(prepared, cfg, seed=rep)
        result = clustering.select_k(prepared, gp, cfg, selection_config(),
                                     PROTO_EPOCHS)
        art = clustering.final_refit_and_test(
            prepared, result.assignment, result.flags, gp, result.prototypes,
            cfg, horizons=(1,), refit_epochs=REFIT_EPOCHS)
        out.append({
            "k_star": result.k_star,
            "ari": adjusted_rand_index(result.assignment.labels, labels),
            "delta_h1": report_row(art.report, "cluster", 1)["delta_pct"],
            "table": result.table,
            "audit": prepared.audit,
        })
    return {"runs": out, "elapsed": time.perf_counter() - started}


@pytest.fixture(scope="session")
def weak_heterogeneity_run():
    """The same protocol on an alpha = 0 draw, plus the per-series baseline."""
    ds, _ = generate(SyntheticSpec(seed=0, heterogeneity=0.0))
    prepared = prepare(ds, SPLIT)
    cfg = acc_config(seed=0)
    gp = fit_global(prepared, cfg, seed=0)
    result = clustering.select_k(prepared, gp, cfg, selection_config(),
                                 PROTO_EPOCHS)
    art = clustering.final_refit_and_test(
        prepared, result.assignment, result.flags, gp, result.prototypes, cfg,
        horizons=(1, 3, 6), refit_epochs=REFIT_EPOCHS)
    art_ind = clustering.final_refit_and_test(
        prepared, None, None, gp, None, cfg, horizons=(1,),
        method="individual", refit_epochs=REFIT_EPOCHS,
        individual_models=baselines.fit_individual(prepared, gp, cfg))
    return {"prepared": prepared, "cfg": cfg, "global": gp, "result": result,
            "art": art, "art_individual": art_ind}


@pytest.fixture(scope="session")
def quantile_run():
    """Quantile-mode pipeline at fixed K with VAL calibration."""
    ds, _ = generate(SyntheticSpec(seed=1))
    prepared = prepare(ds, SPLIT)
    cfg = acc_config(seed=1, mode="quantile")
    gp = fit_global(prepared, cfg, seed=1)
    sel = clustering.SelectionConfig(candidates=(3,), seeds=(0,),
                                     max_outer_iters=3, assign_horizons=(1,))
    result = clustering.select_k(prepared, gp, cfg, sel, PROTO_EPOCHS)
    art = clustering.final_refit_and_test(
        prepared, result.assignment, result.flags, gp, result.prototypes, cfg,
        horizons=(1, 3), refit_epochs=REFIT_EPOCHS, coverage_target=0.8)
    return {"prepared": prepared, "cfg": cfg, "art": art}


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness
# ---------------------------------------------------------------------------


def _gradcheck_instance(mode, seed, step=1e-5):
    rng = np.random.default_rng(seed)
    cfg = TrainConfig(w=5, mode=mode)
    params = init_params(p_dim=3, latent=2, hidden=4, n_levels=cfg.n_levels,
                         seed=derive_seed(seed, "gc"))
    params.flat += rng.normal(scale=0.3, size=params.flat.shape)
    x = rng.normal(size=(3, 5, 3))
    y = rng.normal(size=(3, 3))
    # central differences straddle a loss kink when a residual sits within
    # the step of it; redraw deterministically in that rare case
    fan = rollout(params, x, 1, cfg)[:, -1]
    if mode == "point":
        margin = np.abs(np.abs(fan[:, 0] - y) - cfg.huber_delta)
    else:
        margin = np.abs(y[:, None, :] - fan)
    if margin.min() < 10 * step:
        return None
    _, grads = loss_and_gradients(params, None, x, y, cfg)
    worst = 0.0
    for name, *_ in params.layout.slots:
        tensor = getattr(params, name)
        grad = getattr(grads, name)
        it = np.nditer(tensor, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = tensor[ix]
            tensor[ix] = orig + step
            up = batch_loss(params, None, x, y, cfg)
            tensor[ix] = orig - step
            down = batch_loss(params, None, x, y, cfg)
            tensor[ix] = orig
            fd = (up - down) / (2.0 * step)
            worst = max(worst, abs(grad[ix] - fd) / max(abs(grad[ix]),
                                                        abs(fd), 1e-4))
    return worst


def test_criterion_01_gradient_correctness():
    started = time.perf_counter()
    checked = 0
    seed = 0
    worst = 0.0
    while checked < 20:
        mode = "point" if checked % 2 == 0 else "quantile"
        result = _gradcheck_instance(mode, seed)
        seed += 1
        if result is None:
            continue
        worst = max(worst, result)
        checked += 1
    elapsed = time.perf_counter() - started
    assert worst < 1e-4, f"worst relative gradient error {worst:.3e}"
    assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s (budget 10s)"


# ---------------------------------------------------------------------------
# criterion 2: loss unit oracles
# ---------------------------------------------------------------------------


def test_criterion_02_loss_unit_oracles():
    # the program's losses: Huber (delta 1) of a one-component forecast and
    # pinball (q 0.9) of a one-level, one-component fan
    cfg = TrainConfig(huber_delta=1.0, quantiles=(0.9,))

    def huber(e):
        return loss_elem("huber", np.array([e]), np.array([0.0]), cfg).mean()

    def pinball(pred, target):
        return loss_elem("pinball", np.array([[pred]]), np.array([target]),
                         cfg).mean()

    assert abs(huber(0.5) - 0.125) <= 1e-12
    assert abs(huber(2.0) - 1.5) <= 1e-12
    assert abs(pinball(0.0, 1.0) - 0.9) <= 1e-12
    assert abs(pinball(0.0, -1.0) - 0.1) <= 1e-12
    rng = np.random.default_rng(202)
    for trial in range(100):
        q = rng.uniform(0.05, 0.95)
        sample = rng.normal(size=int(rng.integers(5, 60)))
        candidates = np.unique(sample)
        level = TrainConfig(quantiles=(q,))
        # pinball loss of each candidate forecast (one level, one component)
        # against each sample value, averaged over the sample
        cand_losses = loss_elem("pinball", candidates[:, None, None, None],
                                sample[:, None], level)[..., 0, 0].mean(axis=1)
        oracle = empirical_quantile(sample, q)
        oracle_loss = loss_elem("pinball", np.array([[[oracle]]]),
                                sample[:, None], level)[:, 0, 0].mean()
        gap = oracle_loss - cand_losses.min()
        assert 0.0 <= gap <= 1e-12, f"trial {trial}: loss gap {gap:.3e}"


# ---------------------------------------------------------------------------
# criterion 3: non-crossing
# ---------------------------------------------------------------------------


def test_criterion_03_non_crossing():
    rng = np.random.default_rng(303)
    crossings = 0
    for trial in range(1000):
        params = init_params(p_dim=3, latent=2, hidden=4, n_levels=4,
                             seed=derive_seed(303, trial))
        params.flat += rng.normal(scale=1.5, size=params.flat.shape)
        window = rng.normal(scale=2.0, size=(1, 6, 3))
        h = model._gru_forward(params, window)
        _, latents, _ = model._fan_from_hidden(params, h)
        if np.any(np.diff(latents, axis=1) < 0.0):
            crossings += 1
    assert crossings == 0


# ---------------------------------------------------------------------------
# criterion 4: leakage audit
# ---------------------------------------------------------------------------


def test_criterion_04_leakage_audit(weak_heterogeneity_run):
    spec = SyntheticSpec(n_series=12, n_times=160, n_components=4, seed=4)
    (ds, _), (tampered, _) = generate(spec), generate(spec)
    split = SplitSpec(100, 30, 30)
    rng = np.random.default_rng(0)
    tampered.values[:, 100:, :] = rng.normal(scale=7.0, size=(12, 60, 4)) + 3.0

    cfg = TrainConfig(w=6, epochs=4, batch=64, seed=0)
    fits = []
    for data in (ds, tampered):
        prepared = prepare(data, split)
        gp = train(init_params(4, 3, 8, cfg.n_levels, seed=7), None,
                   *prepared.windows("tr", 1, cfg.w), cfg)
        feats = baselines.training_feature_vectors(prepared)
        fits.append((prepared.standardizer, gp, feats))
    (std_a, gp_a, f_a), (std_b, gp_b, f_b) = fits
    assert np.array_equal(std_a.mu, std_b.mu)
    assert np.array_equal(std_a.sigma, std_b.sigma)
    assert np.array_equal(gp_a.flat, gp_b.flat)
    assert np.array_equal(f_a, f_b)

    # access log of a full pipeline run: TEST cells are touched only by the
    # evaluation phase
    audit = weak_heterogeneity_run["prepared"].audit
    assert audit.test_reads_outside(allowed=("evaluate",)) == 0
    assert audit.counts("evaluate")["te"] > 0


# ---------------------------------------------------------------------------
# criterion 5: coordinate-descent properties
# ---------------------------------------------------------------------------


def test_criterion_05_reassignment_properties():
    import itertools
    rng = np.random.default_rng(505)
    for trial in range(20):
        c = rng.uniform(size=(10, 4))
        prev = clustering.Assignment(rng.integers(0, 4, size=10), 4)
        new = clustering.reassign(clustering.CostMatrix(c, {1: c}), prev)
        chosen = np.sum(c[np.arange(10), new.labels])
        assert chosen == np.sum(c.min(axis=1))
        assert chosen <= np.sum(c[np.arange(10), prev.labels])
    for trial in range(10):
        c = rng.uniform(size=(6, 2))
        new = clustering.reassign(clustering.CostMatrix(c, {1: c}),
                                  clustering.Assignment(np.zeros(6, dtype=int), 2))
        best = min(sum(c[i, lab[i]] for i in range(6))
                   for lab in itertools.product(range(2), repeat=6))
        assert np.sum(c[np.arange(6), new.labels]) == best


# ---------------------------------------------------------------------------
# criterion 6: fallback dominance
# ---------------------------------------------------------------------------


def test_criterion_06_fallback_dominance(heterogeneous_runs,
                                         weak_heterogeneity_run):
    # every (K, seed) run of every sweep satisfies routed <= pooled exactly
    tables = [r["table"] for r in heterogeneous_runs["runs"]]
    tables.append(weak_heterogeneity_run["result"].table)
    n_runs = 0
    for table in tables:
        for row in table:
            assert row["sel_abs"] <= row["global_risk"], (
                f"K={row['k']} seed={row['seed']}: routed {row['sel_abs']} "
                f"above pooled {row['global_risk']}")
            n_runs += 1
    assert n_runs >= 120  # 6 sweeps x 4 K x 5 seeds

    # corrupting every prototype forces full fallback and a bitwise collapse
    # of the method's TEST evaluation onto the pooled model
    world = weak_heterogeneity_run
    prepared, cfg, gp = world["prepared"], world["cfg"], world["global"]
    assignment = clustering.init_assignments(prepared.n_series, 3, seed=0)
    rng = np.random.default_rng(6)
    corrupted = []
    for _ in range(3):
        bad = gp.copy()
        bad.flat[bad.spec_offset:] += rng.normal(
            scale=9.0, size=bad.flat.size - bad.spec_offset)
        corrupted.append(bad)
    flags = clustering.compute_fallback(clustering.cluster_val_means(
        assignment,
        clustering.group_val_losses(
            prepared, [(corrupted[j], assignment.members(j)) for j in range(3)],
            cfg),
        clustering.group_val_losses(
            prepared, [(gp, np.arange(prepared.n_series))], cfg)))
    assert flags.flagged == (True, True, True)
    art = clustering.final_refit_and_test(
        prepared, assignment, flags, gp, corrupted, cfg, horizons=(1,),
        refit_epochs=2)
    row_m = report_row(art.report, "cluster", 1)
    row_g = report_row(art.report, "global", 1)
    assert row_m["fb_pct"] == 100.0
    assert np.array_equal(art.series_mse[("cluster", 1)],
                          art.series_mse[("global", 1)])
    assert row_m["mse"] == row_g["mse"] and row_m["mae"] == row_g["mae"]
    assert row_m["delta_pct"] == 0.0


# ---------------------------------------------------------------------------
# criterion 7: synthetic heterogeneity recovery
# ---------------------------------------------------------------------------


def test_criterion_07_heterogeneity_recovery(heterogeneous_runs):
    """Five repetitions of select-k on distinct alpha = 1 draws.

    The five-minute figure is a runtime target; a hard assert at twice the
    target guards against pathological regressions without making the suite
    hostage to machine load.
    """
    runs = heterogeneous_runs["runs"]
    k_ok = sum(r["k_star"] in (3, 4) for r in runs)
    ari_ok = sum(r["ari"] > 0.8 for r in runs)
    below = sum(r["delta_h1"] > 0.0 for r in runs)
    median_gain = float(np.median([r["delta_h1"] for r in runs]))
    detail = ", ".join(f"K*={r['k_star']} ARI={r['ari']:.2f} "
                       f"d={r['delta_h1']:+.1f}%" for r in runs)
    assert k_ok >= 4, detail
    assert ari_ok >= 4, detail
    assert below >= 4, detail
    assert median_gain >= 5.0, detail
    assert heterogeneous_runs["elapsed"] < 600.0, (
        f"{heterogeneous_runs['elapsed']:.0f}s (target 300s)")


# ---------------------------------------------------------------------------
# criterion 8: weak-heterogeneity safety
# ---------------------------------------------------------------------------


def test_criterion_08_weak_heterogeneity_safety(weak_heterogeneity_run):
    art = weak_heterogeneity_run["art"]
    g = report_row(art.report, "global", 1)["mse"]
    c = report_row(art.report, "cluster", 1)["mse"]
    assert abs(c - g) / g <= 0.02, (
        f"alpha=0 routed TEST MSE {c:.6f} vs pooled {g:.6f} "
        f"({100 * (c - g) / g:+.2f}%)")


# ---------------------------------------------------------------------------
# criterion 9: calibration
# ---------------------------------------------------------------------------


def test_criterion_09_calibration(quantile_run):
    prepared, cfg, art = (quantile_run["prepared"], quantile_run["cfg"],
                          quantile_run["art"])
    table = art.calibration
    assert table is not None and table.target == 0.8
    streams = clustering.val_calibration_streams(
        prepared, art.groups, (1, 3), cfg)
    for h, (med, lo, hi, tv) in streams.items():
        last_cov, _ = interval_stats(tv, *apply_factor(med, lo, hi, GRID[-1]))
        got_cov, _ = interval_stats(tv, *apply_factor(med, lo, hi,
                                                      table.factors[h]))
        if last_cov >= 0.8:
            assert got_cov >= 0.8, f"h={h}: calibrated VAL coverage {got_cov:.3f}"

    rng = np.random.default_rng(9)
    med = rng.normal(size=500)
    lo = med - rng.uniform(0.5, 2.0, size=500)
    hi = med + rng.uniform(0.5, 2.0, size=500)
    lo1, hi1 = apply_factor(med, lo, hi, 1.0)
    assert np.max(np.abs(lo1 - lo)) <= 1e-15
    assert np.max(np.abs(hi1 - hi)) <= 1e-15


# ---------------------------------------------------------------------------
# criterion 10: paper-scale structure
# ---------------------------------------------------------------------------


def test_criterion_10_paper_scale_structure(tmp_path, heterogeneous_runs,
                                            weak_heterogeneity_run):
    # traffic-archive loader: day lines, ';'-separated station rows
    rng = np.random.default_rng(10)
    lines = []
    for _ in range(3):
        mat = rng.uniform(0.0, 0.2, size=(4, 6))  # 4 stations x 6 timestamps
        rows = ";".join(" ".join(f"{v:.4f}" for v in row) for row in mat)
        lines.append(f"[{rows}]")
    path = tmp_path / "pems_mini.txt"
    path.write_text("\n".join(lines) + "\n")
    ds = load_pems(str(path))
    assert (ds.n_series, ds.n_times, ds.n_components) == (3, 6, 4)

    # the x100 report convention reproduces the published table structure:
    # one row per method and horizon with MSE / MAE / delta / Ben / Fb columns
    art = weak_heterogeneity_run["art"]
    out = tmp_path / "table.csv"
    losses.write_report_csv(str(out), losses.paper_scale(art.report),
                            losses.REPORT_COLUMNS)
    text = out.read_text().splitlines()
    assert text[0] == ("method,horizon,mse,mae,pinball,coverage,width,"
                       "delta_pct,ben_pct,fb_pct")
    assert len(text) == 1 + 2 * 3  # {global, cluster} x h in {1, 3, 6}
    raw = report_row(art.report, "global", 1)["mse"]
    scaled = float(text[1].split(",")[2])
    assert scaled == pytest.approx(raw * 100.0)

    # directional claims on synthetic data (full-scale numbers are out of
    # reach at desk scale by design):
    # pooling beats one-model-per-series on pooled-friendly data
    art_ind = weak_heterogeneity_run["art_individual"]
    assert (report_row(art_ind.report, "individual", 1)["mse"]
            > report_row(art_ind.report, "global", 1)["mse"])
    # specialization beats pooling under heterogeneity
    assert sum(r["delta_h1"] > 0 for r in heterogeneous_runs["runs"]) >= 4
