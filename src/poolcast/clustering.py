"""Validation-driven clustering with a leakage-free fallback safeguard.

The procedure alternates two moves: fit one prototype per cluster on TRAIN
windows (warm-started at the pooled model and anchored to it), then reassign
every series to the prototype with the smallest VAL loss. Once assignments
stop moving, each cluster is compared against the pooled model on VAL; any
cluster that fails to improve is flagged non-specializable and its members
are routed to the pooled model from then on. The flags are frozen before
anything touches TEST. The number of clusters is chosen by the routed VAL
risk plus a mild complexity penalty, sweeping candidate K values and
initialization seeds.

Audit phases are set around every stage so the access log can certify that
TEST is read exactly once, during final evaluation.
"""

from __future__ import annotations

import ctypes
import os
from dataclasses import dataclass, replace

import numpy as np

from . import losses, model
from .calibration import CalibrationTable, calibrate
from .data import PreparedData
from .losses import summarize_method
from .model import ParamSet, TrainConfig, derive_seed


@dataclass
class Assignment:
    """Cluster labels (0-based) for every series plus loop bookkeeping."""

    labels: np.ndarray
    n_clusters: int
    iterations: int = 0

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.min(initial=0) < 0 or self.labels.max(initial=0) >= self.n_clusters:
            raise ValueError("labels out of range")

    def members(self, k: int) -> np.ndarray:
        return np.flatnonzero(self.labels == k)

    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_clusters)


@dataclass(frozen=True)
class CostMatrix:
    """VAL losses, one row per series and one column per prototype.

    ``values`` holds the means over the assignment horizons;
    ``by_horizon`` maps every horizon scored, the assignment horizons and
    always h = 1 (the fallback's horizon), to its own (N, K) losses. NaN
    marks an undefined entry (no valid windows). Rows of ``values`` that are
    entirely NaN are excluded from reassignment and keep their previous
    label.
    """

    values: np.ndarray
    by_horizon: dict

    def own_losses(self, assignment: "Assignment") -> np.ndarray:
        """Each series' loss at h = 1 under the prototype it is assigned to."""
        return self.by_horizon[1][np.arange(len(assignment.labels)),
                                  assignment.labels]


@dataclass(frozen=True)
class FallbackFlags:
    """Per-cluster non-specializable markers, frozen once computed."""

    flagged: tuple

    def fallback_share(self, assignment: Assignment) -> float:
        routed = np.asarray(self.flagged)[assignment.labels]
        return float(np.mean(routed))


@dataclass(frozen=True)
class SelectionConfig:
    """Sweep configuration for choosing the number of clusters."""

    candidates: tuple
    seeds: tuple
    assign_horizons: tuple
    gamma: float = 0.05
    max_outer_iters: int = 10
    init_strategy: str = "random_balanced"

    def __post_init__(self):
        # errors name the config keys (RunConfig), which a user can set
        for name, values, low in (("k_candidates", self.candidates, 1),
                                  ("selection_seeds", self.seeds, 0),
                                  ("assign_horizons", self.assign_horizons, 1)):
            if not values or min(values) < low or len(set(values)) != len(values):
                raise ValueError(f"{name} needs one or more distinct values "
                                 f">= {low}, got {list(values)}")
        if self.init_strategy not in ("random_balanced", "feature"):
            raise ValueError(f"unknown init {self.init_strategy!r}")
        if not self.gamma >= 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be >= 1")


# ---------------------------------------------------------------------------
# initialization and the alternating loop
# ---------------------------------------------------------------------------


def init_assignments(n_series: int, k: int, seed: int,
                     strategy: str = "random_balanced",
                     features: np.ndarray | None = None) -> Assignment:
    """Seeded initial labels: balanced random deal, or feature k-means."""
    if k > n_series:
        raise ValueError(f"K={k} exceeds N={n_series}")
    if strategy == "random_balanced":
        rng = np.random.default_rng(seed)
        labels = np.empty(n_series, dtype=np.int64)
        labels[rng.permutation(n_series)] = np.arange(n_series) % k
        return Assignment(labels, k)
    if strategy == "feature":
        if features is None:
            raise ValueError("feature initialization needs a feature matrix")
        from .baselines import kmeans  # deferred: baselines imports this module
        return Assignment(kmeans(features, k, seed=seed), k)
    raise ValueError(f"unknown initialization strategy {strategy!r}")


def fit_prototypes(prepared: PreparedData, assignment: Assignment,
                   global_params: ParamSet, cfg: TrainConfig,
                   proto_epochs: int) -> tuple[list[ParamSet], np.ndarray]:
    """One prototype per cluster, warm-started at and anchored to the pooled
    model, each trained on its members' TRAIN windows; the prototypes train
    in lock-step (:func:`model.train_stacked`).

    Empty clusters get an untrained copy of the pooled parameters and are
    reported inert for this iteration.
    """
    inert = assignment.sizes() == 0
    fitted = np.flatnonzero(~inert)
    data = [prepared.windows("tr", 1, cfg.w, assignment.members(k))
            for k in fitted]
    trained = iter(model.train_stacked([global_params] * len(fitted),
                                       global_params, data, cfg,
                                       [cfg.seed] * len(fitted),
                                       epochs=proto_epochs))
    protos = [global_params.copy() if inert[k] else next(trained)
              for k in range(assignment.n_clusters)]
    return protos, inert


def compute_cost_matrix(prepared: PreparedData, prototypes: list[ParamSet],
                        horizons, cfg: TrainConfig) -> CostMatrix:
    """VAL loss of every series under every prototype, averaged over horizons.

    Scores with the mode's objective (:func:`losses.objective`). Each
    prototype forecasts every series at every horizon in one
    :func:`losses.split_forecasts` panel (one gather, one rollout; h > 1
    entries are recursive, and a step shares the encoding of the rows its
    window has in common with a later window), whose per-series losses fill
    that prototype's column; the panel is released before the next
    prototype's rollout, so one prototype's forecasts are held at a time.
    Horizons with no valid VAL windows are skipped in the mean; if none
    remain, the whole matrix is NaN. The h = 1 losses are kept as well, for
    the fallback.
    """
    n, k = prepared.n_series, len(prototypes)
    series = np.arange(n)
    scored = tuple(sorted(set(horizons) | {1}))
    per_h = {h: np.full((n, k), np.nan) for h in scored}
    windowed = set()
    for j, proto in enumerate(prototypes):
        _, by_h = losses.split_forecasts([(proto, series)], prepared, "va",
                                         scored, cfg)
        for h in scored:
            c = losses.horizon_losses(None, by_h[h], cfg)
            if c is not None:
                per_h[h][:, j] = c
                windowed.add(h)
        del by_h  # release the panel before the next prototype's rollout
    present = [per_h[h] for h in horizons if h in windowed]
    return CostMatrix(np.mean(present, axis=0) if present
                      else np.full((n, k), np.nan), per_h)


def reassign(cost: CostMatrix, prev: Assignment) -> Assignment:
    """Assign each series to its cheapest prototype (smallest index on ties).

    Rows whose entries are all undefined keep their previous label; undefined
    entries elsewhere are never selected.
    """
    c = cost.values
    if c.shape[0] != len(prev.labels):
        raise ValueError("cost matrix does not match assignment length")
    excluded = np.all(np.isnan(c), axis=1)
    filled = np.where(np.isnan(c), np.inf, c)
    labels = np.argmin(filled, axis=1)
    labels[excluded] = prev.labels[excluded]
    return Assignment(labels, prev.n_clusters, iterations=prev.iterations)


@dataclass
class LoopResult:
    assignment: Assignment
    prototypes: list[ParamSet]
    label_trace: list[np.ndarray]
    converged: bool
    cost: CostMatrix | None   # the last reassignment's; None without a loop


def outer_loop(prepared: PreparedData, global_params: ParamSet,
               init: Assignment, cfg: TrainConfig, sel_cfg: SelectionConfig,
               proto_epochs: int) -> LoopResult:
    """Alternate TRAIN prototype fitting and VAL reassignment to a fixed point.

    Stops as soon as a reassignment leaves the labels unchanged, or after
    ``max_outer_iters`` alternations.
    """
    assignment = init
    trace = [init.labels.copy()]
    prototypes = []
    cost = None
    converged = False
    for it in range(1, sel_cfg.max_outer_iters + 1):
        prepared.audit.set_phase("fit-prototypes")
        prototypes, _ = fit_prototypes(prepared, assignment, global_params,
                                       cfg, proto_epochs)
        prepared.audit.set_phase("reassign")
        cost = compute_cost_matrix(prepared, prototypes, sel_cfg.assign_horizons, cfg)
        new = reassign(cost, assignment)
        trace.append(new.labels.copy())
        unchanged = np.array_equal(new.labels, assignment.labels)
        assignment = Assignment(new.labels, new.n_clusters, iterations=it)
        if unchanged:
            converged = True
            break
    return LoopResult(assignment, prototypes, trace, converged, cost)


# ---------------------------------------------------------------------------
# fallback and routed risk
# ---------------------------------------------------------------------------


def group_val_losses(prepared: PreparedData, groups, cfg: TrainConfig,
                     kind: str | None = None) -> np.ndarray:
    """Every series' VAL loss at h=1 under the model of its ``(params,
    series)`` group, NaN for a series in no group: the scores behind the
    fallback. ``kind`` is as in :func:`losses.per_series_split_losses`."""
    out = np.full(prepared.n_series, np.nan)
    for params, ids in groups:
        scored = losses.per_series_split_losses(params, prepared, "va", 1, cfg,
                                                kind=kind, series=ids)
        if scored is None:
            raise ValueError("no VAL windows at h=1; cannot compute fallback")
        out[ids] = scored
    return out


def cluster_val_means(assignment: Assignment, own: np.ndarray,
                      pooled: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sizes, mean member VAL loss at h=1 under own prototype / under pooled),
    given every series' loss under its own prototype and under the pooled
    model (:func:`group_val_losses` or :meth:`CostMatrix.own_losses`)."""
    k = assignment.n_clusters
    sizes = assignment.sizes()
    clus_means = np.full(k, np.nan)
    glob_means = np.full(k, np.nan)
    for j in range(k):
        members = assignment.members(j)
        if len(members) == 0:
            continue
        clus_means[j] = float(np.mean(own[members]))
        glob_means[j] = float(np.mean(pooled[members]))
    return sizes, clus_means, glob_means


def compute_fallback(means: tuple) -> FallbackFlags:
    """Flag clusters whose mean member VAL loss at h=1 strictly exceeds the
    pooled model's on the same members, from the ``(sizes, cluster means,
    pooled means)`` of :func:`cluster_val_means`; empty clusters are flagged
    by convention. The result is frozen: nothing downstream may revisit it."""
    sizes, clus, glob = means
    return FallbackFlags(flagged=tuple(
        True if sizes[j] == 0 else bool(clus[j] > glob[j])
        for j in range(len(sizes))))


def val_risk_pair(means: tuple, flags: FallbackFlags) -> tuple[float, float]:
    """(routed risk, pooled risk) on VAL at h=1 under identical aggregation,
    from the ``(sizes, cluster means, pooled means)`` of
    :func:`cluster_val_means`."""
    sizes, clus, glob = means
    n = float(sizes.sum())
    routed_total = 0.0
    global_total = 0.0
    for j in range(len(sizes)):
        if sizes[j] == 0:
            continue
        chosen = glob[j] if flags.flagged[j] else clus[j]
        routed_total += sizes[j] * chosen
        global_total += sizes[j] * glob[j]
    # plain floats: selection.csv writes their repr
    return float(routed_total / n), float(global_total / n)


# ---------------------------------------------------------------------------
# selection of K
# ---------------------------------------------------------------------------


# the keys of one (K, seed) run's selection record, in ``selection.csv``
# column order: sel_abs and global_risk are the routed (after fallback) and
# pooled VAL risk at h=1 under one aggregation, sel_pen is sel_abs plus the
# K penalty
SELECTION_COLUMNS = ("k", "seed", "sel_abs", "sel_pen", "global_risk",
                     "iterations", "converged")


@dataclass
class SelectionResult:
    k_star: int
    seed_star: int
    table: list[dict]       # one selection record per run, in sweep order
    assignment: Assignment
    flags: FallbackFlags
    prototypes: list[ParamSet]
    label_trace: list[np.ndarray]


# the sweep in progress, as (per-run function, audit), for forked workers to
# inherit: a per-run closure cannot be pickled into a pool task
_SWEEP = None
# OpenBLAS's thread-count setter and getter under their plain and
# 64-bit-integer names
_BLAS_SET_THREADS = ("openblas_set_num_threads", "openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads",
                     "scipy_openblas_set_num_threads64_")
_BLAS_GET_THREADS = tuple(name.replace("_set_", "_get_")
                          for name in _BLAS_SET_THREADS)


def sweep_workers(n_runs: int) -> int:
    """Worker processes for a sweep of ``n_runs`` runs: one per usable CPU and
    at most one per run; 1 (in-process) where ``fork`` is unavailable."""
    if n_runs < 2 or not hasattr(os, "fork"):
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else (os.cpu_count() or 1)
    return max(1, min(n_runs, cpus))


def _set_blas_threads(n: int) -> int | None:
    """Set the thread count of the BLAS numpy already loaded to ``n`` and
    return the previous count; a no-op returning None if no OpenBLAS setter
    and getter are found. Results do not depend on the BLAS thread count."""
    try:
        # symbols are looked up in this numpy extension and the libraries it
        # links, which include numpy's BLAS
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except OSError:
        return None
    for set_name, get_name in zip(_BLAS_SET_THREADS, _BLAS_GET_THREADS):
        setter = getattr(lib, set_name, None)
        getter = getattr(lib, get_name, None)
        if setter is not None and getter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            getter.argtypes = []
            getter.restype = ctypes.c_int
            previous = getter()
            setter(n)
            return previous
    return None


def _sweep_task(key):
    run, audit = _SWEEP
    return run(*key), audit


def _sweep_outcomes(prepared: PreparedData, run, keys):
    """``(key, run(*key))`` for every (k, seed) key, in key order.

    With more than one worker the runs execute in forked processes; each
    returns its audit, whose reads are merged into ``prepared.audit``, and a
    worker's exception is re-raised here with its original type. The workers
    run a one-thread BLAS, so that they do not contend for cores: it is set
    in this process before they fork, since a worker that set it after the
    fork ran its first run about 70 ms slower, and the caller's count is
    restored when the sweep ends or fails. Other threads of this process
    meanwhile run single-threaded BLAS too. The serial path leaves BLAS
    alone.
    """
    workers = sweep_workers(len(keys))
    if workers == 1:
        for key in keys:
            yield key, run(*key)
        return
    import multiprocessing  # only the parallel path pays for the import

    global _SWEEP
    blas_threads = _set_blas_threads(1)
    _SWEEP = (run, prepared.audit)
    try:
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            for key, (outcome, audit) in zip(keys, pool.imap(_sweep_task, keys)):
                prepared.audit.merge(audit)
                yield key, outcome
    finally:
        _SWEEP = None
        if blas_threads is not None:
            _set_blas_threads(blas_threads)


def run_sweep(prepared: PreparedData, sel_cfg: SelectionConfig, run,
              pooled: np.ndarray) -> SelectionResult:
    """The (K, seed) sweep shared by the method and the clustered baselines,
    and the one place a run's fallback is decided.

    ``run(k, seed)`` returns ``(loop, own)``: its :class:`LoopResult` and
    every series' VAL loss at h=1 under its own prototype; it must read data
    only through ``prepared``. Flags and (routed, pooled) VAL risk follow
    from ``own`` and the pooled losses ``pooled``, in this process and in key
    order. The kept run minimizes routed risk + gamma * K / N; ties prefer
    the smaller K, then the smaller seed. Runs execute on
    :func:`sweep_workers` forked processes, which inherit a one-thread BLAS
    set in this process before they fork (the caller's count is restored
    afterwards, and other threads of this process run single-threaded BLAS
    during the sweep), and give bitwise the results of a serial sweep.
    """
    n = prepared.n_series
    keys = [(k, seed) for k in sorted(sel_cfg.candidates) for seed in sel_cfg.seeds]
    table = []
    best = None
    best_key = None
    for (k, seed), (loop, own) in _sweep_outcomes(prepared, run, keys):
        means = cluster_val_means(loop.assignment, own, pooled)
        flags = compute_fallback(means)
        sel_abs, glob_risk = val_risk_pair(means, flags)
        sel_pen = sel_abs + sel_cfg.gamma * k / n
        table.append(dict(zip(SELECTION_COLUMNS, (
            k, seed, sel_abs, sel_pen, glob_risk,
            loop.assignment.iterations, loop.converged))))
        key = (sel_pen, k, seed)
        if best_key is None or key < best_key:
            best_key = key
            best = (loop, flags)
    loop, flags = best
    _, k_star, seed_star = best_key
    return SelectionResult(k_star, seed_star, table, loop.assignment, flags,
                           loop.prototypes, loop.label_trace)


def select_k(prepared: PreparedData, global_params: ParamSet, cfg: TrainConfig,
             sel_cfg: SelectionConfig, proto_epochs: int,
             features: np.ndarray | None = None) -> SelectionResult:
    """Sweep (K, seed), running the full TRAIN/VAL loop for each, and keep
    the run minimizing routed risk + gamma * K / N (:func:`run_sweep`)."""
    prepared.audit.set_phase("fallback")
    pooled = group_val_losses(
        prepared, [(global_params, np.arange(prepared.n_series))], cfg)

    def run(k, seed):
        init = init_assignments(prepared.n_series, k, seed,
                                strategy=sel_cfg.init_strategy, features=features)
        run_cfg = replace(cfg, seed=derive_seed(cfg.seed, "proto", seed))
        loop = outer_loop(prepared, global_params, init, run_cfg, sel_cfg,
                          proto_epochs)
        return loop, loop.cost.own_losses(loop.assignment)

    return run_sweep(prepared, sel_cfg, run, pooled)


# ---------------------------------------------------------------------------
# final refit and single-use TEST evaluation
# ---------------------------------------------------------------------------


# series, from the first, whose TEST forecasts EvalArtifacts keeps for plots
TRAJECTORY_SERIES = 3


@dataclass
class EvalArtifacts:
    refit_global: ParamSet
    groups: list[tuple]                # the method's (params, series) groups
    calibration: CalibrationTable | None
    report: list[dict]                 # summarize_method rows, as report.json
    series_mse: dict = None            # (method, horizon) -> per-series TEST MSE
    # (method, horizon) -> TEST (fan's point level, target), each (S, n, P),
    # of series 0 .. S - 1, S = min(TRAJECTORY_SERIES, N), from the TEST panel
    trajectories: dict = None


def val_calibration_streams(prepared: PreparedData, groups, horizons,
                            cfg: TrainConfig) -> dict:
    """Per horizon, the VAL (median, lower, upper, target) streams of the
    series of ``(params, series)`` groups, for :func:`calibration.calibrate`:
    the raveled :func:`losses.split_forecasts` fans, in group order. Needs a
    quantile-mode config; horizons without VAL windows are left out."""
    _, by_h = losses.split_forecasts(groups, prepared, "va", horizons, cfg)
    return {h: (fan[:, :, cfg.point_level].ravel(), fan[:, :, 0].ravel(),
                fan[:, :, -1].ravel(), y.ravel())
            for h, (fan, y) in by_h.items() if y.shape[1]}


def final_refit_and_test(prepared: PreparedData, assignment: Assignment | None,
                         flags: FallbackFlags | None, global_params: ParamSet,
                         prototypes: list[ParamSet] | None, cfg: TrainConfig,
                         horizons=(1, 3, 6), method: str = "cluster",
                         refit_epochs: int = 15, coverage_target: float = 0.8,
                         individual_models: list[ParamSet] | None = None,
                         before_test=None) -> EvalArtifacts:
    """Refit on TRAIN+VAL with frozen routing, then evaluate TEST once.

    The pooled model is refit warm-started from its TRAIN fit; unflagged
    prototypes are refit warm-started from their pre-refit parameters with
    the refit pooled model as anchor. Flagged (and empty) clusters route
    their members to the refit pooled model, making their TEST predictions
    bitwise identical to the reference rows. ``individual_models`` switches
    to one-model-per-series evaluation (no clustering, no fallback).

    The method's models are built once, as ``(params, series)`` groups in
    first-use order (by lowest series id, ids ascending): the refit pooled
    model with the series it serves, each kept cluster's refit prototype
    with its members, or each series' refit individual model.
    ``before_test(refit_global, groups, calibration)``, if given, runs
    immediately before the first TEST read; a failure before it, a diverged
    refit or a calibration error included, has read no TEST value.
    """
    prepared.audit.set_phase("refit")

    def refit(initials, anchor, series, seed_tags, freeze_mix=False):
        # models i train in lock-step on the windows of series[i], each
        # shuffled by the seed its tag derives
        data = [prepared.windows("trval", 1, cfg.w, s) for s in series]
        return model.train_stacked(
            initials, anchor, data, cfg,
            [derive_seed(cfg.seed, *tag) for tag in seed_tags],
            epochs=refit_epochs, freeze_mix=freeze_mix)

    n = prepared.n_series
    # the shared encoder/decoder stays at its TRAIN fit through the refit, so
    # pooled model and prototypes keep operating in the same latent space
    (refit_global,) = refit([global_params], None, [None], [("refit-global",)],
                            freeze_mix=True)

    frozen_before = None if flags is None else tuple(flags.flagged)
    groups, fallback_share = [(refit_global, np.arange(n))], 0.0
    if individual_models is not None:
        ids = [np.array([i]) for i in range(n)]
        groups = list(zip(refit(individual_models, None, ids,
                                [("refit-individual", i) for i in range(n)]),
                          ids))
    elif assignment is not None:
        kept = [k for k in range(assignment.n_clusters)
                if not flags.flagged[k] and len(assignment.members(k))]
        warms = []
        for k in kept:
            # the mixing matrix is shared: prototypes adopt the refit pooled
            # mix and warm-start only their specialized tensors
            warm = prototypes[k].copy()
            warm.mix[...] = refit_global.mix
            warms.append(warm)
        members = [assignment.members(k) for k in kept]
        groups = list(zip(refit(warms, refit_global, members,
                                [("refit-proto", k) for k in kept]), members))
        pooled = np.flatnonzero(np.asarray(flags.flagged)[assignment.labels])
        if len(pooled):
            groups.append((refit_global, pooled))
        groups.sort(key=lambda group: group[1][0])
        fallback_share = flags.fallback_share(assignment)

    calib = None
    if cfg.mode == "quantile":
        prepared.audit.set_phase("calibrate")
        streams = val_calibration_streams(prepared, groups, horizons, cfg)
        # SplitSpec.validate(min_segment=w + max h) leaves every scored segment
        # t - h + 1 >= w + 1 windows at every h, so on a CLI run this call, the
        # TEST pass and group_val_losses never raise "no ... windows"
        calib = calibrate(streams, coverage_target)

    prepared.audit.set_phase("evaluate")
    if before_test is not None:
        before_test(refit_global, groups, calib)
    scored = [("global", [(refit_global, np.arange(n))], 0.0)]
    if method != "global":
        scored.append((method, groups, fallback_share))
    rows, series_mse, trajectories = {}, {}, {}
    for name, models, share in scored:
        order, by_h = losses.split_forecasts(models, prepared, "te", horizons, cfg)
        # the panel's rows are in group order; series i is row rank[i]
        rank = np.argsort(order)
        for h, (fan, y) in by_h.items():
            if y.shape[1] == 0:
                raise ValueError(f"no TEST windows at h={h}")
            point = fan[:, :, cfg.point_level]
            s_mse, s_mae = (losses.series_means(kind, point, y, cfg)[rank]
                            for kind in ("mse", "mae"))
            s_pin = coverage = width = None
            if cfg.mode == "quantile":
                s_pin = losses.series_means("pinball", fan, y, cfg)[rank]
                fan = calib.apply(h, point, fan)
                coverage, width = losses.interval_stats(y, fan[:, :, 0],
                                                        fan[:, :, -1])
            reference = s_mse if name == "global" else series_mse[("global", h)]
            rows[(name, h)] = summarize_method(name, h, s_mse, s_mae, reference,
                                               share, s_pin, coverage, width)
            series_mse[(name, h)] = s_mse
            shown = rank[:TRAJECTORY_SERIES]
            trajectories[(name, h)] = (point[shown], y[shown])
    report = [rows[(name, h)] for h in horizons for name, _, _ in scored]

    if flags is not None and tuple(flags.flagged) != frozen_before:
        raise RuntimeError("fallback flags changed between freeze and TEST")
    return EvalArtifacts(refit_global, groups, calib, report, series_mse,
                         trajectories)


# ---------------------------------------------------------------------------
# routing newly observed series
# ---------------------------------------------------------------------------


def assign_new_series(segment: np.ndarray, global_params: ParamSet,
                      prototypes: list[ParamSet], flags: FallbackFlags,
                      cfg: TrainConfig) -> int:
    """Route a new series from an initial observed segment.

    Evaluates the one-step training loss (Huber, or pinball in quantile
    mode) of the pooled model and every unflagged prototype over all
    (window, target) pairs in the segment, in one stacked one-step
    :func:`model.rollout` of the segment less its last row as one run, and
    returns the winner's id: -1 for the pooled model, otherwise the
    prototype index. The pooled model wins ties and wins whenever no
    prototype strictly improves.
    The segment must already be standardized and hold at least w + 1 steps.
    """
    segment = np.asarray(segment, dtype=np.float64)
    if segment.ndim != 2:
        raise ValueError("segment must be (length, P)")
    w = cfg.w
    if segment.shape[0] < w + 1:
        raise ValueError(
            f"segment has {segment.shape[0]} steps; need at least w + 1 = {w + 1}")
    ids = [-1] + [k for k in range(len(prototypes)) if not flags.flagged[k]]
    # window i holds rows i .. i + w - 1 and targets row i + w
    kind, pred = losses.objective(model.rollout(
        ParamSet.stack([global_params] + [prototypes[k] for k in ids[1:]]),
        segment[None, :-1], 1, cfg), cfg)
    # each model's losses are a contiguous block, reduced as on its own
    scores = [float(np.mean(e))
              for e in losses.loss_elem(kind, pred[:, :, 0], segment[w:], cfg)]
    best_id, best_loss = -1, scores[0]
    for k, loss_k in zip(ids[1:], scores[1:]):
        # strict: the pooled model wins ties, and a NaN loss never wins
        if loss_k < best_loss:
            best_id, best_loss = k, loss_k
    return best_id
