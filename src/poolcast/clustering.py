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

from dataclasses import dataclass, replace

import numpy as np

from . import losses, model
from .calibration import CalibrationTable, calibrate
from .data import PreparedData
from .losses import MetricTable, summarize_method
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

    Entries are means over the assignment horizons; NaN marks an undefined
    entry (no valid windows). Rows that are entirely NaN are excluded from
    reassignment and keep their previous label.
    """

    values: np.ndarray
    horizons: tuple


@dataclass(frozen=True)
class FallbackFlags:
    """Per-cluster non-specializable markers, frozen once computed."""

    flagged: tuple
    frozen: bool = True

    def fallback_share(self, assignment: Assignment) -> float:
        routed = np.asarray(self.flagged)[assignment.labels]
        return float(np.mean(routed))


@dataclass(frozen=True)
class SelectionConfig:
    """Sweep configuration for choosing the number of clusters."""

    candidates: tuple = (2, 3, 4, 5)
    seeds: tuple = (0, 1, 2, 3, 4)
    gamma: float = 0.05
    max_outer_iters: int = 10
    assign_horizons: tuple = (1, 3, 6)
    init_strategy: str = "random_balanced"

    def __post_init__(self):
        if not self.candidates:
            raise ValueError("need at least one candidate K")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
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


class _TrainCache:
    """Per-series TRAIN (and later TRAIN+VAL) windows, gathered once."""

    def __init__(self, prepared: PreparedData, cfg: TrainConfig, tag: str = "tr"):
        x, y = prepared.per_series_windows(tag, 1, cfg.w)
        self.x, self.y = x, y

    def pooled(self, series: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s, n, w, p = self.x.shape
        return (self.x[series].reshape(-1, w, p), self.y[series].reshape(-1, p))


def fit_prototypes(prepared: PreparedData, assignment: Assignment,
                   global_params: ParamSet, cfg: TrainConfig,
                   proto_epochs: int, cache: _TrainCache | None = None
                   ) -> tuple[list[ParamSet], np.ndarray]:
    """One prototype per cluster, warm-started at and anchored to the pooled model.

    Empty clusters get an untrained copy of the pooled parameters and are
    reported inert for this iteration.
    """
    cache = cache or _TrainCache(prepared, cfg)
    protos: list[ParamSet] = []
    inert = np.zeros(assignment.n_clusters, dtype=bool)
    for k in range(assignment.n_clusters):
        members = assignment.members(k)
        if len(members) == 0:
            protos.append(global_params.copy())
            inert[k] = True
            continue
        x, y = cache.pooled(members)
        protos.append(model.train(global_params, global_params, x, y, cfg,
                                  epochs=proto_epochs))
    return protos, inert


def compute_cost_matrix(prepared: PreparedData, prototypes: list[ParamSet],
                        horizons, cfg: TrainConfig) -> CostMatrix:
    """VAL loss of every series under every prototype, averaged over horizons.

    Point mode scores with Huber, quantile mode with multi-level pinball;
    h > 1 entries use recursive rollout. Horizons with no valid VAL windows
    are skipped; if none remain, the whole matrix is NaN.
    """
    n = prepared.n_series
    cols = []
    for k, proto in enumerate(prototypes):
        per_h = []
        for h in horizons:
            vals = losses.per_series_split_losses(proto, prepared, "va", h, cfg)
            if vals is not None:
                per_h.append(vals)
        if per_h:
            cols.append(np.mean(per_h, axis=0))
        else:
            cols.append(np.full(n, np.nan))
    return CostMatrix(np.stack(cols, axis=1), tuple(horizons))


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
    inert: np.ndarray
    label_trace: list[np.ndarray]
    converged: bool


def outer_loop(prepared: PreparedData, global_params: ParamSet,
               init: Assignment, cfg: TrainConfig, sel_cfg: SelectionConfig,
               proto_epochs: int, cache: _TrainCache | None = None) -> LoopResult:
    """Alternate TRAIN prototype fitting and VAL reassignment to a fixed point.

    Stops as soon as a reassignment leaves the labels unchanged, or after
    ``max_outer_iters`` alternations.
    """
    cache = cache or _TrainCache(prepared, cfg)
    assignment = init
    trace = [init.labels.copy()]
    prototypes, inert = [], np.zeros(init.n_clusters, dtype=bool)
    converged = False
    for it in range(1, sel_cfg.max_outer_iters + 1):
        prepared.audit.set_phase("fit-prototypes")
        prototypes, inert = fit_prototypes(prepared, assignment, global_params,
                                           cfg, proto_epochs, cache)
        prepared.audit.set_phase("reassign")
        cost = compute_cost_matrix(prepared, prototypes, sel_cfg.assign_horizons, cfg)
        new = reassign(cost, assignment)
        trace.append(new.labels.copy())
        unchanged = np.array_equal(new.labels, assignment.labels)
        assignment = Assignment(new.labels, new.n_clusters, iterations=it)
        if unchanged:
            converged = True
            break
    return LoopResult(assignment, prototypes, inert, trace, converged)


# ---------------------------------------------------------------------------
# fallback and routed risk
# ---------------------------------------------------------------------------


def pooled_val_losses(prepared: PreparedData, global_params: ParamSet,
                      cfg: TrainConfig, kind: str | None = None) -> np.ndarray:
    """Per-series VAL loss at h=1 of the pooled model, the fallback's reference."""
    glob = losses.per_series_split_losses(global_params, prepared, "va", 1, cfg,
                                          kind=kind)
    if glob is None:
        raise ValueError("no VAL windows at h=1; cannot compute fallback")
    return glob


def cluster_val_means(prepared: PreparedData, assignment: Assignment,
                      prototypes: list[ParamSet], pooled: np.ndarray,
                      cfg: TrainConfig, kind: str | None = None
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sizes, mean member VAL loss at h=1 under own prototype / under pooled),
    given the pooled model's per-series losses from :func:`pooled_val_losses`."""
    k = assignment.n_clusters
    sizes = assignment.sizes()
    clus_means = np.full(k, np.nan)
    glob_means = np.full(k, np.nan)
    for j in range(k):
        members = assignment.members(j)
        if len(members) == 0:
            continue
        own = losses.per_series_split_losses(prototypes[j], prepared, "va", 1,
                                             cfg, kind=kind, series=members)
        clus_means[j] = float(np.mean(own))
        glob_means[j] = float(np.mean(pooled[members]))
    return sizes, clus_means, glob_means


def _val_means(prepared, assignment, prototypes, global_params, cfg, kind):
    pooled = pooled_val_losses(prepared, global_params, cfg, kind=kind)
    return cluster_val_means(prepared, assignment, prototypes, pooled, cfg,
                             kind=kind)


def compute_fallback(prepared: PreparedData, assignment: Assignment,
                     prototypes: list[ParamSet], global_params: ParamSet,
                     cfg: TrainConfig, kind: str | None = None,
                     means: tuple | None = None) -> FallbackFlags:
    """Flag clusters whose mean member VAL loss at h=1 strictly exceeds the
    pooled model's on the same members; empty clusters are flagged by
    convention. The result is frozen: nothing downstream may revisit it.
    ``means`` reuses a :func:`cluster_val_means` result instead of scoring."""
    prepared.audit.set_phase("fallback")
    if means is None:
        means = _val_means(prepared, assignment, prototypes, global_params, cfg,
                           kind)
    sizes, clus, glob = means
    flagged = []
    for j in range(assignment.n_clusters):
        flagged.append(True if sizes[j] == 0 else bool(clus[j] > glob[j]))
    return FallbackFlags(flagged=tuple(flagged))


def routed_val_risk(prepared: PreparedData, assignment: Assignment,
                    flags: FallbackFlags, prototypes: list[ParamSet],
                    global_params: ParamSet, cfg: TrainConfig,
                    kind: str | None = None) -> float:
    """Mean routed VAL loss at h=1: members of flagged clusters fall back to
    the pooled model. Aggregated as size-weighted per-cluster means, which
    makes the min construction an exact floating-point property."""
    routed, _ = val_risk_pair(prepared, assignment, flags, prototypes,
                              global_params, cfg, kind=kind)
    return routed


def val_risk_pair(prepared: PreparedData, assignment: Assignment,
                  flags: FallbackFlags, prototypes: list[ParamSet],
                  global_params: ParamSet, cfg: TrainConfig,
                  kind: str | None = None, means: tuple | None = None
                  ) -> tuple[float, float]:
    """(routed risk, pooled risk) on VAL at h=1 under identical aggregation.
    ``means`` reuses a :func:`cluster_val_means` result instead of scoring."""
    if means is None:
        means = _val_means(prepared, assignment, prototypes, global_params, cfg,
                           kind)
    sizes, clus, glob = means
    n = float(sizes.sum())
    routed_total = 0.0
    global_total = 0.0
    for j in range(assignment.n_clusters):
        if sizes[j] == 0:
            continue
        chosen = glob[j] if flags.flagged[j] else clus[j]
        routed_total += sizes[j] * chosen
        global_total += sizes[j] * glob[j]
    # plain floats: selection.csv writes their repr
    return float(routed_total / n), float(global_total / n)


def sweep_run_fallback(prepared: PreparedData, assignment: Assignment,
                       prototypes: list[ParamSet], global_params: ParamSet,
                       pooled: np.ndarray, cfg: TrainConfig,
                       kind: str | None = None
                       ) -> tuple[FallbackFlags, float, float]:
    """Fallback flags and (routed, pooled) VAL risk of one (K, seed) run.

    Scores each cluster's members once and reuses ``pooled``, the pooled
    model's VAL losses, which are the same for every run of a sweep.
    """
    prepared.audit.set_phase("fallback")
    means = cluster_val_means(prepared, assignment, prototypes, pooled, cfg,
                              kind=kind)
    flags = compute_fallback(prepared, assignment, prototypes, global_params,
                             cfg, kind=kind, means=means)
    routed, glob = val_risk_pair(prepared, assignment, flags, prototypes,
                                 global_params, cfg, kind=kind, means=means)
    return flags, routed, glob


# ---------------------------------------------------------------------------
# selection of K
# ---------------------------------------------------------------------------


@dataclass
class SelectionRun:
    k: int
    seed: int
    sel_abs: float          # routed VAL risk at h=1 after fallback
    sel_pen: float
    iterations: int
    converged: bool
    global_risk: float = float("nan")  # pooled VAL risk, same aggregation


@dataclass
class SelectionResult:
    k_star: int
    seed_star: int
    table: list[SelectionRun]
    assignment: Assignment
    flags: FallbackFlags
    prototypes: list[ParamSet]
    label_trace: list[np.ndarray]


def select_k(prepared: PreparedData, global_params: ParamSet, cfg: TrainConfig,
             sel_cfg: SelectionConfig, proto_epochs: int,
             features: np.ndarray | None = None) -> SelectionResult:
    """Sweep (K, seed), running the full TRAIN/VAL loop plus fallback for each,
    and keep the run minimizing routed risk + gamma * K / N. Ties prefer the
    smaller K, then the smaller seed."""
    n = prepared.n_series
    cache = _TrainCache(prepared, cfg)
    prepared.audit.set_phase("fallback")
    pooled = pooled_val_losses(prepared, global_params, cfg)
    table: list[SelectionRun] = []
    best = None
    best_key = None
    for k in sorted(sel_cfg.candidates):
        for seed in sel_cfg.seeds:
            init = init_assignments(n, k, seed, strategy=sel_cfg.init_strategy,
                                    features=features)
            run_cfg = replace(cfg, seed=derive_seed(cfg.seed, "proto", seed))
            loop = outer_loop(prepared, global_params, init, run_cfg, sel_cfg,
                              proto_epochs, cache)
            flags, sel_abs, glob_risk = sweep_run_fallback(
                prepared, loop.assignment, loop.prototypes, global_params,
                pooled, run_cfg)
            sel_pen = sel_abs + sel_cfg.gamma * k / n
            table.append(SelectionRun(k, seed, sel_abs, sel_pen,
                                      loop.assignment.iterations, loop.converged,
                                      global_risk=glob_risk))
            key = (sel_pen, k, seed)
            if best_key is None or key < best_key:
                best_key = key
                best = (k, seed, loop, flags)
    k_star, seed_star, loop, flags = best
    return SelectionResult(k_star, seed_star, table, loop.assignment, flags,
                           loop.prototypes, loop.label_trace)


# ---------------------------------------------------------------------------
# final refit and single-use TEST evaluation
# ---------------------------------------------------------------------------


@dataclass
class EvalArtifacts:
    refit_global: ParamSet
    routed_models: list[ParamSet]      # one entry per series
    calibration: CalibrationTable | None
    report: MetricTable
    series_mse: dict = None            # (method, horizon) -> per-series TEST MSE


def _per_series_test_scores(prepared: PreparedData, models: list[ParamSet],
                            h: int, cfg: TrainConfig,
                            calib: CalibrationTable | None):
    """Per-series TEST losses (and pooled interval stats in quantile mode).

    Series sharing a model object are evaluated in one batch, so routed
    members produce bitwise the same predictions as the reference model.
    """
    n = prepared.n_series
    s_mse = np.empty(n)
    s_mae = np.empty(n)
    s_pin = np.empty(n) if cfg.mode == "quantile" else None
    inside_parts, width_parts = [], []

    groups: dict[int, list[int]] = {}
    for i, m in enumerate(models):
        groups.setdefault(id(m), []).append(i)
    for ids in groups.values():
        params = models[ids[0]]
        x, y = prepared.per_series_windows("te", h, cfg.w, np.asarray(ids))
        s, nw, w, p = x.shape
        if nw == 0:
            raise ValueError(f"no TEST windows at h={h}")
        xf = x.reshape(s * nw, w, p)
        yf = y.reshape(s * nw, p)
        if cfg.mode == "quantile":
            fan = model.rollout(params, xf, h, mode="quantile", levels=cfg.quantiles)
            med = fan[:, model.median_index(cfg.quantiles)]
            q = np.asarray(cfg.quantiles).reshape(1, -1, 1)
            pin = losses.pinball_elem(fan, yf[:, None, :], q).mean(axis=(1, 2))
            s_pin[ids] = pin.reshape(s, nw).mean(axis=1)
            lo, hi = fan[:, 0], fan[:, -1]
            if calib is not None:
                lo, hi = calib.apply(h, med, lo, hi)
            inside_parts.append(((yf >= lo) & (yf <= hi)).ravel())
            width_parts.append((hi - lo).ravel())
            pred = med
        else:
            pred = model.rollout(params, xf, h, mode="point")
        err = pred - yf
        s_mse[ids] = (err ** 2).mean(axis=1).reshape(s, nw).mean(axis=1)
        s_mae[ids] = np.abs(err).mean(axis=1).reshape(s, nw).mean(axis=1)

    coverage = width = None
    if cfg.mode == "quantile":
        coverage = float(np.mean(np.concatenate(inside_parts)))
        width = float(np.mean(np.concatenate(width_parts)))
    return s_mse, s_mae, s_pin, coverage, width


def val_calibration_streams(prepared: PreparedData, models: list[ParamSet],
                             horizons, cfg: TrainConfig) -> dict:
    streams = {}
    groups: dict[int, list[int]] = {}
    for i, m in enumerate(models):
        groups.setdefault(id(m), []).append(i)
    med_i = model.median_index(cfg.quantiles)
    for h in horizons:
        meds, los, his, targets = [], [], [], []
        for ids in groups.values():
            params = models[ids[0]]
            x, y = prepared.per_series_windows("va", h, cfg.w, np.asarray(ids))
            s, nw, w, p = x.shape
            if nw == 0:
                continue
            fan = model.rollout(params, x.reshape(s * nw, w, p), h,
                                mode="quantile", levels=cfg.quantiles)
            meds.append(fan[:, med_i].ravel())
            los.append(fan[:, 0].ravel())
            his.append(fan[:, -1].ravel())
            targets.append(y.reshape(-1))
        if meds:
            streams[h] = (np.concatenate(meds), np.concatenate(los),
                          np.concatenate(his), np.concatenate(targets))
    return streams


def final_refit_and_test(prepared: PreparedData, assignment: Assignment | None,
                         flags: FallbackFlags | None, global_params: ParamSet,
                         prototypes: list[ParamSet] | None, cfg: TrainConfig,
                         horizons=(1, 3, 6), method: str = "cluster",
                         refit_epochs: int = 15, coverage_target: float = 0.8,
                         individual_models: list[ParamSet] | None = None,
                         individual_refit_epochs: int | None = None
                         ) -> EvalArtifacts:
    """Refit on TRAIN+VAL with frozen routing, then evaluate TEST once.

    The pooled model is refit warm-started from its TRAIN fit; unflagged
    prototypes are refit warm-started from their pre-refit parameters with
    the refit pooled model as anchor. Flagged (and empty) clusters route
    their members to the refit pooled model, making their TEST predictions
    bitwise identical to the reference rows. ``individual_models`` switches
    to one-model-per-series evaluation (no clustering, no fallback).
    """
    prepared.audit.set_phase("refit")
    cache = _TrainCache(prepared, cfg, tag="trval")
    all_series = np.arange(prepared.n_series)
    x_all, y_all = cache.pooled(all_series)
    # the shared encoder/decoder stays at its TRAIN fit through the refit, so
    # pooled model and prototypes keep operating in the same latent space
    refit_global = model.train(global_params, None, x_all, y_all,
                               replace(cfg, seed=derive_seed(cfg.seed, "refit-global")),
                               epochs=refit_epochs, freeze_mix=True)

    frozen_before = None if flags is None else tuple(flags.flagged)
    routed: list[ParamSet]
    if individual_models is not None:
        routed = []
        per_epochs = individual_refit_epochs if individual_refit_epochs is not None else refit_epochs
        for i in all_series:
            x_i, y_i = cache.pooled(np.asarray([i]))
            routed.append(model.train(
                individual_models[i], None, x_i, y_i,
                replace(cfg, seed=derive_seed(cfg.seed, "refit-individual", int(i))),
                epochs=per_epochs))
        fallback_share = 0.0
    elif assignment is None:
        routed = [refit_global] * prepared.n_series
        fallback_share = 0.0
    else:
        refit_protos: dict[int, ParamSet] = {}
        for k in range(assignment.n_clusters):
            if flags.flagged[k] or len(assignment.members(k)) == 0:
                continue
            members = assignment.members(k)
            x_k, y_k = cache.pooled(members)
            # the mixing matrix is shared: prototypes adopt the refit pooled
            # mix and warm-start only their specialized tensors
            warm = prototypes[k].copy()
            warm.mix[...] = refit_global.mix
            refit_protos[k] = model.train(
                warm, refit_global, x_k, y_k,
                replace(cfg, seed=derive_seed(cfg.seed, "refit-proto", k)),
                epochs=refit_epochs)
        routed = [refit_global if flags.flagged[assignment.labels[i]]
                  else refit_protos[assignment.labels[i]]
                  for i in all_series]
        fallback_share = flags.fallback_share(assignment)

    calib = None
    if cfg.mode == "quantile":
        prepared.audit.set_phase("calibrate")
        streams = val_calibration_streams(prepared, routed, horizons, cfg)
        calib = calibrate(streams, coverage_target)

    prepared.audit.set_phase("evaluate")
    table = MetricTable()
    series_mse = {}
    for h in horizons:
        ref_mse, ref_mae, ref_pin, ref_cov, ref_wid = _per_series_test_scores(
            prepared, [refit_global] * prepared.n_series, h, cfg, calib)
        table.add(summarize_method("global", h, ref_mse, ref_mae, ref_mse, 0.0,
                                   ref_pin, ref_cov, ref_wid))
        series_mse[("global", h)] = ref_mse
        if method != "global":
            m_mse, m_mae, m_pin, m_cov, m_wid = _per_series_test_scores(
                prepared, routed, h, cfg, calib)
            table.add(summarize_method(method, h, m_mse, m_mae, ref_mse,
                                       fallback_share, m_pin, m_cov, m_wid))
            series_mse[(method, h)] = m_mse

    if flags is not None and tuple(flags.flagged) != frozen_before:
        raise RuntimeError("fallback flags changed between freeze and TEST")
    return EvalArtifacts(refit_global, routed, calib, table, series_mse)


# ---------------------------------------------------------------------------
# routing newly observed series
# ---------------------------------------------------------------------------


def assign_new_series(segment: np.ndarray, global_params: ParamSet,
                      prototypes: list[ParamSet], flags: FallbackFlags,
                      cfg: TrainConfig) -> int:
    """Route a new series from an initial observed segment.

    Evaluates the one-step loss of the pooled model and every unflagged
    prototype over all (window, target) pairs in the segment and returns the
    winner's id: -1 for the pooled model, otherwise the prototype index. The
    pooled model wins ties and wins whenever no prototype strictly improves.
    The segment must already be standardized and hold at least w + 1 steps.
    """
    segment = np.asarray(segment, dtype=np.float64)
    if segment.ndim != 2:
        raise ValueError("segment must be (length, P)")
    w = cfg.w
    if segment.shape[0] < w + 1:
        raise ValueError(
            f"segment has {segment.shape[0]} steps; need at least w + 1 = {w + 1}")
    ends = np.arange(w - 1, segment.shape[0] - 1)
    sw = np.lib.stride_tricks.sliding_window_view(segment, w, axis=0)
    x = np.ascontiguousarray(np.swapaxes(sw[ends - (w - 1)], 1, 2))
    y = segment[ends + 1]

    def segment_loss(params: ParamSet) -> float:
        if cfg.mode == "quantile":
            fan = model.rollout(params, x, 1, mode="quantile", levels=cfg.quantiles)
            q = np.asarray(cfg.quantiles).reshape(1, -1, 1)
            return float(np.mean(losses.pinball_elem(fan, y[:, None, :], q)))
        pred = model.rollout(params, x, 1, mode="point")
        return float(np.mean(losses.huber_elem(pred - y, cfg.huber_delta)))

    global_loss = segment_loss(global_params)
    best_id, best_loss = -1, global_loss
    for k, proto in enumerate(prototypes):
        if flags.flagged[k]:
            continue
        loss_k = segment_loss(proto)
        if loss_k < best_loss:
            best_id, best_loss = k, loss_k
    return best_id
