"""Comparison methods sharing the pooled data, fallback safeguard, and
evaluation path: pooled-only, one-model-per-series, feature k-means
clustering, and balanced random clustering."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import clustering, model
from .clustering import (Assignment, FallbackFlags, SelectionConfig,
                         fit_prototypes, init_assignments)
from .data import PreparedData
from .model import ParamSet, TrainConfig, derive_seed

METHODS = ("global", "individual", "feat_kmeans", "random_balanced", "cluster")


def training_feature_vectors(prepared: PreparedData) -> np.ndarray:
    """Per-series summary features: TRAIN mean and standard deviation of each
    component (2P values), then standardized across series. TRAIN-only by
    construction, so later segments can never move the clustering."""
    seg = prepared.dataset.values[:, :prepared.spec.t_train, :]
    feats = np.concatenate([seg.mean(axis=1), seg.std(axis=1)], axis=1)
    mu = feats.mean(axis=0)
    sd = feats.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    return (feats - mu) / sd


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------


def _plus_plus_centroids(x: np.ndarray, k: int, rng) -> np.ndarray:
    n = len(x)
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    d2 = ((x - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(np.searchsorted(np.cumsum(d2 / total), rng.random()))
            idx = min(idx, n - 1)
        centroids[j] = x[idx]
        d2 = np.minimum(d2, ((x - centroids[j]) ** 2).sum(axis=1))
    return centroids


def kmeans(features: np.ndarray, k: int, seed: int, max_iters: int = 100,
           tol: float = 1e-9) -> np.ndarray:
    """Lloyd's algorithm with k-means++ seeding, deterministic per seed.

    Empty clusters are repaired by stealing the point farthest from its
    assigned centroid. Stops when labels are stable, the inertia improvement
    drops to ``tol``, or the iteration cap is reached.
    """
    x = np.asarray(features, dtype=np.float64)
    n = len(x)
    if k > n:
        raise ValueError(f"K={k} exceeds the number of points {n}")
    rng = np.random.default_rng(seed)
    centroids = _plus_plus_centroids(x, k, rng)
    labels = np.full(n, -1)
    prev_inertia = np.inf
    for _ in range(max_iters):
        d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        point_d2 = d2[np.arange(n), new_labels]
        for j in range(k):
            if not np.any(new_labels == j):
                victim = int(np.argmax(point_d2))
                new_labels[victim] = j
                point_d2[victim] = 0.0
        inertia = float(point_d2.sum())
        for j in range(k):
            centroids[j] = x[new_labels == j].mean(axis=0)
        if np.array_equal(new_labels, labels) or prev_inertia - inertia <= tol:
            labels = new_labels
            break
        labels = new_labels
        prev_inertia = inertia
    return labels.astype(np.int64)


# ---------------------------------------------------------------------------
# baseline runners
# ---------------------------------------------------------------------------


@dataclass
class BaselineFit:
    """Everything the evaluation step needs for one fitted baseline."""

    method: str
    k: int | None
    seed: int | None
    assignment: Assignment | None
    flags: FallbackFlags | None
    prototypes: list[ParamSet] | None
    individual_models: list[ParamSet] | None
    selection_table: list


def _labels_for(kind: str, k: int, seed: int, n: int,
                features: np.ndarray | None) -> Assignment:
    if kind == "feat_kmeans":
        return Assignment(kmeans(features, k, seed=seed), k)
    return init_assignments(n, k, seed, strategy="random_balanced")


def fit_baseline(kind: str, prepared: PreparedData, global_params: ParamSet,
                 cfg: TrainConfig, sel_cfg: SelectionConfig,
                 proto_epochs: int) -> BaselineFit:
    """Fit a baseline on TRAIN with VAL-based selection, without touching TEST.

    Clustered baselines keep their initial labels fixed (no reassignment
    loop), fit prototypes with the same warm-start objective, apply the
    fallback safeguard, and choose (K, seed) by routed VAL MSE at h=1 plus
    the same complexity penalty used for the main method.
    """
    n = prepared.n_series
    if kind == "global":
        return BaselineFit("global", None, None, None, None, None, None, [])
    if kind == "individual":
        cache = clustering._TrainCache(prepared, cfg)
        models = []
        prepared.audit.set_phase("fit-individual")
        for i in range(n):
            x, y = cache.pooled(np.asarray([i]))
            models.append(model.train(
                model.init_params(global_params.p_dim, global_params.latent,
                                  global_params.hidden, global_params.n_levels,
                                  derive_seed(cfg.seed, "individual", i)),
                None, x, y, replace(cfg, seed=derive_seed(cfg.seed, "fit-ind", i))))
        return BaselineFit("individual", None, None, None, None, None, models, [])
    if kind not in ("feat_kmeans", "random_balanced"):
        raise ValueError(f"unknown baseline {kind!r}")

    features = training_feature_vectors(prepared) if kind == "feat_kmeans" else None
    cache = clustering._TrainCache(prepared, cfg)
    prepared.audit.set_phase("fallback")
    pooled = clustering.pooled_val_losses(prepared, global_params, cfg,
                                          kind="mse")
    table = []
    best = None
    best_key = None
    for k in sorted(sel_cfg.candidates):
        for seed in sel_cfg.seeds:
            assignment = _labels_for(kind, k, seed, n, features)
            run_cfg = replace(cfg, seed=derive_seed(cfg.seed, kind, seed))
            prepared.audit.set_phase("fit-prototypes")
            protos, _ = fit_prototypes(prepared, assignment, global_params,
                                       run_cfg, proto_epochs, cache)
            flags, sel_abs, glob_risk = clustering.sweep_run_fallback(
                prepared, assignment, protos, global_params, pooled, run_cfg,
                kind="mse")
            sel_pen = sel_abs + sel_cfg.gamma * k / n
            table.append(clustering.SelectionRun(k, seed, sel_abs, sel_pen, 0,
                                                 True, global_risk=glob_risk))
            key = (sel_pen, k, seed)
            if best_key is None or key < best_key:
                best_key = key
                best = (k, seed, assignment, flags, protos)
    k_star, seed_star, assignment, flags, protos = best
    return BaselineFit(kind, k_star, seed_star, assignment, flags, protos,
                       None, table)


def run_baseline(kind: str, prepared: PreparedData, global_params: ParamSet,
                 cfg: TrainConfig, sel_cfg: SelectionConfig, proto_epochs: int,
                 horizons=(1, 3, 6), refit_epochs: int = 15,
                 coverage_target: float = 0.8):
    """Fit a baseline and run the shared refit + single-use TEST evaluation."""
    fit = fit_baseline(kind, prepared, global_params, cfg, sel_cfg, proto_epochs)
    artifacts = clustering.final_refit_and_test(
        prepared, fit.assignment, fit.flags, global_params, fit.prototypes,
        cfg, horizons=horizons, method=kind, refit_epochs=refit_epochs,
        coverage_target=coverage_target, individual_models=fit.individual_models)
    return fit, artifacts
