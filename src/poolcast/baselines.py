"""Comparison methods sharing the pooled data, fallback safeguard, and
evaluation path: pooled-only, one-model-per-series, feature k-means
clustering, and balanced random clustering."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import clustering, model
from .clustering import (SelectionConfig, SelectionResult, fit_prototypes,
                         init_assignments)
from .data import PreparedData
from .model import ParamSet, TrainConfig, derive_seed

METHODS = ("global", "individual", "feat_kmeans", "random_balanced", "cluster")
KMEANS_MAX_ITERS = 100   # Lloyd iterations at most
KMEANS_TOL = 1e-9        # stop once the inertia improves by no more


def training_feature_vectors(prepared: PreparedData) -> np.ndarray:
    """Per-series summary features: TRAIN mean and standard deviation of each
    component (2P values), then standardized across series. TRAIN-only by
    construction (read as the rows of the TRAIN windows of length 1 at h = 1,
    the whole segment), so later segments can never move the clustering."""
    seg = prepared.rows("tr", 1, (1,))
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


def kmeans(features: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Lloyd's algorithm with k-means++ seeding, deterministic per seed.

    Empty clusters are repaired by stealing the point farthest from its
    assigned centroid. Stops when labels are stable, the inertia improvement
    drops to :data:`KMEANS_TOL`, or after :data:`KMEANS_MAX_ITERS`
    iterations.
    """
    x = np.asarray(features, dtype=np.float64)
    n = len(x)
    if k > n:
        raise ValueError(f"K={k} exceeds the number of points {n}")
    rng = np.random.default_rng(seed)
    centroids = _plus_plus_centroids(x, k, rng)
    labels = np.full(n, -1)
    prev_inertia = np.inf
    for _ in range(KMEANS_MAX_ITERS):
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
        if np.array_equal(new_labels, labels) or prev_inertia - inertia <= KMEANS_TOL:
            labels = new_labels
            break
        labels = new_labels
        prev_inertia = inertia
    return labels.astype(np.int64)


# ---------------------------------------------------------------------------
# baseline runners
# ---------------------------------------------------------------------------


def fit_baseline(kind: str, prepared: PreparedData, global_params: ParamSet,
                 cfg: TrainConfig, sel_cfg: SelectionConfig,
                 proto_epochs: int) -> SelectionResult:
    """Fit a clustered baseline ("feat_kmeans" or "random_balanced") on TRAIN
    with VAL-based selection, without touching TEST.

    The labels stay at their initial values (no reassignment loop, so the
    label trace is those labels alone), prototypes are fit with the same
    warm-start objective, the fallback safeguard applies, and (K, seed) is
    chosen by routed VAL MSE at h=1 plus the same complexity penalty used
    for the main method.
    """
    if kind not in ("feat_kmeans", "random_balanced"):
        raise ValueError(f"unknown clustered baseline {kind!r}")
    n = prepared.n_series
    strategy = "feature" if kind == "feat_kmeans" else "random_balanced"
    features = training_feature_vectors(prepared) if kind == "feat_kmeans" else None
    prepared.audit.set_phase("fallback")
    pooled = clustering.group_val_losses(prepared, [(global_params, np.arange(n))],
                                         cfg, kind="mse")

    def run(k, seed):
        assignment = init_assignments(n, k, seed, strategy, features)
        run_cfg = replace(cfg, seed=derive_seed(cfg.seed, kind, seed))
        prepared.audit.set_phase("fit-prototypes")
        protos, _ = fit_prototypes(prepared, assignment, global_params,
                                   run_cfg, proto_epochs)
        loop = clustering.LoopResult(assignment, protos, [assignment.labels],
                                     converged=True, cost=None)
        prepared.audit.set_phase("fallback")
        own = clustering.group_val_losses(
            prepared, [(protos[j], assignment.members(j)) for j in range(k)],
            run_cfg, kind="mse")
        return loop, own

    return clustering.run_sweep(prepared, sel_cfg, run, pooled)


def fit_individual(prepared: PreparedData, global_params: ParamSet,
                   cfg: TrainConfig) -> list[ParamSet]:
    """One model per series, each trained from a fresh seeded initialization
    of the pooled model's shape on that series' TRAIN windows alone; one
    :func:`model.train_stacked` fit, each model bitwise its own ``train``."""
    prepared.audit.set_phase("fit-individual")
    shape = (global_params.p_dim, global_params.latent, global_params.hidden,
             global_params.n_levels)
    series = range(prepared.n_series)
    return model.train_stacked(
        [model.init_params(*shape, derive_seed(cfg.seed, "individual", i))
         for i in series],
        None, [prepared.windows("tr", 1, cfg.w, [i]) for i in series], cfg,
        [derive_seed(cfg.seed, "fit-ind", i) for i in series])
