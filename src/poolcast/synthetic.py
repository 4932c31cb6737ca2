"""Ground-truth heterogeneous dataset generator and clustering agreement score.

Each latent regime owns a stable linear transition map, a seasonal forcing
(phase, amplitude), and a baseline level. A heterogeneity dial interpolates
every regime's parameters toward their cross-regime mean: at 0 all regimes
are literally identical, at 1 they are fully distinct. Linear recursions are
used on purpose so the ground truth does not depend on the forecaster family
being evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import MtsDataset


@dataclass(frozen=True)
class SyntheticSpec:
    n_series: int = 30
    n_times: int = 300
    n_components: int = 8
    n_regimes: int = 3
    heterogeneity: float = 1.0   # 0 = identical regimes, 1 = fully distinct
    noise_scale: float = 0.2
    season_period: int = 24
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.heterogeneity <= 1.0):
            raise ValueError("heterogeneity must lie in [0, 1]")
        if self.n_regimes > self.n_series:
            raise ValueError("more regimes than series")
        if min(self.n_series, self.n_times, self.n_components, self.n_regimes) < 1:
            raise ValueError("all dimensions must be positive")
        if not (np.isfinite(self.noise_scale) and self.noise_scale >= 0):
            raise ValueError("noise_scale must be finite and non-negative")

    @property
    def true_labels(self) -> np.ndarray:
        # balanced by construction: series i belongs to regime i mod K
        return np.arange(self.n_series) % self.n_regimes


def _spectral_radius(m: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def _blend(per_regime: np.ndarray, alpha: float) -> np.ndarray:
    mean = per_regime.mean(axis=0, keepdims=True)
    return mean + alpha * (per_regime - mean)


def generate(spec: SyntheticSpec) -> tuple[MtsDataset, np.ndarray]:
    """Draw a dataset with known regime labels.

    Regime k owns a scaled-orthogonal transition map (spectral radius drawn
    in [0.85, 0.92], always < 0.95) and a seasonal forcing with its own phase
    and per-component amplitudes; series evolve

        x_t = A_k x_{t-1} + amp_k * sin(2 pi t / period + phase_k) + noise.

    Orthogonal maps give every regime genuinely different mixing directions,
    so the regimes differ in predictive dynamics rather than in location.
    All regime parameters are blended toward their common mean by the
    heterogeneity dial, and blended maps are rescaled in the (unreachable for
    orthogonal draws) event the spectral radius hits 0.95.
    """
    rng = np.random.default_rng(spec.seed)
    k, p = spec.n_regimes, spec.n_components

    maps = np.empty((k, p, p))
    for j in range(k):
        q, _ = np.linalg.qr(rng.normal(size=(p, p)))
        maps[j] = q * rng.uniform(0.85, 0.92)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(k, 1))
    amps = rng.uniform(0.5, 1.5, size=(k, p))

    alpha = spec.heterogeneity
    maps = _blend(maps, alpha)
    for j in range(k):
        radius = _spectral_radius(maps[j])
        if radius >= 0.95:
            maps[j] *= 0.9 / radius
    phases = _blend(phases, alpha)
    amps = _blend(amps, alpha)

    labels = spec.true_labels
    t_grid = np.arange(spec.n_times)
    values = np.empty((spec.n_series, spec.n_times, p))
    for i in range(spec.n_series):
        reg = labels[i]
        forcing = amps[reg] * np.sin(
            2.0 * np.pi * t_grid[:, None] / spec.season_period + phases[reg])
        noise = rng.normal(scale=spec.noise_scale, size=(spec.n_times, p))
        x = np.zeros(p)
        for t in range(spec.n_times):
            x = maps[reg] @ x + forcing[t] + noise[t]
            values[i, t] = x
    names = [f"s{i:04d}_r{labels[i]}" for i in range(spec.n_series)]
    return MtsDataset(values, names), labels.copy()


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Chance-corrected pair-counting agreement between two labelings."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("labelings must be 1-d and of equal length")
    n = len(a)
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    contingency = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(contingency, (ai, bi), 1)

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_ij = comb2(contingency.astype(np.float64)).sum()
    sum_a = comb2(contingency.sum(axis=1).astype(np.float64)).sum()
    sum_b = comb2(contingency.sum(axis=0).astype(np.float64)).sum()
    total = comb2(float(n))
    expected = sum_a * sum_b / total if total > 0 else 0.0
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        # both partitions trivial (all singletons or a single block)
        return 1.0 if np.array_equal(ai, bi) or sum_ij == max_index else 0.0
    return float((sum_ij - expected) / (max_index - expected))
