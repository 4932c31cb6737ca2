"""Inputs, statistics, artifact digest and run metadata for the benchmark.

Everything here uses the standard library and numpy only. The program under
test is never imported by this module: the benchmark draws its own synthetic
data so that a change to the program cannot change the inputs it is fed.
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

THREAD_VARS = ("POOLCAST_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")

# artifacts whose bytes define a run; plots and report.csv are derived views
DIGEST_NAMES = ("manifest.json", "selection.csv", "report.json")


# ---------------------------------------------------------------------------
# synthetic inputs
# ---------------------------------------------------------------------------


class RegimeModel:
    """Regime dynamics shared by a training panel and new series.

    Regime k owns a symmetric transition map A_k = Q_k diag(lam) Q_k' with a
    random rotation Q_k, and a seasonal forcing; series follow
    x_t = A_k x_{t-1} + amp_k sin(2 pi t / 24 + phase_k) + noise.
    ``alpha`` blends every regime toward the cross-regime mean (0: identical
    regimes, 1: fully distinct); real eigenvalues below 1 keep every blend
    stable and out of resonance with the forcing.

    The regimes are fixed for a given ``alpha``; a draw's seed picks which
    regime each series follows and the noise. The difficulty of the task,
    and with it the TEST loss, therefore moves little from seed to seed,
    while each seed still gives other inputs.
    """

    PERIOD = 24
    NOISE = 0.3
    STRUCTURE_SEED = 0x5eed

    def __init__(self, alpha: float, n_regimes: int = 3, n_components: int = 8):
        rng = np.random.default_rng(self.STRUCTURE_SEED)
        k, p = n_regimes, n_components
        lam = np.linspace(0.3, 0.9, p)
        rotations = [np.linalg.qr(rng.normal(size=(p, p)))[0] for _ in range(k)]
        maps = np.stack([(q * lam) @ q.T for q in rotations])
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(k, 1))
        amps = np.stack([rng.permutation(np.linspace(0.5, 1.5, p))
                         for _ in range(k)])
        blend = lambda a: a.mean(axis=0) + alpha * (a - a.mean(axis=0))
        self.maps, self.phases, self.amps = blend(maps), blend(phases), blend(amps)
        self.n_regimes, self.n_components = k, p

    def draw(self, n_series: int, n_times: int, seed) -> np.ndarray:
        """(n_series, n_times, P) values, balanced over the regimes."""
        rng = np.random.default_rng(seed)
        labels = rng.permutation(np.arange(n_series) % self.n_regimes)
        burn = self.PERIOD
        t = np.arange(-burn, n_times)
        forcing = self.amps[labels][:, None, :] * np.sin(
            2.0 * np.pi * t[None, :, None] / self.PERIOD
            + self.phases[labels][:, None, :])
        noise = rng.normal(scale=self.NOISE,
                           size=(n_series, burn + n_times, self.n_components))
        maps = self.maps[labels]
        x = np.zeros((n_series, self.n_components))
        out = np.empty((n_series, burn + n_times, self.n_components))
        for j in range(burn + n_times):
            x = np.einsum("spq,sq->sp", maps, x) + forcing[:, j] + noise[:, j]
            out[:, j] = x
        return out[:, burn:]


def write_series_csv(values: np.ndarray, path: str) -> None:
    """One series as rows of time by columns of component, shortest repr."""
    with open(path, "w", newline="") as fh:
        for row in values:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def write_panel(values: np.ndarray, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for i, series in enumerate(values):
        write_series_csv(series, os.path.join(directory, f"s{i:04d}.csv"))


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------


class SpeedReference:
    """The machine's current speed, read from a fixed reference kernel.

    A small shared host runs a process at speeds that change by up to 2x
    over seconds to minutes, with load from outside the process. Timing the
    same kernel next to each measured step shows the speed at that moment:
    a step timed at ``t`` seconds while the kernel took ``r`` seconds per run
    would take ``t * NOMINAL_S / r`` seconds at the nominal speed. The kernel
    mixes small matrix products and elementwise numpy calls with Python
    dispatch, as the program does; it never changes, so two commits are
    scaled by the same yardstick.
    """

    NOMINAL_S = 0.75e-3  # one kernel run, fast spells of a 2-vCPU Xeon VM
    RUNS = 8             # kernel runs per reading

    def __init__(self, clock=time.perf_counter):
        rng = np.random.default_rng(0x5eed)
        self._a = rng.random((16, 64))
        self._b = rng.random((64, 64))
        self.clock = clock
        self.spent = 0.0      # seconds spent reading, to take out of timings
        self.readings: list[float] = []

    def _kernel(self) -> None:
        for _ in range(100):
            np.tanh(self._a @ self._b)
            sum(range(50))

    def read(self) -> float:
        """Seconds per kernel run now, averaged over ``RUNS`` runs: like a
        measured step, the reading averages the speed over its interval."""
        t0 = self.clock()
        for _ in range(self.RUNS):
            self._kernel()
        took = self.clock() - t0
        self.spent += took
        self.readings.append(took / self.RUNS)
        return self.readings[-1]

    def scale(self, before: float, after: float) -> float:
        """Factor to nominal speed for a step between two readings."""
        return 2.0 * self.NOMINAL_S / (before + after)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def mean(values) -> float:
    return float(statistics.fmean(values))


def _rank(n: int, pct: float) -> int:
    """1-based nearest rank of ``pct`` in ``n`` samples, in exact integers
    (percentiles are given to a tenth of a percent)."""
    return max(1, -(-n * round(pct * 10) // 1000))


def tail_percentile(n: int, min_beyond: int = 10,
                    candidates=(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)):
    """Highest candidate percentile with at least ``min_beyond`` samples
    above it in a sample of ``n``, or None when not even the median has."""
    for pct in candidates:
        if n - _rank(n, pct) >= min_beyond:
            return pct
    return None


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile; infinite entries (failed requests) sort last."""
    ordered = sorted(values)
    return float(ordered[_rank(len(ordered), pct) - 1])


# ---------------------------------------------------------------------------
# artifact digest
# ---------------------------------------------------------------------------


def artifact_files(run_dir: str) -> list[str]:
    """Run-relative paths of every file the digest covers, in a fixed order."""
    files = [name for name in DIGEST_NAMES
             if os.path.isfile(os.path.join(run_dir, name))]
    ckpt = os.path.join(run_dir, "checkpoints")
    if os.path.isdir(ckpt):
        files += sorted(os.path.join("checkpoints", f) for f in os.listdir(ckpt))
    return files


def artifact_digest(run_dirs) -> str:
    """SHA-256 over names and bytes of every digested file of the given runs.

    Run directories are given relative to the working directory, so the digest
    does not depend on where the benchmark's work tree sits.
    """
    h = hashlib.sha256()
    for run_dir in run_dirs:
        for rel in artifact_files(run_dir):
            h.update(f"{run_dir}/{rel}\0".encode())
            with open(os.path.join(run_dir, rel), "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def tree_bytes(run_dirs) -> int:
    total = 0
    for run_dir in run_dirs:
        for base, _, files in os.walk(run_dir):
            total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


# ---------------------------------------------------------------------------
# run metadata
# ---------------------------------------------------------------------------


def _commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _src_stats() -> tuple[int, str]:
    """Line count and SHA-256 of the program's Python sources."""
    lines, h = 0, hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(base, f)
                with open(path, "rb") as fh:
                    data = fh.read()
                lines += data.count(b"\n")
                h.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
    return lines, h.hexdigest()


def _blas_info() -> dict | None:
    try:
        info = np.show_config(mode="dicts")
    except TypeError:  # numpy older than 1.26 only prints
        return None
    return info.get("Build Dependencies", {}).get("blas")


def run_metadata(workload: str, seed: int) -> dict:
    lines, src_sha = _src_stats()
    return {
        "workload": workload,
        "seed": seed,
        "commit": _commit(),
        "src_sha256": src_sha,
        "src_lines": lines,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else None,
        "cpu_count": os.cpu_count(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": _blas_info(),
    }
