"""Fold benchmark results into one committed ``BENCH_<n>.json``.

    python3 tools/bench_record.py --out BENCH_12.json RESULT.json [RESULT.json ...]

Each RESULT is a file that ``perfbench/run.py --trace 0`` wrote as
``.perfbench/results/<workload>-seed<seed>-trace0.json``; copy a run's file
aside before running the same workload and seed again, which overwrites it.
Runs are grouped by workload. Per workload and end-to-end metric the record
holds the median over the runs and the IQR (75th minus 25th percentile, with
linear interpolation), and per run its seed, artifact digest and failed
share. All runs must come from the ``src/`` tree of the checkout this tool
lies in (the results' ``src_sha256``); their run metadata is stored once,
with the line count of every ``src/poolcast/*.py`` file.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# meta keys that differ from run to run; the rest describe the tree and host
PER_RUN_META = ("workload", "seed")
# where the BLAS build is installed, not what it is
BLAS_LOCATIONS = ("include directory", "lib directory", "pc file directory")


def src_sha256() -> str:
    """The SHA-256 of every ``.py`` file under ``src/``, in sorted walk order,
    each as its path relative to ``src/``, a NUL byte and its bytes: the
    ``src_sha256`` a benchmark run records."""
    src = os.path.join(ROOT, "src")
    h = hashlib.sha256()
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                with open(path, "rb") as fh:
                    h.update(os.path.relpath(path, src).encode() + b"\0"
                             + fh.read())
    return h.hexdigest()


def src_lines() -> dict:
    """``wc -l src/poolcast/*.py``: lines per file and their total."""
    files = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "poolcast", "*.py"))):
        with open(path, "rb") as fh:
            files[os.path.basename(path)] = fh.read().count(b"\n")
    return {"files": files, "total": sum(files.values())}


def fold(records: list[dict]) -> dict:
    """The BENCH record of benchmark result records (parsed RESULT files)."""
    if not records:
        raise ValueError("no results to fold")
    metas = [{k: v for k, v in r["meta"].items() if k not in PER_RUN_META}
             for r in records]
    if any(m["src_sha256"] != metas[0]["src_sha256"] for m in metas):
        raise ValueError("results come from different src/ trees")
    if metas[0]["src_sha256"] != src_sha256():
        raise ValueError("results come from another src/ tree than this "
                         "checkout's")
    meta = dict(metas[0])
    if isinstance(meta.get("blas"), dict):
        meta["blas"] = {k: v for k, v in meta["blas"].items()
                        if k not in BLAS_LOCATIONS}
    workloads = {}
    for name in sorted({r["meta"]["workload"] for r in records}):
        runs = sorted((r for r in records if r["meta"]["workload"] == name),
                      key=lambda r: r["meta"]["seed"])
        metrics = {}
        for metric in sorted(runs[0]["metrics"]):
            values = np.array([r["metrics"][metric] for r in runs], dtype=float)
            q25, q50, q75 = np.percentile(values, [25, 50, 75])
            metrics[metric] = {"median": float(q50), "iqr": float(q75 - q25)}
        workloads[name] = {
            "runs": [{"seed": r["meta"]["seed"], "digest": r["digest"],
                      "failed_share": r["failed_share"]} for r in runs],
            "metrics": metrics,
        }
    return {"meta": meta, "src_lines": src_lines(), "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    parser.add_argument("results", nargs="+", help="benchmark result files")
    args = parser.parse_args(argv)
    records = []
    for path in args.results:
        with open(path) as fh:
            records.append(json.load(fh))
    try:
        record = fold(records)
    except ValueError as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 2
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
