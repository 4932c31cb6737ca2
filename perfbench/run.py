"""Benchmark entry point.

    python3 perfbench/run.py --workload sweep-point --seed 0 --seconds 20 --trace 0

Run from the root of a checkout. ``--trace 0`` prints the end-to-end metrics
of BENCHMARK.json, ``--trace 1`` the per-layer metrics. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the run's samples, artifact digest, failures and
metadata go to ``.perfbench/results/``, and the traced run's spans beside
them. Without the program's sources next to this directory the run exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import common


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import poolcast from this checkout's ``src``, and nowhere else."""
    pkg = os.path.join(common.SRC, "poolcast")
    if not os.path.isfile(os.path.join(pkg, "cli.py")):
        raise ImportError(f"no program sources at {pkg}")
    sys.path.insert(0, common.SRC)
    import poolcast
    if os.path.dirname(os.path.abspath(poolcast.__file__)) != pkg:
        raise ImportError(f"poolcast was imported from {poolcast.__file__}")


def declared_metrics(trace: int) -> dict:
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import harness  # imports poolcast

    if args.workload not in harness.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)
    out_dir = os.path.join(common.ROOT, ".perfbench")
    workdir = os.path.join(out_dir, "work", args.workload)
    results = os.path.join(out_dir, "results")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    os.makedirs(results, exist_ok=True)

    bench = harness.Bench(harness.WORKLOADS[args.workload], args.seed)
    here = os.getcwd()
    os.chdir(workdir)
    try:
        metrics = bench.trace() if args.trace else bench.measure(args.seconds)
    finally:
        os.chdir(here)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")

    stem = os.path.join(results, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    if bench.spans is not None:
        bench.spans.write_csv(stem + ".spans.csv")
    failed = len(bench.failures)
    record = {
        "meta": common.run_metadata(args.workload, args.seed),
        "seconds": args.seconds,
        "metrics": metrics,
        "attempted": bench.attempted,
        "failed": failed,
        "failed_share": failed / bench.attempted,
        "failures": bench.failures,
        "digest": bench.digests[0] if bench.digests else None,
        "samples": bench.extra,
    }
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")

    for name in sorted(metrics):
        print(f"{name:40s} {metrics[name]:>14.6g} {units[name]}")
    print(f"digest {record['digest']}  failed {failed}/{bench.attempted}  "
          f"details {os.path.relpath(stem, common.ROOT)}.json")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
