"""Command-line surface for the pipeline.

Exit codes: 0 success; 2 configuration error (every key is checked when the
config is read, before anything is written; also a K above the number of
series and a bad ``synth`` argument: fewer series than regimes, an alpha
outside [0, 1], a negative or non-finite noise or a size below 1); 3 data
error (also unreadable ``csv``, ``packed`` or ``pems`` data, a component
constant on TRAIN with ``eps = 0``, a ``run_dir`` that cannot be created, a
missing or unreadable checkpoint or ``forecast-new`` segment, a checkpoint
whose header is not the run's model, an unreadable manifest or report or
one not of the shape the run writes, a quantile run's malformed or null
``calibration``, a factor not finite and > 0 or a target outside (0, 1)
included, an ``evaluate`` dataset whose series count or TRAIN standardizer
is not the trained run's, and an output path, checkpoint or
``selection.csv`` that cannot be written);
4 training divergence; 5 protocol violation (repeated TEST evaluation, or
``prepare``, ``train`` or ``select-k`` of a run that has evaluated TEST).
Run directories work from any working directory: the manifest stores no
paths, and a run's files have fixed names below its run directory.

The (K, seed) selection sweeps run on min(runs, usable CPUs) forked worker
processes, each with a one-thread BLAS, which the calling process sets just
before they fork and restores to its own count afterwards (its other
threads run single-threaded BLAS during the sweep); their outputs are
bitwise those of the serial sweep, and platforms without fork run the sweep
serially.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

from .data import DataError
from .losses import format_rows
from .model import TrainingDiverged
from . import pipeline
from .pipeline import ConfigError, ProtocolError, RunConfig

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4
EXIT_PROTOCOL = 5


def _add_config_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="key = value config file")
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     dest="overrides", help="override a config key (repeatable)")


def _config_key_help() -> str:
    lines = ["configuration keys (key = value file, '#' comments) and defaults:"]
    for field in dataclasses.fields(RunConfig):
        value = field.default
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"  {field.name} = {value!r}")
    return "\n".join(lines)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and argparse copies the ``--set`` list before appending."""
    parser = argparse.ArgumentParser(
        prog="poolcast",
        description="Validation-driven adaptive pooling for multivariate "
                    "time-series forecasting.",
        epilog=_config_key_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
            ("prepare", "split, impute, standardize; persist the standardizer"),
            ("train", "fit GLOBAL plus the configured method at fixed k"),
            ("select-k", "sweep candidate cluster counts and seeds on VAL"),
            ("evaluate", "refit on TRAIN+VAL and evaluate TEST (once per run)"),
    ):
        sub = subs.add_parser(name, help=help_text)
        _add_config_args(sub)

    fc = subs.add_parser("forecast-new",
                         help="route a new series from an observed segment")
    _add_config_args(fc)
    fc.add_argument("--segment", required=True,
                    help="CSV (rows x components) or packed single-series file")
    fc.add_argument("--out", default=None, help="write the routing result JSON here")

    sy = subs.add_parser("synth", help="generate a synthetic regime dataset")
    sy.add_argument("--out", required=True)
    sy.add_argument("--format", default="csv", choices=("csv", "packed"))
    sy.add_argument("--n-series", type=int, default=30)
    sy.add_argument("--n-times", type=int, default=300)
    sy.add_argument("--n-components", type=int, default=8)
    sy.add_argument("--k", type=int, default=3)
    sy.add_argument("--alpha", type=float, default=1.0,
                    help="heterogeneity strength in [0, 1]")
    sy.add_argument("--noise", type=float, default=0.2)
    sy.add_argument("--seed", type=int, default=0)

    rp = subs.add_parser("report", help="merge evaluated runs into one table")
    rp.add_argument("--runs", required=True,
                    help="comma-separated run directories")
    rp.add_argument("--out", default=None, help="write merged CSV here")
    rp.add_argument("--paper-scale", action="store_true",
                    help="scale loss columns by 100")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            info = pipeline.cmd_synth(
                args.out, fmt=args.format, n_series=args.n_series,
                n_times=args.n_times, n_components=args.n_components,
                n_regimes=args.k, alpha=args.alpha, noise=args.noise,
                seed=args.seed)
            print(f"wrote {info['n_series']} series x {info['n_times']} steps "
                  f"to {info['data']} (labels: {info['labels']})")
            return 0
        if args.command == "report":
            print(format_rows(pipeline.cmd_report(
                args.runs.split(","), out_path=args.out,
                paper_scale=args.paper_scale)))
            return 0

        cfg = RunConfig.from_file(args.config, overrides=args.overrides)
        if args.command == "prepare":
            manifest = pipeline.cmd_prepare(cfg)
            print(f"prepared {manifest['n_series']} series "
                  f"({manifest['n_components']} components) into {cfg.run_dir}")
        elif args.command == "train":
            manifest = pipeline.cmd_train(cfg)
            if "k" in manifest:
                print(f"trained method={cfg.method} k={manifest['k']} "
                      f"seed*={manifest['selection_seed']}")
            else:
                print(f"trained method={cfg.method}")
        elif args.command == "select-k":
            manifest = pipeline.cmd_select_k(cfg)
            (kept,) = [r for r in manifest["selection_table"]
                       if (r["k"], r["seed"]) == (manifest["k"],
                                                  manifest["selection_seed"])]
            print(f"selected k={manifest['k']} (seed {manifest['selection_seed']}, "
                  f"sel_pen={kept['sel_pen']:.6f}); table: "
                  f"{cfg.run_dir}/selection.csv")
        elif args.command == "evaluate":
            pipeline.cmd_evaluate(cfg)
            with open(os.path.join(cfg.run_dir, "report.json")) as fh:
                print(format_rows(json.load(fh)["rows"]))
        elif args.command == "forecast-new":
            result = pipeline.cmd_forecast_new(cfg, args.segment, args.out)
            print(f"routed to {result['routed_model']}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except ProtocolError as exc:
        print(f"protocol violation: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL


if __name__ == "__main__":
    sys.exit(main())
