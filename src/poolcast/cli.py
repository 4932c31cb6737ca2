"""Command-line surface for the pipeline.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 training
divergence, 5 protocol violation (repeated TEST evaluation). Set the
POOLCAST_THREADS environment variable before launching to cap the BLAS
thread pool (results are thread-count independent either way). The cap
takes effect only if the variable is set before numpy is first imported in
the process, and it does not override BLAS thread variables already set.

The (K, seed) selection sweeps run on min(runs, usable CPUs) forked worker
processes, each with a one-thread BLAS; their outputs are bitwise those of
the serial sweep, and platforms without fork run the sweep serially.
"""

from __future__ import annotations

import argparse
import sys

from .data import DataError
from .losses import MetricTable, MetricRow
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
    defaults = RunConfig()
    for key in RunConfig.PARSERS:
        value = getattr(defaults, key)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"  {key} = {value!r}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
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


def _print_rows(rows: list[dict]) -> None:
    table = MetricTable()
    for rec in rows:
        table.add(MetricRow(
            method=f"{rec.get('run', '')}:{rec['method']}" if "run" in rec
            else rec["method"],
            horizon=rec["horizon"], mse=rec["mse"], mae=rec["mae"],
            pinball=rec.get("pinball"), coverage=rec.get("coverage"),
            width=rec.get("width"), delta_pct=rec["delta_pct"],
            ben_pct=rec["ben_pct"], fb_pct=rec["fb_pct"]))
    print(table.format())


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
            rows = pipeline.cmd_report(args.runs.split(","), out_path=args.out,
                                       paper_scale=args.paper_scale)
            _print_rows(rows)
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
            best = min(manifest["selection_table"],
                       key=lambda r: (r["sel_pen"], r["k"], r["seed"]))
            print(f"selected k={manifest['k']} (seed {manifest['selection_seed']}, "
                  f"sel_pen={best['sel_pen']:.6f}); table: "
                  f"{cfg.run_dir}/selection.csv")
        elif args.command == "evaluate":
            manifest = pipeline.cmd_evaluate(cfg)
            with open(manifest["report"]["json"]) as fh:
                import json
                payload = json.load(fh)
            _print_rows(payload["rows"])
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
