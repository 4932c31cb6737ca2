"""The three workloads, their measured loops and their output checks.

Every workload drives the program only through ``poolcast.cli.main``, in
this process, on CSV files drawn from the workload seed. The program's own
seed stays 0, so the seed changes the data and nothing else. Commands run
inside a fixed work directory with relative data and run paths, so the
manifests, and hence the artifact digest, do not depend on where the
checkout sits.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import resource
import shutil
import time
from dataclasses import dataclass

import numpy as np

import common
import instrument
from tracer import Tracer

from poolcast import cli, model

N_COMPONENTS, WINDOW, LATENT, HIDDEN = 8, 8, 6, 16
HORIZONS = (1, 3, 6)
SHARED_KEYS = f"""\
data_dir = data/series
window = {WINDOW}
latent = {LATENT}
hidden = {HIDDEN}
horizons = {",".join(map(str, HORIZONS))}
seed = 0
"""

MIN_REPS = 3            # set-ups and protocol runs per measured run
MIN_REQUESTS = 1100     # on route-new: p99 then has 11 samples beyond it
ROUTE_CHUNK = 5         # requests between two readings of machine speed
RUN_CAP_S = 120.0       # start no repetition after this, whatever is missing
FAILED_S = RUN_CAP_S    # the time a failed command or request counts for
TRACED_REQUESTS = 200
N_SEGMENTS = 64
SEGMENT_LEN = 40
PROBE_CALLS = 200
EXIT_PROTOCOL = 5


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str                 # point or quantile
    alpha: float              # heterogeneity of the regime draw
    n_series: int
    n_times: int
    splits: tuple             # (t_train, t_val, t_test)
    keys: str                 # config keys on top of SHARED_KEYS
    methods: tuple            # one run directory per method
    requests_per_rep: int     # forecast-new requests after each protocol run
    served: bool = False      # the protocol is set-up for a request stream


WORKLOADS = {w.name: w for w in (
    Workload("sweep-point", "point", 1.0, 16, 200, (140, 30, 30), """\
epochs = 8
proto_epochs = 3
refit_epochs = 4
k_candidates = 2,3
selection_seeds = 0,1
max_outer_iters = 2
assign_horizons = 1
""", ("cluster", "feat_kmeans"), 60),
    Workload("fan-quantile", "quantile", 0.0, 16, 200, (140, 30, 30), """\
epochs = 3
proto_epochs = 2
refit_epochs = 2
k_candidates = 3
selection_seeds = 0
max_outer_iters = 2
assign_horizons = 1,3,6
coverage_target = 0.8
""", ("cluster",), 60),
    Workload("route-new", "point", 1.0, 12, 160, (112, 24, 24), """\
epochs = 4
proto_epochs = 2
refit_epochs = 2
k_candidates = 3
selection_seeds = 0
max_outer_iters = 2
assign_horizons = 1
""", ("cluster",), 150, served=True),
)}


class Bench:
    """One benchmark run of one workload in one work directory."""

    def __init__(self, workload: Workload, seed: int):
        self.w = workload
        self.seed = seed
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: list[str] = []
        self.ops = 0
        self.requests = 0
        self.extra: dict = {}            # samples behind the metrics
        self.speed = common.SpeedReference()
        self.step_samples: dict[str, list] = {}  # nominal seconds per step
        self.spans: Tracer | None = None  # the traced run's spans

    # accounting -------------------------------------------------------------

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def check_that(self, test, what: str) -> bool:
        """One output check; a missing or malformed output fails it."""
        try:
            ok = bool(test())
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            ok, what = False, f"{what} ({type(exc).__name__}: {exc})"
        return self.check(ok, what)

    def cli(self, argv, expect: int = 0) -> tuple[float, bool]:
        """Run one CLI command; returns (seconds, exit code as expected)."""
        self.ops += 1
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                if self.tracer is None:
                    rc = cli.main(argv)
                else:
                    rc = self.tracer.run_op(f"{argv[0]}#{self.ops}", cli.main,
                                            argv)
                elapsed = time.perf_counter() - t0
        except (Exception, SystemExit) as exc:  # a traceback is a failed op
            rc = f"{type(exc).__name__}: {exc}"
        ok = self.check(rc == expect, f"{' '.join(argv)} -> {rc} "
                                      f"(expected {expect}): "
                                      f"{err.getvalue()[-400:]}")
        return (elapsed if ok else FAILED_S), ok

    # set-up -----------------------------------------------------------------

    @property
    def run_dirs(self) -> list[str]:
        return [f"r_{m}" for m in self.w.methods]

    def setup(self) -> tuple[float, float | None]:
        """Write inputs (and, for a served workload, train and evaluate the
        served run). Returns (set-up seconds, protocol seconds or None)."""
        t0 = time.perf_counter()
        for d in ["data", "segments"] + self.run_dirs:
            shutil.rmtree(d, ignore_errors=True)
        regimes = common.RegimeModel(self.w.alpha, n_components=N_COMPONENTS)
        common.write_panel(regimes.draw(self.w.n_series, self.w.n_times,
                                        [self.seed, 1]), "data/series")
        os.makedirs("segments")
        for i, seg in enumerate(regimes.draw(N_SEGMENTS, SEGMENT_LEN,
                                             [self.seed, 2])):
            common.write_series_csv(seg, f"segments/seg_{i:03d}.csv")
        t_train, t_val, t_test = self.w.splits
        for m in self.w.methods:
            with open(f"{m}.cfg", "w") as fh:
                fh.write(SHARED_KEYS + self.w.keys
                         + f"mode = {self.w.mode}\nt_train = {t_train}\n"
                           f"t_val = {t_val}\nt_test = {t_test}\n"
                           f"method = {m}\nrun_dir = r_{m}\n")
        served = self.protocol() if self.w.served else None
        return time.perf_counter() - t0, served

    # the protocol -------------------------------------------------------------

    def protocol(self) -> float:
        """Run the CLI sequence in fresh run directories, check its outputs,
        and return the seconds the commands took at nominal machine speed."""
        for d in self.run_dirs:
            shutil.rmtree(d, ignore_errors=True)
        steps = [[cmd, "--config", f"{m}.cfg"] for m in self.w.methods
                 for cmd in ("select-k", "evaluate")]
        steps.append(["report", "--runs", ",".join(self.run_dirs),
                      "--out", "report_merged.csv"])
        total, before = 0.0, self.speed.read()
        for argv in steps:
            took = self.cli(argv)[0]
            after = self.speed.read()
            took *= self.speed.scale(before, after)
            self.step_samples.setdefault(" ".join(argv[:3]), []).append(took)
            total += took
            before = after
        tracer, self.tracer = self.tracer, None  # checks are not traced
        self.verify_protocol()
        self.tracer = tracer
        return total

    def verify_protocol(self) -> None:
        for m, run in zip(self.w.methods, self.run_dirs):
            # the manifest's copy of the selection table: selection.csv holds
            # numpy scalar reprs such as "np.float64(0.19)" under numpy 2
            self.check_that(lambda: all(
                r["sel_abs"] <= r["global_risk"]
                for r in self.manifest(run)["selection_table"]),
                f"{run}: a selection row has sel_abs > global_risk")
            self.check_that(lambda: not [
                phase for phases in self.manifest(run)["audit"].values()
                for phase, counts in phases.items()
                if phase != "evaluate" and counts["test"]],
                f"{run}: the audit shows TEST reads outside evaluate")
            self.cli(["evaluate", "--config", f"{m}.cfg"], expect=EXIT_PROTOCOL)
        self.check_that(lambda: self.report_ok("report_merged.csv"),
                        "merged report lacks a finite row per method and horizon")
        self.digests.append(common.artifact_digest(self.run_dirs))
        self.check(self.digests[-1] == self.digests[0],
                   f"artifact digest changed between repeats: {self.digests}")

    def report_ok(self, path: str) -> bool:
        fields = ["mse", "mae", "delta_pct", "ben_pct", "fb_pct"]
        if self.w.mode == "quantile":
            fields += ["pinball", "coverage", "width"]
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        keys = [(r["run"], r["method"], int(r["horizon"])) for r in rows]
        expected = {(run, method, h) for m, run in zip(self.w.methods,
                                                       self.run_dirs)
                    for method in ("global", m) for h in HORIZONS}
        return (len(keys) == len(set(keys)) and set(keys) == expected
                and all(r[f] != "" and math.isfinite(float(r[f]))
                        for r in rows for f in fields))

    def quality(self) -> dict:
        with open(os.path.join(self.run_dirs[0], "report.json")) as fh:
            rows = json.load(fh)["rows"]
        row = next(r for r in rows if r["method"] == self.w.methods[0]
                   and r["horizon"] == 1)
        out = {"test_mse_h1": row["mse"], "test_pinball_h1": 0.0,
               "coverage_err_h1": 0.0}
        if self.w.mode == "quantile":
            target = self.manifest()["config"]["coverage_target"]
            out["test_pinball_h1"] = row["pinball"]
            out["coverage_err_h1"] = abs(row["coverage"] - target)
        return out

    def manifest(self, run: str | None = None) -> dict:
        with open(os.path.join(run or self.run_dirs[0], "manifest.json")) as fh:
            return json.load(fh)

    # the request stream -------------------------------------------------------

    def route(self, n_requests: int) -> tuple[list, list]:
        """Closed loop: one client sends the next forecast-new request after
        the previous reply. Returns the latencies in seconds, as measured
        and at nominal machine speed; a failed request counts ``FAILED_S``,
        beyond any latency limit, in both."""
        m, manifest = self.w.methods[0], self.manifest()
        valid = {"global"} | {f"prototype_{k}"
                              for k, f in enumerate(manifest["flags"]) if not f}
        shape = (manifest["n_components"],)
        if self.w.mode == "quantile":
            shape = (len(manifest["config"]["quantiles"]),) + shape
        latencies, nominal, before = [], [], self.speed.read()
        for i in range(n_requests):
            seg = f"segments/seg_{self.requests % N_SEGMENTS:03d}.csv"
            self.requests += 1
            with contextlib.suppress(FileNotFoundError):
                os.remove("route.json")
            took, ok = self.cli(["forecast-new", "--config", f"{m}.cfg",
                                 "--segment", seg, "--out", "route.json"])
            if ok:
                ok = self.check_that(
                    lambda: self.route_reply_ok("route.json", valid, shape),
                    f"bad routing reply for {seg}")
            latencies.append(took if ok else FAILED_S)
            if (i + 1) % ROUTE_CHUNK == 0 or i + 1 == n_requests:
                after = self.speed.read()
                scale = self.speed.scale(before, after)
                nominal += [t if t == FAILED_S else t * scale
                            for t in latencies[len(nominal):]]
                before = after
        return latencies, nominal

    def route_reply_ok(self, path: str, valid: set, shape: tuple) -> bool:
        with open(path) as fh:
            reply = json.load(fh)
        if reply.get("routed_model") not in valid:
            return False
        for h in HORIZONS:
            values = np.asarray(reply["forecasts"][str(h)]["standardized"],
                                dtype=np.float64)
            if values.shape != shape or not np.all(np.isfinite(values)):
                return False
        return True

    # model probe ---------------------------------------------------------------

    def probe(self) -> dict:
        """Forward and forward+backward cost per window on one batch of the
        workload's own shape, through the public model functions."""
        cfg = model.TrainConfig(w=WINDOW, mode=self.w.mode)
        params = model.init_params(N_COMPONENTS, LATENT, HIDDEN,
                                   len(cfg.quantiles), 0)
        rng = np.random.default_rng([self.seed, 3])
        x = rng.normal(size=(cfg.batch, WINDOW, N_COMPONENTS))
        y = rng.normal(size=(cfg.batch, N_COMPONENTS))

        def per_window_us(fn):
            times = []
            for _ in range(PROBE_CALLS):
                t0 = time.perf_counter()
                fn(params, None, x, y, cfg)
                times.append(time.perf_counter() - t0)
            return 1e6 * common.median(times) / cfg.batch

        return {"model.probe_fwd_us_per_window": per_window_us(model.batch_loss),
                "model.probe_fwd_bwd_us_per_window":
                    per_window_us(model.loss_and_gradients)}

    # runs ------------------------------------------------------------------------

    def measure(self, seconds: float) -> dict:
        """The untraced run: end-to-end metrics.

        Rounds of set-up, protocol and a slice of the request stream take
        turns until about ``seconds`` have passed, so every metric samples
        the whole run. Every timing is scaled to nominal machine speed with
        readings of ``common.SpeedReference`` taken next to it, and the
        metrics are medians over the run of the scaled samples.
        """
        setups, protocols, latencies, nominal = [], [], [], []
        loop_s = 0.0
        min_requests = MIN_REQUESTS if self.w.served else 0
        t0 = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - t0
            # stop at the round boundary nearest to ``seconds``
            half_round = elapsed / max(len(setups), 1) / 2
            if elapsed >= RUN_CAP_S or (len(setups) >= MIN_REPS
                                        and len(latencies) >= min_requests
                                        and elapsed + half_round >= seconds):
                break
            before = self.speed.read()
            spent = self.speed.spent
            setup_s, served = self.setup()
            setup_s -= self.speed.spent - spent  # readings inside set-up
            setups.append(setup_s * self.speed.scale(before, self.speed.read()))
            protocols.append(served if self.w.served else self.protocol())
            t1, spent = time.perf_counter(), self.speed.spent
            lat, nom = self.route(self.w.requests_per_rep)
            loop_s += time.perf_counter() - t1 - (self.speed.spent - spent)
            latencies += lat
            nominal += nom
        completed = sum(t != FAILED_S for t in latencies)
        tail = common.tail_percentile(len(nominal))
        readings = self.speed.readings
        self.extra = {
            "setup_nominal_s": setups,
            "protocol_nominal_s": protocols,
            "step_nominal_s": self.step_samples,
            "speed": {"nominal_s": self.speed.NOMINAL_S,
                      "readings": len(readings),
                      "median_s": common.median(readings),
                      "min_s": min(readings), "max_s": max(readings)},
            "requests": len(latencies),
            "latencies_ms": [round(1e3 * t, 3) for t in latencies],
            "measured_p50_ms": 1e3 * common.percentile(latencies, 50.0),
            "measured_per_s": completed / loop_s,
            "tail": {"pct": tail, "nominal_ms": None if tail is None else
                     1e3 * common.percentile(nominal, tail)},
            "runs": self.run_summary(),
        }
        return {
            "setup_s": common.median(setups),
            "protocol_s": sum(common.median(t)
                              for t in self.step_samples.values()),
            "route_p50_ms": 1e3 * common.percentile(nominal, 50.0),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            "test_mse_h1": self.quality()["test_mse_h1"],
        }

    def run_summary(self) -> dict:
        """K, flags and outer iterations of each run directory."""
        out = {}
        for run in self.run_dirs:
            manifest = self.manifest(run)
            out[run] = {key: manifest.get(key)
                        for key in ("k", "flags", "iterations")}
        return out

    def trace(self) -> dict:
        """The traced run: per-layer metrics for one operation of the
        workload (a CLI sequence, or one request of the stream), with the
        tracing overhead measured, at nominal machine speed, against an
        untraced pass just before."""
        tracer = Tracer()
        self.setup()
        if self.w.served:
            n_ops = TRACED_REQUESTS
            run_pass = lambda: common.mean(self.route(n_ops)[1])
        else:
            n_ops, run_pass = 1, self.protocol
        plain = run_pass()
        instrument.install(tracer)
        self.tracer = tracer
        try:
            traced = run_pass()
        finally:
            self.tracer = None
            tracer.uninstall()
        self.spans = tracer

        metrics = {}
        for name, value in instrument.layer_metrics(tracer).items():
            ratio = name.endswith("_share") or "_per_" in name
            metrics[name] = value if ratio else value / n_ops
        quality = self.quality()
        metrics.update(self.probe())
        metrics.update({
            "trace.overhead_share": traced / plain - 1.0,
            "trace.spans_per_op": len(tracer.spans) / n_ops,
            "pipeline.artifact_bytes": common.tree_bytes(self.run_dirs),
            "losses.test_pinball_h1": quality["test_pinball_h1"],
            "calibration.coverage_err_h1": quality["coverage_err_h1"],
        })
        self.extra = {"traced_ops": n_ops, "untraced_s": plain,
                      "traced_s": traced}
        return metrics
