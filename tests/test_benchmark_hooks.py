"""The benchmark in ``perfbench/`` wraps program functions by name and reads
their arguments by parameter name. A tiny point-mode and quantile-mode CLI
flow run under its hooks must succeed with no wrapped call raising, so a
signature change that breaks the benchmark fails here too."""

import csv
import math
import os
import sys

import pytest

from poolcast import cli, pipeline

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")

KEYS = """data_format = csv
t_train = 80
t_val = 20
t_test = 20
window = 6
latent = 3
hidden = 8
epochs = 2
proto_epochs = 1
refit_epochs = 1
max_outer_iters = 2
k_candidates = 2
selection_seeds = 0
assign_horizons = 1
horizons = 1,3
seed = 0
"""


@pytest.fixture
def hooks(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as is
    import instrument
    import tracer
    return instrument, tracer.Tracer


def test_benchmark_hooks_bind_and_run(hooks, tmp_path, monkeypatch):
    instrument, Tracer = hooks
    monkeypatch.chdir(tmp_path)
    pipeline.cmd_synth("data", n_series=9, n_times=120, n_components=4,
                       n_regimes=3, seed=5)
    segment = os.path.join("data", "series", "s0000_r0.csv")
    commands, runs = [], {}
    for method, mode in (("cluster", "point"), ("feat_kmeans", "point"),
                         ("cluster", "quantile")):
        runs[f"r_{method}_{mode}"] = method, mode
        cfg = f"{method}_{mode}.cfg"
        with open(cfg, "w") as fh:
            fh.write(f"data_dir = data/series\nrun_dir = r_{method}_{mode}\n"
                     f"method = {method}\nmode = {mode}\n" + KEYS)
        commands += [["select-k", "--config", cfg],
                     ["evaluate", "--config", cfg],
                     ["forecast-new", "--config", cfg, "--segment", segment,
                      "--out", f"r_{method}_{mode}/new.json"]]
    # the benchmark's closing step: its merged CSV is parsed by the harness
    commands.append(["report", "--runs", ",".join(runs),
                     "--out", "report_merged.csv"])

    tracer = Tracer()
    instrument.install(tracer)
    try:
        codes = [tracer.run_op(f"{argv[0]}#{i}", cli.main, argv)
                 for i, argv in enumerate(commands)]
    finally:
        tracer.uninstall()
    assert codes == [0] * len(commands)
    assert not tracer.errors
    calls, _, _ = tracer.totals()
    metrics = instrument.layer_metrics(tracer)
    assert metrics["clustering.sweep_runs"] == 3  # one (K, seed) run per sweep
    assert metrics["model.rollout_calls"] > 0
    assert calls["calibration.calibrate"] == 1  # the quantile run's _calibrate

    # the harness's report_ok: one row per run, method and horizon, and
    # every metric of the run's mode present and finite
    with open("report_merged.csv") as fh:
        rows = list(csv.DictReader(fh))
    keys = [(r["run"], r["method"], int(r["horizon"])) for r in rows]
    assert len(keys) == len(set(keys))
    assert set(keys) == {(run, method, h) for run, (m, _) in runs.items()
                         for method in ("global", m) for h in (1, 3)}
    for r in rows:
        fields = ["mse", "mae", "delta_pct", "ben_pct", "fb_pct"]
        if runs[r["run"]][1] == "quantile":
            fields += ["pinball", "coverage", "width"]
        assert all(r[f] != "" and math.isfinite(float(r[f])) for f in fields)


@pytest.mark.parametrize("name", ["sweep-point", "fan-quantile"])
def test_benchmark_model_probe_runs(hooks, name):
    """The benchmark's model probe calls ``model.batch_loss`` and
    ``model.loss_and_gradients`` directly, in point and in quantile mode."""
    import harness
    metrics = harness.Bench(harness.WORKLOADS[name], 0).probe()
    assert sorted(metrics) == ["model.probe_fwd_bwd_us_per_window",
                               "model.probe_fwd_us_per_window"]
    assert all(math.isfinite(v) and v > 0 for v in metrics.values())
