"""Tests of the benchmark's own logic.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

import itertools
import math
import os
import sys

import pytest

import common

sys.path.insert(0, common.SRC)

import harness  # noqa: E402  (needs the program on the path)
import instrument  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = harness.Workload("tiny", "point", 1.0, 6, 90, (60, 15, 15), """\
epochs = 2
proto_epochs = 1
refit_epochs = 1
k_candidates = 2
selection_seeds = 0
max_outer_iters = 1
assign_horizons = 1
""", ("cluster",), 3)


def tiny_run(workdir, monkeypatch) -> harness.Bench:
    os.makedirs(workdir)
    monkeypatch.chdir(workdir)
    bench = harness.Bench(TINY, seed=7)
    bench.setup()
    bench.protocol()
    return bench


@pytest.mark.parametrize("n, pct", [(10000, 99.9), (1000, 99.0), (999, 95.0),
                                    (200, 95.0), (100, 90.0), (20, 50.0),
                                    (19, None)])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    assert common.tail_percentile(n) == pct


def test_percentile_nearest_rank_puts_failures_last():
    values = [float(v) for v in range(1, 100)] + [math.inf]
    assert common.percentile(values, 50.0) == 50.0
    assert common.percentile(values, 99.0) == 99.0
    assert common.percentile(values, 100.0) == math.inf


def test_speed_reference_scales_to_nominal_speed():
    slow = 2.0 * common.SpeedReference.NOMINAL_S  # the machine at half speed
    reading = common.SpeedReference.RUNS * slow
    speed = common.SpeedReference(
        clock=itertools.cycle([0.0, reading]).__next__)
    before, after = speed.read(), speed.read()
    assert before == after == pytest.approx(slow)
    assert speed.spent == pytest.approx(2 * reading)
    # a step of 3 s between the two readings takes 1.5 s at nominal speed
    assert 3.0 * speed.scale(before, after) == pytest.approx(1.5)


def test_self_time_subtracts_nested_children():
    ticks = iter([0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 4.5, 5.0, 10.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.active = True
    outer = tracer.open("pipeline.cmd")          # 0 .. 10
    tracer.phase(1, "fit-global")                 # phase track, ignored
    mid = tracer.open("model.train")              # 1 .. 4
    inner = tracer.open("model.step")             # 2 .. 3
    tracer.close(inner)
    tracer.close(mid)
    leaf = tracer.open("data.load")               # 4.5 .. 5
    tracer.close(leaf)
    tracer.close(outer)
    tracer.close_phases()
    self_s = tracer.self_times()
    assert self_s["pipeline"] == pytest.approx(10.0 - 3.0 - 0.5)
    assert self_s["model"] == pytest.approx((3.0 - 1.0) + 1.0)
    assert self_s["data"] == pytest.approx(0.5)
    assert sum(self_s.values()) == pytest.approx(10.0)


def test_wrappers_record_errors_and_uninstall_restores(monkeypatch):
    import poolcast.model as model
    original = model.derive_seed
    tracer = Tracer()
    tracer.rebind([model], original, tracer.wrap(original, "model.derive"))
    assert model.derive_seed is not original
    assert model.derive_seed(1, "a") == original(1, "a")
    assert not tracer.spans  # nothing is recorded outside an op
    tracer.run_op("op#1", model.derive_seed, 1, "a")
    with pytest.raises(TypeError):
        tracer.run_op("op#2", model.derive_seed, None)
    tracer.uninstall()
    assert model.derive_seed is original
    assert [s.name for s in tracer.spans] == ["cli.main", "model.derive"] * 2
    assert tracer.errors[("model.derive", "TypeError")] == 1


def test_digest_does_not_depend_on_working_directory(tmp_path, monkeypatch):
    a = tiny_run(str(tmp_path / "a"), monkeypatch)
    b = tiny_run(str(tmp_path / "deeper" / "b"), monkeypatch)
    assert a.digests == b.digests and len(a.digests[0]) == 64
    assert not a.failures and not b.failures
    # the digest covers the checkpoint bytes
    ckpt = os.path.join("r_cluster", "checkpoints", "global.pcm")
    with open(ckpt, "r+b") as fh:
        fh.seek(-1, os.SEEK_END)
        last = fh.read(1)
        fh.seek(-1, os.SEEK_END)
        fh.write(bytes([last[0] ^ 1]))
    assert common.artifact_digest(["r_cluster"]) != b.digests[0]


def test_failures_are_counted(tmp_path, monkeypatch):
    bench = tiny_run(str(tmp_path / "run"), monkeypatch)
    base_attempted = bench.attempted
    assert not bench.failures and base_attempted > 0
    # a command with the wrong exit code, and one that raises; both count
    # as taking longer than any limit
    assert bench.cli(["evaluate", "--config", "missing.cfg"]) == (
        harness.FAILED_S, False)
    assert bench.cli(["no-such-command"]) == (harness.FAILED_S, False)
    # a second evaluate is expected to be refused; being refused is success
    bench.cli(["evaluate", "--config", "cluster.cfg"], expect=5)
    assert bench.attempted == base_attempted + 3
    assert len(bench.failures) == 2
    # a digest that moves between repeats is a failure
    bench.digests.append("0" * 64)
    bench.check(bench.digests[-1] == bench.digests[0], "digest moved")
    assert len(bench.failures) == 3


def test_route_requests_are_checked(tmp_path, monkeypatch):
    bench = tiny_run(str(tmp_path / "run"), monkeypatch)
    latencies, nominal = bench.route(3)
    assert len(latencies) == len(nominal) == 3
    assert all(0 < t < harness.FAILED_S for t in latencies + nominal)
    assert not bench.failures
    with open("route.json", "w") as fh:
        fh.write('{"routed_model": "prototype_9", "forecasts": {}}')
    assert not bench.route_reply_ok("route.json", {"global"}, (8,))


def test_traced_protocol_reports_every_declared_layer_metric(tmp_path,
                                                             monkeypatch):
    bench = tiny_run(str(tmp_path / "run"), monkeypatch)
    tracer = Tracer()
    instrument.install(tracer)
    bench.tracer = tracer
    try:
        bench.protocol()
    finally:
        bench.tracer = None
        tracer.uninstall()
    m = instrument.layer_metrics(tracer)
    assert m["data.load_calls"] == 3  # select-k parses twice, evaluate once
    assert m["model.train_calls"] >= 3 and m["model.diverged"] == 0
    assert m["model.paramset_allocs_per_step"] >= 1.0
    assert m["clustering.sweep_runs"] == 1 and m["pipeline.fit_global_s"] > 0
    assert not bench.failures
