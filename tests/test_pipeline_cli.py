import csv
import dataclasses
import json
import multiprocessing
import os
import pathlib
import re
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

import poolcast
from poolcast import cli, clustering, model, pipeline
from poolcast.calibration import apply_factor
from poolcast.data import PreparedData
from poolcast.model import TrainingDiverged, derive_seed
from poolcast.pipeline import ConfigError, ProtocolError, RunConfig

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="sweep workers are forked")

FAST_KEYS = """
data_format = csv
t_train = 80
t_val = 20
t_test = 20
window = 6
latent = 3
hidden = 8
epochs = 4
proto_epochs = 2
refit_epochs = 2
max_outer_iters = 3
k_candidates = 2,3
selection_seeds = 0,1
assign_horizons = 1
horizons = 1,3
seed = 0
"""


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthdata")
    pipeline.cmd_synth(str(out), n_series=9, n_times=120, n_components=4,
                       n_regimes=3, seed=5)
    return str(out / "series")


def write_config(tmp_path, data_dir, run_dir, extra=""):
    path = tmp_path / "run.cfg"
    path.write_text(f"data_dir = {data_dir}\nrun_dir = {run_dir}\n"
                    + FAST_KEYS + extra)
    return str(path)


def refit_checkpoint(run_dir, routed_id):
    """The refit checkpoint that serves ``routed_id``: the pooled model's for
    -1, otherwise prototype ``routed_id``'s."""
    name = ("refit_global.pcm" if routed_id < 0
            else f"refit_proto_{routed_id:02d}.pcm")
    return os.path.join(str(run_dir), "checkpoints", name)


def served_by(run_dir, manifest):
    """Per series, the refit checkpoint that serves it: its cluster's
    prototype, or the pooled model for a flagged cluster."""
    return [refit_checkpoint(run_dir, -1 if manifest["flags"][label] else label)
            for label in manifest["assignment"]]


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------


def test_config_parsing_and_overrides(tmp_path, data_dir):
    path = write_config(tmp_path, data_dir, tmp_path / "r", "gamma = 0.1\n")
    cfg = RunConfig.from_file(path, overrides=["gamma=0.2", "k=3"])
    assert cfg.gamma == 0.2 and cfg.k == 3
    assert cfg.k_candidates == (2, 3)
    assert cfg.horizons == (1, 3)


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("no_such_knob = 1\n")
    with pytest.raises(ConfigError, match="unknown configuration key"):
        RunConfig.from_file(str(path))


@pytest.mark.parametrize("override", [
    "epochs=three", "method=magic", "mode=fuzzy",
    "gamma=-1", "max_outer_iters=0", "k_candidates=", "huber_delta=0",
    "l2sp=-1", "quantiles=0.9,0.1", "window=0", "hidden=0", "latent=-1",
    "selection_seeds=", "selection_seeds=-1", "selection_seeds=0,0",
    "k_candidates=0", "k_candidates=2,2", "eps=-1", "batch=0", "epochs=-1",
    "proto_epochs=-1", "refit_epochs=-1", "init=magic",
    "lr=-1", "lr=0", "lr=nan", "clip=-1", "beta1=1.5", "beta1=-0.1",
    "beta2=-1", "beta2=1", "eps_adam=0", "gamma=nan", "huber_delta=nan",
    "eps=nan", "l2sp=inf"])
def test_config_rejects_bad_values(tmp_path, data_dir, capsys, override):
    run_dir = tmp_path / "r"
    path = write_config(tmp_path, data_dir, run_dir)
    key = override.partition("=")[0]
    with pytest.raises(ConfigError, match=rf"\b{key}\b"):
        RunConfig.from_file(path, overrides=[override])
    # every key is checked when the config is read, before anything is written
    assert cli.main(["select-k", "--config", path, "--set", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert re.search(rf"\b{key}\b", err), err  # the key a user can set
    assert not run_dir.exists()


# a non-default value for every RunConfig field
NON_DEFAULTS = {
    "data_dir": "elsewhere/series", "data_format": "packed",
    "csv_header": True, "impute": "median", "eps": 1e-6, "t_train": 50,
    "t_val": 10, "t_test": 12, "window": 5, "latent": 4, "hidden": 7,
    "mode": "quantile", "quantiles": (0.05, 0.5, 0.95), "huber_delta": 0.5,
    "epochs": 3, "proto_epochs": 2, "refit_epochs": 1, "lr": 0.002,
    "beta1": 0.8, "beta2": 0.99, "eps_adam": 1e-7, "batch": 16,
    "l2sp": 0.01, "clip": 2.5, "seed": 11, "method": "feat_kmeans", "k": 3,
    "k_candidates": (3, 4), "selection_seeds": (7, 9), "gamma": 0.25,
    "max_outer_iters": 4, "assign_horizons": (1, 2), "horizons": (2, 4),
    "init": "feature", "coverage_target": 0.9, "run_dir": "elsewhere/run",
}


def test_config_round_trips_every_field(tmp_path):
    defaults = RunConfig()
    assert set(NON_DEFAULTS) == {f.name for f in dataclasses.fields(RunConfig)}
    for key, value in NON_DEFAULTS.items():
        assert value != getattr(defaults, key), key
    lines = []
    for key, value in NON_DEFAULTS.items():
        if isinstance(value, tuple):
            value = ",".join(map(str, value))
        lines.append(f"{key} = {value}\n")
    path = tmp_path / "every.cfg"
    path.write_text("".join(lines))
    cfg = RunConfig.from_file(str(path))
    assert cfg == RunConfig(**NON_DEFAULTS)
    assert cfg.as_dict() == RunConfig(**NON_DEFAULTS).as_dict()
    # the --help epilog names every key with its default
    epilog = cli.build_parser().format_help()
    for key in NON_DEFAULTS:
        assert f"\n  {key} = " in epilog, key


def test_config_missing_file_is_config_error():
    with pytest.raises(ConfigError, match="cannot read"):
        RunConfig.from_file("/definitely/not/here.cfg")


def test_selection_table_size_rule(tmp_path, data_dir):
    # full sweep emits |K| * |seeds| rows
    path = write_config(tmp_path, data_dir, tmp_path / "rsize")
    cfg = RunConfig.from_file(path)
    pipeline.cmd_select_k(cfg)
    manifest = pipeline.load_manifest(cfg.run_dir)
    assert len(manifest["selection_table"]) == len(cfg.k_candidates) * len(
        cfg.selection_seeds)


@pytest.mark.parametrize("method", ["cluster", "feat_kmeans"])
def test_selection_csv_matches_manifest_table(tmp_path, data_dir, method):
    """After select-k, a train at one K on the same run, and a switch to a
    method without a sweep, selection.csv is the manifest's table."""
    run_dir = str(tmp_path / "rcsv")
    path = write_config(tmp_path, data_dir, run_dir, f"method = {method}\n")
    csv_path = os.path.join(run_dir, "selection.csv")
    for command, overrides, n_rows in ((pipeline.cmd_select_k, [], 4),
                                       (pipeline.cmd_train, ["k=2"], 2)):
        command(RunConfig.from_file(path, overrides))
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        table = pipeline.load_manifest(run_dir)["selection_table"]
        assert len(rows) == len(table) == n_rows
        for row, ref in zip(rows, table):
            for key in ("k", "seed", "sel_abs", "sel_pen", "global_risk",
                        "iterations"):
                assert float(row[key]) == ref[key]
            assert row["converged"] == str(ref["converged"])
    pipeline.cmd_train(RunConfig.from_file(path, ["method=global"]))
    assert "selection_table" not in pipeline.load_manifest(run_dir)
    assert not os.path.exists(csv_path)


def test_select_k_loads_dataset_once(tmp_path, data_dir, monkeypatch):
    calls = []
    load = pipeline.load_dataset

    def counting_load(*args, **kwargs):
        calls.append(args)
        return load(*args, **kwargs)

    monkeypatch.setattr(pipeline, "load_dataset", counting_load)
    path = write_config(tmp_path, data_dir, tmp_path / "rload",
                        "k_candidates = 2\nselection_seeds = 0\n")
    pipeline.cmd_select_k(RunConfig.from_file(path))
    assert len(calls) == 1


def run_bytes(run_dir):
    """Bytes of the manifest, tables and every checkpoint of a run."""
    names = ["manifest.json", "selection.csv", "report.json"]
    names += [os.path.join("checkpoints", f)
              for f in sorted(os.listdir(os.path.join(run_dir, "checkpoints")))]
    out = {}
    for name in names:
        with open(os.path.join(run_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


@needs_fork
def test_select_k_and_evaluate_bytes_do_not_depend_on_worker_count(
        tmp_path, data_dir, monkeypatch):
    outputs = []
    for workers in (1, 2):
        monkeypatch.setattr(clustering, "sweep_workers",
                            lambda n, w=workers: w)
        work = tmp_path / f"w{workers}"
        work.mkdir()
        monkeypatch.chdir(work)  # the manifest records the relative run_dir
        cfg = write_config(work, data_dir, "run")
        assert cli.main(["select-k", "--config", cfg]) == 0
        assert cli.main(["evaluate", "--config", cfg]) == 0
        outputs.append(run_bytes("run"))
    assert "checkpoints/proto_01.pcm" in outputs[0]
    assert outputs[1] == outputs[0]


def test_artifacts_do_not_depend_on_blas_thread_count(tmp_path, data_dir):
    src = os.path.dirname(os.path.dirname(os.path.abspath(poolcast.__file__)))
    outputs = []
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items()
               if not k.endswith("_NUM_THREADS")}
        env["OMP_NUM_THREADS"] = env["OPENBLAS_NUM_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        work = tmp_path / f"t{threads}"
        work.mkdir()
        cfg = write_config(work, data_dir, "run")
        for command in ("select-k", "evaluate"):
            subprocess.run([sys.executable, "-m", "poolcast.cli", command,
                            "--config", cfg], cwd=work, env=env, check=True,
                           capture_output=True, timeout=300)
        outputs.append(run_bytes(str(work / "run")))
    assert outputs[1] == outputs[0]


@needs_fork
def test_diverging_sweep_worker_exits_with_code_4(tmp_path, data_dir,
                                                  monkeypatch):
    monkeypatch.setattr(clustering, "sweep_workers", lambda n: 2)
    diverging_seed = derive_seed(0, "proto", 1)
    train_stacked = model.train_stacked

    def train_or_diverge(initials, anchor, data, cfg, seeds, *args, **kwargs):
        if anchor is not None and diverging_seed in seeds:
            raise TrainingDiverged("non-finite training loss in epoch 1; "
                                   "last finite epoch was 0", 0)
        return train_stacked(initials, anchor, data, cfg, seeds, *args,
                             **kwargs)

    monkeypatch.setattr(model, "train_stacked", train_or_diverge)
    cfg = write_config(tmp_path, data_dir, tmp_path / "rdiv")
    argv = ["select-k", "--config", cfg, "--set", "k_candidates=2"]
    # run in a child so that a parent stuck on a lost worker error times out
    proc = multiprocessing.get_context("fork").Process(
        target=lambda: os._exit(cli.main(argv)))
    proc.start()
    proc.join(timeout=120)
    hung = proc.is_alive()
    if hung:
        proc.kill()
        proc.join()
    assert not hung
    assert proc.exitcode == 4


def test_failed_manifest_write_keeps_previous_manifest(tmp_path):
    run_dir = str(tmp_path / "r")
    pipeline.save_manifest(run_dir, {"test_evaluated": True})
    with pytest.raises(TypeError):  # json.dump fails partway through
        pipeline.save_manifest(run_dir, {"a": 1, "b": object()})
    assert pipeline.load_manifest(run_dir) == {"test_evaluated": True}
    assert os.listdir(run_dir) == ["manifest.json"]


# ---------------------------------------------------------------------------
# command flows
# ---------------------------------------------------------------------------


def test_prepare_persists_standardizer(tmp_path, data_dir):
    path = write_config(tmp_path, data_dir, tmp_path / "prep")
    cfg = RunConfig.from_file(path)
    manifest = pipeline.cmd_prepare(cfg)
    assert len(manifest["standardizer"]["mu"]) == 4
    assert all(s > 0 for s in manifest["standardizer"]["sigma"])
    assert os.path.exists(os.path.join(cfg.run_dir, "manifest.json"))


def test_train_requires_k_for_clustered_methods(tmp_path, data_dir):
    path = write_config(tmp_path, data_dir, tmp_path / "runk")
    cfg = RunConfig.from_file(path)
    with pytest.raises(ConfigError, match="k > 0"):
        pipeline.cmd_train(cfg)


def test_full_flow_train_evaluate_report(tmp_path, data_dir):
    run_dir = str(tmp_path / "flow")
    path = write_config(tmp_path, data_dir, run_dir, "k = 3\n")
    cfg = RunConfig.from_file(path)
    pipeline.cmd_train(cfg)
    manifest = pipeline.load_manifest(run_dir)
    assert manifest["k"] == 3
    assert len(manifest["assignment"]) == 9
    assert len(manifest["flags"]) == 3
    assert os.path.exists(os.path.join(run_dir, "checkpoints", "global.pcm"))
    assert not manifest["test_evaluated"]

    manifest = pipeline.cmd_evaluate(cfg)
    assert manifest["test_evaluated"]
    report = json.load(open(os.path.join(run_dir, "report.json")))
    methods = {r["method"] for r in report["rows"]}
    assert methods == {"global", "cluster"}
    assert os.path.exists(os.path.join(run_dir, "plots", "improvement_h1.csv"))
    assert os.path.exists(os.path.join(run_dir, "plots", "trajectory_h3.csv"))

    # audit stored in the manifest shows TEST reads only in evaluate
    audit = manifest["audit"]["evaluate"]
    for phase, counts in audit.items():
        if phase != "evaluate":
            assert counts["test"] == 0
    assert audit["evaluate"]["test"] > 0

    merged = pipeline.cmd_report([run_dir])
    assert {r["method"] for r in merged} == {"global", "cluster"}
    scaled = pipeline.cmd_report([run_dir], paper_scale=True)
    raw_mse = [r["mse"] for r in merged]
    scl_mse = [r["mse"] for r in scaled]
    assert scl_mse == pytest.approx([m * 100 for m in raw_mse])


def test_manifest_records_the_train_reads_of_every_fit(tmp_path, data_dir):
    # prototype and per-series fits read TRAIN under their own audit phase
    path = write_config(tmp_path, data_dir, tmp_path / "fits",
                        "k_candidates = 2\nselection_seeds = 0\n")
    for argv, phase in ((["select-k"], "fit-prototypes"),
                        (["train", "--set", "method=individual"],
                         "fit-individual")):
        assert cli.main(argv + ["--config", path]) == 0
        reads = pipeline.load_manifest(str(tmp_path / "fits"))["audit"]["train"]
        assert reads[phase]["train"] > 0
        assert reads[phase]["val"] == reads[phase]["test"] == 0


def test_select_k_prints_the_kept_run(tmp_path, data_dir, capsys, monkeypatch):
    run_dir = str(tmp_path / "kept")
    path = write_config(tmp_path, data_dir, run_dir)
    capsys.readouterr()
    assert cli.main(["select-k", "--config", path]) == 0
    manifest = pipeline.load_manifest(run_dir)
    kept = (manifest["k"], manifest["selection_seed"])
    (row,) = [r for r in read_csv(os.path.join(run_dir, "selection.csv"))
              if (int(r["k"]), int(r["seed"])) == kept]
    assert capsys.readouterr().out == (
        f"selected k={kept[0]} (seed {kept[1]}, "
        f"sel_pen={float(row['sel_pen']):.6f}); table: {run_dir}/selection.csv\n")
    # the printed row is the one the manifest keeps; the CLI does not select
    other = next(r for r in manifest["selection_table"]
                 if (r["k"], r["seed"]) != kept)
    monkeypatch.setattr(pipeline, "cmd_select_k", lambda cfg: dict(
        manifest, k=other["k"], selection_seed=other["seed"]))
    assert cli.main(["select-k", "--config", path]) == 0
    assert f"sel_pen={other['sel_pen']:.6f})" in capsys.readouterr().out


def test_single_use_test_protocol(tmp_path, data_dir):
    run_dir = str(tmp_path / "once")
    path = write_config(tmp_path, data_dir, run_dir, "k = 2\n")
    cfg = RunConfig.from_file(path)
    pipeline.cmd_train(cfg)
    pipeline.cmd_evaluate(cfg)
    with pytest.raises(ProtocolError, match="already evaluated"):
        pipeline.cmd_evaluate(cfg)


def _diverge(*args, **kwargs):
    raise TrainingDiverged("non-finite training loss in epoch 1; "
                           "last finite epoch was 0", 0)


def _fail_calibration(*args, **kwargs):
    raise ValueError("no calibration streams")


@pytest.mark.parametrize("stage", ["refit", "calibrate"])
def test_failure_before_the_test_read_leaves_test_unused(tmp_path, data_dir,
                                                         monkeypatch, stage):
    run_dir = str(tmp_path / "r")
    cfg = write_config(tmp_path, data_dir, run_dir, "k = 2\nmode = quantile\n")
    assert cli.main(["train", "--config", cfg]) == 0
    if stage == "refit":
        monkeypatch.setattr(model, "train_stacked", _diverge)
        assert cli.main(["evaluate", "--config", cfg]) == 4
    else:
        monkeypatch.setattr(clustering, "calibrate", _fail_calibration)
        with pytest.raises(ValueError, match="no calibration streams"):
            cli.main(["evaluate", "--config", cfg])
    monkeypatch.undo()
    manifest = pipeline.load_manifest(run_dir)
    assert not manifest["test_evaluated"]
    assert not os.path.exists(refit_checkpoint(run_dir, -1))
    assert cli.main(["evaluate", "--config", cfg]) == 0
    assert cli.main(["evaluate", "--config", cfg]) == 5


@pytest.mark.parametrize("obstacle", ["report.json", "plots"])
def test_failure_after_the_test_read_leaves_a_spent_servable_run(
        tmp_path, data_dir, capsys, obstacle):
    run_dir = tmp_path / "r"
    cfg = write_config(tmp_path, data_dir, str(run_dir), "k = 2\nmode = quantile\n")
    assert cli.main(["train", "--config", cfg]) == 0
    # a directory where report.json goes, or a file where plots/ goes
    if obstacle == "plots":
        (run_dir / obstacle).write_text("")
    else:
        (run_dir / obstacle).mkdir()
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err
    manifest = pipeline.load_manifest(str(run_dir))
    assert manifest["test_evaluated"] and "report" not in manifest
    assert set(manifest["calibration"]["factors"]) == {"1", "3"}
    for path in [refit_checkpoint(run_dir, -1)] + served_by(run_dir, manifest):
        assert os.path.exists(path)
    segment = os.path.join(data_dir, sorted(os.listdir(data_dir))[0])
    assert cli.main(["forecast-new", "--config", cfg, "--segment", segment]) == 0
    assert cli.main(["report", "--runs", str(run_dir)]) == 3
    assert cli.main(["evaluate", "--config", cfg]) == 5
    capsys.readouterr()


def test_evaluate_writes_in_protocol_order(tmp_path, data_dir, monkeypatch):
    """The refit checkpoints, then the manifest with the calibration and the
    spent TEST marker, then the reports and plots, and the manifest last."""
    run_dir = str(tmp_path / "r")
    cfg = write_config(tmp_path, data_dir, run_dir, "k = 3\nmode = quantile\n")
    assert cli.main(["train", "--config", cfg]) == 0
    writes = []
    replace = os.replace

    def recording(src, dst):  # every run file is moved into place by os.replace
        replace(src, dst)
        name = os.path.relpath(dst, run_dir)
        if name == "manifest.json":
            with open(dst) as fh:
                stored = json.load(fh)
            name = (name, stored["test_evaluated"],
                    stored.get("calibration") is not None, "report" in stored)
        writes.append(name)

    monkeypatch.setattr(os, "replace", recording)
    assert cli.main(["evaluate", "--config", cfg]) == 0
    monkeypatch.undo()
    manifest = pipeline.load_manifest(run_dir)
    refits = {os.path.relpath(p, run_dir) for p in
              [refit_checkpoint(run_dir, -1)] + served_by(run_dir, manifest)}
    plots = {os.path.join("plots", f"{kind}_h{h}.csv")
             for kind in ("improvement", "trajectory") for h in (1, 3)}
    marker = len(refits)
    assert set(writes[:marker]) == refits and len(writes) == len(set(writes))
    assert writes[marker] == ("manifest.json", True, True, False)
    assert set(writes[marker + 1:-1]) == {"report.json", "report.csv"} | plots
    assert writes[-1] == ("manifest.json", True, True, True)


def test_forecast_new_fills_a_missing_cell_with_the_train_fill(tmp_path, data_dir):
    run_dir = str(tmp_path / "med")
    cfg = write_config(tmp_path, data_dir, run_dir,
                       "method = global\nimpute = median\n")
    for command in ("train", "evaluate"):
        assert cli.main([command, "--config", cfg]) == 0
    names = sorted(os.listdir(data_dir))
    train = np.concatenate([np.loadtxt(os.path.join(data_dir, name),
                                       delimiter=",")[:80] for name in names])
    median = np.median(train, axis=0)
    stored = pipeline.load_manifest(run_dir)["standardizer"]
    assert stored["fill"] == median.tolist()
    assert stored["fill"][0] != stored["mu"][0]
    # the segment's last step with its first cell blank, or set to the median
    rows = [[repr(float(v)) for v in row]
            for row in np.loadtxt(os.path.join(data_dir, names[0]), delimiter=",")]
    replies = []
    for cell in ("", repr(float(median[0]))):
        rows[-1][0] = cell
        segment = tmp_path / "segment.csv"
        segment.write_text("".join(",".join(row) + "\n" for row in rows))
        out = tmp_path / f"reply_{len(replies)}.json"
        assert cli.main(["forecast-new", "--config", cfg,
                         "--segment", str(segment), "--out", str(out)]) == 0
        replies.append(out.read_bytes())
    assert replies[0] == replies[1]


def test_evaluate_checks_config_identity(tmp_path, data_dir):
    run_dir = str(tmp_path / "ident")
    path = write_config(tmp_path, data_dir, run_dir, "k = 2\n")
    cfg = RunConfig.from_file(path)
    pipeline.cmd_train(cfg)
    changed = RunConfig.from_file(path, overrides=["hidden=16"])
    with pytest.raises(ConfigError, match="hidden"):
        pipeline.cmd_evaluate(changed)


@pytest.mark.parametrize("change", ["missing_series", "train_cell"])
def test_evaluate_refuses_another_dataset(tmp_path, data_dir, capsys, change):
    """evaluate on data other than the trained run's (one series fewer, or
    one TRAIN cell changed) exits 3, writes nothing and leaves TEST unused."""
    data = str(tmp_path / "data")
    shutil.copytree(data_dir, data)
    run_dir = str(tmp_path / "run")
    cfg = write_config(tmp_path, data, run_dir, "k = 2\n")
    assert cli.main(["train", "--config", cfg]) == 0
    files = sorted(os.listdir(data))
    if change == "missing_series":
        os.remove(os.path.join(data, files[-1]))
    else:
        path = os.path.join(data, files[0])
        with open(path) as fh:
            rows = fh.read().splitlines()
        cells = rows[0].split(",")
        cells[0] = repr(float(cells[0]) + 1.0)  # time 0 lies in TRAIN
        rows[0] = ",".join(cells)
        with open(path, "w") as fh:
            fh.write("\n".join(rows) + "\n")

    def tree():
        return {os.path.join(base, name): pathlib.Path(base, name).read_bytes()
                for base, _, names in os.walk(run_dir) for name in names}

    before = tree()
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err
    assert "is not the dataset run" in err
    assert tree() == before
    assert pipeline.load_manifest(run_dir)["test_evaluated"] is False


# a changed value of every config key evaluate and forecast-new check
CHANGED_KEYS = {
    "data_dir": "elsewhere", "data_format": "packed", "csv_header": "true",
    "impute": "median", "eps": "1e-6", "t_train": "81", "t_val": "21",
    "t_test": "21", "window": "7", "latent": "2", "hidden": "9",
    "mode": "quantile", "quantiles": "0.2,0.5,0.8", "huber_delta": "0.5",
    "epochs": "5", "proto_epochs": "3", "lr": "0.002", "beta1": "0.8",
    "beta2": "0.99", "eps_adam": "1e-7", "batch": "32", "l2sp": "0.01",
    "clip": "1.0", "seed": "1", "method": "feat_kmeans"}


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory, data_dir):
    """The config and directory of a clustered run trained, not evaluated."""
    root = tmp_path_factory.mktemp("trained")
    cfg = write_config(root, data_dir, root / "run", "k = 2\n")
    assert cli.main(["train", "--config", cfg]) == 0
    return cfg, str(root / "run")


@pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(RunConfig)
                                 if f.name not in RunConfig.FREE_KEYS])
def test_every_checked_key_must_keep_its_trained_value(
        trained_run, served_run, capsys, key):
    """A change to any config key but the free ones, between train and
    evaluate or between evaluate and forecast-new, exits 2 naming it."""
    override = ["--set", f"{key}={CHANGED_KEYS[key]}"]
    served_cfg, _, segment = served_run
    capsys.readouterr()
    for argv in (["evaluate", "--config", trained_run[0]],
                 ["forecast-new", "--config", served_cfg, "--segment", segment]):
        assert cli.main(argv + override) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{key!r}" in err


def test_coverage_target_may_change_after_training(trained_run, tmp_path):
    cfg, run_dir = trained_run
    copy = str(tmp_path / "copy")
    shutil.copytree(run_dir, copy)
    assert cli.main(["evaluate", "--config", cfg, "--set", f"run_dir={copy}",
                     "--set", "coverage_target=0.7"]) == 0


def test_train_artifacts_reproducible_bitwise(tmp_path, data_dir):
    cfg_a = RunConfig.from_file(
        write_config(tmp_path, data_dir, tmp_path / "ra", "k = 2\n"))
    cfg_b = RunConfig.from_file(
        write_config(tmp_path, data_dir, tmp_path / "rb", "k = 2\n"))
    pipeline.cmd_train(cfg_a)
    pipeline.cmd_train(cfg_b)
    pipeline.cmd_evaluate(cfg_a)
    pipeline.cmd_evaluate(cfg_b)
    for name in ("checkpoints/global.pcm", "checkpoints/proto_00.pcm",
                 "checkpoints/refit_global.pcm", "report.csv",
                 "plots/improvement_h1.csv", "plots/trajectory_h1.csv"):
        a = open(os.path.join(cfg_a.run_dir, name), "rb").read()
        b = open(os.path.join(cfg_b.run_dir, name), "rb").read()
        assert a == b, name
    ma = json.load(open(os.path.join(cfg_a.run_dir, "manifest.json")))
    mb = json.load(open(os.path.join(cfg_b.run_dir, "manifest.json")))
    for volatile in ("config",):  # run_dir path differs inside the config echo
        ma.pop(volatile), mb.pop(volatile)
    assert ma == mb  # the manifest stores no path


def test_individual_method_flow(tmp_path, data_dir):
    run_dir = str(tmp_path / "indiv")
    path = write_config(tmp_path, data_dir, run_dir,
                        "method = individual\nepochs = 2\n")
    cfg = RunConfig.from_file(path)
    pipeline.cmd_train(cfg)
    pipeline.cmd_evaluate(cfg)
    report = json.load(open(os.path.join(run_dir, "report.json")))
    assert {r["method"] for r in report["rows"]} == {"global", "individual"}
    names = {"global.pcm", "refit_global.pcm"}
    for i in range(9):
        names |= {f"individual_{i:04d}.pcm", f"refit_individual_{i:04d}.pcm"}
    assert set(os.listdir(os.path.join(run_dir, "checkpoints"))) == names


def test_retraining_leaves_only_the_last_trainings_checkpoints(tmp_path,
                                                               data_dir):
    """prepare removes an earlier training's checkpoints with its
    selection.csv, so a run directory holds the files of its last training
    alone."""
    run_dir = str(tmp_path / "r")
    cfg = write_config(tmp_path, data_dir, run_dir)
    for override in ("k=3", "method=individual", "k=2"):
        assert cli.main(["train", "--config", cfg, "--set", override]) == 0
    assert sorted(os.listdir(os.path.join(run_dir, "checkpoints"))) == [
        "global.pcm", "proto_00.pcm", "proto_01.pcm"]


def test_minimal_legal_split_trains_and_evaluates(tmp_path, data_dir):
    """VAL and TEST of window + max horizon steps, the shortest segments
    the split check admits, still hold windows at every horizon: a quantile
    run trains, calibrates one factor per horizon and evaluates. One step
    less is refused."""
    run_dir = str(tmp_path / "r")
    cfg = write_config(tmp_path, data_dir, run_dir, "k = 2\nmode = quantile\n")

    shortest = 6 + 3  # FAST_KEYS' window + max horizon; the data has 120 steps

    def split(t_val):
        lengths = (120 - shortest - t_val, t_val, shortest)
        return [arg for key, n in zip(("t_train", "t_val", "t_test"), lengths)
                for arg in ("--set", f"{key}={n}")]

    assert cli.main(["train", "--config", cfg, *split(shortest - 1)]) == 3
    for command in ("train", "evaluate"):
        assert cli.main([command, "--config", cfg, *split(shortest)]) == 0
    factors = pipeline.load_manifest(run_dir)["calibration"]["factors"]
    assert sorted(factors) == ["1", "3"]


def test_forecast_new_routing_flow(tmp_path, data_dir):
    run_dir = str(tmp_path / "route")
    path = write_config(tmp_path, data_dir, run_dir, "k = 3\n")
    cfg = RunConfig.from_file(path)
    pipeline.cmd_train(cfg)
    with pytest.raises(Exception, match="evaluate first"):
        pipeline.cmd_forecast_new(cfg, os.path.join(data_dir, "s0000_r0.csv"))
    pipeline.cmd_evaluate(cfg)
    out = str(tmp_path / "routing.json")
    result = pipeline.cmd_forecast_new(
        cfg, os.path.join(data_dir, "s0000_r0.csv"), out)
    assert result["routed_id"] >= -1
    assert "1" in result["forecasts"]
    assert len(result["forecasts"]["1"]["raw"]) == 4
    assert os.path.exists(out)
    # a point-mode reply is the routed model's rollout, as it is
    manifest = pipeline.load_manifest(run_dir)
    std = manifest["standardizer"]
    seg = ((np.loadtxt(os.path.join(data_dir, "s0000_r0.csv"), delimiter=",")
            - np.asarray(std["mu"])) / np.asarray(std["sigma"]))
    routed = model.load_checkpoint(refit_checkpoint(run_dir,
                                                    result["routed_id"]))[0]
    point, fan = model.rollout(routed, seg[None, -cfg.window:],
                               max(cfg.horizons), cfg.train_config())
    assert fan is None
    for h in cfg.horizons:
        assert result["forecasts"][str(h)]["standardized"] == point[0, h - 1].tolist()


def test_quantile_mode_flow(tmp_path, data_dir):
    run_dir = str(tmp_path / "quant")
    path = write_config(tmp_path, data_dir, run_dir,
                        "k = 2\nmode = quantile\n")
    cfg = RunConfig.from_file(path)
    pipeline.cmd_train(cfg)
    manifest = pipeline.cmd_evaluate(cfg)
    assert manifest["calibration"] is not None
    assert set(manifest["calibration"]["factors"]) == {"1", "3"}
    report = json.load(open(os.path.join(run_dir, "report.json")))
    row = next(r for r in report["rows"]
               if r["method"] == "cluster" and r["horizon"] == 1)
    assert row["pinball"] is not None
    assert 0.0 <= row["coverage"] <= 1.0
    assert row["width"] >= 0.0


def test_forecast_new_quantile_routing(tmp_path, data_dir):
    run_dir = str(tmp_path / "quant_route")
    path = write_config(tmp_path, data_dir, run_dir,
                        "k = 3\nmode = quantile\n")
    cfg = RunConfig.from_file(path)
    pipeline.cmd_train(cfg)
    manifest = pipeline.cmd_evaluate(cfg)
    tc = cfg.train_config()
    mu = np.asarray(manifest["standardizer"]["mu"])
    sigma = np.asarray(manifest["standardizer"]["sigma"])
    pooled = model.load_checkpoint(refit_checkpoint(run_dir, -1))[0]
    # the refit checkpoint of each unflagged cluster
    protos = {k: model.load_checkpoint(refit_checkpoint(run_dir, k))[0]
              for k, flagged in enumerate(manifest["flags"]) if not flagged}

    factors = manifest["calibration"]["factors"]
    routed = set()
    for name in sorted(os.listdir(data_dir)):
        result = pipeline.cmd_forecast_new(cfg, os.path.join(data_dir, name))
        raw = np.loadtxt(os.path.join(data_dir, name), delimiter=",")
        seg = (raw - mu) / sigma
        w = tc.w
        # the served fan: the raw rollout's outer levels calibrated around
        # its median path with the manifest's factors, the rest as they are
        served = protos.get(result["routed_id"], pooled)
        point, fan = model.rollout(served, seg[None, -w:], max(cfg.horizons), tc)
        for h in cfg.horizons:
            reply = result["forecasts"][str(h)]
            assert reply["levels"] == list(cfg.quantiles)
            assert np.asarray(reply["standardized"]).shape == (3, 4)
            assert np.asarray(reply["raw"]).shape == (3, 4)
            lo, hi = apply_factor(point[0, h - 1], fan[0, h - 1, 0],
                                  fan[0, h - 1, -1], factors[str(h)])
            assert reply["standardized"] == [lo.tolist(), fan[0, h - 1, 1].tolist(),
                                             hi.tolist()]

        x = np.stack([seg[t - w + 1:t + 1] for t in range(w - 1, len(seg) - 1)])
        y = seg[w:]
        cost = {-1: model.batch_loss(pooled, None, x, y, tc)}
        for k, params in protos.items():
            cost[k] = model.batch_loss(params, None, x, y, tc)
        # argmin over the candidates; the pooled model (-1) wins ties
        assert result["routed_id"] == min(cost, key=lambda k: (cost[k], k))
        routed.add(result["routed_id"])
    assert len(routed) > 1
    # a horizon that evaluate did not calibrate has no factor to serve with
    with pytest.raises(ConfigError, match="horizon 2 was not calibrated"):
        pipeline.cmd_forecast_new(dataclasses.replace(cfg, horizons=(1, 2)),
                                  os.path.join(data_dir, name))


@pytest.fixture(scope="module", params=["point", "quantile"])
def counted_evaluation(request, tmp_path_factory, data_dir):
    """A cluster run evaluated with its ``model.rollout`` and
    ``PreparedData.windows`` calls counted: (config, manifest, counts at the
    end of evaluate, counts when final_refit_and_test returned)."""
    tmp = tmp_path_factory.mktemp(f"counted_{request.param}")
    cfg = RunConfig.from_file(write_config(
        tmp, data_dir, str(tmp / "run"), f"k = 3\nmode = {request.param}\n"))
    pipeline.cmd_train(cfg)
    counts = {"rollout": 0, "windows": 0}
    at_return = {}

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    final = clustering.final_refit_and_test

    def final_then_snapshot(*args, **kwargs):
        artifacts = final(*args, **kwargs)
        at_return.update(counts)
        return artifacts

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "rollout", counting("rollout", model.rollout))
        mp.setattr(PreparedData, "windows",
                   counting("windows", PreparedData.windows))
        mp.setattr(clustering, "final_refit_and_test", final_then_snapshot)
        manifest = pipeline.cmd_evaluate(cfg)
    return cfg, manifest, counts, at_return


def test_evaluate_forecasts_nothing_after_the_test_evaluation(counted_evaluation):
    cfg, manifest, counts, at_return = counted_evaluation
    # the plots format the evaluation's forecasts: no rollout, no gather
    assert counts == at_return
    routed = set(served_by(cfg.run_dir, manifest))
    g = len(routed)                               # distinct routed models
    # refit prototypes: the routed models other than the refit pooled model
    r = len(routed - {refit_checkpoint(cfg.run_dir, -1)})
    q = int(cfg.mode == "quantile")               # VAL calibration streams
    # One rollout to the longest horizon serves every horizon, so evaluate
    # makes one rollout and one window gather per model group and split:
    #   1 + G + q * G          rollouts and
    #   1 + R + 1 + G + q * G  window gathers,
    # for the pooled reference, the routed models and calibration, plus one
    # TRAIN+VAL gather for the refit pooled model and one per refit prototype.
    scored = 1 + g + q * g
    assert counts["rollout"] == scored
    assert counts["windows"] == 1 + r + scored


def test_trajectories_are_the_evaluation_forecasts(counted_evaluation):
    cfg, manifest, _, _ = counted_evaluation
    tc = cfg.train_config()
    prepared = pipeline.load_prepared(cfg)
    pooled = model.load_checkpoint(refit_checkpoint(cfg.run_dir, -1))[0]
    served = served_by(cfg.run_dir, manifest)
    for h in cfg.horizons:
        with open(os.path.join(cfg.run_dir, "plots", f"trajectory_h{h}.csv"),
                  newline="") as fh:
            rows = list(csv.DictReader(fh))
        ends = prepared.window_index("te", tc.w, [h]).end_times[h]
        expected = []
        for i in range(min(3, prepared.n_series)):
            routed = model.load_checkpoint(served[i])[0]
            # the series' TEST windows alone, under each saved checkpoint
            x, y = prepared.windows("te", h, tc.w, [i])
            pred_global = model.rollout(pooled, x, h, tc)[0][:, -1]
            pred_method = model.rollout(routed, x, h, tc)[0][:, -1]
            expected += [{"series": prepared.dataset.names[i],
                          "time": str(t + h), "actual": repr(float(y[j, 0])),
                          "pred_global": repr(float(pred_global[j, 0])),
                          "pred_method": repr(float(pred_method[j, 0]))}
                         for j, t in enumerate(ends)]
        assert rows == expected


def test_report_rows_equal_a_series_by_series_oracle(counted_evaluation):
    """Each report row rebuilt one series at a time from the saved refit
    checkpoints and, in quantile mode, the manifest's calibration factors."""
    cfg, manifest, _, _ = counted_evaluation
    tc = cfg.train_config()
    prepared = pipeline.load_prepared(cfg)
    n = prepared.n_series
    pooled = refit_checkpoint(cfg.run_dir, -1)
    routed = served_by(cfg.run_dir, manifest)
    assert len(set(routed)) >= 2  # more than one routed model serves series
    params = {path: model.load_checkpoint(path)[0] for path in {pooled, *routed}}
    levels = np.asarray(tc.quantiles).reshape(-1, 1)
    with open(os.path.join(cfg.run_dir, "report.json")) as fh:
        rows = json.load(fh)["rows"]
    assert [(r["method"], r["horizon"]) for r in rows] == [
        (m, h) for h in cfg.horizons for m in ("global", cfg.method)]
    for row in rows:
        h = row["horizon"]
        paths = [pooled] * n if row["method"] == "global" else routed
        mse, mae, pinball, widths = [], [], [], []
        inside = cells = 0
        for i, path in enumerate(paths):
            x, y = prepared.windows("te", h, tc.w, [i])
            point, fan = model.rollout(params[path], x, h, tc)
            med = point[:, -1]
            e = med - y
            mse.append((e * e).mean(axis=1).mean())
            mae.append(np.abs(e).mean(axis=1).mean())
            if fan is None:
                continue
            u = y[:, None, :] - fan[:, -1]
            pinball.append((u * (levels - (u < 0))).mean(axis=(1, 2)).mean())
            s = manifest["calibration"]["factors"][str(h)]
            lo = med - s * (med - fan[:, -1, 0])
            hi = med + s * (fan[:, -1, -1] - med)
            inside += int(((y >= lo) & (y <= hi)).sum())
            cells += y.size
            widths.append((hi - lo).ravel())
        # the per-series MSE behind the row, as the plots store it
        column = "mse_global" if row["method"] == "global" else "mse_method"
        plot = read_csv(os.path.join(cfg.run_dir, "plots",
                                     f"improvement_h{h}.csv"))
        assert all(same_bits(r[column], v)
                   for r, v in zip(plot, mse, strict=True))
        assert row["mse"] == float(np.mean(mse))
        assert row["mae"] == float(np.mean(mae))
        if cfg.mode == "point":
            assert row["pinball"] is row["coverage"] is row["width"] is None
            continue
        assert row["pinball"] == float(np.mean(pinball))
        assert row["coverage"] == inside / cells
        assert row["width"] == pytest.approx(np.mean(np.concatenate(widths)),
                                             rel=1e-12, abs=0)


def same_bits(cell: str, value) -> bool:
    """A CSV cell parses with float() to exactly the stored float64."""
    return np.float64(float(cell)).tobytes() == np.float64(value).tobytes()


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("mode", ["point", "quantile"])
def test_run_directory_csvs_parse(tmp_path, data_dir, monkeypatch, mode):
    run_dir = str(tmp_path / "run")
    cfg = write_config(tmp_path, data_dir, run_dir, f"mode = {mode}\n")
    horizons = RunConfig.from_file(cfg).horizons
    evaluated = []
    final = clustering.final_refit_and_test

    def keep(*args, **kwargs):
        evaluated.append(final(*args, **kwargs))
        return evaluated[-1]

    monkeypatch.setattr(clustering, "final_refit_and_test", keep)
    merged = str(tmp_path / "merged.csv")
    for argv in (["select-k", "--config", cfg], ["evaluate", "--config", cfg],
                 ["report", "--runs", run_dir, "--out", merged]):
        assert cli.main(argv) == 0
    (art,) = evaluated
    manifest = pipeline.load_manifest(run_dir)

    rows = read_csv(os.path.join(run_dir, "selection.csv"))
    assert len(rows) == len(manifest["selection_table"]) == 4
    for row, ref in zip(rows, manifest["selection_table"]):
        assert row["converged"] == str(ref["converged"])
        for key in ("k", "seed", "sel_abs", "sel_pen", "global_risk",
                    "iterations"):
            assert same_bits(row[key], ref[key])

    with open(os.path.join(run_dir, "report.json")) as fh:
        stored = json.load(fh)["rows"]
    assert stored == art.report
    for path, prefix in ((os.path.join(run_dir, "report.csv"), {}),
                         (merged, {"run": run_dir})):
        rows = read_csv(path)
        assert len(rows) == len(stored) == 2 * len(horizons)
        for row, ref in zip(rows, stored):
            ref = dict(prefix, **ref)
            assert row.keys() == ref.keys()
            for key, value in ref.items():
                if value is None:
                    assert row[key] == "" and mode == "point"
                elif isinstance(value, str):
                    assert row[key] == value
                else:
                    assert same_bits(row[key], value)

    prepared = pipeline.load_prepared(RunConfig.from_file(cfg))
    names, t_end = prepared.dataset.names, prepared.spec.bounds("te")[1]
    for h in horizons:
        ref, mse = art.series_mse[("global", h)], art.series_mse[("cluster", h)]
        rows = read_csv(os.path.join(run_dir, "plots", f"improvement_h{h}.csv"))
        assert [r["series"] for r in rows] == names
        for i, row in enumerate(rows):
            assert same_bits(row["mse_method"], mse[i])
            assert same_bits(row["mse_global"], ref[i])
            assert same_bits(row["improvement_pct"],
                             100.0 * (ref[i] - mse[i]) / ref[i])
        glob, target = art.trajectories[("global", h)]
        pred = art.trajectories[("cluster", h)][0]
        rows = read_csv(os.path.join(run_dir, "plots", f"trajectory_h{h}.csv"))
        n = target.shape[1]
        assert len(rows) == len(target) * n
        for k, row in enumerate(rows):
            i, j = divmod(k, n)
            assert row["series"] == names[i]
            assert int(row["time"]) == t_end - n + j
            assert same_bits(row["actual"], target[i, j, 0])
            assert same_bits(row["pred_global"], glob[i, j, 0])
            assert same_bits(row["pred_method"], pred[i, j, 0])


def test_report_from_the_parent_of_a_relative_run_dir(tmp_path, data_dir,
                                                      monkeypatch):
    work = tmp_path / "sub"
    work.mkdir()
    monkeypatch.chdir(work)  # the manifest records paths under "rg"
    cfg = write_config(work, data_dir, "rg", "method = global\n")
    assert cli.main(["train", "--config", cfg]) == 0
    assert cli.main(["evaluate", "--config", cfg]) == 0
    rows = pipeline.cmd_report(["rg"])
    monkeypatch.chdir(tmp_path)
    for run_dir in (os.path.join("sub", "rg"), str(work / "rg")):
        assert pipeline.cmd_report([run_dir]) == [dict(r, run=run_dir)
                                                  for r in rows]

    # a cluster run trained in sub/ as "cg", then evaluated and served from
    # the parent as "sub/cg", and served from sub/ again
    monkeypatch.chdir(work)
    cfg = write_config(work, data_dir, "cg", "k = 2\n")
    assert cli.main(["train", "--config", cfg]) == 0
    segment = os.path.join(data_dir, sorted(os.listdir(data_dir))[0])
    monkeypatch.chdir(tmp_path)
    parent = ["--config", cfg, "--set", "run_dir=" + os.path.join("sub", "cg")]
    assert cli.main(["evaluate"] + parent) == 0
    assert cli.main(["forecast-new", "--segment", segment,
                     "--out", "from_parent.json"] + parent) == 0
    rows = pipeline.cmd_report([os.path.join("sub", "cg")])
    assert {r["method"] for r in rows} == {"global", "cluster"}
    monkeypatch.chdir(work)
    assert cli.main(["forecast-new", "--config", cfg, "--segment", segment,
                     "--out", "from_sub.json"]) == 0
    assert ((tmp_path / "from_parent.json").read_bytes()
            == (work / "from_sub.json").read_bytes())
    assert pipeline.cmd_report(["cg"]) == [dict(r, run="cg") for r in rows]


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def test_cli_exit_codes(tmp_path, data_dir, capsys):
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("nonsense = 1\n")
    assert cli.main(["prepare", "--config", str(bad_cfg)]) == 2

    cfg_path = write_config(tmp_path, str(tmp_path / "missing_data"),
                            tmp_path / "rc")
    assert cli.main(["prepare", "--config", cfg_path]) == 3
    # packed and pems data that cannot be read (a directory, a missing file)
    # are data errors, as is a run_dir that cannot be created
    capsys.readouterr()
    for overrides in (["data_format=packed", f"data_dir={data_dir}"],
                      ["data_format=packed"],
                      ["data_format=pems", f"data_dir={data_dir}"],
                      ["data_format=pems"],
                      [f"data_dir={data_dir}",
                       f"run_dir={tmp_path / 'run.cfg' / 'run'}"]):
        argv = ["prepare", "--config", cfg_path]
        for override in overrides:
            argv += ["--set", override]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err

    run_dir = str(tmp_path / "cli_run")
    good = write_config(tmp_path, data_dir, run_dir, "k = 2\n")
    assert cli.main(["train", "--config", good]) == 0
    # horizon lists that are empty, non-positive or repeated are config
    # errors, raised before anything is written: the run stays evaluable
    capsys.readouterr()
    for command, override in (("evaluate", "horizons=0"),
                              ("evaluate", "horizons=1,1"),
                              ("evaluate", "horizons="),
                              ("evaluate", "horizons=3,-1"),
                              ("select-k", "assign_horizons=0"),
                              ("select-k", "assign_horizons=1,3,1")):
        assert cli.main([command, "--config", good, "--set", override]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert not pipeline.load_manifest(run_dir)["test_evaluated"]
    # a missing checkpoint is a data error, and an evaluation that failed
    # before reading TEST leaves the run's one TEST evaluation unused
    proto = os.path.join(run_dir, "checkpoints", "proto_01.pcm")
    os.rename(proto, proto + ".away")
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", good]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err
    assert not pipeline.load_manifest(run_dir)["test_evaluated"]
    os.rename(proto + ".away", proto)
    assert cli.main(["evaluate", "--config", good]) == 0
    assert cli.main(["evaluate", "--config", good]) == 5
    capsys.readouterr()

    # forecast-new segments that are missing or too short are data errors
    short = tmp_path / "short.csv"
    short.write_text("0.1,0.2,0.3,0.4\n" * 6)  # w = 6 needs 7 steps
    for segment in (str(short), str(tmp_path / "missing.csv")):
        assert cli.main(["forecast-new", "--config", good,
                         "--segment", segment]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err

    # an --out path in a missing directory is a data error, not a traceback
    missing_dir = str(tmp_path / "nodir")
    segment = os.path.join(data_dir, sorted(os.listdir(data_dir))[0])
    for argv in (["forecast-new", "--config", good, "--segment", segment,
                  "--out", os.path.join(missing_dir, "new.json")],
                 ["report", "--runs", run_dir,
                  "--out", os.path.join(missing_dir, "merged.csv")]):
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err
    assert not os.path.exists(missing_dir)

    # run files that cannot be read are data errors: a report or manifest
    # that is not JSON or is JSON of the wrong shape (also a report row
    # without the report columns or with a loss that is not a number, a
    # manifest field of the wrong type and labels beyond k), and a
    # checkpoint header with a zero
    # dimension (here with the payload it implies) or one that implies a
    # payload far larger than the file
    forecast = ["forecast-new", "--config", good, "--segment", segment]
    ckpt = os.path.join(run_dir, "checkpoints", "refit_global.pcm")
    with open(ckpt, "rb") as fh:
        stored = fh.read()
    _, p_dim, hidden, w, n_levels, mode_flag = struct.unpack("<6Q", stored[4:52])

    def header(latent):
        return b"PCM1" + struct.pack("<6Q", latent, p_dim, hidden, w,
                                     n_levels, mode_flag)

    report = ["report", "--runs", run_dir]
    evaluate = ["evaluate", "--config", good]
    manifest_path = os.path.join(run_dir, "manifest.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    assert manifest["k"] == 2 and len(manifest["assignment"]) == 9
    report_path = os.path.join(run_dir, "report.json")
    with open(report_path) as fh:
        text_loss = json.dumps({"rows": [dict(json.load(fh)["rows"][0],
                                              mse="x")]}).encode()

    def manifest_with(**fields):
        return json.dumps(dict(manifest, **fields)).encode()

    for path, content, argv in (
            (os.path.join(run_dir, "report.json"), b'{"rows": [', report),
            (os.path.join(run_dir, "report.json"), b"{}", report),
            (os.path.join(run_dir, "report.json"), b'{"rows": 5}', report),
            (os.path.join(run_dir, "report.json"), b'{"rows": [{}]}', report),
            (manifest_path, b"{not json", forecast),
            (manifest_path, b"[]", report),
            (manifest_path, b"[]", forecast),
            (manifest_path, manifest_with(report=5), report),
            (manifest_path, manifest_with(flags=5), forecast),
            (report_path, text_loss, report),
            (report_path, text_loss, report + ["--paper-scale"]),
            (manifest_path, manifest_with(assignment=[2] * 9), evaluate),
            (ckpt, header(2 ** 40) + stored[52:], forecast),
            (ckpt, header(2 ** 62) + stored[52:], forecast),
            (ckpt, header(0) + bytes(8 * (3 * hidden * hidden + 3 * hidden)),
             forecast)):
        with open(path, "rb") as fh:
            original = fh.read()
        with open(path, "wb") as fh:
            fh.write(content)
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err
        with open(path, "wb") as fh:
            fh.write(original)

    # synth into a path that is an existing file is a data error
    assert cli.main(["synth", "--out", str(short), "--n-series", "3",
                     "--n-times", "30", "--n-components", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err

    # synth arguments SyntheticSpec rejects are config errors, raised
    # before anything is written
    bad_synth = str(tmp_path / "bad_synth")
    for flags in (["--n-series", "2"],                # fewer series than --k 3
                  ["--alpha", "1.5"], ["--alpha", "-0.1"],
                  ["--n-series", "0"], ["--n-times", "0"],
                  ["--n-components", "0"], ["--k", "0"], ["--noise", "-1"],
                  ["--noise", "nan"]):
        assert cli.main(["synth", "--out", bad_synth, "--n-times", "30",
                         "--n-components", "2"] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
    assert not os.path.exists(bad_synth)

    # a K above the number of series (9) is a config error, raised before
    # anything is fitted or written
    too_many = str(tmp_path / "too_many")
    big_k = write_config(tmp_path, data_dir, too_many)
    for argv in (["select-k", "--set", "k_candidates=2,12"],
                 ["select-k", "--set", "k_candidates=2,12",
                  "--set", "method=random_balanced"],
                 ["train", "--set", "k=12"]):
        assert cli.main(argv + ["--config", big_k]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert "12" in err and "N=9" in err
    assert not os.path.exists(too_many)


@pytest.mark.parametrize("where", ["everywhere", "train_only"])
def test_constant_train_component_with_zero_eps_is_a_data_error(
        tmp_path, capsys, where):
    """eps = 0 and a component constant on TRAIN (t < 80 here) exits 3
    naming the component, before anything is fitted."""
    data = tmp_path / "data"
    data.mkdir()
    rng = np.random.default_rng(0)
    for i in range(6):
        values = rng.normal(size=(120, 2))
        values[:80 if where == "train_only" else None, 1] = 5.0
        np.savetxt(data / f"s{i}.csv", values, delimiter=",")
    cfg = write_config(tmp_path, str(data), tmp_path / "run",
                       "method = global\neps = 0\n")
    capsys.readouterr()
    assert cli.main(["train", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err
    assert "component 1 is constant on TRAIN" in err and "eps > 0" in err
    assert not os.path.exists(tmp_path / "run" / "checkpoints")


def serve(root, extra=""):
    """An evaluated clustered run on eight-component data: its config, its
    run directory and a segment to route."""
    pipeline.cmd_synth(str(root / "data"), n_series=9, n_times=120,
                       n_components=8, n_regimes=3, seed=5)
    data = str(root / "data" / "series")
    cfg = write_config(root, data, root / "run", "k = 2\n" + extra)
    assert cli.main(["train", "--config", cfg]) == 0
    assert cli.main(["evaluate", "--config", cfg]) == 0
    return cfg, str(root / "run"), os.path.join(data, sorted(os.listdir(data))[0])


@pytest.fixture(scope="module")
def served_run(tmp_path_factory):
    return serve(tmp_path_factory.mktemp("served"))


@pytest.fixture(scope="module")
def served_quantile_run(tmp_path_factory):
    return serve(tmp_path_factory.mktemp("served_quantile"), "mode = quantile\n")


def exit_code_with_manifest(run_dir, manifest, argv):
    """The exit code of ``argv`` run against ``manifest``; the run's own
    manifest is restored afterwards."""
    path = os.path.join(run_dir, "manifest.json")
    with open(path, "rb") as fh:
        original = fh.read()
    try:
        pipeline.save_manifest(run_dir, manifest)
        return cli.main(argv)
    finally:
        with open(path, "wb") as fh:
            fh.write(original)


def test_unreadable_report_is_a_data_error(served_run, capsys):
    _, run_dir, _ = served_run
    path = os.path.join(run_dir, "report.json")
    os.rename(path, path + ".kept")
    os.mkdir(path)  # a directory where the report goes
    capsys.readouterr()
    try:
        assert cli.main(["report", "--runs", run_dir]) == 3
    finally:
        os.rmdir(path)
        os.rename(path + ".kept", path)
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err
    assert f"unreadable report {path}" in err


def test_short_standardizer_list_is_a_data_error(served_run, capsys):
    cfg, run_dir, segment = served_run
    manifest = pipeline.load_manifest(run_dir)
    assert manifest["n_components"] == 8
    manifest["standardizer"]["fill"] = manifest["standardizer"]["fill"][:3]
    capsys.readouterr()
    assert exit_code_with_manifest(run_dir, manifest, [
        "forecast-new", "--config", cfg, "--segment", segment]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err
    assert "'standardizer.fill' does not have 8 entries" in err


@pytest.mark.parametrize(
    "command,field",
    [(c, f) for c in ("evaluate", "forecast-new") for f in pipeline.CLUSTER_FIELDS])
def test_missing_cluster_field_is_a_data_error(served_run, capsys, command,
                                               field):
    cfg, run_dir, segment = served_run
    manifest = pipeline.load_manifest(run_dir)
    del manifest[field]
    argv = [command, "--config", cfg]
    if command == "evaluate":
        manifest["test_evaluated"] = False  # as before the TEST evaluation
    else:
        argv += ["--segment", segment]
    capsys.readouterr()
    assert exit_code_with_manifest(run_dir, manifest, argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err
    assert f"no field {field!r}" in err


def test_missing_refit_prototype_is_a_data_error(served_run, capsys):
    """forecast-new reads the refit prototype of every unflagged cluster by
    its name; a missing one exits 3 and names the file."""
    cfg, run_dir, segment = served_run
    k = pipeline.load_manifest(run_dir)["flags"].index(False)  # a kept cluster
    path = refit_checkpoint(run_dir, k)
    os.rename(path, path + ".away")
    capsys.readouterr()
    try:
        assert cli.main(["forecast-new", "--config", cfg,
                         "--segment", segment]) == 3
    finally:
        os.rename(path + ".away", path)
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err
    assert f"cannot read checkpoint {path}" in err


@pytest.mark.parametrize("command", ["evaluate", "forecast-new"])
@pytest.mark.parametrize("swap", ["hidden", "window", "mode"])
def test_checkpoint_of_another_model_is_a_data_error(served_run, capsys,
                                                     command, swap):
    """A checkpoint whose header differs from the run's model in its hidden
    size, window or mode flag: a prototype read by evaluate, the refit
    pooled model read by forecast-new."""
    cfg, run_dir, segment = served_run
    manifest = pipeline.load_manifest(run_dir)
    argv = [command, "--config", cfg]
    if command == "evaluate":
        manifest["test_evaluated"] = False  # as before the TEST evaluation
        name = "proto_00.pcm"
    else:
        argv += ["--segment", segment]
        name = "refit_global.pcm"
    path = os.path.join(run_dir, "checkpoints", name)
    with open(path, "rb") as fh:
        original = fh.read()
    params, w, mode = model.load_checkpoint(path)
    assert (params.hidden, w, mode) == (8, 6, "point")
    if swap == "hidden":
        params = model.init_params(params.p_dim, params.latent, 5,
                                   params.n_levels, 0)
    model.save_checkpoint(params, 5 if swap == "window" else w,
                          "quantile" if swap == "mode" else mode, path)
    capsys.readouterr()
    try:
        assert exit_code_with_manifest(run_dir, manifest, argv) == 3
    finally:
        with open(path, "wb") as fh:
            fh.write(original)
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err
    assert f"checkpoint {path} is not the run's model" in err


@pytest.mark.parametrize("calibration", [
    {"target": 0.8}, {"target": 0.8, "factors": {"1": "x", "3": 1.0}},
    {"target": 0.8, "factors": {"h1": 1.0, "3": 1.0}}, None,
    # factors that would serve a NaN, collapsed or inverted fan, and a
    # target that is no coverage level
    {"target": 0.8, "factors": {"1": float("nan"), "3": 1.0}},
    {"target": 0.8, "factors": {"1": 0.0, "3": 1.0}},
    {"target": 0.8, "factors": {"1": -2.0, "3": 1.0}},
    {"target": 1.5, "factors": {"1": 1.0, "3": 1.0}}])
def test_malformed_calibration_is_a_data_error(served_quantile_run, capsys,
                                               calibration):
    cfg, run_dir, segment = served_quantile_run
    manifest = pipeline.load_manifest(run_dir)
    assert set(manifest["calibration"]["factors"]) == {"1", "3"}
    manifest["calibration"] = calibration
    capsys.readouterr()
    assert exit_code_with_manifest(run_dir, manifest, [
        "forecast-new", "--config", cfg, "--segment", segment]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err
    assert "'calibration'" in err


def test_uncalibrated_horizon_fails_before_any_read(served_quantile_run,
                                                   capsys, monkeypatch):
    """A horizon evaluate did not calibrate is refused from the manifest
    alone: no checkpoint is read, and neither is the segment, which here
    does not exist."""
    cfg, run_dir, _ = served_quantile_run

    def no_checkpoint(path):
        raise AssertionError(f"checkpoint read: {path}")

    monkeypatch.setattr(model, "load_checkpoint", no_checkpoint)
    capsys.readouterr()
    assert cli.main(["forecast-new", "--config", cfg, "--set", "horizons=1,2",
                     "--segment", os.path.join(run_dir, "no_such_segment.csv")]
                    ) == 2
    err = capsys.readouterr().err
    assert "horizon 2 was not calibrated by evaluate (calibrated: [1, 3])" in err
    assert "Traceback" not in err


def test_retraining_an_evaluated_run_is_a_protocol_error(tmp_path, data_dir,
                                                         capsys):
    """A second prepare, train or select-k would write a fresh manifest and
    so reset the spent TEST marker; each exits 5 and writes nothing."""
    run_dir = str(tmp_path / "r")
    cfg = write_config(tmp_path, data_dir, run_dir,
                       "k = 2\nk_candidates = 2\nselection_seeds = 0\n")
    assert cli.main(["select-k", "--config", cfg]) == 0
    assert cli.main(["evaluate", "--config", cfg]) == 0
    spent = run_bytes(run_dir)
    capsys.readouterr()
    for command in ("prepare", "train", "select-k", "evaluate"):
        assert cli.main([command, "--config", cfg]) == 5
        err = capsys.readouterr().err
        assert err.startswith("protocol violation:") and "Traceback" not in err
        assert run_bytes(run_dir) == spent
    # a manifest that cannot be read is not overwritten either
    with open(os.path.join(run_dir, "manifest.json"), "w") as fh:
        fh.write("{not json")
    assert cli.main(["prepare", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        assert fh.read() == "{not json"


@pytest.mark.parametrize("command,target", [
    ("train", os.path.join("checkpoints", "global.pcm")),
    ("select-k", "selection.csv")])
def test_unwritable_train_output_is_a_data_error(tmp_path, data_dir, capsys,
                                                 command, target):
    run_dir = tmp_path / "r"
    (run_dir / target).mkdir(parents=True)  # a directory where a file goes
    cfg = write_config(tmp_path, data_dir, str(run_dir),
                       "k = 2\nk_candidates = 2\nselection_seeds = 0\n")
    capsys.readouterr()
    assert cli.main([command, "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err
    assert f"cannot write {run_dir / target}" in err


def test_cli_synth_and_report(tmp_path, capsys):
    out = tmp_path / "synthcli"
    assert cli.main(["synth", "--out", str(out), "--n-series", "6",
                     "--n-times", "60", "--n-components", "2",
                     "--k", "2", "--seed", "1"]) == 0
    assert (out / "series" / "s0000_r0.csv").exists()
    labels = (out / "labels.csv").read_text().splitlines()
    assert labels[0] == "series,regime"
    assert len(labels) == 7
    capsys.readouterr()


def test_cli_parser_keeps_no_state_between_calls(tmp_path, data_dir, capsys,
                                                 monkeypatch):
    """One parser serves every call in a process; no call sees the
    arguments of an earlier one."""
    path = write_config(tmp_path, data_dir, str(tmp_path / "r"))
    segment = os.path.join(data_dir, "s0000_r0.csv")
    seen = []

    def record(cfg, segment_path, out_path=None):
        seen.append((out_path, cfg.gamma, cfg.seed))
        return {"routed_model": "global"}

    def help_text(argv):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv + ["--help"])
        assert exit_info.value.code == 0
        return capsys.readouterr().out

    monkeypatch.setattr(pipeline, "cmd_forecast_new", record)
    helps = [help_text(argv) for argv in ([], ["forecast-new"], ["synth"])]
    base = ["forecast-new", "--config", path, "--segment", segment]
    assert cli.main(base + ["--out", "A"]) == 0
    assert cli.main(base) == 0
    assert cli.main(base + ["--set", "gamma=0.2", "--set", "seed=4"]) == 0
    assert cli.main(base) == 0
    assert seen == [("A", 0.05, 0), (None, 0.05, 0), (None, 0.2, 4),
                    (None, 0.05, 0)]
    assert cli.build_parser() is cli.build_parser()
    capsys.readouterr()
    assert [help_text(argv) for argv in ([], ["forecast-new"], ["synth"])] == helps
