import csv
import json
import os

import pytest

from poolcast import cli, pipeline
from poolcast.pipeline import ConfigError, ProtocolError, RunConfig

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


def test_config_rejects_bad_values(tmp_path, data_dir):
    path = write_config(tmp_path, data_dir, tmp_path / "r")
    with pytest.raises(ConfigError):
        RunConfig.from_file(path, overrides=["epochs=three"])
    with pytest.raises(ConfigError):
        RunConfig.from_file(path, overrides=["method=magic"])
    with pytest.raises(ConfigError):
        RunConfig.from_file(path, overrides=["mode=fuzzy"])


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
    path = write_config(tmp_path, data_dir, tmp_path / "rcsv",
                        f"method = {method}\n")
    cfg = RunConfig.from_file(path)
    pipeline.cmd_select_k(cfg)
    with open(os.path.join(cfg.run_dir, "selection.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    table = pipeline.load_manifest(cfg.run_dir)["selection_table"]
    assert len(rows) == len(table) == 4
    for row, ref in zip(rows, table):
        for key in ("k", "seed", "sel_abs", "sel_pen", "global_risk",
                    "iterations"):
            assert float(row[key]) == ref[key]
        assert row["converged"] == str(ref["converged"])


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
    assert os.path.exists(manifest["checkpoint_global"])
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


def test_single_use_test_protocol(tmp_path, data_dir):
    run_dir = str(tmp_path / "once")
    path = write_config(tmp_path, data_dir, run_dir, "k = 2\n")
    cfg = RunConfig.from_file(path)
    pipeline.cmd_train(cfg)
    pipeline.cmd_evaluate(cfg)
    with pytest.raises(ProtocolError, match="already evaluated"):
        pipeline.cmd_evaluate(cfg)


def test_evaluate_checks_config_identity(tmp_path, data_dir):
    run_dir = str(tmp_path / "ident")
    path = write_config(tmp_path, data_dir, run_dir, "k = 2\n")
    cfg = RunConfig.from_file(path)
    pipeline.cmd_train(cfg)
    changed = RunConfig.from_file(path, overrides=["hidden=16"])
    with pytest.raises(ConfigError, match="hidden"):
        pipeline.cmd_evaluate(changed)


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
    ma_s = json.dumps({k: v for k, v in ma.items() if "checkpoint" not in k
                       and k != "report"}, sort_keys=True)
    mb_s = json.dumps({k: v for k, v in mb.items() if "checkpoint" not in k
                       and k != "report"}, sort_keys=True)
    assert ma_s == mb_s


def test_individual_method_flow(tmp_path, data_dir):
    run_dir = str(tmp_path / "indiv")
    path = write_config(tmp_path, data_dir, run_dir,
                        "method = individual\nepochs = 2\n")
    cfg = RunConfig.from_file(path)
    pipeline.cmd_train(cfg)
    manifest = pipeline.load_manifest(run_dir)
    assert len(manifest["individual_checkpoints"]) == 9
    manifest = pipeline.cmd_evaluate(cfg)
    report = json.load(open(os.path.join(run_dir, "report.json")))
    assert {r["method"] for r in report["rows"]} == {"global", "individual"}


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

    run_dir = str(tmp_path / "cli_run")
    good = write_config(tmp_path, data_dir, run_dir, "k = 2\n")
    assert cli.main(["train", "--config", good]) == 0
    assert cli.main(["evaluate", "--config", good]) == 0
    assert cli.main(["evaluate", "--config", good]) == 5
    capsys.readouterr()


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
