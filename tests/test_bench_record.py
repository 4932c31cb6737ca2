import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_record", os.path.join(ROOT, "tools", "bench_record.py"))
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def result(seed, protocol_s, route_p50_ms, digest, failed_share=0.0,
           src_sha=None):
    """A results file of perfbench/run.py, cut to the keys the tool reads;
    by default of this checkout's src/ tree."""
    if src_sha is None:
        src_sha = bench_record.src_sha256()
    return {
        "meta": {"workload": "sweep-point", "seed": seed, "commit": None,
                 "src_sha256": src_sha, "src_lines": 3311, "nproc": 2,
                 "blas": {"name": "openblas", "version": "0.3",
                          "lib directory": "/somewhere/lib"}},
        "metrics": {"protocol_s": protocol_s, "route_p50_ms": route_p50_ms},
        "digest": digest, "failed_share": failed_share,
        "attempted": 10, "failed": 0, "samples": {}, "failures": [],
    }


def write(tmp_path, name, record):
    path = tmp_path / name
    path.write_text(json.dumps(record))
    return str(path)


def test_two_runs_fold_into_medians_iqrs_digests_and_line_counts(tmp_path):
    paths = [write(tmp_path, "b.json", result(4, 3.0, 2.0, "d4", 0.25)),
             write(tmp_path, "a.json", result(3, 2.0, 5.0, "d3"))]
    out = tmp_path / "BENCH_1.json"
    assert bench_record.main(["--out", str(out)] + paths) == 0
    bench = json.loads(out.read_text())
    sweep = bench["workloads"]["sweep-point"]
    # two runs: the median is their mean, the IQR half their distance
    assert sweep["metrics"] == {"protocol_s": {"median": 2.5, "iqr": 0.5},
                                "route_p50_ms": {"median": 3.5, "iqr": 1.5}}
    assert sweep["runs"] == [
        {"seed": 3, "digest": "d3", "failed_share": 0.0},
        {"seed": 4, "digest": "d4", "failed_share": 0.25}]
    # the tree and host once, without per-run keys or install locations
    assert bench["meta"] == {"commit": None,
                             "src_sha256": bench_record.src_sha256(),
                             "src_lines": 3311, "nproc": 2,
                             "blas": {"name": "openblas", "version": "0.3"}}
    lines = bench["src_lines"]
    assert "data.py" in lines["files"] and "cli.py" in lines["files"]
    assert lines["total"] == sum(lines["files"].values())
    with open(os.path.join(ROOT, "src", "poolcast", "data.py")) as fh:
        assert lines["files"]["data.py"] == len(fh.readlines())


def test_results_of_different_trees_are_refused(tmp_path, capsys):
    paths = [write(tmp_path, "a.json", result(3, 2.0, 5.0, "d3")),
             write(tmp_path, "b.json", result(4, 3.0, 2.0, "d4", src_sha="x"))]
    out = tmp_path / "BENCH_1.json"
    assert bench_record.main(["--out", str(out)] + paths) == 2
    assert "different src/ trees" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValueError, match="no results"):
        bench_record.fold([])


def test_results_of_another_tree_than_this_checkout_are_refused(tmp_path,
                                                                capsys):
    paths = [write(tmp_path, name, result(seed, 2.0, 5.0, "d", src_sha="abc"))
             for seed, name in ((3, "a.json"), (4, "b.json"))]
    out = tmp_path / "BENCH_1.json"
    assert bench_record.main(["--out", str(out)] + paths) == 2
    assert "another src/ tree than this checkout's" in capsys.readouterr().err
    assert not out.exists()
