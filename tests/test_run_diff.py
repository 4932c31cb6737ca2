"""``tools/run_diff.py`` on two small hand-made run trees."""

import importlib.util
import json
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "run_diff.py")


@pytest.fixture(scope="module")
def run_diff():
    spec = importlib.util.spec_from_file_location("run_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_tree(root, files):
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(content if isinstance(content, bytes)
                         else json.dumps(content).encode())
    return str(root)


MANIFEST = {"standardizer": {"mu": [0.5, 1.0], "sigma": [2.0, 1.0]},
            "flags": [True, False], "k": 2, "report": {"json": "r/report.json"}}
TREE = {"r/manifest.json": MANIFEST,
        "r/checkpoints/global.pcm": b"PCM1\x00\x01",
        "r/report.csv": b"method,mse\nglobal,0.5\n"}


def test_identical_trees_exit_0_and_print_nothing(run_diff, tmp_path, capsys):
    a = make_tree(tmp_path / "a", TREE)
    b = make_tree(tmp_path / "b", TREE)
    assert run_diff.main([a, b]) == 0
    assert capsys.readouterr().out == ""


def test_differences_are_listed_by_file_and_json_key(run_diff, tmp_path, capsys):
    a = make_tree(tmp_path / "a", dict(TREE, **{"r/plots/only_a.csv": b"x\n"}))
    changed = dict(MANIFEST, standardizer=dict(MANIFEST["standardizer"],
                                               fill=[0.25, 1.0]),
                   flags=[True, True], k=2.0)
    b = make_tree(tmp_path / "b", dict(TREE, **{
        "r/manifest.json": changed,
        "r/checkpoints/global.pcm": b"PCM1\x00\x02",
        "r/checkpoints/only_b.pcm": b""}))
    assert run_diff.main([a, b]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"only in {a}: {os.path.join('r', 'plots', 'only_a.csv')}",
        f"only in {b}: {os.path.join('r', 'checkpoints', 'only_b.pcm')}",
        f"bytes differ: {os.path.join('r', 'checkpoints', 'global.pcm')}",
        f"bytes differ: {os.path.join('r', 'manifest.json')}",
        "  flags[1]",
        "  k",                    # 2 and 2.0 are other JSON values
        "  standardizer.fill",    # present on one side only
    ]


def test_json_diff_compares_values_as_json(run_diff):
    nan = float("nan")
    assert run_diff.json_diff({"a": [1, nan]}, {"a": [1, nan]}) == []
    assert run_diff.json_diff({"a": [1, 2]}, {"a": [1, 2, 3]}) == ["a"]
    assert run_diff.json_diff([True], [1]) == ["[0]"]
    assert run_diff.json_diff(1, "1") == ["(root)"]
