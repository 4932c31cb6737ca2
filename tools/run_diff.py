"""Compare two run trees file by file.

    python3 tools/run_diff.py A B

A and B are directories, such as the run directories
``.perfbench/work/<workload>/r_<method>`` that two checkouts' benchmark runs
leave behind. Compare those, not the whole work trees: a work tree's
``route.json`` is the reply to the last ``forecast-new`` request, so it
differs whenever the two runs served a different number of requests. The
tool prints every file present in only one tree, every file whose bytes
differ and, for a ``.json`` file that differs, each key path whose value
differs (``a.b[2].c``; a key present on one side only counts as differing).
It exits 0 when the trees hold the same files with the same bytes and 1
otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def tree_files(root: str) -> dict:
    """Every file below ``root``: its path relative to ``root`` -> its bytes."""
    files = {}
    for base, dirs, names in os.walk(root):
        dirs.sort()
        for name in sorted(names):
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


def json_diff(a, b, path: str = "") -> list[str]:
    """The key paths below which two parsed JSON values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}" if path else key
            out += json_diff(a[key], b[key], sub) if key in a and key in b else [sub]
        return out
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [p for i, (x, y) in enumerate(zip(a, b))
                for p in json_diff(x, y, f"{path}[{i}]")]
    # as JSON text: in Python true == 1 == 1.0, and NaN != NaN
    return [] if json.dumps(a) == json.dumps(b) else [path or "(root)"]


def diff_trees(a: str, b: str) -> list[str]:
    """The report lines of :func:`main`; empty when the trees are identical."""
    fa, fb = tree_files(a), tree_files(b)
    lines = [f"only in {a}: {p}" for p in sorted(set(fa) - set(fb))]
    lines += [f"only in {b}: {p}" for p in sorted(set(fb) - set(fa))]
    for p in sorted(set(fa) & set(fb)):
        if fa[p] == fb[p]:
            continue
        lines.append(f"bytes differ: {p}")
        if p.endswith(".json"):
            try:
                keys = json_diff(json.loads(fa[p]), json.loads(fb[p]))
            except ValueError:
                lines.append("  not valid JSON on both sides")
                continue
            lines += [f"  {key}" for key in keys]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", help="first run tree")
    parser.add_argument("b", help="second run tree")
    args = parser.parse_args(argv)
    for root in (args.a, args.b):
        if not os.path.isdir(root):
            parser.error(f"not a directory: {root}")
    lines = diff_trees(args.a, args.b)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
