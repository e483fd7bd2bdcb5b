"""Compare the artifacts of two CLI runs, file by file.

Usage, from the repository root:

    python3 tools/artifact_diff.py PARENT_DIR CHANGE_DIR

Each DIR holds what `python -m enstrophy_lab --out-dir DIR ...` wrote, or
a tree of such directories.  The two trees must hold the same files.  For
each file the tool prints "identical", or every CSV column and JSON leaf
that differs: for numbers the largest relative change
|c - p| / max(|p|, |c|, FLOOR), for text, row counts and missing keys a
note.  The absolute floor FLOOR = 1e-12 keeps values at round-off level,
such as the solve mode's tail_fraction near 2e-32 or a residual near
1e-14, from reading as large moves: a move between two values below the
floor reads as its size over the floor.
The `config.out_dir` echo of a JSON file is ignored, since it names the
directory the run wrote to.  Files that are neither .csv nor .json are
compared byte for byte.

Exit status: 0 when nothing but the echo differs, 1 when a value differs,
2 when the file sets differ or a .csv or .json file does not parse.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys

# JSON leaves that name the run's own output directory
IGNORED = ("config.out_dir",)
# Magnitude below which a value counts as round-off (see the module text)
FLOOR = 1e-12


def list_files(root):
    """Relative paths of every file under root."""
    found = set()
    for dirpath, _, names in os.walk(root):
        for name in names:
            found.add(os.path.relpath(os.path.join(dirpath, name), root))
    return found


def rel_change(p, c):
    """|c - p| / max(|p|, |c|, FLOOR): 0 when equal (NaN equals NaN), inf
    when only one side is finite or the two infinities differ."""
    if p == c or (math.isnan(p) and math.isnan(c)):
        return 0.0
    if not (math.isfinite(p) and math.isfinite(c)):
        return math.inf
    return abs(c - p) / max(abs(p), abs(c), FLOOR)


def _number(value):
    """value as a float if it is a number (bools are not), else None."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return None


def _merge(diffs, name, p, c):
    """Record in diffs[name] the change from p to c: the largest relative
    change so far for two numbers, "text differs" otherwise."""
    pn, cn = _number(p), _number(c)
    if pn is not None and cn is not None:
        r = rel_change(pn, cn)
        if r > 0 and isinstance(diffs.get(name, 0.0), float):
            diffs[name] = max(diffs.get(name, 0.0), r)
    elif p != c:
        diffs[name] = "text differs"


def read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty CSV")
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("rows of unequal length")
    return rows[0], rows[1:]


def diff_csv(p_text, c_text):
    (p_head, p_rows), (c_head, c_rows) = read_csv(p_text), read_csv(c_text)
    diffs = {}
    if p_head != c_head:
        diffs["header"] = f"{p_head} -> {c_head}"
        return diffs
    if len(p_rows) != len(c_rows):
        diffs["rows"] = f"{len(p_rows)} -> {len(c_rows)}"
    for p_row, c_row in zip(p_rows, c_rows):
        for name, p, c in zip(p_head, p_row, c_row):
            _merge(diffs, name, p, c)
    return diffs


def leaves(node, path=""):
    """(dotted path, value) of every leaf of a parsed JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, f"{path}.{key}" if path else str(key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaves(value, f"{path}[{i}]")
    else:
        yield path, node


def diff_json(p_text, c_text):
    p_leaves = dict(leaves(json.loads(p_text)))
    c_leaves = dict(leaves(json.loads(c_text)))
    for name in IGNORED:
        p_leaves.pop(name, None)
        c_leaves.pop(name, None)
    diffs = {}
    for name in sorted(p_leaves.keys() | c_leaves.keys()):
        if name not in c_leaves:
            diffs[name] = "only in parent"
        elif name not in p_leaves:
            diffs[name] = "only in change"
        else:
            _merge(diffs, name, p_leaves[name], c_leaves[name])
    return diffs


def diff_file(p_path, c_path):
    """{column or leaf: relative change or note}; empty when identical."""
    if p_path.endswith((".csv", ".json")):
        with open(p_path) as fh:
            p_text = fh.read()
        with open(c_path) as fh:
            c_text = fh.read()
        compare = diff_csv if p_path.endswith(".csv") else diff_json
        return compare(p_text, c_text)
    with open(p_path, "rb") as fh:
        p_bytes = fh.read()
    with open(c_path, "rb") as fh:
        c_bytes = fh.read()
    return {} if p_bytes == c_bytes else {"bytes": "differ"}


def main(argv=None):
    args = sys.argv[1:] if argv is None else list(argv)
    if len(args) != 2 or not all(os.path.isdir(d) for d in args):
        print("usage: artifact_diff.py PARENT_DIR CHANGE_DIR",
              file=sys.stderr)
        return 2
    parent, change = args
    p_files, c_files = list_files(parent), list_files(change)
    if p_files != c_files:
        for name in sorted(p_files - c_files):
            print(f"only in parent: {name}", file=sys.stderr)
        for name in sorted(c_files - p_files):
            print(f"only in change: {name}", file=sys.stderr)
        return 2

    status = 0
    for name in sorted(p_files):
        try:
            diffs = diff_file(os.path.join(parent, name),
                              os.path.join(change, name))
        except (ValueError, csv.Error) as err:
            print(f"{name}: does not parse ({err})", file=sys.stderr)
            status = 2
            continue
        if not diffs:
            print(f"{name}: identical")
            continue
        status = max(status, 1)
        print(f"{name}:")
        for key, what in diffs.items():
            text = f"{what:.3g}" if isinstance(what, float) else what
            print(f"  {key}: {text}")
    return status


if __name__ == "__main__":
    sys.exit(main())
