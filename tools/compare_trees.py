"""Compare two output trees of ``tools/output_tree.py`` number by number.

Usage: python tools/compare_trees.py TREE_A TREE_B

Prints one line for every file present in both trees:

* ``.json``: the largest relative difference ``|a - b| / max(|a|, |b|)``
  over the numbers at the same place in both documents;
* ``.csv``: the largest difference of a cell over the largest magnitude of
  its column in either tree, a sampled field's relative difference;
* any other file: whether its bytes are identical.

Each number line gives the absolute difference at the worst place and where
it is; a difference that is not in a number (a string, a key, a list length,
a header, a row count) is reported as ``text differs at ...``.  Then it
lists the files present in only one tree.  The last line is ``no
difference`` when the two trees agree everywhere, otherwise a count of what
differs.  The exit code is always 0.
"""

import csv
import json
import math
import sys
from pathlib import Path


class _Worst:
    """The largest relative difference seen in one file, and the first
    difference that is not in a number."""

    def __init__(self):
        self.rel = 0.0
        self.abs = 0.0
        self.where = None
        self.text = None

    def number(self, a, b, scale, where):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        diff = abs(a - b)
        rel = diff / scale if math.isfinite(diff) else math.inf
        if self.where is None or rel > self.rel:
            self.rel, self.abs, self.where = rel, diff, where

    def other(self, where):
        if self.text is None:
            self.text = where

    def report(self):
        if self.where is None and self.text is None:
            return "identical"
        parts = []
        if self.where is not None:
            parts.append(f"max rel {self.rel:.3g} (abs {self.abs:.3g}) at {self.where}")
        if self.text is not None:
            parts.append(f"text differs at {self.text}")
        return "; ".join(parts)


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _walk(a, b, where, worst):
    if _is_number(a) and _is_number(b):
        worst.number(float(a), float(b), max(abs(a), abs(b)), where or "top")
    elif isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            worst.other(f"{where or 'top'} keys")
        for key in (k for k in a if k in b):
            _walk(a[key], b[key], f"{where}.{key}" if where else key, worst)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            worst.other(f"{where or 'top'} length")
        for i, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, f"{where}[{i}]", worst)
    elif a != b:
        worst.other(where or "top")


def _float(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _compare_csv(text_a, text_b, worst):
    rows_a = list(csv.reader(text_a.splitlines()))
    rows_b = list(csv.reader(text_b.splitlines()))
    if rows_a[:1] != rows_b[:1]:
        worst.other("header")
    if len(rows_a) != len(rows_b):
        worst.other("row count")
    header = rows_a[0] if rows_a else []
    body = list(zip(rows_a[1:], rows_b[1:]))
    for col, name in enumerate(header):
        pairs = [(line, _float(ra[col]), _float(rb[col]), ra[col], rb[col])
                 for line, (ra, rb) in enumerate(body, start=2)
                 if col < len(ra) and col < len(rb)]
        scale = max((abs(v) for _, x, y, _, _ in pairs for v in (x, y)
                     if v is not None and math.isfinite(v)), default=0.0)
        for line, x, y, raw_a, raw_b in pairs:
            if x is None or y is None:
                if raw_a != raw_b:
                    worst.other(f"line {line} column {name}")
            else:
                worst.number(x, y, scale, f"line {line} column {name}")


def compare_file(path_a, path_b):
    """One-line difference report of two files of the same name."""
    bytes_a, bytes_b = path_a.read_bytes(), path_b.read_bytes()
    worst = _Worst()
    if bytes_a == bytes_b:
        return worst.report()
    if path_a.suffix == ".json":
        try:
            doc_a, doc_b = json.loads(bytes_a), json.loads(bytes_b)
        except ValueError:
            worst.other("unparsable JSON")
        else:
            _walk(doc_a, doc_b, "", worst)
    elif path_a.suffix == ".csv":
        _compare_csv(bytes_a.decode("utf-8"), bytes_b.decode("utf-8"), worst)
    else:
        worst.other("bytes")
    if worst.where is None and worst.text is None:
        worst.other("formatting only")
    return worst.report()


def _files(root):
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def main(argv):
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 0
    a, b = Path(argv[1]), Path(argv[2])
    files_a, files_b = _files(a), _files(b)
    differ = 0
    for name in sorted(files_a & files_b):
        line = compare_file(a / name, b / name)
        differ += line != "identical"
        print(f"{name}: {line}")
    only_a, only_b = sorted(files_a - files_b), sorted(files_b - files_a)
    for name in only_a:
        print(f"only in {a}: {name}")
    for name in only_b:
        print(f"only in {b}: {name}")
    if differ or only_a or only_b:
        print(f"{differ} files differ, {len(only_a)} only in {a}, "
              f"{len(only_b)} only in {b}")
    else:
        print("no difference")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
