"""tools/compare_trees.py on two small synthetic output trees."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_trees.py"


@pytest.fixture(scope="module")
def compare_trees():
    spec = importlib.util.spec_from_file_location("compare_trees", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root, energy=-1.25, u=(0.5, -2.0), label="T[1,2]", extra=None):
    (root / "vi-solve" / "op0").mkdir(parents=True)
    (root / "exit_codes.txt").write_text("vi-solve/op0 exit 0\n")
    summary = {"energy": energy, "kkt": {"stationarity": 1e-16},
               "contact_upper": [3, 7], "argopt": {"label": label}}
    (root / "vi-solve" / "op0" / "summary.json").write_text(json.dumps(summary))
    rows = "".join(f"{x},{v!r}\n" for x, v in zip((0.0, 1.5), u))
    (root / "vi-solve" / "op0" / "field.csv").write_text("x,u\n" + rows)
    if extra:
        (root / extra).write_text("x\n")
    return root


def _report(module, capsys, a, b):
    assert module.main(["compare_trees.py", str(a), str(b)]) == 0
    return capsys.readouterr().out.splitlines()


def test_identical_trees_report_no_difference(compare_trees, capsys, tmp_path):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    lines = _report(compare_trees, capsys, a, b)
    assert lines[-1] == "no difference"
    assert sorted(lines[:-1]) == [
        "exit_codes.txt: identical",
        "vi-solve/op0/field.csv: identical",
        "vi-solve/op0/summary.json: identical",
    ]


def test_differences_are_located_and_sized(compare_trees, capsys, tmp_path):
    a = _tree(tmp_path / "a", extra="only_a.csv")
    b = _tree(tmp_path / "b", energy=-1.25 * (1 + 4e-12), u=(0.5, -2.0 + 1e-10),
              label="T[1,0]", extra="only_b.csv")
    lines = dict(line.split(": ", 1) for line in
                 _report(compare_trees, capsys, a, b)[:-1])
    summary = lines["vi-solve/op0/summary.json"]
    assert summary.startswith("max rel 4e-12 (abs 5e-12) at energy")
    assert summary.endswith("text differs at argopt.label")
    # a CSV cell is measured against the largest magnitude of its column
    assert lines["vi-solve/op0/field.csv"] == "max rel 5e-11 (abs 1e-10) at line 3 column u"
    assert lines["exit_codes.txt"] == "identical"
    assert lines[f"only in {a}"] == "only_a.csv"
    assert lines[f"only in {b}"] == "only_b.csv"


def test_last_line_counts_what_differs_and_exit_is_zero(tmp_path):
    a = _tree(tmp_path / "a")
    b = _tree(tmp_path / "b", u=(0.5, 2.0), extra="only_b.csv")
    (b / "exit_codes.txt").write_text("vi-solve/op0 exit 3\n")
    run = subprocess.run([sys.executable, str(TOOL), str(a), str(b)],
                         capture_output=True, text=True, check=False)
    assert run.returncode == 0
    lines = run.stdout.splitlines()
    assert "exit_codes.txt: text differs at bytes" in lines
    assert "vi-solve/op0/field.csv: max rel 2 (abs 4) at line 3 column u" in lines
    assert lines[-1] == f"2 files differ, 0 only in {a}, 1 only in {b}"
