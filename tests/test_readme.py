"""The README's library example runs as written, and its configs are valid."""

import dataclasses
import json
import re
from pathlib import Path

from hingedplate import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_tour():
    """The one ``python`` block of the README's "Library quick tour"."""
    section = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    section = section.split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    return block


def test_library_quick_tour_runs(capsys):
    namespace = {}
    exec(compile(_quick_tour(), str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3
    box, scan = namespace["box"], namespace["scan"]
    assert [f.name for f in dataclasses.fields(box)] == ["lower", "upper"]
    # the guides clip every scanned gap to at most twice their level
    assert 0.0 < scan.value <= 2.0 * 0.01 * (1.0 + 1e-9)


def test_config_examples_are_valid():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", text, flags=re.S)
    assert blocks
    for block in blocks:
        assert cli.validate(json.loads(block)) == []
