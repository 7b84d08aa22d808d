"""The README's library tour runs as written, in a fresh interpreter, and its
character-table examples parse and pass the axioms.

A name the library no longer has, left in the tour, fails here, and so does
a table example the parser no longer reads, a quadrature figure that the
library no longer has, or an error category and exit code that the error
types no longer carry.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from hypergroups import (
    CapacityError,
    HypergroupError,
    InvalidTableError,
    NumericError,
    UsageError,
    check_axioms,
    finite_group_dual,
    parse_character_table,
    su2num,
)

ROOT = Path(__file__).resolve().parent.parent


def test_library_tour_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", blocks[0]], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_table_format_examples_parse_and_pass_the_axioms():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Character table file format", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```json\n(.*?)```", section, re.S)
    assert len(blocks) >= 2
    for block in blocks:
        table = parse_character_table(json.loads(block))
        dual = finite_group_dual(table)
        assert check_axioms(dual, dual.universe).ok, table.name


def test_quadrature_figures_match_the_library():
    # wrapped lines joined, so a figure may break across them
    text = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    chunks = re.findall(r"`su2num\.CHUNK_PIECES` \(([\d ]+)\)", text)
    assert chunks and {int(c.replace(" ", "")) for c in chunks} == {su2num.CHUNK_PIECES}
    nodes = re.findall(r"(\d+) nodes a piece", text)
    assert nodes and {int(n) for n in nodes} == {su2num.QUADRATURE_LADDER[0][0]}
    for kind, unit, size in [("batches", "nodes", su2num._BATCH_NODES),
                             ("runs", "brackets", su2num.CHUNK_PIECES // 2)]:
        blocks = re.findall(rf"{kind} of ([\d ]+) {unit}", text)
        assert blocks and {int(b.replace(" ", "")) for b in blocks} == {size}, unit


def test_error_categories_match_the_error_types():
    text = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    listed = re.findall(r"`([a-z-]+)` \((\d)\)", text)
    types = (UsageError, InvalidTableError, CapacityError, NumericError, HypergroupError)
    assert listed == [(t.category, str(t.exit_code)) for t in types]
