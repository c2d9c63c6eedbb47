"""Every canonical JSON and CSV text is written by ropscope.canonical."""

import ast
from pathlib import Path

import pytest

from ropscope.canonical import csv_text, dumps

SRC = Path(__file__).resolve().parent.parent / "src" / "ropscope"


def _writes_text_formats(path: Path) -> list[str]:
    """The csv imports and json.dump/json.dumps uses in one module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name == "csv"]
        elif isinstance(node, ast.ImportFrom) and node.module == "csv":
            found.append("from csv")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found += [
                f"from json import {a.name}" for a in node.names
                if a.name in ("dump", "dumps")
            ]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "json"
            and node.attr in ("dump", "dumps")
        ):
            found.append(f"json.{node.attr}")
    return found


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.name != "canonical.py"),
    ids=lambda p: p.name,
)
def test_only_canonical_writes_json_or_csv(path):
    assert _writes_text_formats(path) == []


def test_guard_sees_the_writers_it_forbids():
    found = _writes_text_formats(SRC / "canonical.py")
    assert set(found) == {"csv", "json.dumps"}


def test_formats():
    assert dumps({"b": [1, 2], "a": "x"}) == '{"a":"x","b":[1,2]}'
    assert csv_text(["a", "b"], [[1, "x,y"], ("", 2)]) == 'a,b\n1,"x,y"\n,2\n'


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_floats_are_refused(value):
    # json.dumps would write NaN or Infinity, which no JSON reader accepts.
    with pytest.raises(ValueError):
        dumps({"connectivity": value})
    assert dumps({"connectivity": 0.5}) == '{"connectivity":0.5}'
