"""Every canonical JSON and CSV text is written by ropscope.canonical."""

import ast
import json
import random
from pathlib import Path

import pytest

from ropscope.canonical import csv_text, dumps

SRC = Path(__file__).resolve().parent.parent / "src" / "ropscope"


# The json names that write JSON text.
_JSON_WRITERS = ("dump", "dumps", "JSONEncoder")


def _writes_text_formats(path: Path) -> list[str]:
    """The csv imports and json.dump, json.dumps and json.JSONEncoder uses
    in one module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name == "csv"]
        elif isinstance(node, ast.ImportFrom) and node.module == "csv":
            found.append("from csv")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found += [
                f"from json import {a.name}" for a in node.names
                if a.name in _JSON_WRITERS
            ]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "json"
            and node.attr in _JSON_WRITERS
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
    assert set(found) == {"csv", "json.JSONEncoder"}


def test_formats():
    assert dumps({"b": [1, 2], "a": "x"}) == '{"a":"x","b":[1,2]}'
    assert csv_text(["a", "b"], [[1, "x,y"], ("", 2)]) == 'a,b\n1,"x,y"\n,2\n'


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_floats_are_refused(value):
    # json.dumps would write NaN or Infinity, which no JSON reader accepts.
    with pytest.raises(ValueError):
        dumps({"connectivity": value})
    assert dumps({"connectivity": 0.5}) == '{"connectivity":0.5}'


def _value(rng: random.Random, depth: int):
    """A random JSON value: nested objects and arrays down to `depth`, and
    scalars of every kind, strings with escapes and non-ASCII text."""
    kind = rng.randrange(9 if depth else 6)
    if kind == 0:
        return None
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        return rng.randrange(-2**70, 2**70)
    if kind == 3:
        return rng.uniform(-1e6, 1e6) * 10 ** rng.randrange(-20, 20)
    if kind in (4, 5):
        return "".join(rng.choice('ab"\\\n\t/\x01é漢\U0001f600')
                       for _ in range(rng.randrange(8)))
    if kind in (6, 7):
        return {
            rng.choice(["step", "clock", "b", "a", "é", "", "0x40"]):
            _value(rng, depth - 1) for _ in range(rng.randrange(5))
        }
    return [_value(rng, depth - 1) for _ in range(rng.randrange(5))]


@pytest.mark.parametrize("seed", range(5))
def test_dumps_equals_json_dumps(seed):
    # dumps keeps one encoder; its text is what json.dumps gives with the
    # same options, call after call.
    rng = random.Random(seed)
    for _ in range(200):
        value = _value(rng, 4)
        assert dumps(value) == json.dumps(
            value, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
