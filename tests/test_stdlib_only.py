"""The package imports only the standard library and itself at runtime."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ropscope"


def _top_level_imports(path: Path) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")), ids=lambda p: p.name
)
def test_module_imports_only_stdlib(path):
    allowed = set(sys.stdlib_module_names) | {"ropscope"}
    assert _top_level_imports(path) - allowed == set()


def test_every_module_is_checked():
    assert len(list(SRC.glob("*.py"))) > 5
