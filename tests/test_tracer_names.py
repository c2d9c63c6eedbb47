"""The benchmark tracer wraps program functions by (module, attribute)
name, so each of those names must stay importable."""

import importlib
import importlib.util
from functools import reduce
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_names() -> list[tuple[str, str]]:
    if not TRACER.exists():
        return []
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [*tracer.SPANS, *tracer.LEAVES]


_NAMES = _traced_names()


@pytest.mark.parametrize("module,attr", _NAMES, ids=[".".join(n) for n in _NAMES])
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(f"ropscope.{module}")
    assert callable(reduce(getattr, attr.split("."), owner))
