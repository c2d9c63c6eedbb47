"""Smoke tests for the experiment scripts under scripts/."""

import importlib.util
from pathlib import Path

import pytest

from ropscope.snapshot import save_snapshot
from ropscope.synth import GenParams, generate, materialize

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def convergence_study():
    return _load("run_convergence_study")


def test_convergence_study_on_generated_program(convergence_study, capsys):
    code = convergence_study.main([
        "--generate", "--functions", "4", "--seed", "7", "--intervals", "100",
    ])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0] == "tracked set: tc (11 types)"
    assert lines[1].split() == ["start", "converged", "clock", "leak%", "pages"]
    assert lines[-1].startswith("interval 100: ")


def test_convergence_study_on_saved_snapshot(convergence_study, capsys, tmp_path):
    image, _ = materialize(generate(GenParams(n_functions=4), 7))
    path = tmp_path / "prog.rsnp"
    save_snapshot(image, path)
    code = convergence_study.main([str(path)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0] == "tracked set: tc (11 types)"
    assert any(line.startswith("minimum clock: ") for line in lines)


def test_scheme_comparison(capsys):
    code = _load("run_scheme_comparison").main(
        ["--programs", "2", "--functions", "6"]
    )
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0].startswith("programs: 2   plants/program: ")
    assert lines[1].split()[:3] == ["scheme", "mean", "reduction"]
    assert [line.split()[0] for line in lines[2:6]] == [
        "coarse", "function", "block", "instruction",
    ]
