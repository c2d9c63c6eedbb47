"""Smoke tests for the experiment scripts under scripts/."""

import hashlib
import importlib.util
import json
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


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--generate", "--functions", "4", "--intervals", "100", "0"],
         "interval must be positive"),
        (["--generate", "--functions", "0"], "need at least one function"),
        (["--generate", "--functions", "4", "--max-len", "0"],
         "max_len must be at least 1"),
    ],
    ids=["zero-interval", "no-functions", "zero-max-len"],
)
def test_convergence_study_refuses_bad_options_before_work(
    convergence_study, capsys, monkeypatch, argv, message
):
    # Nothing is generated and no start is harvested before the refusal.
    monkeypatch.setattr(convergence_study, "generate", None)
    code = convergence_study.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {message}\n"


def test_convergence_study_missing_snapshot_exits_1(
    convergence_study, capsys, tmp_path
):
    code = convergence_study.main([str(tmp_path / "missing.rsnp")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--programs", "0"], "--programs must be at least 1"),
        (["--programs", "1", "--mix-scale", "-1"],
         "gadget_mix count of LR must be non-negative"),
        (["--programs", "1", "--functions", "0"],
         "need at least one function"),
        (["--programs", "1", "--max-len", "0"], "max_len must be at least 1"),
    ],
    ids=["no-programs", "negative-mix-scale", "no-functions", "zero-max-len"],
)
def test_scheme_comparison_refuses_bad_options_before_work(
    capsys, monkeypatch, argv, message
):
    module = _load("run_scheme_comparison")
    monkeypatch.setattr(module, "generate", None)
    code = module.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {message}\n"


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


# Byte-for-byte pins of the scripts' outputs, as in test_golden_outputs.py.
SCRIPT_GOLDEN = {
    "convergence_study": "fca94dc7ecedb0bee1a78f7bed47c643ccbc8dd0aaf6dc6cae0acd6a7da46577",
    "scheme_comparison": "387faedb77431c920cdfb86683ef400d8af9ce2aeee2e4da98565cb52e752fe2",
    "scheme_comparison_json": "9d44b9a3ba44a215a4e96d63df3960df6e088ba4d53af5e37e897441e0a65aea",
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_convergence_study_seeded_output(convergence_study, capsys):
    code = convergence_study.main([
        "--generate", "--seed", "7", "--start-seed", "7",
        "--intervals", "200", "400",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "interval 400: " in out
    assert _digest(out.encode()) == SCRIPT_GOLDEN["convergence_study"]


def test_scheme_comparison_output(capsys, tmp_path, monkeypatch):
    # A relative path keeps the "wrote PATH" line the same on every run.
    monkeypatch.chdir(tmp_path)
    code = _load("run_scheme_comparison").main(
        ["--programs", "3", "--seed", "2", "--json", "comparison.json"]
    )
    out = capsys.readouterr().out
    path = tmp_path / "comparison.json"
    assert code == 0
    assert len(json.loads(path.read_text())["rows"]) == 3
    assert _digest(out.encode()) == SCRIPT_GOLDEN["scheme_comparison"]
    assert _digest(path.read_bytes()) == SCRIPT_GOLDEN["scheme_comparison_json"]
