"""Byte-for-byte pins of canonical CLI output on small seeded synthetic corpora.

Each digest is the sha256 of one canonical output (stdout or a file the
command writes). A refactor that keeps the measured quantities keeps every
digest; a change that is meant to move an output must update its digest and
say why.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout

import pytest

from ropscope.cli import main

GOLDEN = {
    "compare": "c76a4b531372f6f94773beacb699a0537902a43b01d65aa06d631c0f729e2c3e",
    "corrupt_verdicts": "f0caa58df7aba60ce15434c47abd4b2ee13eb7b2606ea59be01085f48691257d",
    "gadgets_tc": "d5c99449c06de9709e1fafc6d8b4248e8d59f9dd0b92f5f3c1934d3a0372e74f",
    "harvest_summary": "2087258e128dce43057f433abdfbc83666599605b2f18a4bc64c627ae1a02740",
    "harvest_tc_summary": "f6f9c95b84516bbc24d35463cdc5b07577cb96f9a1a6b42139d187c04e0665e3",
    "harvest_tc_trace": "f013d16a17b344c7229758ff88a59aec113121d976251d169795f70bec238150",
    "harvest_trace": "0b3e9caa1919d59d156918fb265d546d31a606a11a3116d8f1141df6aa0e8aed",
    "starts": "dc4f66472eb5526d757e958568450efa43d5ae9b00590ab122a1025a34c8e0b1",
    "upper_bound": "5cc1aec02068dde8772eaff81ce86b551ccf7b7590d3ea7195da606de6b4740e",
    "upper_bound_timeline": "86b4201ff5061cbc0ccd38d509abcdaa122895b266a5188610e0eb8b32e9d882",
    "upper_bound_wide": "a4e9149af5ed6d931a0e62e42426753864104f128249f50a0528178cb3c0c66f",
    "upper_bound_wide_timeline": "a6a714681e21ca228952c09d487e4ea65d24d07d4e3a0f2449cdc0bdfe1df5b4",
}


def _run(argv) -> bytes:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([str(a) for a in argv])
    assert code == 0, argv
    return buf.getvalue().encode()


def _generate(out_dir, *extra) -> None:
    _run(["synth", "generate", "--out-dir", out_dir, *extra])


def produce_outputs(root) -> dict[str, bytes]:
    """Run every pinned command on corpora generated under root."""
    packed = root / "packed"
    _generate(packed, "--seed", "7", "--functions", "12",
              "--max-functions-per-page", "3",
              "--schemes", "coarse,instruction")
    sparse = root / "sparse"
    _generate(sparse, "--seed", "11", "--functions", "6",
              "--max-functions-per-page", "1")
    # One function per page on 24 pages: starts share most of their pages.
    wide = root / "wide"
    _generate(wide, "--seed", "5", "--functions", "24",
              "--max-functions-per-page", "1")
    packed_snap = packed / "baseline.rsnp"
    sparse_snap = sparse / "baseline.rsnp"

    out: dict[str, bytes] = {}
    for key, extra in (("harvest", []), ("harvest_tc", ["--set", "tc"])):
        trace = root / f"{key}.jsonl"
        out[f"{key}_summary"] = _run([
            "harvest", packed_snap, "--start", "0x400000", "--max-len", "10",
            "--trace", trace, *extra,
        ])
        out[f"{key}_trace"] = trace.read_bytes()
    timeline = root / "timeline.csv"
    out["upper_bound"] = _run([
        "upper-bound", sparse_snap, "--set", "tc", "--max-len", "10",
        "--timeline-csv", timeline,
    ])
    out["upper_bound_timeline"] = timeline.read_bytes()
    wide_timeline = root / "wide_timeline.csv"
    out["upper_bound_wide"] = _run([
        "upper-bound", wide / "baseline.rsnp", "--set", "tc", "--max-len", "10",
        "--timeline-csv", wide_timeline,
    ])
    out["upper_bound_wide_timeline"] = wide_timeline.read_bytes()
    out["gadgets_tc"] = _run(["gadgets", packed_snap, "--set", "tc"])
    out["corrupt_verdicts"] = _run(
        ["corrupt", packed_snap, "--format", "verdicts"]
    )
    out["compare"] = _run([
        "compare", "--manifest", packed / "manifest.json", "--max-len", "10",
    ])
    out["starts"] = _run(
        ["starts", packed_snap, "--start-strategy", "seeded", "--seed", "3"]
    )
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return produce_outputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_digest(outputs, name):
    assert hashlib.sha256(outputs[name]).hexdigest() == GOLDEN[name]


def test_pinned_outputs_are_not_trivial(outputs):
    # A digest of an empty or degenerate report would pin nothing useful.
    summary = json.loads(outputs["harvest_tc_summary"])
    assert summary["pages_found"] > 1 and summary["type_clocks"]
    bound = json.loads(outputs["upper_bound"])
    assert bound["converged_starts"] > 0
    wide = json.loads(outputs["upper_bound_wide"])
    assert wide["starts"] == 24 and wide["converged_starts"] > 0
    assert len(json.loads(outputs["starts"])) > 1
    assert outputs["corrupt_verdicts"].count(b"\n") > 10
