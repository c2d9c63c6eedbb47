"""Byte-for-byte pins of canonical CLI output on small seeded synthetic corpora.

Each digest is the sha256 of one canonical output (stdout or a file the
command writes). A refactor that keeps the measured quantities keeps every
digest; a change that is meant to move an output must update its digest and
say why.
"""

import hashlib
import io
import json
import random
from contextlib import redirect_stdout

import pytest

from helpers import GOLDEN_CORPORA
from ropscope.cli import main
from ropscope.snapshot import (
    PAGE_SIZE,
    RO,
    RW,
    ImageBuilder,
    SegmentTag,
    load_snapshot,
    save_snapshot,
)

GOLDEN = {
    "compare": "c76a4b531372f6f94773beacb699a0537902a43b01d65aa06d631c0f729e2c3e",
    "compare_pretty": "0d39e58232a58ae4f84159a9910c360034d5d8f6a24dfb40dc4be5c967b46e89",
    "corrupt_csv": "dd20634cc433cd7a2019d12ed564efc38d8e64a6c7bfc8ba27a592af98ab97bc",
    "corrupt_json": "8029b6992ba81cfa629c902561f38a0aa888c2fbb107a2a9c490aa23ba784689",
    "corrupt_verdicts": "f0caa58df7aba60ce15434c47abd4b2ee13eb7b2606ea59be01085f48691257d",
    "gadgets_csv": "74eddb5c87489f2c7a056cf1ad0bf552a14a4591d9d395b10eae92068538a377",
    "gadgets_tc": "d5c99449c06de9709e1fafc6d8b4248e8d59f9dd0b92f5f3c1934d3a0372e74f",
    "harvest_stop_summary": "78b9593fd7cbde4fe478c5f09eb0208f48c9e9b199d962b3fa69ee066b90647c",
    "harvest_stop_trace": "c42edaa61a02c7ee6623b605631e4628d1ffd5523d09db3190109ba7be81048d",
    "harvest_summary": "2087258e128dce43057f433abdfbc83666599605b2f18a4bc64c627ae1a02740",
    "harvest_tc_pretty": "a0e465450e531ca89269728f5f7b5ee203f5aba88fad9984f33fe55174f12637",
    "harvest_tc_summary": "f6f9c95b84516bbc24d35463cdc5b07577cb96f9a1a6b42139d187c04e0665e3",
    "harvest_tc_trace": "f013d16a17b344c7229758ff88a59aec113121d976251d169795f70bec238150",
    "harvest_trace": "0b3e9caa1919d59d156918fb265d546d31a606a11a3116d8f1141df6aa0e8aed",
    "scan_any_target_csv": "64354ae756ba48d44d77b1915c5239134d5bf57a224ea4b8067556234c1f0eaa",
    "scan_csv": "3bb23a57c6e8fab13d19620c88732bfb2d8f65df2eae9bec40f47747cd17e67f",
    "scan_json": "ac66434feb0e1710e9e0c628e31d9d96531611ab67997bc14f078a66f9d3d3bd",
    "starts": "dc4f66472eb5526d757e958568450efa43d5ae9b00590ab122a1025a34c8e0b1",
    "synth/baseline.rsnp": "a25dbcac4c65118a5b7e538b5d8c834733d283af36c278262d8a2611917e8e2f",
    "synth/baseline.truth.json": "ae971222ec2bddebf7024054b23c399263f36d49804b65c11283be387edb308f",
    "synth/block.rsnp": "bcf18b3f9f412fcda1f25d2bb17080b1d6adfc54130c0f0da8355b2cb65c02ed",
    "synth/block.truth.json": "8aed2542245317f5e661c1d563904744ea96f12109aa7d9f0fe154889a28f19c",
    "synth/coarse.rsnp": "70b01edc9fe4f46b188a0f30e68e77381081c4ae61616e238957933e81e81934",
    "synth/coarse.truth.json": "be4089d8267800b14d70b7aeb68e80404f35a23dc043390c07335005202ac9b7",
    "synth/function.rsnp": "6ebb9af1e36478427a8a95f991c8488f8507c61f34f50589be0b3fb634147408",
    "synth/function.truth.json": "96c8c1609bbea45b7481227efd05ea357fa70da42f67f149425682c2b7d9f344",
    "synth/instruction.rsnp": "0cc96410e395de1f1b090f3092c28be9bda0f06a4ce7f7c681d9aa5b8d801ce6",
    "synth/instruction.truth.json": "acbb32590664dbb4c5da1a40af2dfb6959300391cc81ac55f0a0568f3d687eae",
    "synth/manifest.json": "3abfc3c518e29a4dd6eaecc8f0f947ec7fb56f3953f0a37066330f118fa0612a",
    "synth_transform/function-s5-renamed.rsnp": "02611d690dc3431c2cb7a0ec76481a46e857ca21ad80e3f2a0421091596f04be",
    "synth_transform/function-s5-renamed.truth.json": "d6682ca5e31c3415118336e6e51b0c1250597bae21c1bf265961a6df0275679f",
    "synth_transform/manifest.json": "4a558f62381eae9b62e7de45d6a0405aed1a198be02ea0282b56c3d4d6e1f666",
    "upper_bound": "5cc1aec02068dde8772eaff81ce86b551ccf7b7590d3ea7195da606de6b4740e",
    "upper_bound_batches": "1465dc99912cb15ea06faa903180ee8dbec7aa52c2d09ac3a6188dec5bbccfb8",
    "upper_bound_batches_timeline": "8169423eff4b14e2113e40ef0c84ad26de861152b2e62c201bc7ea1eebf719ca",
    "upper_bound_heuristic": "e352e99ef80deef6cd2977e5b70a5e78a024ec71934b6cf4a35ac1b53f200cd0",
    "upper_bound_interval_618": "b428cb54b1d9f1f9a14b6e76e3e9765462290f48917dbabd85994208a370f982",
    "upper_bound_interval_640": "0ffbb4ffd877baef39bf24b5fe207991488b2ac2b42012a0c4e21d44b5abe843",
    "upper_bound_interval_pretty": "8ec4b0af641a9fc20243e6bae4bfb871bcd508232701a688c0354b2c65b3a3cd",
    "upper_bound_seeded": "dbf27bfb5dae2728d9e0d8bbb0ab98c9b518dcaf44c55e48593cddba3f88f670",
    "upper_bound_seeded_timeline": "bf6b07d2ef90eb736d8a081cfd80042f24f0932f7e5754a3e9d41098dc5a9915",
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


def pointer_image(code_snap, seed: int):
    """The code pages of a snapshot plus seeded data pages of every tag,
    one of them a read-only page tagged code. Each data page holds random
    words and, at arbitrary byte offsets, planted pointers into the code,
    into the data pages and into unmapped memory."""
    rng = random.Random(seed)
    builder = ImageBuilder()
    code = load_snapshot(code_snap).pages
    for page in code:
        builder.put(page.base, page.data, perms=page.perms, tag=page.tag)
    code_lo, code_hi = code[0].base, code[-1].end
    data_pages = [
        (0x600000, RW, SegmentTag.HEAP),
        (0x601000, RW, SegmentTag.DATA),
        (0x602000, RO, SegmentTag.CODE),
        (0x603000, RW, SegmentTag.OTHER),
        (0x7FE000, RW, SegmentTag.STACK),
        (0x7FF000, RW, SegmentTag.STACK),
    ]
    for base, perms, tag in data_pages:
        page = bytearray(rng.randbytes(PAGE_SIZE))
        for _ in range(60):
            value = rng.choice([
                rng.randrange(code_lo, code_hi),
                rng.randrange(0x600000, 0x604000),
                rng.randrange(0x7FE000, 0x800000),
                rng.randrange(0x900000, 0xA00000),
            ])
            off = rng.randrange(PAGE_SIZE - 7)
            page[off : off + 8] = value.to_bytes(8, "little")
        builder.put(base, bytes(page), perms=perms, tag=tag)
    return builder.build()


def produce_outputs(root) -> dict[str, bytes]:
    """Run every pinned command on corpora generated under root."""
    for name, options in GOLDEN_CORPORA.items():
        _generate(root / name, *options)
    packed, sparse, wide, batches, layouts = (
        root / name for name in ("packed", "sparse", "wide", "batches", "layouts")
    )
    packed_snap = packed / "baseline.rsnp"
    sparse_snap = sparse / "baseline.rsnp"
    out: dict[str, bytes] = {}
    # The generator's own files, plus one entry that synth transform adds
    # to the manifest.
    for path in sorted(layouts.iterdir()):
        out[f"synth/{path.name}"] = path.read_bytes()
    _run(["synth", "transform", "--manifest", layouts / "manifest.json",
          "--scheme", "function", "--scheme-seed", "5", "--rename-registers"])
    for name in ("function-s5-renamed.rsnp", "function-s5-renamed.truth.json",
                 "manifest.json"):
        out[f"synth_transform/{name}"] = (layouts / name).read_bytes()

    for key, extra in (("harvest", []), ("harvest_tc", ["--set", "tc"])):
        trace = root / f"{key}.jsonl"
        out[f"{key}_summary"] = _run([
            "harvest", packed_snap, "--start", "0x400000", "--max-len", "10",
            "--trace", trace, *extra,
        ])
        out[f"{key}_trace"] = trace.read_bytes()
    stop_trace = root / "harvest_stop.jsonl"
    out["harvest_stop_summary"] = _run([
        "harvest", packed_snap, "--start", "0x400000", "--max-len", "10",
        "--set", "tc", "--stop-on-convergence", "--trace", stop_trace,
    ])
    out["harvest_stop_trace"] = stop_trace.read_bytes()
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
    # Every type only the heuristic rules give, with windows long enough
    # for BROP's nine and TM's twenty instructions.
    heuristic_set = root / "heuristic_set.json"
    heuristic_set.write_text(json.dumps({
        "name": "heuristic",
        "types": ["BROP", "FS", "CS1", "STOP", "TM", "CS2"],
    }))
    out["upper_bound_heuristic"] = _run([
        "upper-bound", wide / "baseline.rsnp", "--heuristic-types",
        "--set-file", heuristic_set, "--max-len", "20",
    ])
    batches_timeline = root / "batches_timeline.csv"
    out["upper_bound_batches"] = _run([
        "upper-bound", batches / "baseline.rsnp", "--set", "tc",
        "--max-len", "10", "--timeline-csv", batches_timeline,
    ])
    out["upper_bound_batches_timeline"] = batches_timeline.read_bytes()
    # Seeded start choice: one candidate per page drawn with seed 3.
    seeded_timeline = root / "seeded_timeline.csv"
    out["upper_bound_seeded"] = _run([
        "upper-bound", sparse_snap, "--set", "tc", "--max-len", "10",
        "--start-seed", "3", "--timeline-csv", seeded_timeline,
    ])
    out["upper_bound_seeded_timeline"] = seeded_timeline.read_bytes()
    # The fastest start converges at clock 618: an interval of 618 is safe
    # and one of 640 is not.
    for interval in (618, 640):
        out[f"upper_bound_interval_{interval}"] = _run([
            "upper-bound", sparse_snap, "--set", "tc", "--max-len", "10",
            "--interval", interval,
        ])
    out["gadgets_tc"] = _run(["gadgets", packed_snap, "--set", "tc"])
    out["gadgets_csv"] = _run([
        "gadgets", packed_snap, "--format", "csv", "--heuristic-types",
        "--max-len", "10",
    ])
    scan_snap = root / "pointers.rsnp"
    save_snapshot(pointer_image(packed_snap, 5), scan_snap)
    out["scan_json"] = _run(["scan", scan_snap])
    out["scan_csv"] = _run(["scan", scan_snap, "--format", "csv"])
    # Pointers to data pages too, at 4-byte alignment, in one library range.
    out["scan_any_target_csv"] = _run([
        "scan", scan_snap, "--format", "csv", "--any-target",
        "--alignment", "4", "--lib-range", f"{0x400800:#x}:{0x7FF000:#x}",
    ])
    for fmt in ("verdicts", "json", "csv"):
        out[f"corrupt_{fmt}"] = _run(
            ["corrupt", packed_snap, "--format", fmt]
        )
    out["compare"] = _run([
        "compare", "--manifest", packed / "manifest.json", "--max-len", "10",
    ])
    # The human-readable tables.
    out["harvest_tc_pretty"] = _run([
        "harvest", packed_snap, "--start", "0x400000", "--max-len", "10",
        "--set", "tc", "--pretty",
    ])
    out["upper_bound_interval_pretty"] = _run([
        "upper-bound", sparse_snap, "--set", "tc", "--max-len", "10",
        "--interval", "640", "--pretty",
    ])
    out["compare_pretty"] = _run([
        "compare", "--manifest", packed / "manifest.json", "--max-len", "10",
        "--pretty",
    ])
    out["starts"] = _run(
        ["starts", packed_snap, "--start-seed", "3"]
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
    # Stopping on convergence leaks fewer pages than the full run.
    stopped = json.loads(outputs["harvest_stop_summary"])
    assert stopped["converged"] and stopped["pages_found"] < summary["pages_found"]
    bound = json.loads(outputs["upper_bound"])
    assert bound["converged_starts"] > 0
    wide = json.loads(outputs["upper_bound_wide"])
    assert wide["starts"] == 24 and wide["converged_starts"] > 0
    # The heuristic set has types no start finds (no STOP is planted), but
    # each start leaks several of them, BROP and TM included.
    heuristic = json.loads(outputs["upper_bound_heuristic"])
    assert heuristic["starts"] == 24 and heuristic["converged_starts"] == 0
    assert all(
        len(r["type_timeline"]) >= 4 for r in heuristic["per_start"]
    )
    batches = json.loads(outputs["upper_bound_batches"])
    assert batches["starts"] == 30 and batches["converged_starts"] == 30
    assert outputs["upper_bound_batches_timeline"].count(b"\n") == 1 + sum(
        len(r["type_timeline"]) for r in batches["per_start"]
    )
    # Seeded starts are not the lowest candidates.
    seeded = json.loads(outputs["upper_bound_seeded"])
    assert [r["start"] for r in seeded["per_start"]] != [
        r["start"] for r in bound["per_start"]
    ]
    assert len(json.loads(outputs["starts"])) > 1
    # Hits in every tag, and rows with targets both executable and not.
    scan = json.loads(outputs["scan_json"])
    assert len(scan["by_tag"]) == 5 and scan["occurrences"] > 10
    assert outputs["scan_csv"].count(b"\n") == scan["occurrences"] + 1
    any_target = outputs["scan_any_target_csv"]
    assert any_target.count(b",0\n") > 10 and any_target.count(b",1\n") > 10
    assert b"FS=EX" in outputs["gadgets_csv"]
    assert outputs["corrupt_verdicts"].count(b"\n") > 10
    rates = json.loads(outputs["corrupt_json"])
    assert len(rates) > 10 and any(r["corrupted"] for r in rates.values())
    assert outputs["corrupt_csv"].count(b"\n") == len(rates) + 1
    assert [
        json.loads(outputs[f"upper_bound_interval_{n}"])["interval_verdict"]
        ["safety"] for n in (618, 640)
    ] == ["safe", "unsafe"]
    assert b"interval 640: unsafe" in outputs["upper_bound_interval_pretty"]
    assert b"reduction=" in outputs["compare_pretty"]
    manifest = json.loads(outputs["synth_transform/manifest.json"])
    assert [e["name"] for e in manifest["entries"]] == [
        "baseline", "coarse", "function", "block", "instruction",
        "function-s5-renamed",
    ]
    truth = json.loads(outputs["synth/instruction.truth.json"])
    assert truth["planted"] and truth["page_edges"]
