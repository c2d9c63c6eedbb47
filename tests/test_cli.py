"""Command-line interface: outputs, files, and exit codes."""

import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest

from helpers import (
    RW,
    all_layouts_options,
    asm,
    build_elf,
    code_image,
    reference_population_stats,
)
import ropscope.gadgets as gadgets_module
import ropscope.harvest as harvest_module
from ropscope import cli
from ropscope.canonical import dumps
from ropscope.cli import main
from ropscope.disasm import Instruction, Reg
from ropscope.encode import call_rel32, mov_rr, pop_r, ret, syscall
from ropscope.gadgets import BUILTIN_SETS, add_min_fp_reductions
from ropscope.harvest import HarvestOptions, mine_image
from ropscope.snapshot import (
    PAGE_SIZE,
    ImageBuilder,
    SegmentTag,
    load_snapshot,
    save_snapshot,
)
from ropscope.synth import GenParams


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([str(a) for a in argv])
    return code, buf.getvalue()


@pytest.fixture()
def snap(tmp_path):
    # Entry calls each snippet so harvesting reaches all of them.
    a = asm(pop_r(Reg.RBX), ret())
    b = asm(mov_rr(Reg.RDI, Reg.RAX), ret())
    entry_len = 16  # three call rel32 + ret
    code = asm(
        call_rel32(entry_len - 5),                          # -> a
        call_rel32(entry_len + len(a) - 10),                # -> b
        call_rel32(entry_len + len(a) + len(b) - 15),       # -> c
        ret(),
        a, b,
        syscall(), ret(),
    )
    assert len(code) == entry_len + len(a) + len(b) + 3
    image = code_image(code)
    path = tmp_path / "probe.rsnp"
    save_snapshot(image, path)
    return path


def test_harvest_json_and_trace(snap, tmp_path):
    trace_path = tmp_path / "events.jsonl"
    code, out = run(
        ["harvest", snap, "--start", "0x400000", "--trace", trace_path]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pages_found"] == 1
    assert payload["leak_cost"] == 100
    assert payload["leak_cost"] + payload["analysis_cost"] == \
        payload["total_cost"]
    assert {"LR", "MR", "SYS"} <= set(payload["type_clocks"])
    assert all(clock > 100 for clock in payload["type_clocks"].values())

    lines = trace_path.read_text().strip().splitlines()
    header = json.loads(lines[0])
    assert header["start"] == "0x400000"
    assert all(
        set(json.loads(line)) == {"step", "clock", "kind", "payload"}
        for line in lines[1:]
    )


def test_harvest_output_is_canonical_and_stable(snap):
    first = run(["harvest", snap, "--start", "0x400000"])
    second = run(["harvest", snap, "--start", "0x400000"])
    assert first == second
    assert "\n" == first[1][-1]


def test_harvest_pretty(snap):
    code, out = run(["harvest", snap, "--start", "0x400000", "--pretty"])
    assert code == 0
    assert "pages" in out


def test_harvest_invalid_start_exits_2(snap):
    code, _ = run(["harvest", snap, "--start", "0x999000"])
    assert code == 2


def test_missing_snapshot_exits_1(tmp_path):
    code, _ = run(["harvest", tmp_path / "nope.rsnp", "--start", "0x0"])
    assert code == 1


def test_gadgets_json_csv_and_coverage(snap, tmp_path):
    code, out = run(["gadgets", snap, "--format", "json"])
    assert code == 0
    listed = json.loads(out)["gadgets"]
    assert any(g["text"] == "pop rbx; ret" for g in listed)

    out_path = tmp_path / "g.csv"
    code, _ = run(["gadgets", snap, "--format", "csv", "--out", out_path])
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0].startswith("addr,")
    assert len(lines) == len(listed) + 1

    code, out = run(["gadgets", snap, "--set", "movtc"])
    assert code == 0
    coverage = json.loads(out)["coverage"]
    assert coverage["set"] == "movtc"
    assert coverage["converged"] is False  # no stores in the fixture


def test_gadgets_custom_set_file(snap, tmp_path):
    spec = tmp_path / "set.json"
    spec.write_text(json.dumps({"name": "two", "types": ["LR", "SYS"]}))
    code, out = run(["gadgets", snap, "--set-file", spec])
    assert code == 0
    coverage = json.loads(out)["coverage"]
    assert coverage["set"] == "two"
    assert coverage["converged"] is True

    spec.write_text(json.dumps({"name": "bad", "types": ["XX"]}))
    code, _ = run(["gadgets", snap, "--set-file", spec])
    assert code == 2


def test_gadgets_pretty_renders_no_report(snap, monkeypatch):
    """--pretty without --out prints only the summary, so no report row or
    instruction is rendered, and the set is scored once."""
    calls = {"rows": [], "coverage": 0}
    report, set_coverage = cli.image_gadget_report, cli.set_coverage

    def recording_report(image, opts, rows=True):
        calls["rows"].append(rows)
        return report(image, opts, rows)

    def counting_coverage(*args, **kwargs):
        calls["coverage"] += 1
        return set_coverage(*args, **kwargs)

    def refuse(self):
        raise AssertionError("an instruction was rendered")

    monkeypatch.setattr(cli, "image_gadget_report", recording_report)
    monkeypatch.setattr(cli, "set_coverage", counting_coverage)
    monkeypatch.setattr(Instruction, "render", refuse)
    code, out = run(["gadgets", snap, "--pretty", "--set", "tc"])
    assert code == 0
    assert "set tc: converged=" in out
    assert calls == {"rows": [False], "coverage": 1}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "set_args", [[], ["--set", "tc"]], ids=["noset", "tc"]
)
def test_gadgets_out_file_holds_the_stdout_report(
    snap, tmp_path, fmt, set_args
):
    argv = ["gadgets", snap, "--format", fmt, *set_args]
    code, plain = run(argv)
    assert code == 0 and plain.endswith("\n")
    assert run([*argv, "--out", tmp_path / "plain"]) == (0, "")
    assert (tmp_path / "plain").read_text() == plain
    code, pretty = run([*argv, "--pretty", "--out", tmp_path / "pretty"])
    assert (tmp_path / "pretty").read_text() == plain
    assert (code, pretty) == run([*argv, "--pretty"])
    assert pretty.startswith("gadgets mined: ")


@pytest.mark.parametrize(
    "spec",
    [{"name": "n", "types": 5}, {"name": "n", "types": None},
     {"name": "n", "types": {"LM": 1}}, {"name": "n", "types": ["LM", 1]},
     {"name": 5, "types": ["LM"]}, {"name": None, "types": ["LM"]}],
    ids=["types-int", "types-null", "types-object", "types-non-string",
         "name-int", "name-null"],
)
def test_gadgets_malformed_set_file_exits_2(snap, tmp_path, capsys, spec):
    path = tmp_path / "set.json"
    path.write_text(json.dumps(spec))
    code, out = run(["gadgets", snap, "--set-file", path])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        "error: set spec must be an object with a string 'name' and a list "
        "of strings 'types'\n"
    )


def test_upper_bound_interval_and_timeline(snap, tmp_path):
    csv_path = tmp_path / "tl.csv"
    code, out = run([
        "upper-bound", snap, "--set", "movtc", "--interval", "50",
        "--timeline-csv", csv_path,
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["set"] == "movtc"
    assert payload["interval_verdict"]["interval"] == 50
    assert payload["interval_verdict"]["safety"] in ("safe", "unsafe")
    assert csv_path.read_text().startswith("start,clock,types_available")

    again = run([
        "upper-bound", snap, "--set", "movtc", "--interval", "50",
        "--timeline-csv", csv_path,
    ])
    assert again[1] == out


def test_corrupt_reports(snap):
    code, out = run(["corrupt", snap, "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == \
        "type,assessed,corrupted,rate,mean_unique_registers"

    code, out = run(["corrupt", snap, "--format", "verdicts"])
    assert code == 0
    assert out.splitlines()[0].startswith("addr,type,shape")

    code, out = run(["corrupt", snap, "--types", "LR", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["LR"]


def test_scan_segments(tmp_path):
    builder = ImageBuilder()
    builder.put(0x500000, b"\xc3", fill=0x06)
    builder.put(
        0x7FE000, (0x500000).to_bytes(8, "little"), perms=RW,
        tag=SegmentTag.STACK,
    )
    path = tmp_path / "scan.rsnp"
    save_snapshot(builder.build(), path)

    code, out = run(["scan", path])
    assert code == 0
    assert json.loads(out)["occurrences"] == 1

    code, out = run(["scan", path, "--segment", "heap"])
    assert code == 0
    assert json.loads(out)["occurrences"] == 0


@pytest.mark.parametrize(
    "text", ["0x400000:", ":0x500000", "0x400000", "lo:0x500000", "1:2:3"]
)
def test_scan_malformed_lib_range_exits_2(tmp_path, capsys, text):
    path = tmp_path / "scan.rsnp"
    save_snapshot(ImageBuilder().build(), path)
    code, _ = run(["scan", path, f"--lib-range={text}"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: range must look like LO:HI, got {text!r}\n"
    )


def test_scan_elf_maps_data_segments(tmp_path):
    # Two code pages (RX) and two data pages (RW) holding pointers into the
    # second code page, which is the library range, plus one into the first.
    planted = {0x10: 0x401000, 0x800: 0x401234, 0x1FF8: 0x401FFE}
    data = bytearray(2 * 0x1000)
    for off, value in {**planted, 0x100: 0x400010}.items():
        data[off : off + 8] = value.to_bytes(8, "little")
    path = tmp_path / "prog.elf"
    path.write_bytes(build_elf([
        {"vaddr": 0x400000, "data": b"\xc3" * 0x2000, "flags": 4 | 1},
        {"vaddr": 0x600000, "data": bytes(data), "flags": 4 | 2},
    ]))

    code, out = run(["scan", path, "--lib-range", "0x401000:0x402000"])
    assert code == 0
    report = json.loads(out)
    assert report["scanned_pages"] == 2
    assert report["occurrences"] == len(planted)
    assert report["by_tag"] == {"data": len(planted)}

    # Analysis subcommands still map only the executable segments.
    code, out = run(["starts", path])
    assert code == 0
    assert list(json.loads(out)) == ["0x400000", "0x401000"]


def test_starts_listing(snap):
    code, out = run(["starts", snap])
    assert code == 0
    listing = json.loads(out)
    assert list(listing) == ["0x400000"]
    start = int(listing["0x400000"], 16)
    assert 0x400000 <= start < 0x401000


def test_one_parser_serves_every_call(snap, monkeypatch):
    """main builds its argument parser once per process, and a call with
    another subcommand after the first prints what a fresh process prints."""
    commands = [
        ["gadgets", snap, "--set", "tc", "--max-len", "3"],
        ["starts", snap],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    separate = [
        subprocess.run(
            [sys.executable, "-m", "ropscope.cli", *map(str, argv)],
            capture_output=True, text=True, check=True, env=env, timeout=60,
        ).stdout
        for argv in commands
    ]
    builds = []
    build_parser = cli.build_parser

    def counting_build_parser():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    assert [run(argv) for argv in commands] == [(0, out) for out in separate]
    assert len(builds) == 1


def test_synth_generate_compare_transform(tmp_path):
    out_dir = tmp_path / "corpus"
    code, _ = run([
        "synth", "generate", "--out-dir", out_dir, "--seed", "5",
        "--functions", "8", "--schemes", "coarse,instruction",
    ])
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    names = [e["name"] for e in manifest["entries"]]
    assert names[0] == "baseline"
    assert "coarse" in names and "instruction" in names
    for entry in manifest["entries"]:
        assert (out_dir / entry["snapshot_path"]).exists()
        assert (out_dir / entry["ground_truth_path"]).exists()

    code, out = run([
        "compare", "--manifest", out_dir / "manifest.json", "--max-len", "10",
    ])
    assert code == 0
    assert "baseline" in out
    assert "instruction" in out

    code, _ = run([
        "synth", "transform", "--manifest", out_dir / "manifest.json",
        "--scheme", "function", "--scheme-seed", "99",
    ])
    assert code == 0
    manifest2 = json.loads((out_dir / "manifest.json").read_text())
    assert len(manifest2["entries"]) == len(manifest["entries"]) + 1


def test_unknown_builtin_set_exits_2(snap):
    code, _ = run(["gadgets", snap, "--set", "wat"])
    assert code == 2


@pytest.mark.parametrize(
    "params,message",
    [
        ({"gadget_mix": {"NOPE": 1}}, "unknown gadget type 'NOPE'"),
        ({"n_functions": None}, "params lack 'n_functions'"),
        ({"gadget_mix": ["LM"]},
         "malformed params: 'list' object has no attribute 'items'"),
        ({"gadget_mix": {"LM": None}},
         "malformed params: int() argument must be a string, a bytes-like "
         "object or a real number, not 'NoneType'"),
        ({"max_functions_per_page": 0},
         "params max_functions_per_page must be at least 1"),
        ({"base": 1e400}, "malformed params: base must be an integer, not inf"),
        ({"connectivity": 10**400},
         "malformed params: int too large to convert to float"),
        ({"n_functions": 2.9},
         "malformed params: n_functions must be an integer, not 2.9"),
        ({"n_functions": True},
         "malformed params: n_functions must be an integer, not True"),
        ({"mean_fn_len": "10"},
         "malformed params: mean_fn_len must be an integer, not '10'"),
        ({"gadget_mix": {"LM": 1.0}},
         "malformed params: gadget_mix count of LM must be an integer, "
         "not 1.0"),
        ({"max_functions_per_page": False},
         "malformed params: max_functions_per_page must be an integer, "
         "not False"),
        ({"ensure_strongly_connected": "false"},
         "malformed params: ensure_strongly_connected must be true or "
         "false, not 'false'"),
        ({"ensure_strongly_connected": 0},
         "malformed params: ensure_strongly_connected must be true or "
         "false, not 0"),
        ({"connectivity": True},
         "malformed params: connectivity must be a number, not True"),
        ({"connectivity": "0.25"},
         "malformed params: connectivity must be a number, not '0.25'"),
        ({"base": 2**64},
         "malformed params: the layout from 0x10000000000000000 ends past "
         "2**64"),
        ({"base": 2**64 - PAGE_SIZE, "n_functions": 40},
         "malformed params: the layout from 0xfffffffffffff000 ends past "
         "2**64"),
    ],
    ids=["unknown-mix-type", "missing-n-functions", "mix-not-an-object",
         "mix-count-null", "zero-functions-per-page", "base-overflow",
         "connectivity-overflow", "n-functions-float", "n-functions-bool",
         "mean-fn-len-string", "mix-count-float", "functions-per-page-bool",
         "strongly-connected-string", "strongly-connected-int",
         "connectivity-bool", "connectivity-string", "base-at-2**64",
         "base-near-top-multi-page"],
)
def test_synth_transform_malformed_manifest_exits_2(
    tmp_path, capsys, params, message
):
    out_dir = tmp_path / "corpus"
    code, _ = run(["synth", "generate", "--out-dir", out_dir, "--seed", "5",
                   "--functions", "4"])
    assert code == 0
    manifest_path = out_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for key, value in params.items():
        if value is None:
            del manifest["params"][key]
        else:
            manifest["params"][key] = value
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()

    code, _ = run(["synth", "transform", "--manifest", manifest_path,
                   "--scheme", "function"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert json.loads(manifest_path.read_text()) == manifest


@pytest.mark.parametrize(
    "seed", [None, "5", 5.0, True], ids=["null", "string", "float", "bool"]
)
def test_synth_transform_non_integer_seed_exits_2(tmp_path, capsys, seed):
    out_dir = tmp_path / "corpus"
    code, _ = run(["synth", "generate", "--out-dir", out_dir, "--seed", "5",
                   "--functions", "4"])
    assert code == 0
    manifest_path = out_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["seed"] = seed
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()

    code, out = run(["synth", "transform", "--manifest", manifest_path,
                     "--scheme", "function"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        f"error: manifest seed must be an integer, not {seed!r}\n"
    )
    assert json.loads(manifest_path.read_text()) == manifest


@pytest.mark.parametrize(
    "entries",
    [[{"name": "x"}], [{"name": "x", "snapshot_path": 3}], ["x"], "x"],
    ids=["no-snapshot-path", "path-not-a-string", "entry-not-an-object",
         "entries-not-a-list"],
)
def test_compare_malformed_entries_exits_2(tmp_path, capsys, entries):
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(
        {"seed": 1, "params": {}, "entries": entries}
    ))
    code, out = run(["compare", "--manifest", manifest_path])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        "error: manifest entries must be objects with string name and "
        "snapshot_path\n"
    )


@pytest.mark.parametrize("command", ["compare", "synth transform"])
def test_repeated_manifest_entry_exits_2(tmp_path, capsys, command):
    # The snapshots do not exist: the manifest is refused before any loads.
    manifest_path = tmp_path / "manifest.json"
    entries = [{"name": name, "snapshot_path": f"{name}.rsnp"}
               for name in ("baseline", "coarse", "coarse")]
    manifest_path.write_text(json.dumps(
        {"seed": 1, "params": {}, "entries": entries}
    ))
    argv = {
        "compare": ["compare", "--manifest", manifest_path],
        "synth transform": ["synth", "transform", "--manifest",
                            manifest_path, "--scheme", "function"],
    }[command]
    assert run(argv) == (2, "")
    assert capsys.readouterr().err == (
        "error: manifest entry 'coarse' is repeated\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]


def test_synth_transform_refuses_the_baseline_name(tmp_path, capsys):
    # compare measures every layout against the generated baseline, so a
    # transform may not replace it.
    out_dir = tmp_path / "corpus"
    code, _ = run(["synth", "generate", "--out-dir", out_dir, "--seed", "5",
                   "--functions", "4"])
    assert code == 0
    files = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert {"manifest.json", "baseline.rsnp", "baseline.truth.json"} <= (
        files.keys()
    )
    capsys.readouterr()

    code, out = run(["synth", "transform", "--manifest",
                     out_dir / "manifest.json", "--scheme", "instruction",
                     "--name", "baseline"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        "error: entry name 'baseline' is the generated layout's\n"
    )
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == files


@pytest.fixture(scope="module")
def four_layouts(tmp_path_factory):
    """The packed golden corpus with all four scheme layouts."""
    out_dir = tmp_path_factory.mktemp("four_layouts")
    code, _ = run(["synth", "generate", "--out-dir", out_dir,
                   *all_layouts_options("packed")])
    assert code == 0
    return out_dir


@pytest.mark.parametrize("heuristic", [False, True],
                         ids=["default-types", "heuristic-types"])
def test_compare_equals_each_layout_mined_alone(four_layouts, heuristic):
    # Each layout mined alone gives the statistics compare gives it, so
    # they do not depend on what the decoder's memo already holds.
    manifest_path = four_layouts / "manifest.json"
    argv = ["compare", "--manifest", str(manifest_path), "--max-len", "10"]
    # compare has no --heuristic-types flag, but builds its options from
    # the parsed arguments' fields like every command.
    args = cli.build_parser().parse_args(argv)
    args.enable_heuristic_types = heuristic
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli._cmd_compare(args) == 0

    opts = HarvestOptions(max_gadget_len=10, enable_heuristic_types=heuristic)
    entries = json.loads(manifest_path.read_text())["entries"]
    assert len(entries) == 5
    expected = {
        e["name"]: reference_population_stats(
            mine_image(load_snapshot(four_layouts / e["snapshot_path"]), opts)
        )
        for e in entries
    }
    add_min_fp_reductions(expected)
    assert buf.getvalue() == dumps(expected) + "\n"
    if not heuristic:
        assert run(argv) == (0, buf.getvalue())
    else:
        assert run(argv)[1] != buf.getvalue()


def test_compare_counts_what_gadgets_reports(four_layouts):
    # compare and gadgets read one labelling pass: on every layout,
    # compare's window count and per-type totals are the gadgets summary's.
    manifest_path = four_layouts / "manifest.json"
    code, out = run(["compare", "--manifest", manifest_path])
    assert code == 0
    stats = json.loads(out)
    entries = json.loads(manifest_path.read_text())["entries"]
    assert sorted(stats) == sorted(e["name"] for e in entries)
    for e in entries:
        code, pretty = run(["gadgets", four_layouts / e["snapshot_path"],
                            "--pretty"])
        assert code == 0
        entry = stats[e["name"]]
        totals = {name: c["min_fp"] + c["ex_fp"]
                  for name, c in entry["types"].items()}
        assert pretty.splitlines() == [
            f"gadgets mined: {entry['gadgets']}",
            *(f"  {name:10s} {totals[name]}" for name in sorted(totals)),
        ]
        assert entry["gadgets"] > 0


def test_compare_builds_no_gadget(four_layouts, monkeypatch):
    # compare only prints counts, so it counts each window as it is
    # classified: with every way to build a Gadget refused it prints the
    # same bytes.
    argv = ["compare", "--manifest", four_layouts / "manifest.json",
            "--max-len", "10"]
    expected = run(argv)

    def refuse(*args, **kwargs):
        raise AssertionError("compare built a gadget")

    monkeypatch.setattr(gadgets_module, "classify", refuse)
    monkeypatch.setattr(gadgets_module, "Gadget", refuse)
    monkeypatch.setattr(harvest_module, "find_gadgets", refuse)
    assert run(argv) == expected
    assert expected[0] == 0


def test_gadgets_builds_no_gadget(four_layouts, tmp_path, monkeypatch):
    # gadgets reports each window from the closure walk's streams: with
    # every way to build a Gadget refused it prints and writes the same
    # bytes in each format.
    snapshot = four_layouts / "baseline.rsnp"
    argvs = [
        ["gadgets", snapshot, "--set", "tc"],
        ["gadgets", snapshot, "--max-len", "10"],
        ["gadgets", snapshot, "--format", "csv", "--heuristic-types",
         "--max-len", "10"],
        ["gadgets", snapshot, "--pretty", "--set", "tc"],
        ["gadgets", snapshot, "--pretty", "--heuristic-types"],
    ]

    def outputs(tag):
        out = [run(argv) for argv in argvs]
        path = tmp_path / f"{tag}.json"
        out.append(run(["gadgets", snapshot, "--set", "movtc", "--pretty",
                        "--out", path]))
        return out, path.read_text()

    expected = outputs("before")

    def refuse(*args, **kwargs):
        raise AssertionError("gadgets built a gadget")

    monkeypatch.setattr(gadgets_module, "classify", refuse)
    monkeypatch.setattr(gadgets_module, "Gadget", refuse)
    monkeypatch.setattr(harvest_module, "find_gadgets", refuse)
    monkeypatch.setattr(harvest_module, "mine_image", refuse)
    monkeypatch.setattr(cli, "mine_image", refuse)
    assert outputs("after") == expected
    assert all(code == 0 for code, _ in expected[0])
    assert expected[1].startswith('{"coverage":')


@pytest.mark.parametrize("reader", ["manifest", "set-file"])
def test_deeply_nested_json_exits_1(snap, tmp_path, reader):
    # Nesting deeper than the JSON parser allows is malformed input: one
    # error line, no traceback.
    path = tmp_path / "nested.json"
    path.write_text("[" * 100000 + "]" * 100000)
    argv = {
        "manifest": ["compare", "--manifest", path],
        "set-file": ["gadgets", snap, "--set-file", path],
    }[reader]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "ropscope.cli", *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_gadgets_on_hostile_snapshot_exits_1(tmp_path, capsys):
    path = tmp_path / "x.rsnp"
    save_snapshot(code_image(b"\xc3"), path)
    blob = bytearray(path.read_bytes())
    blob[16:24] = (0x1001).to_bytes(8, "little")  # first page's base
    path.write_bytes(bytes(blob))
    code, out = run(["gadgets", path])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == (
        "error: page base 0x1001 not 4096-aligned\n"
    )


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("corpus")
    code, _ = run(["synth", "generate", "--out-dir", out_dir, "--seed", "0",
                   "--functions", "4"])
    assert code == 0
    return out_dir


@pytest.mark.parametrize("value", ["0", "-1"])
def test_synth_generate_invalid_functions_per_page_exits_2(
    tmp_path, capsys, value
):
    out_dir = tmp_path / "corpus"
    code, out = run(["synth", "generate", "--out-dir", out_dir,
                     "--functions", "4", "--max-functions-per-page", value])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        "error: params max_functions_per_page must be at least 1\n"
    )
    assert not out_dir.exists()


def test_synth_generate_negative_base_creates_nothing(tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    code, out = run(["synth", "generate", "--out-dir", out_dir,
                     "--functions", "4", "--base", "-4096"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        "error: params base must be non-negative\n"
    )
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "options",
    [["--functions", "4", "--base", "0x10000000000000000"],
     ["--functions", "40", "--base", "0xfffffffffffff000"],
     # The baseline fits on the top page; the coarse shift moves it past.
     ["--functions", "4", "--base", "0xfffffffffffff000",
      "--schemes", "coarse"]],
    ids=["base-at-2**64", "near-top-multi-page", "near-top-coarse-shift"],
)
def test_synth_generate_layout_past_2_64_creates_nothing(
    tmp_path, capsys, options
):
    # Such a base once died in save_snapshot with a traceback and exit 1.
    out_dir = tmp_path / "corpus"
    code, out = run(["synth", "generate", "--out-dir", out_dir, "--seed", "5",
                     *options])
    assert (code, out) == (2, "")
    assert re.fullmatch(
        r"error: malformed params: the layout from 0x1?[0-9a-f]{16} ends "
        r"past 2\*\*64\n",
        capsys.readouterr().err,
    )
    assert not out_dir.exists()


@pytest.mark.parametrize("value", ["nan", "2.5", "-0.1", "inf"])
def test_synth_generate_connectivity_outside_unit_interval_exits_2(
    tmp_path, capsys, value
):
    # A NaN once reached manifest.json as the token NaN, which is not JSON.
    out_dir = tmp_path / "corpus"
    code, out = run(["synth", "generate", "--out-dir", out_dir,
                     "--functions", "4", "--connectivity", value])
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: params connectivity must be in [0, 1]")
    assert err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("value", ["0", "-5"])
def test_synth_generate_mean_len_below_one_exits_2(tmp_path, capsys, value):
    # -5 once exited 0 and recorded a mean length no function has.
    out_dir = tmp_path / "corpus"
    code, out = run(["synth", "generate", "--out-dir", out_dir,
                     "--functions", "4", "--mean-len", value])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        f"error: params mean_fn_len must be at least 1, not {value}\n"
    )
    assert not out_dir.exists()


def test_synth_transform_negative_mix_count_exits_2(tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    code, _ = run(["synth", "generate", "--out-dir", out_dir, "--seed", "5",
                   "--functions", "4"])
    assert code == 0
    manifest_path = out_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["params"]["gadget_mix"] = {"LR": 2, "LM": -1}
    manifest_path.write_text(json.dumps(manifest))
    before = sorted(p.name for p in out_dir.iterdir())
    capsys.readouterr()

    code, out = run(["synth", "transform", "--manifest", manifest_path,
                     "--scheme", "function"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        "error: gadget_mix count of LM must be non-negative\n"
    )
    assert sorted(p.name for p in out_dir.iterdir()) == before


def test_synth_generate_unknown_scheme_writes_nothing(tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    out_dir.mkdir()
    code, out = run(["synth", "generate", "--out-dir", out_dir,
                     "--functions", "4", "--schemes", "coarse,bogus"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        "error: 'bogus' is not a valid SchemeKind\n"
    )
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize(
    "command,accepted",
    [(["harvest", "--start", "0x400000"], False), (["gadgets"], False),
     (["corrupt"], False), (["upper-bound"], True), (["starts"], True)],
    ids=["harvest", "gadgets", "corrupt", "upper-bound", "starts"],
)
def test_seed_only_where_start_strategy_is(corpus, capsys, command, accepted):
    # The start seed is the one seed of the analysis commands.
    argv = [command[0], corpus / "baseline.rsnp", *command[1:]]
    for flag, takes in (("--start-seed", accepted), ("--seed", False)):
        if takes:
            assert run([*argv, flag, "3"])[0] == 0
            continue
        with pytest.raises(SystemExit) as exc:
            run([*argv, flag, "3"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


@pytest.mark.parametrize("max_len", ["0", "-3"])
@pytest.mark.parametrize(
    "command",
    [["gadgets"], ["harvest", "--start", "0x400000"], ["upper-bound"],
     ["corrupt"], ["compare"]],
    ids=["gadgets", "harvest", "upper-bound", "corrupt", "compare"],
)
def test_max_len_below_one_exits_2(corpus, capsys, command, max_len):
    if command == ["compare"]:
        argv = ["compare", "--manifest", corpus / "manifest.json"]
    else:
        argv = [command[0], corpus / "baseline.rsnp", *command[1:]]
    code, out = run([*argv, "--max-len", max_len])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: max_len must be at least 1\n"


def test_stop_on_convergence_needs_a_set(corpus, capsys):
    # With no tracked set a run never converges, so the flag would do
    # nothing.
    argv = ["harvest", corpus / "baseline.rsnp", "--start", "0x400000",
            "--stop-on-convergence"]
    assert run(argv) == (2, "")
    assert capsys.readouterr().err == (
        "error: stop_on_convergence needs a gadget set to track "
        "(--set or --set-file)\n"
    )
    assert run([*argv, "--set", "tc"])[0] == 0


# An empty --schemes names one empty entry, as " " and "," do: it does not
# fall back to every layout.
_UNKNOWN_ENTRIES = {
    "bogus": "bogus", "baseline, bogus": "bogus", "": "", " ": "", ",": "",
}


@pytest.mark.parametrize(
    "schemes, unknown", _UNKNOWN_ENTRIES.items(), ids=list(_UNKNOWN_ENTRIES)
)
def test_compare_unknown_entry_exits_2(corpus, capsys, schemes, unknown):
    code, out = run(["compare", "--manifest", corpus / "manifest.json",
                     "--schemes", schemes])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        f"error: unknown manifest entry {unknown!r}\n"
    )


# Options refused before the work they would steer: each case's argv, the
# function of cli that does the work, and the one error line.
_EARLY_REFUSALS = {
    "corrupt --types BOGUS": (
        ["corrupt", "SNAP", "--types", "BOGUS"], "mine_image",
        "error: unknown gadget type 'BOGUS'\n",
    ),
    "upper-bound --interval 0": (
        ["upper-bound", "SNAP", "--interval", "0"], "upper_bound",
        "error: interval must be positive\n",
    ),
    "scan --segment bogus": (
        ["scan", "SNAP", "--segment", "bogus"], "load_image",
        "error: unknown segment tag 'bogus'\n",
    ),
    "scan --lib-range 5": (
        ["scan", "SNAP", "--lib-range", "5"], "load_image",
        "error: range must look like LO:HI, got '5'\n",
    ),
    # An empty list option is refused, not read as "no restriction".
    "corrupt --types=": (
        ["corrupt", "SNAP", "--types="], "mine_image",
        "error: unknown gadget type ''\n",
    ),
    "scan --segment=": (
        ["scan", "SNAP", "--segment="], "load_image",
        "error: unknown segment tag ''\n",
    ),
    "scan --lib-range=": (
        ["scan", "SNAP", "--lib-range="], "load_image",
        "error: range must look like LO:HI, got ''\n",
    ),
}


@pytest.mark.parametrize("case", list(_EARLY_REFUSALS))
def test_bad_option_is_refused_before_work(corpus, capsys, monkeypatch, case):
    argv, work, error = _EARLY_REFUSALS[case]
    calls = []
    original = getattr(cli, work)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, work, counted)
    code, out = run([corpus / "baseline.rsnp" if a == "SNAP" else a
                     for a in argv])
    assert (code, out, calls) == (2, "", [])
    assert capsys.readouterr().err == error


def test_start_seed_changes_starts(corpus):
    snap = corpus / "baseline.rsnp"
    plain = run(["starts", snap])
    seeded = run(["starts", snap, "--start-seed", "5"])
    assert plain[0] == seeded[0] == 0
    assert plain[1] != seeded[1]


@pytest.mark.parametrize("flag", [["--max-len", "3"], ["--heuristic-types"]])
def test_starts_takes_no_mining_options(corpus, capsys, flag):
    # Start pointers come from the linear scan and the forward sweep, which
    # never mine, so starts has no mining knobs.
    with pytest.raises(SystemExit) as exc:
        run(["starts", corpus / "baseline.rsnp", *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in (
        capsys.readouterr().err
    )


def test_seed_ignores_environment(corpus, monkeypatch):
    argv = ["starts", corpus / "baseline.rsnp"]
    plain, seeded = run(argv), run([*argv, "--start-seed", "0"])
    monkeypatch.setenv("ROPSCOPE_SEED", "0x10")
    assert run(argv) == plain
    assert run([*argv, "--start-seed", "0"]) == seeded
    assert plain[0] == seeded[0] == 0


class _Options(Exception):
    """Raised in place of the call that takes a command's options."""


# Each command that builds an options object: its argv, with SNAP, MANIFEST
# and OUT standing for paths, and the function of cli it passes the options
# to.
_OPTION_COMMANDS = {
    "harvest": (["harvest", "SNAP", "--start", "0x400000"], "harvest"),
    "gadgets": (["gadgets", "SNAP"], "image_gadget_report"),
    "upper-bound": (["upper-bound", "SNAP"], "upper_bound"),
    "corrupt": (["corrupt", "SNAP"], "mine_image"),
    "starts": (["starts", "SNAP"], "page_start_pointers"),
    "compare": (["compare", "--manifest", "MANIFEST"], "image_gadget_report"),
    "synth generate": (["synth", "generate", "--out-dir", "OUT"], "generate"),
}


def _parsed_options(monkeypatch, corpus, tmp_path, command, flags=()):
    """The options object `command` with `flags` builds and passes on."""
    argv, consumer = _OPTION_COMMANDS[command]
    paths = {"SNAP": corpus / "baseline.rsnp",
             "MANIFEST": corpus / "manifest.json", "OUT": tmp_path / "out"}

    def capture(*args, **kwargs):
        (opts,) = [
            a for a in (*args, *kwargs.values())
            if isinstance(a, (HarvestOptions, GenParams))
        ]
        raise _Options(opts)

    monkeypatch.setattr(cli, consumer, capture)
    with pytest.raises(_Options) as exc:
        run([paths.get(a, a) for a in argv] + list(flags))
    return exc.value.args[0]


@pytest.mark.parametrize("command", list(_OPTION_COMMANDS))
def test_bare_command_builds_default_options(
    monkeypatch, corpus, tmp_path, command
):
    expected = GenParams() if command == "synth generate" else HarvestOptions()
    assert _parsed_options(monkeypatch, corpus, tmp_path, command) == expected


_FLAG_CASES = [
    ("harvest", ["--no-cond"], {"follow_cond_branches": False}),
    ("harvest", ["--stop-on-convergence", "--set", "tc"],
     {"stop_on_convergence": True, "track_set": BUILTIN_SETS["tc"]}),
    ("harvest", ["--max-len", "7"], {"max_gadget_len": 7}),
    ("harvest", ["--set", "movtc"], {"track_set": BUILTIN_SETS["movtc"]}),
    ("gadgets", ["--heuristic-types"], {"enable_heuristic_types": True}),
    ("gadgets", ["--set", "tc"], {"track_set": BUILTIN_SETS["tc"]}),
    ("upper-bound", ["--start-seed", "0x10"], {"start_seed": 16}),
    ("corrupt", ["--max-len", "2"], {"max_gadget_len": 2}),
    ("starts", ["--start-seed", "3"], {"start_seed": 3}),
    ("compare", ["--max-len", "10"], {"max_gadget_len": 10}),
    ("synth generate", ["--functions", "4"], {"n_functions": 4}),
    ("synth generate", ["--mean-len", "7"], {"mean_fn_len": 7}),
    ("synth generate", ["--connectivity", "0.5"], {"connectivity": 0.5}),
    ("synth generate", ["--max-functions-per-page", "2"],
     {"max_functions_per_page": 2}),
    ("synth generate", ["--no-strongly-connected"],
     {"ensure_strongly_connected": False}),
    ("synth generate", ["--base", "0x500000"], {"base": 0x500000}),
]


@pytest.mark.parametrize(
    "command,flags,changed",
    _FLAG_CASES,
    ids=[" ".join([command, *flags]) for command, flags, _ in _FLAG_CASES],
)
def test_each_flag_sets_only_its_field(
    monkeypatch, corpus, tmp_path, command, flags, changed
):
    default = GenParams() if command == "synth generate" else HarvestOptions()
    assert _parsed_options(monkeypatch, corpus, tmp_path, command, flags) == (
        replace(default, **changed)
    )
