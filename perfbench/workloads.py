"""The benchmark's workloads: seeded inputs and the round of operations each runs.

A round is a fixed list of operations that one caller runs one after
another. User-facing operations call `ropscope.cli.main` in-process with
stdout captured; `load_elf`, `save_snapshot` and `load_snapshot` have no CLI
path for an all-segments load, so they are called through the library.

Each workload has focus operations on inputs sized for the layers it
stresses. It also runs every other kind of operation on a small probe
corpus, so that every run measures every end-to-end metric; operations
that take milliseconds run several times a round. The probe corpus is the
same for every workload at a given seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import struct
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import ropscope.cli
import ropscope.snapshot

import checks
import formats
import yardstick

SCHEMES = ("coarse", "function", "block", "instruction")
CHECKED_LAYOUTS = ("baseline", "coarse", "function", "block")
MAX_LEN = "10"
DATA_BASE = 0x10000000

Outputs = dict[str, dict[str, bytes]]


class OpFailed(Exception):
    """An operation failed where it should have succeeded, or accepted an
    input it should have refused."""


@dataclass
class Op:
    label: str
    metric: str | None  # the end-to-end metric its time feeds, if any
    run: Callable[[], Any]  # the timed part
    collect: Callable[[Any], dict[str, bytes]]  # outputs to check, untimed
    # Files the operation writes. They are removed, untimed, before each run,
    # so every run writes new files as a first run would: rewriting a file in
    # place makes ext4 flush it on close, which times the disk, not ropscope.
    writes: tuple[Path, ...] = ()
    # The yardstick that gauges the machine's speed for this operation.
    gauge: str = yardstick.INTERPRETER


@dataclass
class Plan:
    ops: list[Op]
    verify: Callable[[Outputs], list[str]]


def numbered(ops: list[Op]) -> list[Op]:
    """The ops with the k-th repeat of a label relabelled label#k; the
    first keeps its label."""
    seen: Counter[str] = Counter()
    out = []
    for op in ops:
        k = seen[op.label]
        seen[op.label] += 1
        out.append(op if k == 0 else replace(op, label=f"{op.label}#{k}"))
    return out


def subseed(seed: int, tag: str) -> int:
    return random.Random(f"{seed}:{tag}").randrange(1 << 31)


def cli(argv: list[str]) -> str:
    """Run one ropscope command in-process; return its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ropscope.cli.main(argv)
        except SystemExit as exc:  # argparse refused the arguments
            code = exc.code
    if code != 0:
        raise OpFailed(f"ropscope {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def cli_op(label: str, metric: str, argv: list[str], files: tuple[Path, ...] = ()) -> Op:
    def collect(stdout: str) -> dict[str, bytes]:
        return {"stdout": stdout.encode(), **{f.name: f.read_bytes() for f in files}}

    return Op(label, metric, lambda: cli(argv), collect, files)


# Synthetic corpora, written by `ropscope synth generate`.


@dataclass
class Corpus:
    dir: Path
    truth: dict
    exec_pages: list[tuple[int, int, int, bytes]]
    entry: int

    @property
    def baseline(self) -> str:
        return str(self.dir / "baseline.rsnp")


def make_corpus(
    path: Path, seed: int, functions: int, connectivity: float, per_page: int | None
) -> Corpus:
    argv = [
        "synth", "generate", "--out-dir", str(path), "--seed", str(seed),
        "--functions", str(functions), "--connectivity", str(connectivity),
    ]
    if per_page is not None:
        argv += ["--max-functions-per-page", str(per_page)]
    cli(argv)
    truth = json.loads((path / "baseline.truth.json").read_text())
    pages = formats.decode_rsnp((path / "baseline.rsnp").read_bytes())
    return Corpus(
        path,
        truth,
        [p for p in pages if p[1] & formats.PERM_X],
        int(truth["function_entries"][0], 16),
    )


def upper_bound_op(c: Corpus) -> Op:
    timeline = c.dir / "timeline.csv"
    return cli_op(
        f"upper_bound:{c.dir.name}",
        "upper_bound_s",
        ["upper-bound", c.baseline, "--set", "tc", "--max-len", MAX_LEN,
         "--timeline-csv", str(timeline)],
        (timeline,),
    )


def check_upper_bound(c: Corpus, outputs: Outputs) -> list[str]:
    out = outputs.get(f"upper_bound:{c.dir.name}")
    if out is None:
        return []
    return checks.check_upper_bound(
        out["stdout"].decode(), out["timeline.csv"].decode(), len(c.exec_pages)
    )


def harvest_op(c: Corpus) -> Op:
    trace = c.dir / "harvest.jsonl"
    return cli_op(
        f"harvest:{c.dir.name}",
        "harvest_s",
        ["harvest", c.baseline, "--start", f"{c.entry:#x}", "--max-len", MAX_LEN,
         "--trace", str(trace)],
        (trace,),
    )


def check_harvest(c: Corpus, outputs: Outputs) -> list[str]:
    out = outputs.get(f"harvest:{c.dir.name}")
    if out is None:
        return []
    return checks.check_harvest(out["harvest.jsonl"].decode(), c.truth, c.entry)


def _gadgets_argv(snapshot: str) -> list[str]:
    return ["gadgets", snapshot, "--set", "tc", "--max-len", MAX_LEN]


def _corrupt_argv(snapshot: str) -> list[str]:
    return ["corrupt", snapshot, "--format", "verdicts", "--max-len", MAX_LEN]


def survey_ops(c: Corpus) -> list[Op]:
    """Re-lay the corpus under every scheme, compare the layouts, and mine
    and assess the baseline."""
    manifest = str(c.dir / "manifest.json")
    ops = [
        cli_op(
            f"synth:{c.dir.name}:{kind}",
            "synth_s",
            ["synth", "transform", "--manifest", manifest, "--scheme", kind,
             "--name", kind],
            (c.dir / f"{kind}.rsnp", c.dir / f"{kind}.truth.json"),
        )
        for kind in SCHEMES
    ]
    return ops + [
        cli_op(f"compare:{c.dir.name}", "compare_s",
               ["compare", "--manifest", manifest, "--max-len", MAX_LEN]),
        cli_op(f"gadgets:{c.dir.name}", "gadgets_s", _gadgets_argv(c.baseline)),
        cli_op(f"corrupt:{c.dir.name}", "corrupt_s", _corrupt_argv(c.baseline)),
    ]


def check_survey(c: Corpus, outputs: Outputs) -> list[str]:
    name = c.dir.name
    labels = [f"compare:{name}", f"gadgets:{name}", f"corrupt:{name}"]
    labels += [f"synth:{name}:{kind}" for kind in SCHEMES]
    if any(label not in outputs for label in labels):
        return []
    problems = checks.check_compare(outputs[f"compare:{name}"]["stdout"].decode())
    for layout in CHECKED_LAYOUTS:
        snapshot = str(c.dir / f"{layout}.rsnp")
        if layout == "baseline":
            gadgets = outputs[f"gadgets:{name}"]["stdout"].decode()
            verdicts = outputs[f"corrupt:{name}"]["stdout"].decode()
        else:
            gadgets = cli(_gadgets_argv(snapshot))
            verdicts = cli(_corrupt_argv(snapshot))
        truth = json.loads((c.dir / f"{layout}.truth.json").read_text())
        problems += checks.check_plants(gadgets, verdicts, truth, f"{name}/{layout}")
    return problems


# ELF images: the code pages of a corpus plus an RW data segment that
# holds planted pointers into the code.


@dataclass
class ElfInput:
    name: str
    path: Path
    snapshot: Path
    expected: bytes  # the .rsnp encoding of the image load_elf must return
    lib_range: tuple[int, int]
    planted: list[int]
    data_pages: int


def make_elf(path: Path, code: Corpus, seed: int, data_pages: int, bss: int) -> ElfInput:
    rng = random.Random(seed)
    lo = code.exec_pages[0][0]
    text = b"".join(p[3] for p in code.exec_pages)
    hi = lo + len(text)
    if [p[0] for p in code.exec_pages] != list(range(lo, hi, formats.PAGE)):
        raise ValueError("corpus code pages are not contiguous")

    # Filler words have the top bit set: outside every mapped address.
    words = [rng.getrandbits(64) | 1 << 63 for _ in range(data_pages * 512)]
    slots = rng.sample(range(len(words)), data_pages * 12)
    pool = [rng.randrange(lo, hi) for _ in range(data_pages * 8)]
    planted = []
    for slot in slots[: data_pages * 8]:
        planted.append(rng.choice(pool))
        words[slot] = planted[-1]
    for slot in slots[data_pages * 8 :]:
        # Decoys: mapped data addresses, outside the library range.
        words[slot] = DATA_BASE + 8 * rng.randrange(data_pages * 512)
    data = struct.pack(f"<{len(words)}Q", *words)
    memsz = len(data) + bss

    path.write_bytes(
        formats.build_elf(
            [
                {"vaddr": lo, "data": text, "memsz": len(text),
                 "flags": formats.PF_R | formats.PF_X},
                {"vaddr": DATA_BASE, "data": data, "memsz": memsz,
                 "flags": formats.PF_R | formats.PF_W},
            ],
            entry=code.entry,
        )
    )
    filled = formats.pad_to_pages(data, memsz)
    pages = list(code.exec_pages) + [
        (DATA_BASE + off, formats.PERM_R | formats.PERM_W, formats.TAG_DATA,
         filled[off : off + formats.PAGE])
        for off in range(0, len(filled), formats.PAGE)
    ]
    return ElfInput(
        name=path.stem,
        path=path,
        snapshot=path.with_suffix(".rsnp"),
        expected=formats.encode_rsnp(
            sorted(pages), {"load_kind": "all_load", "source": "elf"}
        ),
        lib_range=(lo, hi),
        planted=planted,
        data_pages=len(filled) // formats.PAGE,
    )


def _image_bytes(image) -> dict[str, bytes]:
    pages = [(p.base, p.perms.to_bits(), int(p.tag), p.data) for p in image]
    return {"image": formats.encode_rsnp(pages, image.metadata)}


def elf_ops(e: ElfInput) -> tuple[Op, Op, Op, Op]:
    """Load the ELF with every segment, write it as .rsnp, read it back and
    scan the snapshot for pointers into the code."""
    loaded: dict[str, Any] = {}

    def load_elf():
        loaded["image"] = ropscope.snapshot.load_elf(e.path, kind="all_load")
        return loaded["image"]

    def save():
        ropscope.snapshot.save_snapshot(loaded["image"], e.snapshot)

    lo, hi = e.lib_range
    return (
        Op(f"load_elf:{e.name}", "load_elf_s", load_elf, _image_bytes),
        Op(f"snapshot_save:{e.name}", "snapshot_save_s", save,
           lambda _: {"rsnp": e.snapshot.read_bytes()}, (e.snapshot,), yardstick.BUFFER),
        Op(f"snapshot_load:{e.name}", "snapshot_load_s",
           lambda: ropscope.snapshot.load_snapshot(e.snapshot), _image_bytes,
           gauge=yardstick.BUFFER),
        cli_op(f"scan:{e.name}", "scan_s",
               ["scan", str(e.snapshot), "--lib-range", f"{lo:#x}:{hi:#x}"]),
    )


# A write and read of a snapshot take well under a millisecond, and a single
# one varies by a quarter or more, so each round repeats them many times.
SNAPSHOT_TIMES = 4


def elf_round(e: ElfInput) -> list[Op]:
    """4 × (load the ELF, write and read its snapshot SNAPSHOT_TIMES times,
    scan the snapshot)."""
    load_elf, save, read, scan = elf_ops(e)
    return numbered(([load_elf] + [save, read] * SNAPSHOT_TIMES + [scan]) * 4)


def check_elf(e: ElfInput, outputs: Outputs) -> list[str]:
    problems = []
    for label, key, what in (
        (f"load_elf:{e.name}", "image", "image loaded from the ELF"),
        (f"snapshot_save:{e.name}", "rsnp", "saved .rsnp"),
        (f"snapshot_load:{e.name}", "image", "image read back from .rsnp"),
    ):
        if label in outputs and outputs[label][key] != e.expected:
            problems.append(f"{what} differs from the bytes the benchmark wrote")
    scan = outputs.get(f"scan:{e.name}")
    if scan is not None:
        problems += checks.check_scan(
            scan["stdout"].decode(), e.planted, e.data_pages
        )
    return problems


def malformed_ops(path: Path) -> list[Op]:
    """Each hostile input must be refused with a SnapshotError."""
    ops = []
    for name, data in formats.malformed_inputs().items():
        target = path / name
        target.write_bytes(data)
        if name.startswith("elf"):
            load = lambda p=target: ropscope.snapshot.load_elf(p, kind="all_load")
        else:
            load = lambda p=target: ropscope.snapshot.load_snapshot(p)

        def refuse(load=load, name=name):
            try:
                load()
            except ropscope.snapshot.SnapshotError as exc:
                return type(exc).__name__
            raise OpFailed(f"malformed input {name} was accepted")

        ops.append(Op(f"malformed:{name}", None, refuse,
                      lambda error: {"error": error.encode()}))
    return ops


# The workloads.


def _probe(path: Path, seed: int) -> tuple[Corpus, ElfInput]:
    probe = make_corpus(path / "probe", subseed(seed, "probe"), 12, 0.3, 3)
    elf = make_elf(path / "probe.elf", probe, subseed(seed, "probe-data"), 2, 3000)
    return probe, elf


def _analysis_probes(path: Path, seed: int, probe: Corpus) -> list[Corpus]:
    """The probe and three more corpora like it. How long `upper-bound` takes
    on one 4-page corpus varies by a quarter between seeds (with the clocks
    it reaches), so the probe upper-bound and harvest take in four."""
    return [probe] + [
        make_corpus(path / f"probe{k}", subseed(seed, f"probe{k}"), 12, 0.3, 3)
        for k in range(1, 4)
    ]


def analysis_probe_ops(probes: list[Corpus]) -> list[Op]:
    return [upper_bound_op(c) for c in probes] + [harvest_op(c) for c in probes]


def check_analysis_probes(probes: list[Corpus], outputs: Outputs) -> list[str]:
    return [
        problem
        for c in probes
        for problem in check_upper_bound(c, outputs) + check_harvest(c, outputs)
    ]


def converge(path: Path, seed: int) -> Plan:
    images = [
        make_corpus(path / f"ub{k}", subseed(seed, f"ub{k}"), 24, 0.25, 1)
        for k in range(3)
    ]
    closure = make_corpus(path / "closure", subseed(seed, "closure"), 300, 0.02, 1)
    probe, probe_elf = _probe(path, seed)
    ops = [upper_bound_op(c) for c in images] + [harvest_op(closure)]
    ops += survey_ops(probe) + elf_round(probe_elf)

    def verify(outputs: Outputs) -> list[str]:
        problems = []
        for c in images:
            problems += check_upper_bound(c, outputs)
        problems += check_harvest(closure, outputs)
        return problems + check_survey(probe, outputs) + check_elf(probe_elf, outputs)

    return Plan(ops, verify)


def survey(path: Path, seed: int) -> Plan:
    corpora = [
        make_corpus(path / f"corpus{k}", subseed(seed, f"corpus{k}"), 64, 0.1, None)
        for k in range(2)
    ]
    probe, probe_elf = _probe(path, seed)
    probes = _analysis_probes(path, seed, probe)
    ops = [op for c in corpora for op in survey_ops(c)]
    ops += analysis_probe_ops(probes) + elf_round(probe_elf)

    def verify(outputs: Outputs) -> list[str]:
        problems = []
        for c in corpora:
            problems += check_survey(c, outputs)
        problems += check_analysis_probes(probes, outputs)
        return problems + check_elf(probe_elf, outputs)

    return Plan(ops, verify)


def ingest(path: Path, seed: int) -> Plan:
    code = make_corpus(path / "code", subseed(seed, "code"), 64, 0.05, 1)
    elf = make_elf(path / "image.elf", code, subseed(seed, "data"), 48, 16 * 4096 - 200)
    (path / "malformed").mkdir()
    probe, _ = _probe(path, seed)
    probes = _analysis_probes(path, seed, probe)
    load, save, read, scan = elf_ops(elf)
    ops = numbered([load] + ([save, read] * SNAPSHOT_TIMES + [scan]) * 4)
    ops += malformed_ops(path / "malformed")
    ops += analysis_probe_ops(probes) + survey_ops(probe)

    def verify(outputs: Outputs) -> list[str]:
        problems = check_elf(elf, outputs)
        problems += check_analysis_probes(probes, outputs)
        return problems + check_survey(probe, outputs)

    return Plan(ops, verify)


WORKLOADS: dict[str, Callable[[Path, int], Plan]] = {
    "converge": converge,
    "survey": survey,
    "ingest": ingest,
}
