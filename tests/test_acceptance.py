"""Acceptance suite: one test per published claim, each timed against its
stated budget. Run with -v (or read the terminal summary) for the
per-criterion pass/fail lines."""

import io
import time

import pytest

from helpers import RW, RX, asm, build_elf, decode_stream, gadget_multiset
from ropscope.canonical import dumps
from ropscope.disasm import Reg, decode
from ropscope.encode import (
    alu_mr,
    alu_rm,
    alu_rr,
    call_r,
    jmp_r,
    mov_mr,
    mov_rm,
    mov_rr,
    pop_r,
    ret,
    shl_cl,
    shr_ri,
    syscall,
    xchg_rr,
)
from ropscope.gadgets import (
    BUILTIN_SETS,
    Footprint,
    Gadget,
    GadgetType,
    classify,
    evaluate_set,
)
from ropscope.harvest import (
    HarvestOptions,
    harvest,
    harvest_all_starts,
    mine_image,
)
from ropscope.ptrscan import scan_pointers
from ropscope.quality import GadgetShape, analyze_corruption
from ropscope.rerand import IntervalSafety, evaluate_interval, upper_bound
from ropscope.snapshot import (
    ImageBuilder,
    SegmentTag,
    load_elf,
    load_snapshot,
    page_base,
    save_snapshot,
)
from ropscope.synth import (
    GenParams,
    RandomizationScheme,
    SchemeKind,
    apply_scheme,
    default_gadget_mix,
    erase_plants,
    generate,
    materialize,
)

MIN = Footprint.MIN_FP
PF_X, PF_W, PF_R = 1, 2, 4


@pytest.mark.criterion(
    "1. harvested page set equals ground-truth reachability on 200 seeded "
    "images of 5-100 pages (exact, <60 s)"
)
def test_harvest_closure_oracle():
    t0 = time.perf_counter()
    for i in range(200):
        n_pages = 5 + (i * 95) // 199
        params = GenParams(
            n_functions=n_pages,
            mean_fn_len=6,
            connectivity=0.15,
            ensure_strongly_connected=False,
            max_functions_per_page=1,
        )
        image, truth = materialize(generate(params, 1000 + i))
        assert len(image.executable_pages()) == n_pages
        start = truth.function_entries[0]
        trace = harvest(image, start)
        assert set(trace.pages()) == \
            set(truth.reachable_pages(page_base(start)))
    assert time.perf_counter() - t0 < 60.0


@pytest.mark.criterion(
    "2. classified gadget multiset is identical across all start pointers "
    "on connected fixtures, and per-component otherwise (exact, <30 s)"
)
def test_start_pointer_invariance():
    t0 = time.perf_counter()
    opts = HarvestOptions(max_gadget_len=6)

    for seed in (3, 4, 5):
        params = GenParams(
            n_functions=9, mean_fn_len=8, connectivity=0.35,
            max_functions_per_page=1,
        )
        image, _ = materialize(generate(params, seed))
        traces = harvest_all_starts(image, opts)
        assert len(traces) == 9
        multisets = {tuple(gadget_multiset(t.gadgets)) for t in traces.values()}
        assert len(multisets) == 1

    params = GenParams(
        n_functions=10, mean_fn_len=6, connectivity=0.12,
        ensure_strongly_connected=False, max_functions_per_page=1,
    )
    saw_multiple_components = False
    for seed in (78, 79, 80):
        image, truth = materialize(generate(params, seed))
        per_component: dict[frozenset, set] = {}
        for start, trace in harvest_all_starts(image, opts).items():
            component = truth.reachable_pages(page_base(start))
            per_component.setdefault(component, set()).add(
                tuple(gadget_multiset(trace.gadgets))
            )
        saw_multiple_components |= len(per_component) > 1
        for multisets in per_component.values():
            assert len(multisets) == 1
    assert saw_multiple_components
    assert time.perf_counter() - t0 < 30.0


# One concrete pattern per directly classifiable operation.
EXEMPLARS = [
    (asm(mov_rr(Reg.RDI, Reg.RAX), ret()), GadgetType.MR),
    (asm(pop_r(Reg.RBX), ret()), GadgetType.LR),
    (asm(alu_rr("add", Reg.RCX, Reg.RBX), ret()), GadgetType.AM),
    (asm(mov_rm(Reg.RAX, Reg.RDX), ret()), GadgetType.LM),
    (asm(alu_rm("add", Reg.RSI, Reg.RBP), ret()), GadgetType.AM_LD),
    (asm(mov_mr(Reg.RDI, Reg.RAX), ret()), GadgetType.SM),
    (asm(alu_mr("sub", Reg.RBX, Reg.RAX, width=32), ret()),
     GadgetType.AM_ST),
    (asm(shl_cl(Reg.RAX), ret()), GadgetType.LOGIC),
    (asm(xchg_rr(Reg.RSP, Reg.RAX)), GadgetType.SP),
    (asm(jmp_r(Reg.RDI)), GadgetType.JMP),
    (asm(call_r(Reg.RDI)), GadgetType.CALL),
    (asm(syscall()), GadgetType.SYS),
    (asm(mov_mr(Reg.RSP, Reg.RSI), call_r(Reg.RDI)), GadgetType.CP),
    (asm(
        pop_r(Reg.RBX), pop_r(Reg.RBP), pop_r(Reg.R12), pop_r(Reg.R13),
        pop_r(Reg.R14), pop_r(Reg.RSI), pop_r(Reg.R15), pop_r(Reg.RDI),
        ret(),
    ), GadgetType.BROP),
]


@pytest.mark.criterion(
    "3. all 14 documented example patterns classify to their stated type "
    "with minimum footprint (exact, <5 s)"
)
def test_classification_exemplars():
    t0 = time.perf_counter()
    assert len(EXEMPLARS) == 14
    for code, gtype in EXEMPLARS:
        cls = classify(decode_stream(code))
        assert gtype in cls.types, (code.hex(), gtype)
        assert cls.footprints[gtype] is MIN, (code.hex(), gtype)
    assert time.perf_counter() - t0 < 5.0


def _decode_all(data: bytes, base: int):
    out, pos = [], 0
    while pos < len(data):
        insn = decode(data[pos:], base + pos)
        assert insn is not None
        out.append(insn)
        pos += insn.length
    return tuple(out)


@pytest.mark.criterion(
    "4. checksum-style window judged corrupted at core 'mov eax, edx'; "
    "'pop rbx; ret' uncorrupted; nop padding never flips clean windows to "
    "corrupted over 1000 mined gadgets (exact, <10 s)"
)
def test_corruption_exemplar_and_padding_property():
    t0 = time.perf_counter()

    checksum = classify(decode_stream(asm(
        mov_rm(Reg.RDX, Reg.RDI, width=32),
        mov_rr(Reg.RAX, Reg.RDX, width=32),
        shr_ri(Reg.RAX, 0x10, width=32),
        alu_rr("xor", Reg.RAX, Reg.RDX, width=32),
        ret(),
    )))
    core = checksum.insns[checksum.core_index[GadgetType.MR]]
    assert core.render() == "mov eax, edx"
    verdict = analyze_corruption(checksum, GadgetType.MR)
    assert verdict.corrupted
    assert verdict.shape is GadgetShape.TYPE1

    plain = classify(decode_stream(asm(pop_r(Reg.RBX), ret())))
    assert not analyze_corruption(plain, GadgetType.LR).corrupted

    # Property: a nop contributes no reads or writes, so extending any
    # window with one can never introduce a corruption verdict.
    pool: list[Gadget] = []
    seed = 0
    while len(pool) < 1000:
        image, _ = materialize(generate(
            GenParams(n_functions=10, mean_fn_len=10, connectivity=0.3),
            300 + seed,
        ))
        pool.extend(
            g for g in mine_image(image, HarvestOptions(max_gadget_len=8))
            if g.core_index
        )
        seed += 1
    checked = 0
    for gadget in pool[:1000]:
        before = {
            t: analyze_corruption(gadget, t).corrupted
            for t in gadget.core_index
        }
        padded = classify(_decode_all(b"\x90" + gadget.raw, gadget.addr - 1))
        for gtype, was_corrupted in before.items():
            if padded.core_index.get(gtype) != gadget.core_index[gtype] + 1:
                continue
            checked += 1
            now_corrupted = analyze_corruption(padded, gtype).corrupted
            assert not (now_corrupted and not was_corrupted)
    assert checked >= 1000
    assert time.perf_counter() - t0 < 10.0


@pytest.mark.criterion(
    "5. availability timelines are non-decreasing, the interval verdict "
    "steps exactly at the minimum convergence clock, and reruns are "
    "byte-identical (exact, <30 s)"
)
def test_convergence_mechanics():
    t0 = time.perf_counter()
    params = GenParams(
        n_functions=10, mean_fn_len=8, connectivity=0.3,
        max_functions_per_page=1,
    )
    image, _ = materialize(generate(params, 7))
    opts = HarvestOptions(max_gadget_len=10)

    report = upper_bound(image, opts=opts)
    assert report.converged_count == len(report.per_start) > 1
    for record in report.per_start.values():
        clocks = [clock for clock, _ in record.type_timeline]
        counts = [count for _, count in record.type_timeline]
        assert clocks == sorted(clocks)
        assert counts == list(range(1, len(counts) + 1))

    minimum = report.minimum_clock
    assert minimum is not None
    for interval in range(max(1, minimum - 25), minimum + 1):
        assert evaluate_interval(interval, report=report) \
            is IntervalSafety.SAFE
    for interval in range(minimum + 1, minimum + 26):
        assert evaluate_interval(interval, report=report) \
            is IntervalSafety.UNSAFE
    assert evaluate_interval(2 * minimum, report=report) \
        is IntervalSafety.UNSAFE

    rerun = upper_bound(image, opts=opts)
    assert dumps(rerun.to_dict()) == dumps(report.to_dict())
    assert rerun.timeline_csv() == report.timeline_csv()
    assert time.perf_counter() - t0 < 30.0


def _min_fp_labels(gadgets) -> int:
    return sum(
        1
        for g in gadgets
        for t in g.types
        if g.footprints[t] is Footprint.MIN_FP
    )


@pytest.mark.criterion(
    "6. over 20 programs with >=50 multi-instruction plants: function-level "
    "reordering changes nothing vs coarse shift (exact), instruction-level "
    "strictly reduces minimum-footprint counts on every program (<120 s)"
)
def test_randomization_direction():
    t0 = time.perf_counter()
    mix = {t: n * 2 for t, n in default_gadget_mix().items()}
    opts = HarvestOptions(max_gadget_len=10)
    for i in range(20):
        params = GenParams(
            n_functions=12, mean_fn_len=10, connectivity=0.25,
            gadget_mix=mix,
        )
        program = generate(params, 500 + i)
        image, truth = materialize(program)
        assert truth.multi_instruction_plants >= 50
        baseline = _min_fp_labels(mine_image(image, opts))
        counts = {}
        for kind in (
            SchemeKind.COARSE, SchemeKind.FUNCTION, SchemeKind.INSTRUCTION,
        ):
            scheme = RandomizationScheme(kind=kind, seed=11)
            shuffled, _ = apply_scheme(program, scheme)
            counts[kind] = _min_fp_labels(mine_image(shuffled, opts))
        assert counts[SchemeKind.COARSE] == baseline
        assert counts[SchemeKind.FUNCTION] == counts[SchemeKind.COARSE]
        assert counts[SchemeKind.INSTRUCTION] < counts[SchemeKind.FUNCTION]
    assert time.perf_counter() - t0 < 120.0


@pytest.mark.criterion(
    "7. erasing every planted load-from-memory gadget flips full-coverage "
    "convergence to false with exactly LM missing (exact, <10 s)"
)
def test_tc_preserved_flag():
    t0 = time.perf_counter()
    tc = BUILTIN_SETS["tc"]
    mix = {t: 2 for t in sorted(tc.required, key=lambda t: t.value)}
    params = GenParams(
        n_functions=10, mean_fn_len=9, connectivity=0.3, gadget_mix=mix,
    )
    image, truth = materialize(generate(params, 99))
    opts = HarvestOptions(max_gadget_len=10)
    assert evaluate_set(mine_image(image, opts), tc).converged

    erased = erase_plants(image, truth, GadgetType.LM)
    after = evaluate_set(mine_image(erased, opts), tc)
    assert not after.converged
    assert after.missing() == (GadgetType.LM,)
    assert time.perf_counter() - t0 < 10.0


@pytest.mark.criterion(
    "8. planted library-range pointers in stack/heap/data are recovered "
    "with exact occurrence and unique counts (exact, <10 s)"
)
def test_pointer_plant_and_recover():
    t0 = time.perf_counter()
    lib_range = (0x500000, 0x502000)
    planted = [0x500010, 0x500120, 0x501008, 0x501200, 0x500FF8]

    builder = ImageBuilder()
    builder.put(0x500000, b"\xc3", perms=RX, tag=SegmentTag.CODE, fill=0x06)
    builder.put(0x501000, b"\xc3", perms=RX, tag=SegmentTag.CODE, fill=0x06)
    stack = bytearray(40)
    stack[0:8] = planted[0].to_bytes(8, "little")
    stack[8:16] = planted[0].to_bytes(8, "little")   # duplicate occurrence
    stack[16:24] = planted[1].to_bytes(8, "little")
    stack[24:32] = (42).to_bytes(8, "little")        # decoy: unmapped
    stack[32:40] = (0x610000).to_bytes(8, "little")  # decoy: mapped, RW
    builder.put(0x7FE000, bytes(stack), perms=RW, tag=SegmentTag.STACK)
    builder.put(0x600000, planted[2].to_bytes(8, "little"), perms=RW,
                tag=SegmentTag.HEAP)
    builder.put(
        0x610000,
        planted[3].to_bytes(8, "little") + planted[4].to_bytes(8, "little"),
        perms=RW, tag=SegmentTag.DATA,
    )

    report = scan_pointers(builder.build(), lib_range=lib_range)
    assert report.occurrences == len(planted) + 1
    assert report.unique_values == len(planted)
    assert {h.value for h in report.hits} == set(planted)
    assert report.by_tag() == {
        SegmentTag.STACK: 3, SegmentTag.HEAP: 1, SegmentTag.DATA: 2,
    }
    assert time.perf_counter() - t0 < 10.0


@pytest.mark.criterion(
    "9. snapshot round-trip is byte-exact and a minimal ELF64 maps "
    "segments at stated addresses with correct perms and zero-fill "
    "(exact, <5 s)"
)
def test_snapshot_and_elf_ingestion():
    t0 = time.perf_counter()

    builder = ImageBuilder()
    builder.put(0x400000, asm(pop_r(Reg.RAX), ret()), fill=0x06)
    builder.put(0x600000, b"\x11\x22\x33", perms=RW, tag=SegmentTag.DATA)
    image = builder.build()
    buf = io.BytesIO()
    save_snapshot(image, buf)
    restored = load_snapshot(buf.getvalue())
    assert restored.pages == image.pages
    buf2 = io.BytesIO()
    save_snapshot(restored, buf2)
    assert buf2.getvalue() == buf.getvalue()

    code = asm(pop_r(Reg.RDI), ret())
    elf = build_elf([
        {"vaddr": 0x400000, "data": code, "memsz": 0x1200,
         "flags": PF_R | PF_X},
        {"vaddr": 0x403000, "data": b"\xAA\xBB", "memsz": 0x10,
         "flags": PF_R | PF_W},
    ])
    loaded = load_elf(elf, kind="all_load")
    exec_bases = sorted(p.base for p in loaded.executable_pages())
    assert exec_bases == [0x400000, 0x401000]
    assert loaded.read_bytes(0x400000, len(code)) == code
    assert loaded.read_bytes(0x400000 + len(code), 4) == b"\x00" * 4
    data_page = loaded.page_at(0x403000)
    assert data_page.perms.writable and not data_page.perms.executable
    assert loaded.read_bytes(0x403000, 4) == b"\xAA\xBB\x00\x00"
    assert time.perf_counter() - t0 < 5.0
