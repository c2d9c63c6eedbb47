"""Window classification, footprints, mining policy, and set coverage."""

import hashlib
import json
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    asm,
    decode_stream,
    gadget_multiset,
    is_sys_entry,
    reference_classify,
    reference_find_gadgets,
    reference_report_csv,
    reference_report_rows,
    reference_sys_anchors,
)
import ropscope.gadgets as gadgets_module
from ropscope.disasm import Reg, decode
from ropscope.encode import (
    alu_mr,
    alu_ri,
    alu_rm,
    alu_rr,
    call_m,
    call_r,
    call_rel32,
    gs_call,
    int80,
    int_n,
    jcc_rel8,
    jmp_m,
    jmp_r,
    jmp_rel8,
    jmp_rel32,
    lea,
    mov_mi,
    mov_mr,
    mov_ri,
    mov_rm,
    mov_rr,
    nop,
    pop_r,
    push_r,
    ret,
    ret_imm,
    shl_cl,
    syscall,
    sysenter,
    xchg_rr,
)
from ropscope.gadgets import (
    BUILTIN_SETS,
    TC_CATEGORIES,
    Footprint,
    GadgetSetSpec,
    GadgetType,
    classify,
    evaluate_set,
    find_gadgets,
    leaked_types,
    load_set_spec,
    population_stats,
    resolve_set,
    stream_types,
)
from ropscope.harvest import offline_disassemble
from ropscope.synth import (
    GenParams,
    RandomizationScheme,
    SchemeKind,
    apply_scheme,
    generate,
    materialize,
)

MIN = Footprint.MIN_FP
EX = Footprint.EX_FP

BROP_POPS = asm(
    pop_r(Reg.RBX), pop_r(Reg.RBP), pop_r(Reg.R12), pop_r(Reg.R13),
    pop_r(Reg.R14), pop_r(Reg.RSI), pop_r(Reg.R15), pop_r(Reg.RDI),
)

# Minimal exemplar per directly usable type: code bytes -> (type, footprint)
EXEMPLARS = [
    (asm(mov_rr(Reg.RDI, Reg.RAX), ret()), GadgetType.MR, MIN),
    (asm(pop_r(Reg.RBX), ret()), GadgetType.LR, MIN),
    (asm(alu_rr("add", Reg.RCX, Reg.RBX), ret()), GadgetType.AM, MIN),
    (asm(mov_rm(Reg.RAX, Reg.RDX), ret()), GadgetType.LM, MIN),
    (asm(alu_rm("add", Reg.RSI, Reg.RBP), ret()), GadgetType.AM_LD, MIN),
    (asm(mov_mr(Reg.RDI, Reg.RAX), ret()), GadgetType.SM, MIN),
    (asm(alu_mr("sub", Reg.RBX, Reg.RAX, width=32), ret()),
     GadgetType.AM_ST, MIN),
    (asm(shl_cl(Reg.RAX), ret()), GadgetType.LOGIC, MIN),
    (asm(xchg_rr(Reg.RSP, Reg.RAX)), GadgetType.SP, MIN),
    (asm(jmp_r(Reg.RDI)), GadgetType.JMP, MIN),
    (asm(call_r(Reg.RDI)), GadgetType.CALL, MIN),
    (asm(syscall()), GadgetType.SYS, MIN),
    (asm(mov_mr(Reg.RSP, Reg.RSI), call_r(Reg.RDI)), GadgetType.CP, MIN),
    (asm(BROP_POPS, ret()), GadgetType.BROP, MIN),
    (asm(mov_mr(Reg.RDI, Reg.RAX), ret()), GadgetType.ST, MIN),
    (asm(mov_mi(Reg.RDI, 5), ret()), GadgetType.STCONST, MIN),
    (asm(mov_rm(Reg.RAX, Reg.RDX, disp=8), ret()), GadgetType.LMEX, MIN),
    (asm(mov_mr(Reg.RDX, Reg.RAX, disp=8), ret()), GadgetType.STCONSTEX,
     MIN),
    (asm(call_r(Reg.RDI), ret()), GadgetType.CS2, MIN),
    (asm(pop_r(Reg.RBP), call_r(Reg.RDI)), GadgetType.EP, MIN),
    (asm(mov_mr(Reg.RDI, Reg.RAX), call_r(Reg.RSI), jmp_r(Reg.RDX)),
     GadgetType.RF, MIN),
    (asm(jmp_rel8(-2)), GadgetType.STOP, MIN),
    (asm(mov_ri(Reg.RAX, 7), ret()), GadgetType.MR, MIN),
    (asm(pop_r(Reg.RSP), ret()), GadgetType.SP, MIN),
    (asm(syscall(), ret()), GadgetType.SYS, MIN),
    (asm(gs_call(), ret()), GadgetType.SYS, MIN),
]


@pytest.mark.parametrize(
    "code,gtype,footprint",
    EXEMPLARS,
    ids=[f"{t.value}-{i}" for i, (_, t, _f) in enumerate(EXEMPLARS)],
)
def test_exemplar_classification(code, gtype, footprint):
    cls = classify(decode_stream(code))
    assert gtype in cls.types
    assert cls.footprints[gtype] is footprint


EXTENDED_CASES = [
    (asm(nop(), mov_rr(Reg.RDI, Reg.RAX), ret()), GadgetType.MR, EX),
    (asm(mov_rm(Reg.RAX, Reg.RDX, disp=8), ret()), GadgetType.LM, EX),
    (asm(mov_mr(Reg.RDX, Reg.RAX, disp=8), ret()), GadgetType.SM, EX),
    (asm(alu_ri("add", Reg.RSP, 0x10), ret()), GadgetType.SP, EX),
    (asm(jmp_m(Reg.RBX)), GadgetType.JMP, EX),
    (asm(call_m(Reg.RAX, disp=0x18)), GadgetType.CALL, EX),
    (asm(nop(), syscall(), ret()), GadgetType.SYS, EX),
    (asm(mov_rr(Reg.RCX, Reg.RBX), call_r(Reg.RDI)), GadgetType.CALL, EX),
    (asm(pop_r(Reg.RBP), nop(), jmp_r(Reg.RSI)), GadgetType.EP, EX),
    (asm(mov_mr(Reg.RSP, Reg.RSI), call_r(Reg.RDI), nop(), ret()),
     GadgetType.CS2, EX),
    (asm(nop(), nop(), jmp_rel8(-4)), GadgetType.STOP, EX),
]


@pytest.mark.parametrize(
    "code,gtype,footprint",
    EXTENDED_CASES,
    ids=[f"{t.value}-ex{i}" for i, (_, t, _f) in enumerate(EXTENDED_CASES)],
)
def test_extended_footprints(code, gtype, footprint):
    cls = classify(decode_stream(code))
    assert gtype in cls.types
    assert cls.footprints[gtype] is footprint


def test_core_index_picks_match_closest_to_terminator():
    code = asm(
        mov_rr(Reg.RAX, Reg.RBX),
        mov_rr(Reg.RCX, Reg.RDX),
        ret(),
    )
    cls = classify(decode_stream(code))
    assert cls.core_index[GadgetType.MR] == 1


def test_call_bare_memory_is_minimal():
    cls = classify(decode_stream(asm(call_m(Reg.RAX))))
    assert cls.footprints[GadgetType.CALL] is MIN


def test_brop_requires_exact_pop_order():
    scrambled = asm(
        pop_r(Reg.RBP), pop_r(Reg.RBX), pop_r(Reg.R12), pop_r(Reg.R13),
        pop_r(Reg.R14), pop_r(Reg.RSI), pop_r(Reg.R15), pop_r(Reg.RDI),
        ret(),
    )
    assert GadgetType.BROP not in classify(decode_stream(scrambled)).types
    assert GadgetType.BROP in classify(decode_stream(asm(BROP_POPS, ret()))).types


def test_stop_requires_backward_target():
    forward = classify(decode_stream(asm(jmp_rel8(5))))
    assert GadgetType.STOP not in forward.types


def test_ret_terminated_types_need_the_return():
    cls = classify(decode_stream(asm(mov_rr(Reg.RDI, Reg.RAX),
                                     call_r(Reg.RBX))))
    assert GadgetType.MR not in cls.types


def test_heuristic_types_are_gated():
    cs1 = asm(nop(), jcc_rel8(0x4, -3), ret())
    fs = asm(call_rel32(0x40), ret())
    tm = asm(*[nop()] * 19, ret())
    for code, gtype in [
        (cs1, GadgetType.CS1),
        (fs, GadgetType.FS),
        (tm, GadgetType.TM),
    ]:
        insns = decode_stream(code)
        assert gtype not in classify(insns).types
        enabled = classify(insns, enable_heuristic_types=True)
        assert gtype in enabled.types
        assert enabled.footprints[gtype] is EX


def test_gadgets_are_immutable_records():
    gadget = classify(decode_stream(asm(pop_r(Reg.RBX), ret())))
    for field in ("addr", "insns", "types", "footprints", "core_index"):
        with pytest.raises(AttributeError):
            setattr(gadget, field, None)
    with pytest.raises(AttributeError):
        gadget.extra = 1
    # A record equals the plain tuple of its values.
    assert gadget == tuple(gadget)
    assert gadget == classify(gadget.insns)


def test_classification_is_address_invariant():
    for code, gtype, _fp in EXEMPLARS:
        a = classify(decode_stream(code, base=0x400000))
        b = classify(decode_stream(code, base=0x7F0003000))
        assert a.types == b.types, gtype
        assert a.footprints == b.footprints
        assert a.core_index == b.core_index


@given(st.integers(min_value=0, max_value=13), st.integers(0, 2 ** 40))
@settings(max_examples=60)
def test_classification_is_pure(idx, base_offset):
    code = EXEMPLARS[idx][0]
    insns = decode_stream(code, base=0x1000 + base_offset * 16)
    first = classify(insns)
    second = classify(insns)
    assert first == second


# --- mining ---


def test_mining_emits_every_suffix_window():
    code = asm(mov_rr(Reg.RDI, Reg.RAX), ret())
    insns = decode_stream(code)
    gadgets = find_gadgets(insns)
    assert [(g.addr - insns[0].addr, len(g.insns)) for g in gadgets] == [
        (0, 2),
        (len(code) - 1, 1),
    ]


def test_mining_respects_max_len_and_is_monotone():
    code = asm(*[nop()] * 6, ret())
    insns = decode_stream(code)
    short = {(g.addr, len(g.insns)) for g in find_gadgets(insns, max_len=3)}
    full = {(g.addr, len(g.insns)) for g in find_gadgets(insns, max_len=8)}
    assert max(length for _, length in short) == 3
    assert short <= full
    assert len(full) == 7


def test_mining_stops_at_control_flow_blockers():
    code = asm(pop_r(Reg.RBX), ret(), mov_rr(Reg.RDI, Reg.RAX), ret())
    insns = decode_stream(code)
    gadgets = find_gadgets(insns)
    # No window may span the first return.
    for g in gadgets:
        mid_rets = [i for i in g.insns[:-1] if i.mnemonic.name.startswith("RET")]
        assert not mid_rets
    second_ret_windows = [g for g in gadgets if g.insns[-1].addr == insns[-1].addr]
    assert sorted(len(g.insns) for g in second_ret_windows) == [1, 2]


def test_mining_requires_byte_adjacency():
    chunk1 = asm(mov_rr(Reg.RDI, Reg.RAX))
    chunk2 = asm(ret())
    base = 0x400000
    insns = decode_stream(chunk1, base=base) + decode_stream(
        chunk2, base=base + len(chunk1) + 3
    )
    gadgets = find_gadgets(insns)
    assert all(len(g.insns) == 1 for g in gadgets)


def test_mining_calls_do_not_block_windows():
    code = asm(pop_r(Reg.RBX), call_rel32(0x100), ret())
    insns = decode_stream(code)
    lengths = {len(g.insns) for g in find_gadgets(insns)}
    assert 3 in lengths  # pop; call; ret mined as one window


def test_jmp_rel_terminators_only_with_heuristics():
    code = asm(nop(), jmp_rel8(-3))
    insns = decode_stream(code)
    plain = find_gadgets(insns)
    assert plain == ()
    fuzzy = find_gadgets(insns, enable_heuristic_types=True)
    assert any(GadgetType.STOP in g.types for g in fuzzy)


def sys_terminators(insns, heuristic: bool = False) -> list[int]:
    """Addresses of the system-entry instructions find_gadgets ends
    windows at; every terminator yields at least its one-instruction
    window."""
    return sorted({
        g.insns[-1].addr
        for g in find_gadgets(insns, enable_heuristic_types=heuristic)
        if is_sys_entry(g.insns[-1])
    })


def test_sys_anchor_alignment_rejects_embedded_bytes():
    # The syscall opcode bytes sit inside a mov immediate; only the real
    # syscall instruction may anchor windows.
    code = asm(mov_ri(Reg.RAX, 0x050F), syscall(), ret())
    insns = decode_stream(code)
    assert sys_terminators(insns) == [insns[1].addr]
    gadgets = find_gadgets(insns)
    sys_windows = [g for g in gadgets if GadgetType.SYS in g.types]
    assert sys_windows
    assert all(g.insns[-1].addr != insns[0].addr for g in gadgets)


def test_sys_anchors_cover_all_entry_kinds():
    code = asm(syscall(), ret(), sysenter(), ret(), int80(), ret(),
               gs_call(), ret())
    insns = decode_stream(code)
    expected = [i.addr for i in insns
                if i.render() in ("syscall", "sysenter", "int 0x80",
                                  "call gs:[0x10]")]
    assert sys_terminators(insns) == expected


def test_prefixed_sys_entry_is_a_core_but_not_a_terminator():
    code = asm(bytes.fromhex("480f05"), ret())
    insns = decode_stream(code)
    assert is_sys_entry(insns[0])
    assert sys_terminators(insns) == []
    (window,) = [g for g in find_gadgets(insns) if len(g.insns) == 2]
    assert window.footprints[GadgetType.SYS] is MIN


_SYS_STREAM_CHUNKS = st.sampled_from([
    syscall(), sysenter(), int80(), gs_call(), int_n(0x03),
    bytes.fromhex("480f05"), bytes.fromhex("410f34"), bytes.fromhex("41cd80"),
    mov_ri(Reg.RAX, 0x050F), mov_ri(Reg.RAX, 0x80CD, width=32),
    ret(), nop(), pop_r(Reg.RBX), mov_rr(Reg.RDI, Reg.RAX), jmp_r(Reg.RDX),
    call_r(Reg.RSI), jmp_rel8(-2),
])


@given(
    runs=st.lists(st.lists(_SYS_STREAM_CHUNKS, min_size=1, max_size=12),
                  min_size=1, max_size=3),
    gap=st.integers(0, 3),
    heuristic=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_sys_terminators_equal_raw_scan_anchors(runs, gap, heuristic):
    # Byte-adjacent runs, separated by gaps when gap > 0, form one stream.
    insns, addr = [], 0x400000
    for run in runs:
        code = asm(*run)
        insns += decode_stream(code, base=addr)
        addr += len(code) + gap
    assert sys_terminators(insns, heuristic) == reference_sys_anchors(insns)


_ORACLE_CHUNKS = st.sampled_from([
    ret(), ret_imm(8), nop(), pop_r(Reg.RBX), pop_r(Reg.RBP), pop_r(Reg.RSP),
    push_r(Reg.RAX), mov_rr(Reg.RDI, Reg.RAX), mov_ri(Reg.RAX, 7),
    mov_rm(Reg.RAX, Reg.RDX), mov_rm(Reg.RAX, Reg.RDX, disp=8),
    mov_mr(Reg.RDI, Reg.RAX), mov_mr(Reg.RSP, Reg.RSI), mov_mi(Reg.RDI, 5),
    alu_rr("add", Reg.RCX, Reg.RBX), alu_rm("sub", Reg.RSI, Reg.RBP),
    alu_mr("xor", Reg.RBX, Reg.RAX), alu_ri("add", Reg.RSP, 0x18),
    shl_cl(Reg.RAX), xchg_rr(Reg.RSP, Reg.RAX), lea(Reg.RSP, Reg.RBP, 8),
    jmp_r(Reg.RDI), jmp_m(Reg.RAX), call_r(Reg.RDI), call_m(Reg.RBX, 8),
    call_rel32(0x40), jmp_rel8(-2), jmp_rel32(0x10), jcc_rel8(0x4, -6),
    syscall(), sysenter(), int80(), int_n(0x03), gs_call(),
    bytes.fromhex("480f05"),
])


@given(
    runs=st.lists(st.lists(_ORACLE_CHUNKS, min_size=1, max_size=14),
                  min_size=1, max_size=3),
    gap=st.integers(0, 2),
    max_len=st.sampled_from([1, 5, 10]),
    heuristic=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_mining_matches_naive_windows_on_random_streams(
    runs, gap, max_len, heuristic
):
    insns, addr = [], 0x400000
    for run in runs:
        code = asm(*run)
        insns += decode_stream(code, base=addr)
        addr += len(code) + gap
    assert find_gadgets(insns, max_len, heuristic) == reference_find_gadgets(
        insns, max_len, heuristic
    )


@pytest.mark.parametrize("heuristic", [False, True])
@pytest.mark.parametrize("max_len", [1, 5, 10])
def test_mining_matches_naive_windows_on_synth_streams(max_len, heuristic):
    for seed in (3, 4):
        image, _ = materialize(generate(
            GenParams(n_functions=12, max_functions_per_page=3), seed=seed
        ))
        for stream in offline_disassemble(image).values():
            assert find_gadgets(
                stream, max_len, heuristic
            ) == reference_find_gadgets(stream, max_len, heuristic)


def test_find_gadgets_classifies_through_classify(monkeypatch):
    """Every window find_gadgets returns goes through the module's classify,
    so a wrapper bound there (as a tracer binds one) sees each window."""
    image, _ = materialize(generate(GenParams(n_functions=6), seed=3))
    streams = offline_disassemble(image).values()
    calls = []
    real_classify = gadgets_module.classify

    def counting_classify(*args, **kwargs):
        calls.append(1)
        return real_classify(*args, **kwargs)

    monkeypatch.setattr(gadgets_module, "classify", counting_classify)
    found = [g for stream in streams for g in find_gadgets(stream, max_len=5)]
    assert found and len(calls) == len(found)


def test_gadget_accessors():
    code = asm(pop_r(Reg.RBX), ret())
    insns = decode_stream(code)
    g = find_gadgets(insns)[0]
    assert g.insns == tuple(insns)
    assert g.raw == code
    assert g.footprints[GadgetType.LR] is MIN
    assert GadgetType.SYS not in g.footprints


def test_untyped_windows_are_still_reported():
    code = asm(push_r(Reg.RAX), ret())
    insns = decode_stream(code)
    gadgets = find_gadgets(insns)
    untyped = [g for g in gadgets if not g.types]
    assert untyped  # push has no core match but the window exists


# --- gadget sets and reports ---


def test_builtin_sets():
    assert set(BUILTIN_SETS) == {"tc", "priority", "movtc"}
    assert len(BUILTIN_SETS["tc"].required) == 11
    assert len(BUILTIN_SETS["priority"].required) == 10
    assert len(BUILTIN_SETS["movtc"].required) == 7
    for spec in BUILTIN_SETS.values():
        assert not set(spec.required) & {
            GadgetType.CS1, GadgetType.FS, GadgetType.TM
        }
    assert resolve_set("tc") is BUILTIN_SETS["tc"]
    with pytest.raises(ValueError):
        resolve_set("nope")


def test_tc_categories_partition_the_tc_set():
    members = [t for types in TC_CATEGORIES.values() for t in types]
    assert len(members) == len(set(members)) == 11
    assert frozenset(members) == frozenset(BUILTIN_SETS["tc"].required)
    assert len(TC_CATEGORIES) == 7


def test_set_spec_validation():
    with pytest.raises(ValueError):
        GadgetSetSpec("dup", (GadgetType.LR, GadgetType.LR))
    with pytest.raises(ValueError):
        GadgetSetSpec("empty", ())


def test_load_set_spec_round_trip(tmp_path):
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"name": "mine", "types": ["LR", "SYS"]}))
    spec = load_set_spec(path)
    assert spec.name == "mine"
    assert spec.required == (GadgetType.LR, GadgetType.SYS)

    path.write_text(json.dumps({"name": "bad", "types": ["NOPE"]}))
    with pytest.raises(ValueError):
        load_set_spec(path)
    path.write_text(json.dumps(["not", "an", "object"]))
    with pytest.raises(ValueError):
        load_set_spec(path)


def test_evaluate_set_counts_and_convergence():
    code = asm(
        pop_r(Reg.RBX), ret(),
        mov_rr(Reg.RDI, Reg.RAX), ret(),
        nop(), pop_r(Reg.RCX), ret(),
    )
    gadgets = find_gadgets(decode_stream(code))
    spec = GadgetSetSpec("pair", (GadgetType.LR, GadgetType.MR))
    report = evaluate_set(gadgets, spec)
    assert report.converged
    assert report.converged_min_fp
    assert report.missing() == ()
    assert report.counts[GadgetType.LR].min_fp == 2
    # nop; pop rcx; ret also hits LR in extended form
    assert report.counts[GadgetType.LR].ex_fp == 1
    assert report.counts[GadgetType.MR].min_fp == 1

    wider = GadgetSetSpec("trio", (GadgetType.LR, GadgetType.MR,
                                   GadgetType.SYS))
    report2 = evaluate_set(gadgets, wider)
    assert not report2.converged
    assert report2.missing() == (GadgetType.SYS,)
    assert report2.to_dict()["types"]["SYS"] == {"min_fp": 0, "ex_fp": 0}


def test_leaked_types_and_categories():
    code = asm(mov_rm(Reg.RAX, Reg.RDX), ret(), jmp_r(Reg.RDI))
    stream = decode_stream(code)
    gadgets = find_gadgets(stream)
    types = leaked_types(gadgets)
    assert GadgetType.LM in types
    assert GadgetType.JMP in types
    # How many windows have each labelling, as the labelling pass tallies.
    labellings = Counter(tuple(g.footprints.items()) for g in gadgets)
    cats = population_stats(labellings)["categories"]
    assert cats["memory"]["min_fp"] + cats["memory"]["ex_fp"] >= 1
    assert cats["control_flow"]["min_fp"] >= 1


def test_gadget_reports():
    code = asm(pop_r(Reg.RBX), ret())
    gadgets = find_gadgets(decode_stream(code))
    rows = reference_report_rows(gadgets)
    assert len(rows) == len(gadgets)
    assert rows[0]["text"] == "pop rbx; ret"

    csv_text = reference_report_csv(gadgets)
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("addr,")
    assert len(lines) == len(gadgets) + 1


def test_gadget_multiset_helper_is_order_insensitive():
    code = asm(pop_r(Reg.RBX), ret())
    gadgets = find_gadgets(decode_stream(code))
    assert gadget_multiset(gadgets) == gadget_multiset(reversed(gadgets))


# --- pinned classification digest ---

_DIGEST_REGS = (Reg.RAX, Reg.RBX, Reg.RBP, Reg.RSP, Reg.RSI, Reg.RDI, Reg.R12)


def _random_insn(rng) -> bytes:
    """One encoded instruction of a random modelled shape; rsp is as likely
    as any other register, so pivots are common."""
    a, b = rng.choice(_DIGEST_REGS), rng.choice(_DIGEST_REGS)
    disp = rng.choice((0, 0, 8, -16))
    op = rng.choice(("add", "sub", "and", "or", "xor"))
    return rng.choice((
        lambda: mov_rr(a, b), lambda: mov_ri(a, 7),
        lambda: mov_rm(a, b, disp), lambda: mov_mr(a, b, disp),
        lambda: mov_mi(a, 5, disp), lambda: alu_rr(op, a, b),
        lambda: alu_rm(op, a, b, disp), lambda: alu_mr(op, a, b, disp),
        lambda: alu_ri(op, a, 0x18), lambda: shl_cl(a),
        lambda: xchg_rr(a, b), lambda: lea(a, b, disp), lambda: pop_r(a),
        lambda: push_r(a), lambda: nop(), lambda: ret(), lambda: ret_imm(8),
        lambda: jmp_r(a), lambda: jmp_m(a, disp), lambda: call_r(a),
        lambda: call_m(a, disp), lambda: call_rel32(0x40),
        lambda: jmp_rel8(rng.choice((-2, -6, 4))),
        lambda: jcc_rel8(0x4, rng.choice((-6, 4))), lambda: syscall(),
        lambda: sysenter(), lambda: int80(), lambda: int_n(0x03),
        lambda: gs_call(), lambda: bytes.fromhex("480f05"),
    ))()


def _random_decodable_stream(seed: int, size: int) -> list:
    """Every instruction a linear sweep decodes from seeded bytes that mix
    encoded instructions with random noise; undecodable bytes are skipped."""
    rng = random.Random(seed)
    parts = []
    while sum(map(len, parts)) < size:
        if rng.random() < 0.8:
            parts.append(_random_insn(rng))
        else:
            parts.append(rng.randbytes(rng.randint(1, 4)))
    return _sweep(b"".join(parts))


def _sweep(data: bytes) -> list:
    """Every instruction a linear sweep decodes; undecodable bytes are
    skipped one at a time."""
    out, off = [], 0
    while off < len(data):
        insn = decode(data, 0x400000 + off, off)
        if insn is None:
            off += 1
        else:
            out.append(insn)
            off += insn.length
    return out


def _classification_digest() -> tuple[int, str]:
    digest = hashlib.sha256()
    count = 0

    def add(g) -> None:
        nonlocal count
        count += 1
        digest.update(repr((
            g.addr,
            tuple(sorted(t.value for t in g.types)),
            tuple(sorted((t.value, f.value) for t, f in g.footprints.items())),
            tuple(sorted((t.value, i) for t, i in g.core_index.items())),
        )).encode())

    program = generate(GenParams(n_functions=40, max_functions_per_page=4), seed=13)
    for kind in SchemeKind:
        image, _ = apply_scheme(program, RandomizationScheme(kind, seed=5))
        streams = sorted(offline_disassemble(image).items())
        for heuristic in (False, True):
            for _base, stream in streams:
                for g in find_gadgets(stream, 10, heuristic):
                    add(g)
    for seed in range(3):
        stream = _random_decodable_stream(seed, 4096)
        for heuristic in (False, True):
            for end in range(1, len(stream) + 1):
                for length in range(1, min(6, end) + 1):
                    add(classify(stream[end - length : end], heuristic))
    return count, digest.hexdigest()


def test_classification_digest_is_pinned():
    """Types, footprints and core indices of every mined window of a seeded
    corpus under all four schemes, and of every short window of random
    decodable streams, as the per-type classifier computed them."""
    assert _classification_digest() == (
        46054,
        "8006cd0b4db6fadbe0e7c950fb8db86f5f6e4665522adeb61fb69a968e6f1411",
    )


# --- the one-scan classifier against the per-type oracle ---

# Multi-instruction shapes that random single instructions rarely line up:
# the BROP pops, and a store then an indirect call as RF and CP hold them.
_STORE_CALL = asm(mov_mr(Reg.RDI, Reg.RAX), call_r(Reg.RSI))
_STORE_CALL_BARE = asm(mov_mr(Reg.RSP, Reg.RBX), call_m(Reg.RAX))


def _assert_windows_match_oracle(stream, max_len: int) -> None:
    """Every window of up to max_len instructions of the stream, whatever
    it ends at, and every window find_gadgets mines from it, classify as
    the per-type oracle does, with and without heuristic types."""
    stream = tuple(stream)
    for heuristic in (False, True):
        for end in range(1, len(stream) + 1):
            for length in range(1, min(max_len, end) + 1):
                window = stream[end - length : end]
                assert classify(window, heuristic) == reference_classify(
                    window, heuristic
                ), (heuristic, [i.render() for i in window])
        for g in find_gadgets(stream, max_len, heuristic):
            assert g == reference_classify(g.insns, heuristic), (
                heuristic, [i.render() for i in g.insns]
            )


def _shaped_decodable_stream(seed: int, size: int) -> list:
    """Like _random_decodable_stream, with the BROP pops and store-call
    pairs mixed in."""
    rng = random.Random(seed)
    parts = []
    while sum(map(len, parts)) < size:
        roll = rng.random()
        if roll < 0.04:
            parts.append(BROP_POPS)
        elif roll < 0.1:
            parts.append(rng.choice((_STORE_CALL, _STORE_CALL_BARE)))
        elif roll < 0.85:
            parts.append(_random_insn(rng))
        else:
            parts.append(rng.randbytes(rng.randint(1, 4)))
    return _sweep(b"".join(parts))


def test_classify_matches_oracle_on_mined_windows():
    """Every window find_gadgets mines from a seeded corpus under all four
    schemes classifies as the per-type oracle does."""
    program = generate(
        GenParams(n_functions=40, max_functions_per_page=4), seed=21
    )
    for kind in SchemeKind:
        image, _ = apply_scheme(program, RandomizationScheme(kind, seed=6))
        for stream in offline_disassemble(image).values():
            for heuristic in (False, True):
                for g in find_gadgets(stream, 10, heuristic):
                    assert g == reference_classify(g.insns, heuristic)


@pytest.mark.parametrize("seed,max_len", [(0, 10), (1, 10), (2, 10), (3, 22)])
def test_classify_matches_oracle_on_random_windows(seed, max_len):
    # Windows of 20 or more instructions are the heuristic TM type's.
    _assert_windows_match_oracle(
        _shaped_decodable_stream(seed, 2048), max_len
    )


_SHAPED_CHUNKS = st.one_of(
    _ORACLE_CHUNKS, st.sampled_from([BROP_POPS, _STORE_CALL, _STORE_CALL_BARE])
)


@given(
    chunks=st.lists(_SHAPED_CHUNKS, min_size=1, max_size=16),
    noise=st.lists(st.binary(min_size=1, max_size=3), max_size=2),
)
@settings(max_examples=150, deadline=None)
def test_classify_matches_oracle_on_generated_streams(chunks, noise):
    # Noise bytes between chunks break byte adjacency or decode as other
    # instructions, as leaked bytes between functions do.
    parts = list(chunks)
    for k, blob in enumerate(noise):
        parts.insert(1 + k * len(parts) // (len(noise) + 1), blob)
    _assert_windows_match_oracle(_sweep(b"".join(parts)), 10)


# --- stream_types: the leaked types without a Gadget per window ---

# The 8-pop BROP run closed by a return, and calls that can start an FS
# window inside a longer one.
_TYPE_CHUNKS = st.one_of(
    _SHAPED_CHUNKS,
    st.sampled_from([
        asm(BROP_POPS, ret()), call_rel32(0x40), call_r(Reg.RDI),
        call_m(Reg.RBX, 8),
    ]),
)


@given(
    chunks=st.lists(_TYPE_CHUNKS, min_size=1, max_size=24),
    noise=st.lists(st.binary(min_size=1, max_size=3), max_size=2),
)
# A BROP run with an instruction before it: only its 9-instruction window
# is BROP. A call inside a longer window: only the window it starts is FS.
@example(chunks=[nop(), asm(BROP_POPS, ret())], noise=[])
@example(chunks=[nop(), call_rel32(0x40), pop_r(Reg.RBX), ret()], noise=[])
@settings(max_examples=60, deadline=None)
def test_stream_types_equal_leaked_types_of_all_windows(chunks, noise):
    parts = list(chunks)
    for k, blob in enumerate(noise):
        parts.insert(1 + k * len(parts) // (len(noise) + 1), blob)
    stream = _sweep(b"".join(parts))
    for max_len in range(1, 26):
        for heuristic in (False, True):
            gadgets = find_gadgets(stream, max_len, heuristic)
            assert stream_types(stream, max_len, heuristic) == (
                leaked_types(gadgets), len(gadgets)
            ), (max_len, heuristic)


def test_stream_types_builds_no_gadget(monkeypatch):
    """stream_types applies classify's rules through the private core and
    builds no Gadget, so the module's classify, which a tracer wraps, counts
    only find_gadgets' windows; the core sees fewer windows than
    find_gadgets builds."""
    image, _ = materialize(generate(GenParams(n_functions=6), seed=3))
    streams = list(offline_disassemble(image).values())
    calls = {"classify": 0, "_classify": 0}

    def counting(name):
        real = getattr(gadgets_module, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(gadgets_module, name, count)

    counting("classify")
    counting("_classify")
    types = set()
    for stream in streams:
        types |= stream_types(stream, 10)[0]
    assert calls["classify"] == 0
    streamed = calls["_classify"]
    found = [g for stream in streams for g in find_gadgets(stream, 10)]
    assert types == leaked_types(found) and types
    assert calls["classify"] == len(found)
    assert 0 < streamed < len(found)
