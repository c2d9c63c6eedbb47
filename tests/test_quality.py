"""Register-corruption verdicts for classified gadget windows."""

from fractions import Fraction

import pytest

from helpers import asm, decode_stream
from ropscope.disasm import Reg
from ropscope.encode import (
    alu_ri,
    alu_rr,
    mov_mr,
    mov_ri,
    mov_rm,
    mov_rr,
    nop,
    pop_r,
    ret,
    shr_ri,
    xchg_rr,
)
from ropscope.gadgets import Gadget, GadgetType, classify, find_gadgets
from ropscope.quality import (
    MODIFIER_MNEMONICS,
    GadgetShape,
    analyze_corruption,
    assess_gadgets,
    corruption_report,
    corruption_report_csv,
    summarize_by_type,
    verdict_report_csv,
)


def gadget_of(code: bytes, length: int | None = None, max_len: int = 8):
    """The full-length mined window ending at the last terminator."""
    insns = decode_stream(code)
    gadgets = find_gadgets(insns, max_len=max_len)
    want = length if length is not None else len(insns)
    for g in gadgets:
        if len(g.insns) == want:
            return g
    raise AssertionError("expected window not mined")


def classified_window(code: bytes) -> Gadget:
    """Classify a window directly; needed for pivot-terminated windows that
    mining never emits."""
    return classify(decode_stream(code))


def test_checksum_style_window_is_corrupted():
    # Load a word, copy it, fold the high half in, return the result: the
    # copy's source is clobbered before it and its result after it.
    code = asm(
        mov_rm(Reg.RDX, Reg.RDI, width=32),
        mov_rr(Reg.RAX, Reg.RDX, width=32),
        shr_ri(Reg.RAX, 0x10, width=32),
        alu_rr("xor", Reg.RAX, Reg.RDX, width=32),
        ret(),
    )
    gadget = gadget_of(code)
    assert gadget.insns[gadget.core_index[GadgetType.MR]].render() == \
        "mov eax, edx"
    verdict = analyze_corruption(gadget, GadgetType.MR)
    assert verdict.shape is GadgetShape.TYPE1
    assert verdict.regset1 == frozenset({Reg.RDX})
    assert verdict.regset2 == frozenset({Reg.RAX})
    assert verdict.corrupted
    assert verdict.unique_registers == 4  # rdi, rdx, rax, rsp


def test_plain_pop_is_uncorrupted():
    verdict = analyze_corruption(
        gadget_of(asm(pop_r(Reg.RBX), ret())), GadgetType.LR
    )
    assert not verdict.corrupted
    assert verdict.shape is GadgetShape.TYPE2
    assert verdict.regset1 == frozenset()
    assert verdict.regset2 == frozenset()


def test_write_only_core_ignores_prior_writes():
    # Writing the pop's destination beforehand is harmless; pop overwrites.
    code = asm(mov_ri(Reg.RBX, 7), pop_r(Reg.RBX), ret())
    verdict = analyze_corruption(gadget_of(code), GadgetType.LR)
    assert verdict.shape is GadgetShape.TYPE2
    assert not verdict.corrupted


def test_write_only_core_clobbered_after():
    code = asm(pop_r(Reg.RBX), mov_rr(Reg.RBX, Reg.RAX), ret())
    verdict = analyze_corruption(gadget_of(code), GadgetType.LR)
    assert verdict.shape is GadgetShape.TYPE2
    assert verdict.regset2 == frozenset({Reg.RBX})
    assert verdict.corrupted


def test_read_only_core_cares_about_prior_writes_only():
    clean = asm(mov_rr(Reg.RCX, Reg.RDX), mov_mr(Reg.RDI, Reg.RAX), ret())
    verdict = analyze_corruption(gadget_of(clean), GadgetType.SM)
    assert verdict.shape is GadgetShape.TYPE3
    assert not verdict.corrupted

    dirty = asm(mov_rr(Reg.RDI, Reg.RBX), mov_mr(Reg.RDI, Reg.RAX), ret())
    verdict = analyze_corruption(gadget_of(dirty), GadgetType.SM)
    assert verdict.regset1 == frozenset({Reg.RDI})
    assert verdict.corrupted

    # Writes after a store cannot undo it.
    late = asm(mov_mr(Reg.RDI, Reg.RAX), mov_rr(Reg.RDI, Reg.RBX), ret())
    assert not analyze_corruption(gadget_of(late), GadgetType.SM).corrupted


def test_compare_and_test_never_corrupt():
    code = asm(
        mov_rr(Reg.RDI, Reg.RAX),
        alu_ri("cmp", Reg.RDI, 0),
        ret(),
    )
    verdict = analyze_corruption(gadget_of(code), GadgetType.MR)
    assert not verdict.corrupted


def test_stack_pointer_writes_ignored_unless_pivot_assessed():
    # Every pop rewrites rsp; that must not mark the load corrupted.
    code = asm(pop_r(Reg.RAX), pop_r(Reg.RBX), ret())
    verdict = analyze_corruption(gadget_of(code), GadgetType.LR)
    assert not verdict.corrupted

    # For the pivot itself rsp is the whole point.
    g = classified_window(asm(xchg_rr(Reg.RSP, Reg.RAX)))
    v = analyze_corruption(g, GadgetType.SP)
    assert v.shape is GadgetShape.TYPE1
    assert not v.corrupted


def test_pivot_source_clobbered_before():
    code = asm(mov_ri(Reg.RAX, 0x1000), xchg_rr(Reg.RSP, Reg.RAX))
    g = classified_window(code)
    v = analyze_corruption(g, GadgetType.SP)
    assert Reg.RAX in v.regset1
    assert v.corrupted


def test_nop_padding_never_flips_to_corrupted():
    code = asm(pop_r(Reg.RBX), ret())
    base = analyze_corruption(gadget_of(code), GadgetType.LR)
    padded = asm(nop(), pop_r(Reg.RBX), ret())
    after = analyze_corruption(gadget_of(padded), GadgetType.LR)
    assert base.corrupted == after.corrupted is False


def test_missing_core_raises():
    g = gadget_of(asm(pop_r(Reg.RBX), ret()))
    with pytest.raises(ValueError):
        analyze_corruption(g, GadgetType.SYS)


def test_modifier_set_contents():
    from ropscope.disasm import Mnemonic

    assert Mnemonic.CMP not in MODIFIER_MNEMONICS
    assert Mnemonic.TEST not in MODIFIER_MNEMONICS
    assert Mnemonic.PUSH not in MODIFIER_MNEMONICS
    assert Mnemonic.MOV in MODIFIER_MNEMONICS
    assert Mnemonic.POP in MODIFIER_MNEMONICS
    assert len(MODIFIER_MNEMONICS) == 16


def test_assess_gadgets_and_rates():
    code = asm(
        pop_r(Reg.RBX), ret(),
        pop_r(Reg.RCX), mov_rr(Reg.RCX, Reg.RAX), ret(),
    )
    gadgets = find_gadgets(decode_stream(code))
    verdicts = assess_gadgets(gadgets, types=[GadgetType.LR])
    assert verdicts
    assert all(v.type_assessed is GadgetType.LR for v in verdicts)

    by_type = summarize_by_type(verdicts)
    # A type that no verdict assessed has no summary.
    assert list(by_type) == [GadgetType.LR]
    summary = by_type[GadgetType.LR]
    assert summary.assessed == len(verdicts)
    assert isinstance(summary.rate, Fraction)
    assert summary.rate == Fraction(summary.corrupted, summary.assessed)
    assert summary.mean_unique_registers == (
        sum(v.unique_registers for v in verdicts) / len(verdicts)
    )


def test_summaries_and_reports():
    code = asm(pop_r(Reg.RBX), ret(), mov_rr(Reg.RDI, Reg.RAX), ret())
    gadgets = find_gadgets(decode_stream(code))
    verdicts = assess_gadgets(gadgets)
    by_type = summarize_by_type(verdicts)
    assert GadgetType.LR in by_type
    assert GadgetType.MR in by_type

    assert list(by_type) == sorted(by_type, key=lambda t: t.value)
    assert sum(s.assessed for s in by_type.values()) == len(verdicts)

    csv_text = corruption_report_csv(by_type)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "type,assessed,corrupted,rate,mean_unique_registers"
    assert len(lines) == len(by_type) + 1
    report = corruption_report(by_type)
    assert list(report) == [line.split(",")[0] for line in lines[1:]]
    assert all(isinstance(r["rate"], float) for r in report.values())

    detail = verdict_report_csv(verdicts)
    assert detail.count("\n") == len(verdicts) + 1
