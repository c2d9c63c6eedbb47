"""Register-corruption analysis for classified gadgets.

A gadget's usefulness for a given type hinges on whether the instructions
surrounding the core clobber the registers the core depends on. Instructions
before the core corrupt it when they write one of the core's source
registers; instructions after the core corrupt it when they write one of the
core's destination registers. Compare and test instructions write only
flags, so they never corrupt.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from ropscope.canonical import csv_text
from ropscope.disasm import _NAME64, Mnemonic, Reg
from ropscope.gadgets import Gadget, GadgetType

# Register-writing mnemonics that can clobber a core's inputs or outputs.
MODIFIER_MNEMONICS: frozenset[Mnemonic] = frozenset(
    {
        Mnemonic.MOV, Mnemonic.LEA, Mnemonic.ADD, Mnemonic.SUB,
        Mnemonic.IMUL, Mnemonic.POP, Mnemonic.INC, Mnemonic.DEC,
        Mnemonic.XCHG, Mnemonic.AND, Mnemonic.OR, Mnemonic.XOR,
        Mnemonic.NOT, Mnemonic.NEG, Mnemonic.SHL, Mnemonic.SHR,
    }
)


class GadgetShape(Enum):
    """Dataflow shape of a core instruction.

    TYPE1 cores read and write registers (arithmetic, register moves).
    TYPE2 cores only write a register (pop reg, mov reg, imm).
    TYPE3 cores only read registers (stores, indirect branches).
    """

    TYPE1 = "type1"
    TYPE2 = "type2"
    TYPE3 = "type3"

    # Members are singletons compared by identity, so the C-level identity
    # hash agrees with equality; Enum's own hashes the name in Python.
    __hash__ = object.__hash__


# Bound once for the per-verdict code: on Python 3.11 a member read through
# its Enum class costs as much as twenty module-global reads.
_TYPE1, _TYPE2, _TYPE3 = GadgetShape
_SHAPE_TEXT = {shape: shape.value for shape in GadgetShape}
_SP = GadgetType.SP
_RSP_ONLY = frozenset({Reg.RSP})


class CorruptionVerdict(NamedTuple):
    gadget_addr: int
    type_assessed: GadgetType
    shape: GadgetShape
    regset1: frozenset[Reg]
    regset2: frozenset[Reg]
    corrupted: bool
    unique_registers: int


def _filtered(regs: frozenset[Reg], keep_rsp: bool) -> frozenset[Reg]:
    if keep_rsp:
        return regs
    return regs - _RSP_ONLY


def analyze_corruption(gadget: Gadget, gtype: GadgetType) -> CorruptionVerdict:
    """Assess whether surrounding instructions corrupt the type's core."""
    core_idx = gadget.core_index.get(gtype)
    if core_idx is None:
        raise ValueError(f"gadget at {gadget.addr:#x} has no {gtype} core")
    insns = gadget.insns
    core = insns[core_idx]
    # Stack-pointer conflicts only matter when the stack pivot itself is the
    # behavior under assessment; every gadget touches rsp incidentally.
    keep_rsp = gtype is _SP

    sources = _filtered(core.reads, keep_rsp)
    dests = _filtered(core.writes, keep_rsp)

    if not dests and sources:
        shape = _TYPE3
    elif dests and not sources:
        shape = _TYPE2
    else:
        shape = _TYPE1

    pre_writes: set[Reg] = set()
    for insn in insns[:core_idx]:
        if insn.mnemonic in MODIFIER_MNEMONICS:
            pre_writes |= insn.writes
    post_writes: set[Reg] = set()
    for insn in insns[core_idx + 1 :]:
        if insn.mnemonic in MODIFIER_MNEMONICS:
            post_writes |= insn.writes

    # sources and dests hold rsp only when it is kept, so the writes they
    # meet need no filter of their own.
    regset1 = sources & pre_writes
    regset2 = dests & post_writes

    touched: set[Reg] = set()
    for insn in insns:
        touched |= insn.reads
        touched |= insn.writes
    return CorruptionVerdict(
        gadget_addr=gadget.addr,
        type_assessed=gtype,
        shape=shape,
        regset1=regset1,
        regset2=regset2,
        # A TYPE2 core has no sources and a TYPE3 core no destinations, so
        # the regset its shape cannot corrupt is empty.
        corrupted=bool(regset1 or regset2),
        unique_registers=len(touched),
    )


@dataclass(frozen=True)
class CorruptionSummary:
    type_assessed: GadgetType
    assessed: int
    corrupted: int
    mean_unique_registers: float

    @property
    def rate(self) -> Fraction:
        return Fraction(self.corrupted, self.assessed)


def assess_gadgets(
    gadgets: Iterable[Gadget],
    types: Iterable[GadgetType] | None = None,
) -> list[CorruptionVerdict]:
    """Assess every (gadget, type) pair, optionally restricted to types."""
    wanted = None if types is None else set(types)
    out: list[CorruptionVerdict] = []
    for gadget in gadgets:
        # A GadgetType is a str, so they sort by value.
        for gtype in sorted(gadget.types):
            if wanted is not None and gtype not in wanted:
                continue
            out.append(analyze_corruption(gadget, gtype))
    return out


def summarize_by_type(
    verdicts: Iterable[CorruptionVerdict],
) -> dict[GadgetType, CorruptionSummary]:
    """One summary per type assessed, in type order."""
    # Per type: verdicts, corrupted verdicts, registers touched.
    totals: dict[GadgetType, list[int]] = {}
    for v in verdicts:
        t = totals.setdefault(v.type_assessed, [0, 0, 0])
        t[0] += 1
        t[1] += v.corrupted
        t[2] += v.unique_registers
    return {
        gtype: CorruptionSummary(
            gtype, assessed, corrupted, registers / assessed
        )
        for gtype, (assessed, corrupted, registers) in sorted(
            totals.items(), key=lambda kv: kv[0].value
        )
    }


def corruption_report(
    summaries: Mapping[GadgetType, CorruptionSummary],
) -> dict:
    """The summaries keyed by type name: the corrupt command's JSON."""
    return {
        gtype.value: {
            "assessed": s.assessed,
            "corrupted": s.corrupted,
            "rate": float(s.rate),
            "mean_unique_registers": s.mean_unique_registers,
        }
        for gtype, s in summaries.items()
    }


def corruption_report_csv(
    summaries: Mapping[GadgetType, CorruptionSummary],
) -> str:
    """The summaries as a table, in the order given."""
    return csv_text(
        ["type", "assessed", "corrupted", "rate", "mean_unique_registers"],
        (
            [
                gtype.value,
                s.assessed,
                s.corrupted,
                f"{float(s.rate):.6f}",
                f"{s.mean_unique_registers:.4f}",
            ]
            for gtype, s in summaries.items()
        ),
    )


def verdict_report_csv(verdicts: Sequence[CorruptionVerdict]) -> str:
    return csv_text(
        [
            "addr", "type", "shape", "regset1", "regset2",
            "corrupted", "unique_registers",
        ],
        (
            [
                f"{v.gadget_addr:#x}",
                # A GadgetType is a str: the writer writes its value.
                v.type_assessed,
                _SHAPE_TEXT[v.shape],
                "|".join(sorted([_NAME64[r] for r in v.regset1])),
                "|".join(sorted([_NAME64[r] for r in v.regset2])),
                int(v.corrupted),
                v.unique_registers,
            ]
            for v in verdicts
        ),
    )
