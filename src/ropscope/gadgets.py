"""Gadget mining and classification over legitimate instruction streams.

Gadgets are backward windows ending at a terminator: a return, an indirect
branch, or a system-entry instruction. Only byte-adjacent instructions from
the decoded stream form windows, never overlapping misaligned decodes.
Each gadget carries a set of type labels and, per type, whether it appears
in minimal form (core plus terminator, simple addressing, no side effects)
or extended form.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from ropscope.disasm import GS_CALL_BYTES, Instruction, Mnemonic, Reg


class GadgetType(str, Enum):
    MR = "MR"
    LR = "LR"
    AM = "AM"
    LM = "LM"
    AM_LD = "AM-LD"
    SM = "SM"
    AM_ST = "AM-ST"
    LOGIC = "LOGIC"
    SP = "SP"
    JMP = "JMP"
    CALL = "CALL"
    SYS = "SYS"
    CP = "CP"
    CS1 = "CS1"
    FS = "FS"
    TM = "TM"
    RF = "RF"
    CS2 = "CS2"
    EP = "EP"
    BROP = "BROP"
    STOP = "STOP"
    # Refined store/load shapes used by the narrower built-in sets.
    ST = "ST"
    STCONSTEX = "STCONSTEX"
    STCONST = "STCONST"
    LMEX = "LMEX"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


def gadget_type(name: object) -> GadgetType:
    """The gadget type whose value is `name`; ValueError for any other."""
    try:
        return GadgetType(name)
    except ValueError:
        raise ValueError(f"unknown gadget type {name!r}") from None


class Footprint(Enum):
    MIN_FP = "MIN"
    EX_FP = "EX"


# Operation categories used by scheme-comparison reports.
TC_CATEGORIES: dict[str, tuple[GadgetType, ...]] = {
    "memory": (GadgetType.LM, GadgetType.SM),
    "assignment": (GadgetType.LR, GadgetType.MR),
    "arithmetic": (GadgetType.AM, GadgetType.AM_LD, GadgetType.AM_ST),
    "logical": (GadgetType.LOGIC,),
    "control_flow": (GadgetType.JMP,),
    "function_call": (GadgetType.CALL,),
    "system_call": (GadgetType.SYS,),
}

_ARITH = frozenset({Mnemonic.ADD, Mnemonic.SUB, Mnemonic.IMUL})
_LOGICAL = frozenset(
    {Mnemonic.AND, Mnemonic.OR, Mnemonic.XOR, Mnemonic.SHL, Mnemonic.SHR}
)
_PIVOT_WRITERS = _ARITH | _LOGICAL | {Mnemonic.MOV}
_RET_CLASS = frozenset({Mnemonic.RET, Mnemonic.RET_IMM})
_SYS_CORES = frozenset(
    {Mnemonic.SYSCALL, Mnemonic.SYSENTER, Mnemonic.CALL_GS}
)
# The exact register order of the eight pops before a BROP gadget's return.
BROP_REGS = (
    Reg.RBX, Reg.RBP, Reg.R12, Reg.R13, Reg.R14, Reg.RSI, Reg.R15, Reg.RDI,
)


def _is_sys_core(insn: Instruction) -> bool:
    if insn.mnemonic in _SYS_CORES:
        return True
    return (
        insn.mnemonic is Mnemonic.INT
        and insn.operands
        and insn.operands[0].imm == 0x80
    )


def _is_store_mov(insn: Instruction) -> bool:
    return (
        insn.mnemonic is Mnemonic.MOV
        and len(insn.operands) == 2
        and insn.operands[0].is_mem
        and insn.operands[1].is_reg
    )


class Gadget(NamedTuple):
    """A classified instruction window ending at a terminator; an
    immutable record, as the instructions it holds are."""

    addr: int
    insns: tuple[Instruction, ...]
    types: frozenset[GadgetType]
    footprints: Mapping[GadgetType, Footprint]
    core_index: Mapping[GadgetType, int]

    @property
    def length(self) -> int:
        return len(self.insns)

    @property
    def end(self) -> int:
        return self.insns[-1].end

    @property
    def raw(self) -> bytes:
        return b"".join(i.raw for i in self.insns)

    @property
    def terminator(self) -> Instruction:
        return self.insns[-1]

    def footprint(self, gtype: GadgetType) -> Footprint | None:
        return self.footprints.get(gtype)

    def render(self) -> str:
        return "; ".join(i.render() for i in self.insns)


# Per-instruction core matching. Each hit names a type and whether the match
# is in the type's minimal shape (register operands or a bare [reg] address).


def _insn_cores(insn: Instruction) -> list[tuple[GadgetType, bool]]:
    hits: list[tuple[GadgetType, bool]] = []
    m = insn.mnemonic
    ops = insn.operands

    if m in _PIVOT_WRITERS and len(ops) == 2 and ops[0].reg is Reg.RSP:
        # A two-operand write to rsp is a stack pivot, whatever it computes.
        hits.append((GadgetType.SP, ops[1].is_reg))

    elif m is Mnemonic.MOV and len(ops) == 2:
        dst, src = ops
        if dst.is_reg and (src.is_reg or src.is_imm):
            hits.append((GadgetType.MR, True))
        elif dst.is_reg and src.is_mem:
            mem = src.mem
            hits.append((GadgetType.LM, mem.is_bare))
            if mem.base is not None and mem.index is None and mem.disp != 0:
                hits.append((GadgetType.LMEX, True))
        elif dst.is_mem and src.is_reg:
            mem = dst.mem
            hits.append((GadgetType.SM, mem.is_bare))
            hits.append((GadgetType.ST, mem.is_bare))
            if mem.base is not None and mem.index is None and mem.disp != 0:
                hits.append((GadgetType.STCONSTEX, True))
        elif dst.is_mem and src.is_imm:
            mem = dst.mem
            hits.append((GadgetType.STCONST, mem.is_bare))
            if mem.base is not None and mem.index is None and mem.disp != 0:
                hits.append((GadgetType.STCONSTEX, True))

    elif m in _ARITH and len(ops) == 2:
        dst, src = ops
        if dst.is_reg and (src.is_reg or src.is_imm):
            hits.append((GadgetType.AM, True))
        elif dst.is_reg and src.is_mem:
            hits.append((GadgetType.AM_LD, src.mem.is_bare))
        elif dst.is_mem and src.is_reg:
            hits.append((GadgetType.AM_ST, dst.mem.is_bare))

    elif m in _LOGICAL and len(ops) == 2:
        dst = ops[0]
        if dst.is_reg:
            hits.append((GadgetType.LOGIC, True))
        elif dst.is_mem:
            hits.append((GadgetType.LOGIC, dst.mem.is_bare))

    elif m is Mnemonic.POP and ops:
        reg = ops[0].reg
        if reg is Reg.RSP:
            hits.append((GadgetType.SP, True))
        else:
            hits.append((GadgetType.LR, True))

    elif m is Mnemonic.XCHG and len(ops) == 2:
        regs = {o.reg for o in ops if o.is_reg}
        if Reg.RSP in regs and len(regs) == 2:
            hits.append((GadgetType.SP, True))

    elif m is Mnemonic.LEA and ops and ops[0].reg is Reg.RSP:
        hits.append((GadgetType.SP, False))

    elif m is Mnemonic.JMP_RM:
        hits.append((GadgetType.JMP, ops[0].is_reg))

    elif m is Mnemonic.CALL_RM:
        op = ops[0]
        bare = op.is_reg or (op.is_mem and op.mem.is_bare)
        hits.append((GadgetType.CALL, bare))

    elif m is Mnemonic.CALL_GS:
        hits.append((GadgetType.SYS, True))
        hits.append((GadgetType.CALL, False))

    elif _is_sys_core(insn):
        hits.append((GadgetType.SYS, True))

    return hits


# The two places a single-instruction core may sit. A core that is the
# window's last instruction acts by itself (a pivot redirects control
# through the new stack, so its minimum footprint has no closing return);
# it is minimal when it is the whole window. A core before a closing return
# is minimal when the return alone follows it.
_LAST_CORE_TYPES = frozenset(
    {GadgetType.SP, GadgetType.JMP, GadgetType.CALL, GadgetType.SYS}
)
_RET_CORE_TYPES = frozenset(
    {
        GadgetType.MR, GadgetType.LR, GadgetType.AM, GadgetType.LM,
        GadgetType.AM_LD, GadgetType.SM, GadgetType.AM_ST, GadgetType.LOGIC,
        GadgetType.ST, GadgetType.STCONST,
        GadgetType.STCONSTEX, GadgetType.LMEX,
        GadgetType.SP, GadgetType.SYS,
    }
)


def classify(
    insns: Sequence[Instruction],
    enable_heuristic_types: bool = False,
    matches: Sequence[list[tuple[GadgetType, bool]]] | None = None,
) -> Gadget:
    """Classify an instruction window into the gadget it forms.

    Types, footprints and core indices are position-pure: they depend only
    on mnemonics, operands, and branch offsets relative to the window, never
    on absolute addresses. `matches`, when given, holds the core matches of
    each instruction of the window as `find_gadgets` caches them.
    """
    assert insns, "cannot classify an empty window"
    if matches is None:
        matches = [_insn_cores(insn) for insn in insns]
    last = insns[-1]
    n = len(insns)
    footprints: dict[GadgetType, Footprint] = {}
    cores: dict[GadgetType, int] = {}

    ret_end = last.mnemonic in _RET_CLASS

    # Single-instruction core matches; the match closest to the terminator
    # wins the core slot for its type.
    per_insn: dict[GadgetType, tuple[int, bool]] = {}
    for idx, hits in enumerate(matches):
        for gtype, strict in hits:
            per_insn[gtype] = (idx, strict)

    for gtype, (idx, strict) in per_insn.items():
        if idx == n - 1:
            if gtype not in _LAST_CORE_TYPES:
                continue
            minimal = strict and n == 1
        elif ret_end and gtype in _RET_CORE_TYPES:
            minimal = strict and n == 2
        else:
            continue
        cores[gtype] = idx
        footprints[gtype] = Footprint.MIN_FP if minimal else Footprint.EX_FP

    # Sequence-shaped types.
    if last.mnemonic is Mnemonic.CALL_RM and n >= 2 and _is_store_mov(insns[-2]):
        strict = (
            n == 2
            and insns[-2].operands[0].mem.is_bare
            and last.operands[0].is_reg
        )
        cores[GadgetType.CP] = n - 2
        footprints[GadgetType.CP] = (
            Footprint.MIN_FP if strict else Footprint.EX_FP
        )

    if ret_end:
        call_sites = [
            i for i in range(n - 1) if insns[i].mnemonic is Mnemonic.CALL_RM
        ]
        if call_sites:
            cores[GadgetType.CS2] = call_sites[-1]
            footprints[GadgetType.CS2] = (
                Footprint.MIN_FP if n == 2 else Footprint.EX_FP
            )

    if last.mnemonic in (Mnemonic.CALL_RM, Mnemonic.JMP_RM):
        pops = [
            i
            for i in range(n - 1)
            if insns[i].mnemonic is Mnemonic.POP
            and insns[i].operands[0].reg is Reg.RBP
        ]
        if pops:
            cores[GadgetType.EP] = pops[-1]
            footprints[GadgetType.EP] = (
                Footprint.MIN_FP if n == 2 else Footprint.EX_FP
            )

    if last.mnemonic is Mnemonic.JMP_RM:
        for i in range(1, n - 1):
            if insns[i].mnemonic is Mnemonic.CALL_RM and _is_store_mov(
                insns[i - 1]
            ):
                cores[GadgetType.RF] = i - 1
                footprints[GadgetType.RF] = (
                    Footprint.MIN_FP if n == 3 else Footprint.EX_FP
                )
                break

    if (
        n == 9
        and ret_end
        and all(
            insns[i].mnemonic is Mnemonic.POP
            and insns[i].operands[0].reg is BROP_REGS[i]
            for i in range(8)
        )
    ):
        cores[GadgetType.BROP] = 7
        footprints[GadgetType.BROP] = Footprint.MIN_FP

    if (
        last.mnemonic is Mnemonic.JMP_REL
        and last.branch_target is not None
        and insns[0].addr <= last.branch_target <= last.addr
    ):
        cores[GadgetType.STOP] = n - 1
        footprints[GadgetType.STOP] = (
            Footprint.MIN_FP if n <= 2 else Footprint.EX_FP
        )

    if enable_heuristic_types:
        if n >= 20:
            cores[GadgetType.TM] = n - 1
            footprints[GadgetType.TM] = Footprint.EX_FP
        backward_jcc = [
            i
            for i in range(n)
            if insns[i].mnemonic is Mnemonic.JCC
            and insns[i].branch_target is not None
            and insns[0].addr <= insns[i].branch_target <= insns[i].addr
        ]
        if backward_jcc and ret_end:
            cores[GadgetType.CS1] = backward_jcc[-1]
            footprints[GadgetType.CS1] = Footprint.EX_FP
        if (
            ret_end
            and n >= 2
            and insns[0].mnemonic in (Mnemonic.CALL_REL, Mnemonic.CALL_RM)
        ):
            cores[GadgetType.FS] = 0
            footprints[GadgetType.FS] = Footprint.EX_FP

    return Gadget(
        insns[0].addr, tuple(insns), frozenset(cores), footprints, cores
    )


# A system-entry instruction ends a window only in its plain encoding; a
# prefixed one is still a SYS core mid-window.
_SYS_ENTRY_OPCODES = (b"\x0f\x05", b"\x0f\x34", b"\xcd\x80", GS_CALL_BYTES)

# Unconditional control transfers no window may span.
_BLOCKERS = frozenset(
    {Mnemonic.RET, Mnemonic.RET_IMM, Mnemonic.JMP_REL, Mnemonic.JMP_RM}
)


def find_gadgets(
    insns: Sequence[Instruction],
    max_len: int = 5,
    enable_heuristic_types: bool = False,
) -> tuple[Gadget, ...]:
    """Mine gadget windows from a decoded stream.

    For each terminator, every byte-adjacent backward window up to max_len
    instructions becomes a gadget, provided no unconditional control-flow
    break sits mid-window. A system-entry instruction is a terminator only
    when its encoding starts with the plain opcode bytes.
    """
    stream = sorted(insns, key=lambda i: i.addr)
    terminator_positions = []
    for pos, insn in enumerate(stream):
        if insn.mnemonic in _RET_CLASS or insn.mnemonic in (
            Mnemonic.JMP_RM,
            Mnemonic.CALL_RM,
        ):
            terminator_positions.append(pos)
        elif _is_sys_core(insn):
            if insn.raw.startswith(_SYS_ENTRY_OPCODES):
                terminator_positions.append(pos)
        elif enable_heuristic_types and insn.mnemonic is Mnemonic.JMP_REL:
            terminator_positions.append(pos)

    # Core matches by stream position, computed the first time a window
    # takes the position in; windows of nearby terminators share them.
    matches: list[list[tuple[GadgetType, bool]] | None] = [None] * len(stream)
    gadgets: list[Gadget] = []
    for pos in terminator_positions:
        low = pos
        while pos - low + 1 < max_len and low > 0:
            prev = stream[low - 1]
            if prev.end != stream[low].addr or prev.mnemonic in _BLOCKERS:
                break
            low -= 1
        for i in range(low, pos + 1):
            if matches[i] is None:
                matches[i] = _insn_cores(stream[i])
        for start in range(low, pos + 1):
            gadgets.append(classify(
                stream[start : pos + 1],
                enable_heuristic_types,
                matches[start : pos + 1],
            ))

    gadgets.sort(key=lambda g: (g.addr, g.length))
    return tuple(gadgets)


@dataclass(frozen=True)
class GadgetSetSpec:
    """A named set of required gadget types."""

    name: str
    required: tuple[GadgetType, ...]

    def __post_init__(self) -> None:
        if len(set(self.required)) != len(self.required):
            raise ValueError("duplicate types in set spec")
        if not self.required:
            raise ValueError("set spec requires at least one type")


# The expressiveness core: types that together give load, store, move,
# arithmetic, logic, control transfer, and system-call primitives.
TC_SET = GadgetSetSpec(
    "tc",
    (
        GadgetType.LM, GadgetType.SM, GadgetType.LR, GadgetType.MR,
        GadgetType.AM, GadgetType.AM_LD, GadgetType.AM_ST, GadgetType.LOGIC,
        GadgetType.JMP, GadgetType.CALL, GadgetType.SYS,
    ),
)
PRIORITY_SET = GadgetSetSpec(
    "priority",
    (
        GadgetType.LR, GadgetType.AM, GadgetType.LM, GadgetType.JMP,
        GadgetType.ST, GadgetType.SP, GadgetType.LOGIC, GadgetType.MR,
        GadgetType.CALL, GadgetType.SYS,
    ),
)
MOV_TC_SET = GadgetSetSpec(
    "movtc",
    (
        GadgetType.MR, GadgetType.ST, GadgetType.STCONSTEX,
        GadgetType.STCONST, GadgetType.LM, GadgetType.LMEX, GadgetType.SYS,
    ),
)

BUILTIN_SETS: dict[str, GadgetSetSpec] = {
    s.name: s for s in (TC_SET, PRIORITY_SET, MOV_TC_SET)
}


def load_set_spec(path: str | Path) -> GadgetSetSpec:
    """Load a user-defined set spec: {"name": ..., "types": ["LM", ...]}."""
    data = json.loads(Path(path).read_text())
    if not (
        isinstance(data, dict)
        and isinstance(data.get("name"), str)
        and isinstance(data.get("types"), list)
        and all(isinstance(name, str) for name in data["types"])
    ):
        raise ValueError(
            "set spec must be an object with a string 'name' and a list of "
            "strings 'types'"
        )
    return GadgetSetSpec(data["name"], tuple(map(gadget_type, data["types"])))


def resolve_set(name: str) -> GadgetSetSpec:
    if name not in BUILTIN_SETS:
        raise ValueError(
            f"unknown gadget set {name!r}; "
            f"built-ins: {', '.join(sorted(BUILTIN_SETS))}"
        )
    return BUILTIN_SETS[name]


@dataclass
class TypeCount:
    min_fp: int = 0
    ex_fp: int = 0

    @property
    def total(self) -> int:
        return self.min_fp + self.ex_fp


@dataclass
class CoverageReport:
    """Per-type counts for one set spec over a gadget collection."""

    spec_name: str
    counts: dict[GadgetType, TypeCount]

    @property
    def converged(self) -> bool:
        return all(c.total >= 1 for c in self.counts.values())

    @property
    def converged_min_fp(self) -> bool:
        return all(c.min_fp >= 1 for c in self.counts.values())

    def missing(self) -> tuple[GadgetType, ...]:
        return tuple(t for t, c in self.counts.items() if c.total == 0)

    def to_dict(self) -> dict:
        return {
            "set": self.spec_name,
            "converged": self.converged,
            "converged_min_fp": self.converged_min_fp,
            "types": {
                t.value: {"min_fp": c.min_fp, "ex_fp": c.ex_fp}
                for t, c in self.counts.items()
            },
        }


def type_counts(gadgets: Iterable[Gadget]) -> dict[GadgetType, TypeCount]:
    """MIN/EX counts per gadget type present; a gadget counts once per type."""
    counts: dict[GadgetType, TypeCount] = {}
    for gadget in gadgets:
        for gtype in gadget.types:
            count = counts.setdefault(gtype, TypeCount())
            if gadget.footprints[gtype] is Footprint.MIN_FP:
                count.min_fp += 1
            else:
                count.ex_fp += 1
    return counts


def evaluate_set(
    gadgets: Iterable[Gadget], spec: GadgetSetSpec
) -> CoverageReport:
    counts = type_counts(gadgets)
    return CoverageReport(
        spec.name, {t: counts.get(t, TypeCount()) for t in spec.required}
    )


def min_fp_labels(gadgets: Iterable[Gadget]) -> int:
    """Number of (gadget, type) labels in minimal-footprint form."""
    return sum(
        1
        for g in gadgets
        for t in g.types
        if g.footprints[t] is Footprint.MIN_FP
    )


def leaked_types(gadgets: Iterable[Gadget]) -> frozenset[GadgetType]:
    out: set[GadgetType] = set()
    for gadget in gadgets:
        out |= gadget.types
    return frozenset(out)


def category_counts(
    gadgets: Iterable[Gadget],
) -> dict[str, TypeCount]:
    """MIN/EX counts of expressiveness-core gadgets grouped by operation
    category. A gadget contributes once per category it has a type in."""
    out = {name: TypeCount() for name in TC_CATEGORIES}
    for gadget in gadgets:
        for name, members in TC_CATEGORIES.items():
            present = [t for t in members if t in gadget.types]
            if not present:
                continue
            if any(
                gadget.footprints[t] is Footprint.MIN_FP for t in present
            ):
                out[name].min_fp += 1
            else:
                out[name].ex_fp += 1
    return out


def gadget_report_rows(gadgets: Iterable[Gadget]) -> list[dict]:
    # Windows that end at one terminator share their tail instructions, so
    # each instruction is rendered once per report. The memo holds every
    # instruction it names, so no id is reused while it lives.
    rendered: dict[int, tuple[Instruction, str]] = {}

    def render(insn: Instruction) -> str:
        memo = rendered.get(id(insn))
        if memo is None:
            memo = rendered[id(insn)] = (insn, insn.render())
        return memo[1]

    rows = []
    for g in gadgets:
        rows.append(
            {
                "addr": f"{g.addr:#x}",
                "bytes_hex": g.raw.hex(),
                "text": "; ".join(map(render, g.insns)),
                "types": "|".join(sorted(t.value for t in g.types)),
                "footprints": "|".join(
                    f"{t.value}={g.footprints[t].value}"
                    for t in sorted(g.types, key=lambda t: t.value)
                ),
            }
        )
    return rows


def gadget_report_csv(gadgets: Iterable[Gadget]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf,
        fieldnames=["addr", "bytes_hex", "text", "types", "footprints"],
        lineterminator="\n",
    )
    writer.writeheader()
    for row in gadget_report_rows(gadgets):
        writer.writerow(row)
    return buf.getvalue()
