"""Gadget mining and classification over legitimate instruction streams.

Gadgets are backward windows ending at a terminator: a return, an indirect
branch, or a system-entry instruction. Only byte-adjacent instructions from
the decoded stream form windows, never overlapping misaligned decodes.
Each gadget carries a set of type labels and, per type, whether it appears
in minimal form (core plus terminator, simple addressing, no side effects)
or extended form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from ropscope.canonical import csv_text
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


# The members, bound once in definition order for the per-window code: on
# Python 3.11 a member read through its Enum class costs as much as twenty
# module-global reads.
(
    _MR, _LR, _AM, _LM, _AM_LD, _SM, _AM_ST, _LOGIC, _SP, _JMP, _CALL, _SYS,
    _CP, _CS1, _FS, _TM, _RF, _CS2, _EP, _BROP, _STOP, _ST, _STCONSTEX,
    _STCONST, _LMEX,
) = GadgetType


def gadget_type(name: object) -> GadgetType:
    """The gadget type whose value is `name`; ValueError for any other."""
    try:
        return GadgetType(name)
    except ValueError:
        raise ValueError(f"unknown gadget type {name!r}") from None


class Footprint(Enum):
    MIN_FP = "MIN"
    EX_FP = "EX"

    # Members are singletons compared by identity, so the C-level identity
    # hash agrees with equality; Enum's own hashes the name in Python.
    __hash__ = object.__hash__


_MIN, _EX = Footprint.MIN_FP, Footprint.EX_FP
# The report text of each type.
_TYPE_TEXT = {gtype: gtype.value for gtype in GadgetType}


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
# The category of each type in TC_CATEGORIES; no type is in two.
_CATEGORY_OF = {
    gtype: name for name, members in TC_CATEGORIES.items() for gtype in members
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
# The registers and mnemonics the per-window code reads, bound once as the
# gadget types are.
_RSP, _RBP = Reg.RSP, Reg.RBP
_MOV, _POP, _XCHG, _LEA = Mnemonic.MOV, Mnemonic.POP, Mnemonic.XCHG, Mnemonic.LEA
_CALL_RM, _JMP_RM, _CALL_GS = Mnemonic.CALL_RM, Mnemonic.JMP_RM, Mnemonic.CALL_GS
_JCC, _JMP_REL, _INT = Mnemonic.JCC, Mnemonic.JMP_REL, Mnemonic.INT
_CALLS = frozenset({Mnemonic.CALL_REL, Mnemonic.CALL_RM})


def _is_store_mov(insn: Instruction) -> bool:
    ops = insn.operands
    return (
        insn.mnemonic is _MOV
        and len(ops) == 2
        and ops[0].kind == "mem"
        and ops[1].kind == "reg"
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

_CoreHits = Sequence[tuple[GadgetType, bool]]

# Mnemonics that can be a single-instruction core. Any other instruction (a
# call rel32, a jcc, a return, filler) matches nothing.
_CORE_MNEMONICS = _PIVOT_WRITERS | _SYS_CORES | {
    Mnemonic.POP, Mnemonic.XCHG, Mnemonic.LEA, Mnemonic.JMP_RM,
    Mnemonic.CALL_RM, Mnemonic.INT,
}


def _insn_cores(insn: Instruction) -> _CoreHits:
    """The core matches of one instruction, () at once for a mnemonic that
    can never be a core. They depend only on the mnemonic and operands, so
    every window that holds the instruction can share them."""
    m = insn.mnemonic
    if m not in _CORE_MNEMONICS:
        return ()
    hits: list[tuple[GadgetType, bool]] = []
    ops = insn.operands

    if m in _PIVOT_WRITERS and len(ops) == 2 and ops[0].reg is _RSP:
        # A two-operand write to rsp is a stack pivot, whatever it computes.
        hits.append((_SP, ops[1].kind == "reg"))

    elif m is _MOV and len(ops) == 2:
        dst, src = ops
        # An operand that is not in memory is a register or an immediate.
        if dst.kind == "reg" and src.kind != "mem":
            hits.append((_MR, True))
        elif dst.kind == "reg":
            mem = src.mem
            hits.append((_LM, mem.is_bare))
            if mem.base is not None and mem.index is None and mem.disp != 0:
                hits.append((_LMEX, True))
        elif dst.kind == "mem" and src.kind == "reg":
            mem = dst.mem
            hits.append((_SM, mem.is_bare))
            hits.append((_ST, mem.is_bare))
            if mem.base is not None and mem.index is None and mem.disp != 0:
                hits.append((_STCONSTEX, True))
        elif dst.kind == "mem" and src.kind == "imm":
            mem = dst.mem
            hits.append((_STCONST, mem.is_bare))
            if mem.base is not None and mem.index is None and mem.disp != 0:
                hits.append((_STCONSTEX, True))

    elif m in _ARITH and len(ops) == 2:
        dst, src = ops
        if dst.kind == "reg" and src.kind != "mem":
            hits.append((_AM, True))
        elif dst.kind == "reg":
            hits.append((_AM_LD, src.mem.is_bare))
        elif dst.kind == "mem" and src.kind == "reg":
            hits.append((_AM_ST, dst.mem.is_bare))

    elif m in _LOGICAL and len(ops) == 2:
        dst = ops[0]
        if dst.kind == "reg":
            hits.append((_LOGIC, True))
        elif dst.kind == "mem":
            hits.append((_LOGIC, dst.mem.is_bare))

    elif m is _POP and ops:
        reg = ops[0].reg
        if reg is _RSP:
            hits.append((_SP, True))
        else:
            hits.append((_LR, True))

    elif m is _XCHG and len(ops) == 2:
        regs = {o.reg for o in ops if o.kind == "reg"}
        if _RSP in regs and len(regs) == 2:
            hits.append((_SP, True))

    elif m is _LEA and ops and ops[0].reg is _RSP:
        hits.append((_SP, False))

    elif m is _JMP_RM:
        hits.append((_JMP, ops[0].kind == "reg"))

    elif m is _CALL_RM:
        op = ops[0]
        bare = op.kind == "reg" or (op.kind == "mem" and op.mem.is_bare)
        hits.append((_CALL, bare))

    elif m is _CALL_GS:
        hits.append((_SYS, True))
        hits.append((_CALL, False))

    elif m in _SYS_CORES or (
        m is _INT and ops and ops[0].imm == 0x80
    ):
        hits.append((_SYS, True))

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


def _backward_branch(insn: Instruction, first: int) -> bool:
    """A branch whose target lies in the window from `first` to the branch."""
    target = insn.branch_target
    return target is not None and first <= target <= insn.addr


def classify(
    insns: Sequence[Instruction],
    enable_heuristic_types: bool = False,
    matches: Sequence[_CoreHits] | None = None,
) -> Gadget:
    """Classify an instruction window into the gadget it forms.

    Types, footprints and core indices are position-pure: they depend only
    on mnemonics, operands, and branch offsets relative to the window, never
    on absolute addresses. `matches`, when given, holds `_insn_cores` of
    each instruction of the window, as `find_gadgets` caches them. The
    rules are `_classify`'s."""
    assert insns, "cannot classify an empty window"
    if matches is None:
        matches = [_insn_cores(insn) for insn in insns]
    cores, footprints = _classify(insns, enable_heuristic_types, matches)
    return Gadget(
        insns[0].addr, tuple(insns), frozenset(cores), footprints, cores
    )


def _classify(
    insns: Sequence[Instruction],
    enable_heuristic_types: bool,
    matches: Sequence[_CoreHits],
) -> tuple[dict[GadgetType, int], dict[GadgetType, Footprint]]:
    """The core index and footprint of each type of a nonempty window, given
    `_insn_cores` of each of its instructions.

    The single-instruction cores come from one backward scan from the
    terminator. The first hit of a type the scan meets, the one closest to
    the terminator, takes the type's core slot when the type may sit there
    and drops the type when it may not: before a closing return only the
    `_RET_CORE_TYPES` may sit, and in any other window only the last
    instruction's `_LAST_CORE_TYPES`. The scan of a return-ended window
    also finds the CS2 call site, and with heuristic types the CS1 branch.
    The CP, EP and RF shapes are looked for only in windows that end in an
    indirect call or jmp, and BROP only in 9-instruction return windows.
    """
    n = len(insns)
    last = insns[-1].mnemonic
    footprints: dict[GadgetType, Footprint] = {}
    cores: dict[GadgetType, int] = {}

    if last in _RET_CLASS:
        two = n == 2
        call_site = -1
        want_cs1 = enable_heuristic_types
        for idx in range(n - 2, -1, -1):
            hits = matches[idx]
            if hits:
                for gtype, strict in hits:
                    if gtype not in cores and gtype in _RET_CORE_TYPES:
                        cores[gtype] = idx
                        footprints[gtype] = _MIN if strict and two else _EX
                # An indirect call always matches a CALL core; a jcc never
                # matches one.
                if call_site < 0 and insns[idx].mnemonic is _CALL_RM:
                    call_site = idx
            elif want_cs1:
                insn = insns[idx]
                if insn.mnemonic is _JCC and _backward_branch(
                    insn, insns[0].addr
                ):
                    cores[_CS1] = idx
                    footprints[_CS1] = _EX
                    want_cs1 = False
        if call_site >= 0:
            cores[_CS2] = call_site
            footprints[_CS2] = _MIN if two else _EX
        if n == 9 and all(
            insns[i].mnemonic is _POP
            and insns[i].operands[0].reg is BROP_REGS[i]
            for i in range(8)
        ):
            cores[_BROP] = 7
            footprints[_BROP] = _MIN
        if (
            enable_heuristic_types
            and n >= 2
            and insns[0].mnemonic in _CALLS
        ):
            cores[_FS] = 0
            footprints[_FS] = _EX
    else:
        one = n == 1
        for gtype, strict in matches[-1]:
            if gtype in _LAST_CORE_TYPES:
                cores[gtype] = n - 1
                footprints[gtype] = _MIN if strict and one else _EX
        if n >= 2 and (last is _CALL_RM or last is _JMP_RM):
            _indirect_shapes(insns, last, cores, footprints)
        elif last is _JMP_REL and _backward_branch(
            insns[-1], insns[0].addr
        ):
            cores[_STOP] = n - 1
            footprints[_STOP] = _MIN if n <= 2 else _EX

    if enable_heuristic_types and n >= 20:
        cores[_TM] = n - 1
        footprints[_TM] = _EX

    return cores, footprints


def _indirect_shapes(
    insns: Sequence[Instruction],
    last: Mnemonic,
    cores: dict[GadgetType, int],
    footprints: dict[GadgetType, Footprint],
) -> None:
    """The CP, EP and RF sequences of a window of two or more instructions
    that ends in an indirect call or jmp."""
    n = len(insns)
    if last is _CALL_RM and _is_store_mov(insns[-2]):
        strict = (
            n == 2
            and insns[-2].operands[0].mem.is_bare
            and insns[-1].operands[0].kind == "reg"
        )
        cores[_CP] = n - 2
        footprints[_CP] = _MIN if strict else _EX

    for i in range(n - 2, -1, -1):
        insn = insns[i]
        if insn.mnemonic is _POP and insn.operands[0].reg is _RBP:
            cores[_EP] = i
            footprints[_EP] = _MIN if n == 2 else _EX
            break

    if last is _JMP_RM:
        for i in range(1, n - 1):
            if insns[i].mnemonic is _CALL_RM and _is_store_mov(
                insns[i - 1]
            ):
                cores[_RF] = i - 1
                footprints[_RF] = _MIN if n == 3 else _EX
                break


# A system-entry instruction ends a window only in its plain encoding; a
# prefixed one is still a SYS core mid-window.
_SYS_ENTRY_OPCODES = (b"\x0f\x05", b"\x0f\x34", b"\xcd\x80", GS_CALL_BYTES)
_SYS_ENDS = _SYS_CORES | {Mnemonic.INT}

# Mnemonics that may end a window: returns, indirect branches, system
# entries in their plain encoding and, with heuristic types, relative jmps.
_WINDOW_ENDS = _RET_CLASS | _SYS_ENDS | {Mnemonic.JMP_RM, Mnemonic.CALL_RM}
_HEURISTIC_WINDOW_ENDS = _WINDOW_ENDS | {Mnemonic.JMP_REL}

# Unconditional control transfers no window may span.
_BLOCKERS = frozenset(
    {Mnemonic.RET, Mnemonic.RET_IMM, Mnemonic.JMP_REL, Mnemonic.JMP_RM}
)

_addr = attrgetter("addr")


def _terminator_windows(
    stream: tuple[Instruction, ...], max_len: int, enable_heuristic_types: bool
) -> Iterator[tuple[int, int, list[_CoreHits]]]:
    """Yield (low, pos, matches) for each terminator of a sorted stream, in
    stream order: the windows that end at `pos` start at each of low..pos,
    and `matches` holds `_insn_cores` of every position up to `pos`.

    A terminator is an instruction that may end a window, a system entry
    only in its plain encoding. A window reaches back over byte-adjacent
    instructions, at most max_len in all, and no unconditional control-flow
    break sits before its terminator. Each instruction's core matches are
    made the first time a window takes it in: the lowest start never moves
    back from one terminator to the next, so the positions below `matched`
    are done."""
    size = len(stream)
    ends = _HEURISTIC_WINDOW_ENDS if enable_heuristic_types else _WINDOW_ENDS
    matches: list[_CoreHits] = [()] * size
    matched = 0
    for pos, insn in enumerate(stream):
        m = insn.mnemonic
        if m not in ends or (
            m in _SYS_ENDS and not insn.raw.startswith(_SYS_ENTRY_OPCODES)
        ):
            continue
        low = pos
        lowest = max(0, pos - max_len + 1)
        while low > lowest:
            prev = stream[low - 1]
            if (
                prev.addr + prev.length != stream[low].addr
                or prev.mnemonic in _BLOCKERS
            ):
                break
            low -= 1
        for i in range(max(low, matched), pos + 1):
            matches[i] = _insn_cores(stream[i])
        matched = pos + 1
        yield low, pos, matches


def find_gadgets(
    insns: Iterable[Instruction],
    max_len: int = 5,
    enable_heuristic_types: bool = False,
) -> tuple[Gadget, ...]:
    """Mine gadget windows from a decoded stream.

    For each terminator, every byte-adjacent backward window up to max_len
    instructions becomes a gadget, provided no unconditional control-flow
    break sits mid-window. A system-entry instruction is a terminator only
    when its encoding starts with the plain opcode bytes.

    Each window is a slice of the sorted stream, a tuple, and goes through
    the module's `classify` with its slice of the stream's core matches:
    `_insn_cores` runs once per instruction that some window holds. Gadgets
    come out sorted by address, then length.
    """
    stream = tuple(sorted(insns, key=_addr))
    size = len(stream)
    gadgets: list[Gadget] = []
    keys: list[int] = []
    for low, pos, matches in _terminator_windows(
        stream, max_len, enable_heuristic_types
    ):
        stop = pos + 1
        for start in range(low, stop):
            gadgets.append(classify(
                stream[start:stop], enable_heuristic_types,
                matches[start:stop],
            ))
            # Positions order windows as (addr, length) does; the key packs
            # the start and end positions into one int.
            keys.append(start * size + pos)

    order = sorted(range(len(gadgets)), key=keys.__getitem__)
    return tuple(map(gadgets.__getitem__, order))


def stream_types(
    insns: Iterable[Instruction],
    max_len: int = 5,
    enable_heuristic_types: bool = False,
) -> tuple[frozenset[GadgetType], int]:
    """The gadget types of a stream's windows and how many windows it has:
    what `leaked_types(find_gadgets(insns, max_len, enable_heuristic_types))`
    and the `len` of that `find_gadgets` call give, without building a
    Gadget for every window. `find_gadgets` builds one Gadget per (start,
    terminator) window, so the windows that end at `pos` and start at
    `low`..`pos` count pos - low + 1.

    The windows that end at one terminator are suffixes of the longest, and
    each type rule but two only gains as a window grows backward: its
    instructions stay in the window, so a core or call site the backward
    scan met is still met, a store before an indirect call or a pop of rbp
    is still there, a branch target inside the window stays inside, and the
    last instruction and its core matches never change. TM only needs 20
    instructions or more. The two exceptions look at one window length or
    at the first instruction: BROP is judged only at exactly 9
    instructions, and FS only when the window starts at a call. So
    `_classify`, the rules of `classify` with no Gadget built, runs on the
    longest window, the 9-instruction one and, with heuristic types, each
    one that starts at a call. The module's `classify` is not called, so a
    tracer that wraps it counts only the windows of `find_gadgets`."""
    stream = tuple(sorted(insns, key=_addr))
    found: set[GadgetType] = set()
    windows = 0
    for low, pos, matches in _terminator_windows(
        stream, max_len, enable_heuristic_types
    ):
        stop = pos + 1
        windows += stop - low
        starts = {low}
        if stop - 9 > low:
            starts.add(stop - 9)
        if enable_heuristic_types:
            starts.update(
                start for start in range(low + 1, pos)
                if stream[start].mnemonic in _CALLS
            )
        for start in starts:
            found.update(_classify(
                stream[start:stop], enable_heuristic_types,
                matches[start:stop],
            )[0])
    return frozenset(found), windows


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
            if gadget.footprints[gtype] is _MIN:
                count.min_fp += 1
            else:
                count.ex_fp += 1
    return counts


def set_coverage(
    counts: Mapping[GadgetType, TypeCount], spec: GadgetSetSpec
) -> CoverageReport:
    """The coverage of a set spec by per-type counts from type_counts."""
    return CoverageReport(
        spec.name, {t: counts.get(t, TypeCount()) for t in spec.required}
    )


def evaluate_set(
    gadgets: Iterable[Gadget], spec: GadgetSetSpec
) -> CoverageReport:
    return set_coverage(type_counts(gadgets), spec)


def leaked_types(gadgets: Iterable[Gadget]) -> frozenset[GadgetType]:
    out: set[GadgetType] = set()
    for gadget in gadgets:
        out |= gadget.types
    return frozenset(out)


def population_stats(
    streams: Iterable[Iterable[Instruction]],
    max_len: int = 5,
    enable_heuristic_types: bool = False,
) -> dict:
    """One layout's entry in a scheme comparison, counted over its decoded
    streams: how many windows they have, the MIN/EX counts of those windows
    per type and per category, and whether they cover the tc set.

    A window counts once per type it has, and once per category it has a
    type in, as MIN when one of those types is. The windows are those of
    `find_gadgets`, the same `_terminator_windows` and `_classify` rules,
    but no Gadget is built, sorted or read again: each window's footprints
    are counted as one labelling, and the tallies are read off the few
    distinct labellings. `gadgets` and `corrupt` still build one Gadget per
    window, since they report or judge each one."""
    # How many windows have each (type, footprint) labelling, its pairs in
    # the order `_classify` made them: equal labellings made in two orders
    # are counted apart and summed below.
    labellings: dict[tuple[tuple[GadgetType, Footprint], ...], int] = {}
    windows = 0
    for insns in streams:
        stream = tuple(sorted(insns, key=_addr))
        for low, pos, matches in _terminator_windows(
            stream, max_len, enable_heuristic_types
        ):
            stop = pos + 1
            windows += stop - low
            for start in range(low, stop):
                key = tuple(_classify(
                    stream[start:stop], enable_heuristic_types,
                    matches[start:stop],
                )[1].items())
                labellings[key] = labellings.get(key, 0) + 1

    counts: dict[GadgetType, TypeCount] = {}
    categories = {name: TypeCount() for name in TC_CATEGORIES}
    for labelling, n in labellings.items():
        # Whether the windows have a MIN type, per category they are in.
        minimal: dict[str, bool] = {}
        for gtype, fp in labelling:
            count = counts.setdefault(gtype, TypeCount())
            if fp is _MIN:
                count.min_fp += n
            else:
                count.ex_fp += n
            name = _CATEGORY_OF.get(gtype)
            if name is not None:
                minimal[name] = minimal.get(name, False) or fp is _MIN
        for name, is_min in minimal.items():
            if is_min:
                categories[name].min_fp += n
            else:
                categories[name].ex_fp += n
    tc = set_coverage(counts, TC_SET)
    return {
        "gadgets": windows,
        # A label is one (window, type) pair, counted once in its type.
        "min_fp_labels": sum(c.min_fp for c in counts.values()),
        "types": {
            _TYPE_TEXT[t]: {"min_fp": c.min_fp, "ex_fp": c.ex_fp}
            for t, c in counts.items()
        },
        "categories": {
            name: {"min_fp": c.min_fp, "ex_fp": c.ex_fp}
            for name, c in categories.items()
        },
        "tc_preserved": tc.converged,
        "tc_preserved_min_fp": tc.converged_min_fp,
    }


def min_fp_reduction_pct(baseline: int, count: int) -> float:
    """The percentage of `baseline` MIN-footprint labels lost at `count`."""
    return 100.0 * (baseline - count) / baseline if baseline else 0.0


def add_min_fp_reductions(stats: Mapping[str, dict]) -> None:
    """Give each layout's population_stats its min_fp_reduction_pct from
    the layout named "baseline", when there is one."""
    if "baseline" in stats:
        base = stats["baseline"]["min_fp_labels"]
        for entry in stats.values():
            entry["min_fp_reduction_pct"] = round(
                min_fp_reduction_pct(base, entry["min_fp_labels"]), 4
            )


# The report text of each (type, footprint) label.
_FOOTPRINT_LABEL = {
    (t, fp): f"{t.value}={fp.value}" for t in GadgetType for fp in Footprint
}


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
        # A GadgetType is a str, so they sort by value.
        types = sorted(g.types)
        footprints = g.footprints
        rows.append(
            {
                "addr": f"{g.addr:#x}",
                "bytes_hex": g.raw.hex(),
                "text": "; ".join(map(render, g.insns)),
                "types": "|".join(types),
                "footprints": "|".join(
                    [_FOOTPRINT_LABEL[t, footprints[t]] for t in types]
                ),
            }
        )
    return rows


def gadget_report_csv(gadgets: Iterable[Gadget]) -> str:
    return csv_text(
        ["addr", "bytes_hex", "text", "types", "footprints"],
        (row.values() for row in gadget_report_rows(gadgets)),
    )
