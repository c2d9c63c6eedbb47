"""Decoder for the x86-64 subset plus recursive page disassembly.

One opcode map, `_OPCODE_MAP`, is the one place that lists the modelled
opcodes: `_decode_body` reads an optional REX byte and dispatches through it,
and `FIRST_BYTE_TABLE` is computed from its keys. The map's handlers read
byte positions of the data in place and only parse operands: `_effects` is
the one place where an instruction's register effects are decided, from one
table of implicit effects per mnemonic and one rule over the operands. A
direct branch has no operands, so its map entry carries the effects
`_effects` gave its mnemonic when the map was built.

Each map entry also carries its opcode's length shape (ModRM present,
immediate bytes, immediate bytes under REX.W), which gives an encoding's
length without parsing its operands. `decode` uses it to look an encoding
up in `_ENCODINGS`, the decoder's one memo, which `cli.main` empties as
each command ends, so each encoding runs its handler once however many
offsets, pages and images of a command hold it. The memo holds no
address. A direct branch's target depends on its address, so direct
branches are decoded at each address.

The decoder is total: any byte string yields either an Instruction or None
(the invalid marker, always consuming one byte). Register effects are kept at
full 64-bit register granularity: sub-register operands alias their parent,
and 32-bit destination writes count as full-register writes because the
hardware zero-extends them.

The decoded records (`MemRef`, `Operand`, `Instruction`) are immutable
NamedTuples: one page's decodes are shared by every traversal of it.
"""

from __future__ import annotations

import struct
from collections import deque
from enum import Enum, IntEnum, auto
from typing import Callable, Iterable, NamedTuple

from ropscope.snapshot import PAGE_SIZE, MemoryImage, PageRecord, UnmappedRead

MASK64 = (1 << 64) - 1

# Unassigned opcode used as inert filler by the synthesizer; decodes to None.
POISON_BYTE = 0x06


class Reg(IntEnum):
    """The sixteen general-purpose registers, in hardware encoding order."""

    RAX = 0
    RCX = 1
    RDX = 2
    RBX = 3
    RSP = 4
    RBP = 5
    RSI = 6
    RDI = 7
    R8 = 8
    R9 = 9
    R10 = 10
    R11 = 11
    R12 = 12
    R13 = 13
    R14 = 14
    R15 = 15


# Reg by encoding number: a tuple index, where Reg(i) runs Enum's lookup.
_REGS = tuple(Reg)

_NAME64 = [
    "rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
    "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
]
_NAME32 = [
    "eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi",
    "r8d", "r9d", "r10d", "r11d", "r12d", "r13d", "r14d", "r15d",
]
_NAME8 = [
    "al", "cl", "dl", "bl", "spl", "bpl", "sil", "dil",
    "r8b", "r9b", "r10b", "r11b", "r12b", "r13b", "r14b", "r15b",
]
_NAME8_HIGH = {Reg.RAX: "ah", Reg.RCX: "ch", Reg.RDX: "dh", Reg.RBX: "bh"}


def reg_name(reg: Reg, width: int = 64, high8: bool = False) -> str:
    if high8:
        return _NAME8_HIGH[reg]
    if width == 8:
        return _NAME8[reg]
    if width == 32:
        return _NAME32[reg]
    return _NAME64[reg]


class Mnemonic(Enum):
    MOV = auto()
    LEA = auto()
    ADD = auto()
    SUB = auto()
    IMUL = auto()
    POP = auto()
    PUSH = auto()
    INC = auto()
    DEC = auto()
    XCHG = auto()
    AND = auto()
    OR = auto()
    XOR = auto()
    NOT = auto()
    NEG = auto()
    SHL = auto()
    SHR = auto()
    CMP = auto()
    TEST = auto()
    NOP = auto()
    LEAVE = auto()
    RET = auto()
    RET_IMM = auto()
    CALL_REL = auto()
    CALL_RM = auto()
    CALL_GS = auto()
    JMP_REL = auto()
    JMP_RM = auto()
    JCC = auto()
    SYSCALL = auto()
    SYSENTER = auto()
    INT = auto()

    # Members are singletons compared by identity, so the C-level identity
    # hash agrees with equality; Enum's own hashes the name in Python, on
    # every set and dict lookup of the hot paths.
    __hash__ = object.__hash__


_MNEMONIC_TEXT = {
    Mnemonic.MOV: "mov", Mnemonic.LEA: "lea", Mnemonic.ADD: "add",
    Mnemonic.SUB: "sub", Mnemonic.IMUL: "imul",
    Mnemonic.POP: "pop", Mnemonic.PUSH: "push", Mnemonic.INC: "inc",
    Mnemonic.DEC: "dec", Mnemonic.XCHG: "xchg", Mnemonic.AND: "and",
    Mnemonic.OR: "or", Mnemonic.XOR: "xor", Mnemonic.NOT: "not",
    Mnemonic.NEG: "neg", Mnemonic.SHL: "shl", Mnemonic.SHR: "shr",
    Mnemonic.CMP: "cmp", Mnemonic.TEST: "test", Mnemonic.NOP: "nop",
    Mnemonic.LEAVE: "leave", Mnemonic.RET: "ret", Mnemonic.RET_IMM: "ret",
    Mnemonic.CALL_REL: "call", Mnemonic.CALL_RM: "call",
    Mnemonic.CALL_GS: "call", Mnemonic.JMP_REL: "jmp", Mnemonic.JMP_RM: "jmp",
    Mnemonic.JCC: "jcc", Mnemonic.SYSCALL: "syscall",
    Mnemonic.SYSENTER: "sysenter", Mnemonic.INT: "int",
}

# The members the per-instruction code reads, bound once: on Python 3.11 a
# member read through its Enum class costs as much as twenty module-global
# reads.
_MOV, _LEA, _XCHG, _NOP = Mnemonic.MOV, Mnemonic.LEA, Mnemonic.XCHG, Mnemonic.NOP
_JCC, _CALL_GS = Mnemonic.JCC, Mnemonic.CALL_GS
_DIRECT_BRANCHES = frozenset({Mnemonic.CALL_REL, Mnemonic.JMP_REL})
_INDIRECT_BRANCHES = frozenset({Mnemonic.CALL_RM, Mnemonic.JMP_RM})

_CC_NAMES = [
    "jo", "jno", "jb", "jae", "je", "jne", "jbe", "ja",
    "js", "jns", "jp", "jnp", "jl", "jge", "jle", "jg",
]

# Instructions after which straight-line execution cannot continue.
_TERMINATORS = frozenset(
    {
        Mnemonic.RET,
        Mnemonic.RET_IMM,
        Mnemonic.JMP_REL,
        Mnemonic.JMP_RM,
        Mnemonic.SYSCALL,
        Mnemonic.SYSENTER,
        Mnemonic.INT,
    }
)


class MemRef(NamedTuple):
    """A decoded memory addressing expression."""

    base: Reg | None = None
    index: Reg | None = None
    scale: int = 1
    disp: int = 0
    rip_relative: bool = False

    @property
    def is_bare(self) -> bool:
        """A single-register expression with no displacement, index, or rip base."""
        return (
            self.base is not None
            and self.index is None
            and self.disp == 0
            and not self.rip_relative
        )

    def render(self) -> str:
        if self.rip_relative:
            inner = "rip"
        elif self.base is not None:
            inner = _NAME64[self.base]
        else:
            inner = ""
        if self.index is not None:
            part = _NAME64[self.index] if self.scale == 1 else f"{_NAME64[self.index]}*{self.scale}"
            inner = f"{inner}+{part}" if inner else part
        if self.disp or not inner:
            sign = "+" if self.disp >= 0 else "-"
            inner = f"{inner}{sign}{abs(self.disp):#x}" if inner else f"{self.disp:#x}"
        return f"[{inner}]"


class Operand(NamedTuple):
    kind: str  # "reg" | "imm" | "mem"
    reg: Reg | None = None
    width: int = 64
    high8: bool = False
    imm: int | None = None
    mem: MemRef | None = None

    @staticmethod
    def make_reg(reg: Reg, width: int = 64, high8: bool = False) -> Operand:
        """The shared record of a register operand."""
        return _REG_OPERANDS[reg, width, high8]

    @staticmethod
    def make_imm(value: int, width: int = 64) -> Operand:
        return Operand("imm", None, width, False, value)

    @staticmethod
    def make_mem(mem: MemRef, width: int = 64) -> Operand:
        return Operand("mem", None, width, False, None, mem)

    @property
    def is_reg(self) -> bool:
        return self.kind == "reg"

    @property
    def is_imm(self) -> bool:
        return self.kind == "imm"

    @property
    def is_mem(self) -> bool:
        return self.kind == "mem"

    def render(self) -> str:
        if self.is_reg:
            assert self.reg is not None
            return reg_name(self.reg, self.width, self.high8)
        if self.is_imm:
            assert self.imm is not None
            return f"{self.imm:#x}" if self.imm >= 0 else f"-{-self.imm:#x}"
        assert self.mem is not None
        return self.mem.render()


# Register operands repeat everywhere, and records are immutable, so every
# register operand is one of these.
_REG_OPERANDS = {
    (reg, width, high8): Operand("reg", reg, width, high8)
    for reg in Reg
    for width in (8, 16, 32, 64)
    for high8 in (False, True)
}
_REG_RAX = Reg.RAX
_CL = _REG_OPERANDS[Reg.RCX, 8, False]


class Instruction(NamedTuple):
    addr: int
    length: int
    mnemonic: Mnemonic
    operands: tuple[Operand, ...]
    reads: frozenset[Reg]
    writes: frozenset[Reg]
    raw: bytes
    branch_target: int | None = None
    cc: int | None = None

    @property
    def end(self) -> int:
        return self.addr + self.length

    @property
    def is_terminator(self) -> bool:
        return self.mnemonic in _TERMINATORS

    def render(self) -> str:
        if self.mnemonic is _JCC:
            text = _CC_NAMES[self.cc or 0]
        else:
            text = _MNEMONIC_TEXT[self.mnemonic]
        if self.mnemonic is _CALL_GS:
            return f"call gs:{self.operands[0].mem.render()}"
        if self.branch_target is not None:
            return f"{text} {self.branch_target:#x}"
        if not self.operands:
            return text
        # Annotate pure-memory destinations with a width so stores read unambiguously.
        parts = []
        for op in self.operands:
            if op.is_mem and all(o.kind != "reg" for o in self.operands):
                size = {8: "byte", 16: "word", 32: "dword", 64: "qword"}[op.width]
                parts.append(f"{size} {op.render()}")
            else:
                parts.append(op.render())
        return f"{text} " + ", ".join(parts)


# Builds an Instruction from a tuple of all its fields without the extra
# frame of NamedTuple's generated __new__.
_new_tuple = tuple.__new__

GS_CALL_BYTES = bytes([0x65, 0xFF, 0x15, 0x10, 0x00, 0x00, 0x00])

_GROUP1_DIGIT = {
    0: Mnemonic.ADD, 1: Mnemonic.OR, 4: Mnemonic.AND,
    5: Mnemonic.SUB, 6: Mnemonic.XOR, 7: Mnemonic.CMP,
}
_SHIFT_DIGIT = {4: Mnemonic.SHL, 5: Mnemonic.SHR}

# `_effects` keeps register sets as masks, bit r for Reg r.
_RSP, _RBP, _RAX = 1 << Reg.RSP, 1 << Reg.RBP, 1 << Reg.RAX

# Implicit effects as (reads, writes) masks: the stack pointer of push, pop,
# call, ret and leave (which also moves rbp), and the system-call number and
# result in rax (syscall also clobbers rcx and r11).
_IMPLICIT_EFFECTS = {
    **dict.fromkeys(
        (Mnemonic.PUSH, Mnemonic.POP, Mnemonic.RET, Mnemonic.RET_IMM,
         Mnemonic.CALL_REL, Mnemonic.CALL_RM, Mnemonic.CALL_GS),
        (_RSP, _RSP),
    ),
    Mnemonic.LEAVE: (_RBP | _RSP, _RBP | _RSP),
    Mnemonic.SYSCALL: (_RAX, _RAX | 1 << Reg.RCX | 1 << Reg.R11),
    Mnemonic.SYSENTER: (_RAX, _RAX),
    Mnemonic.INT: (_RAX, _RAX),
}

# Mnemonics whose destination register value is also an input.
_READS_DEST = frozenset(
    {
        Mnemonic.ADD, Mnemonic.OR, Mnemonic.AND, Mnemonic.SUB, Mnemonic.XOR,
        Mnemonic.IMUL, Mnemonic.INC, Mnemonic.DEC, Mnemonic.NOT, Mnemonic.NEG,
        Mnemonic.SHL, Mnemonic.SHR, Mnemonic.XCHG,
    }
)
# Mnemonics with no destination, whose operands are all sources: comparisons
# update flags only, and push and the indirect branches only read theirs.
_NO_RESULT = frozenset(
    {Mnemonic.CMP, Mnemonic.TEST, Mnemonic.PUSH, Mnemonic.CALL_RM,
     Mnemonic.JMP_RM}
)


class _RegSets(dict):
    """The one frozenset of each register mask: only a few dozen masks occur,
    so a decode that finds both of its masks here builds no set, and every
    retained instruction shares its sets."""

    def __missing__(self, mask: int) -> frozenset[Reg]:
        regs = self[mask] = frozenset(r for r in _REGS if mask >> r & 1)
        return regs


_REG_SETS = _RegSets()


def _effects(
    mnemonic: Mnemonic, operands: tuple[Operand, ...]
) -> tuple[frozenset[Reg], frozenset[Reg]]:
    """The registers an instruction reads and writes.

    They are its mnemonic's implicit effects plus its operands': a memory
    operand reads its address registers, and a register source is read. The
    first operand is the destination unless the mnemonic is in `_NO_RESULT`;
    a register destination is written, and also read when the mnemonic is in
    `_READS_DEST`. xchg writes its source register too."""
    reads, writes = _IMPLICIT_EFFECTS.get(mnemonic, (0, 0))
    dest = mnemonic not in _NO_RESULT
    for op in operands:
        kind = op.kind
        if kind == "reg":
            bit = 1 << op.reg
            if not dest or mnemonic in _READS_DEST:
                reads |= bit
            if dest or mnemonic is _XCHG:
                writes |= bit
        elif kind == "mem":
            mem = op.mem
            if mem.base is not None:
                reads |= 1 << mem.base
            if mem.index is not None:
                reads |= 1 << mem.index
        dest = False
    return _REG_SETS[reads], _REG_SETS[writes]


# Little-endian field readers, each returning a 1-tuple. The decoder reads
# single bytes by index; a read past the end of the data raises
# struct.error or IndexError, which `decode` maps to None.
_S32 = struct.Struct("<i").unpack_from
_U16 = struct.Struct("<H").unpack_from
_U32 = struct.Struct("<I").unpack_from
_U64 = struct.Struct("<Q").unpack_from


def _reg_op(index: int, width: int, rex_present: bool) -> Operand:
    if width == 8 and not rex_present and 4 <= index <= 7:
        return _REG_OPERANDS[_REGS[index - 4], 8, True]
    return _REG_OPERANDS[_REGS[index], width, False]


def _parse_modrm(
    data: bytes, pos: int, rex: int, width: int
) -> tuple[Operand, int, int]:
    """Parse ModRM (and SIB/displacement) at pos. Returns (r/m operand, reg
    field, position past them)."""
    modrm = data[pos]
    pos += 1
    mod = modrm >> 6
    reg = ((modrm >> 3) & 7) | ((rex & 0x4) << 1)
    rm = modrm & 7
    if mod == 3:
        return _reg_op(rm | ((rex & 1) << 3), width, rex != 0), reg, pos

    base: Reg | None = None
    index: Reg | None = None
    scale = 1
    disp = 0
    rip = False
    if rm == 4:
        sib = data[pos]
        pos += 1
        scale = 1 << (sib >> 6)
        index_bits = ((sib >> 3) & 7) | ((rex & 0x2) << 2)
        if index_bits != 4:
            index = _REGS[index_bits]
        base_bits = sib & 7
        if base_bits == 5 and mod == 0:
            disp = _S32(data, pos)[0]
            pos += 4
        else:
            base = _REGS[base_bits | ((rex & 1) << 3)]
    elif rm == 5 and mod == 0:
        rip = True
        disp = _S32(data, pos)[0]
        pos += 4
    else:
        base = _REGS[rm | ((rex & 1) << 3)]

    if mod == 1:
        disp = data[pos]
        pos += 1
        if disp >= 0x80:
            disp -= 0x100
    elif mod == 2:
        disp = _S32(data, pos)[0]
        pos += 4
    mem = MemRef(base, index, scale, disp, rip)
    return Operand.make_mem(mem, width), reg, pos


def decode(data: bytes, addr: int, offset: int = 0) -> Instruction | None:
    """Decode one instruction at addr from data[offset:], reading in place.

    Returns None for anything outside the supported subset; the invalid
    marker always consumes 1 byte. The instruction's raw bytes are a slice
    of data.

    Apart from a direct branch's target, a decode depends only on its bytes,
    so `_ENCODINGS` shares it between offsets, pages and images: the decode
    of an encoding the memo holds is its fields at this addr, and any other
    is decoded and stored there, an invalid one too. Direct branches are
    decoded afresh at each address."""
    if offset >= len(data) or not FIRST_BYTE_TABLE[data[offset]]:
        return None
    try:
        return _decode_body(data, offset, addr)
    except (IndexError, struct.error):
        return None


def _fin(
    data: bytes, start: int, end: int, addr: int,
    mnemonic: Mnemonic, operands: tuple[Operand, ...] = (),
) -> Instruction:
    """Build the instruction spanning data[start:end], its effects decided
    by `_effects`."""
    reads, writes = _effects(mnemonic, operands)
    return _new_tuple(Instruction, (
        addr, end - start, mnemonic, operands, reads, writes, data[start:end],
        None, None,
    ))


# Source operand readers, called after the ModRM bytes with the operand
# size. Each returns (operand, position past it).


def _simm8(data: bytes, pos: int, width: int) -> tuple[Operand, int]:
    value = data[pos]
    if value >= 0x80:
        value -= 0x100
    return Operand.make_imm(value, width), pos + 1


def _simm32(data: bytes, pos: int, width: int) -> tuple[Operand, int]:
    return Operand.make_imm(_S32(data, pos)[0], width), pos + 4


def _uimm8(data: bytes, pos: int, width: int) -> tuple[Operand, int]:
    return Operand.make_imm(data[pos], 8), pos + 1


def _uimm16(data: bytes, pos: int, width: int) -> tuple[Operand, int]:
    return Operand.make_imm(_U16(data, pos)[0], 16), pos + 2


def _cl(data: bytes, pos: int, width: int) -> tuple[Operand, int]:
    return _CL, pos


# Opcode-map handlers. Each takes the data, the position past the opcode,
# the instruction's start and address, the REX byte (0 if none), the
# operand size, the opcode key and its map argument.


def _mr(data, pos, start, addr, rex, width, op, arg) -> Instruction:
    """op r/m, reg. arg: (mnemonic, fixed width or None for operand size)."""
    mnemonic, w = arg
    w = w or width
    rm, reg_bits, pos = _parse_modrm(data, pos, rex, w)
    return _fin(
        data, start, pos, addr, mnemonic, (rm, _reg_op(reg_bits, w, rex != 0))
    )


def _rm(data, pos, start, addr, rex, width, op, arg) -> Instruction:
    """op reg, r/m. arg: (mnemonic, fixed width or None for operand size)."""
    mnemonic, w = arg
    w = w or width
    rm, reg_bits, pos = _parse_modrm(data, pos, rex, w)
    return _fin(
        data, start, pos, addr, mnemonic, (_reg_op(reg_bits, w, rex != 0), rm)
    )


def _lea(data, pos, start, addr, rex, width, op, arg) -> Instruction | None:
    rm, reg_bits, pos = _parse_modrm(data, pos, rex, width)
    if not rm.is_mem:
        return None
    return _fin(
        data, start, pos, addr, _LEA,
        (_reg_op(reg_bits, width, rex != 0), rm),
    )


def _group(data, pos, start, addr, rex, width, op, arg) -> Instruction | None:
    """op r/m, source, the ModRM reg field (/digit) picking the mnemonic.

    arg: (digit -> mnemonic, source reader)."""
    digits, source = arg
    rm, digit, pos = _parse_modrm(data, pos, rex, width)
    mnemonic = digits.get(digit)
    if mnemonic is None:
        return None
    src, pos = source(data, pos, width)
    return _fin(data, start, pos, addr, mnemonic, (rm, src))


def _unary(data, pos, start, addr, rex, width, op, arg) -> Instruction | None:
    """op r/m, the ModRM reg field (/digit) picking the mnemonic. arg: digit
    -> mnemonic; an indirect branch's operand is 64 bits in long mode."""
    rm, digit, pos = _parse_modrm(data, pos, rex, width)
    mnemonic = arg.get(digit)
    if mnemonic is None:
        return None
    if mnemonic in _INDIRECT_BRANCHES:
        rm = Operand.make_reg(rm.reg) if rm.is_reg else Operand.make_mem(rm.mem)
    return _fin(data, start, pos, addr, mnemonic, (rm,))


def _push_pop(data, pos, start, addr, rex, width, op, arg) -> Instruction:
    """push or pop of the register in the opcode's low bits. arg: mnemonic."""
    reg = _REGS[(op & 7) | ((rex & 1) << 3)]
    return _fin(data, start, pos, addr, arg, (_REG_OPERANDS[reg, 64, False],))


def _xchg_rax(data, pos, start, addr, rex, width, op, arg) -> Instruction:
    other = (op & 7) | ((rex & 1) << 3)
    if other == 0:
        return _fin(data, start, pos, addr, _NOP)
    return _fin(
        data, start, pos, addr, _XCHG,
        (_REG_OPERANDS[_REG_RAX, width, False], _reg_op(other, width, rex != 0)),
    )


def _mov_imm(data, pos, start, addr, rex, width, op, arg) -> Instruction:
    reg = _REGS[(op & 7) | ((rex & 1) << 3)]
    if rex & 0x8:
        imm, end = _U64(data, pos)[0], pos + 8
    else:
        imm, end = _U32(data, pos)[0], pos + 4
    return _fin(
        data, start, end, addr, _MOV,
        (_REG_OPERANDS[reg, width, False], Operand.make_imm(imm, width)),
    )


def _rel(data, pos, start, addr, rex, width, op, arg) -> Instruction:
    """Direct branch, built in one step. arg: (mnemonic, displacement bytes,
    condition code or None, reads, writes); the target is taken from the
    instruction's end."""
    mnemonic, size, cc, reads, writes = arg
    if size == 1:
        disp = data[pos]
        if disp >= 0x80:
            disp -= 0x100
    else:
        disp = _S32(data, pos)[0]
    end = pos + size
    length = end - start
    return _new_tuple(Instruction, (
        addr, length, mnemonic, (), reads, writes, data[start:end],
        (addr + length + disp) & MASK64, cc,
    ))


def _branch(mnemonic: Mnemonic, size: int, cc: int | None = None):
    """The map entry of a direct branch. It has no operands, so its
    effects are its mnemonic's alone: `_effects` decides them once, here."""
    shape = _IB if size == 1 else _IZ
    return _rel, (mnemonic, size, cc, *_effects(mnemonic, ())), shape


def _fixed(data, pos, start, addr, rex, width, op, arg) -> Instruction:
    """No ModRM operand. arg: (mnemonic, immediate reader or None)."""
    mnemonic, imm = arg
    if imm is None:
        return _fin(data, start, pos, addr, mnemonic)
    operand, pos = imm(data, pos, width)
    return _fin(data, start, pos, addr, mnemonic, (operand,))


# The gs-relative call's one operand.
_GS_OPERAND = Operand.make_mem(MemRef(disp=0x10), 64)


def _gs_call(data, pos, start, addr, rex, width, op, arg) -> Instruction | None:
    """The gs-segment prefix starts only the gs-relative call, exactly
    GS_CALL_BYTES, so a REX byte before it leaves it invalid."""
    if not data.startswith(GS_CALL_BYTES, start):
        return None
    end = start + len(GS_CALL_BYTES)
    return _fin(data, start, end, addr, _CALL_GS, (_GS_OPERAND,))


# Length shapes, after the operand codes of SDM Vol. 2 Appendix A: whether
# a ModRM byte follows the opcode, and the immediate's bytes without and with
# REX.W. A direct branch's displacement counts as its immediate.
_Z = (False, 0, 0)  # no operand bytes
_E = (True, 0, 0)  # ModRM (E and G operands)
_E_IB = (True, 1, 1)  # ModRM, Ib
_E_IZ = (True, 4, 4)  # ModRM, Iz (an imm32, sign-extended under REX.W)
_IB = (False, 1, 1)  # Ib or Jb
_IW = (False, 2, 2)  # Iw
_IZ = (False, 4, 4)  # Jz
_IV = (False, 4, 8)  # Iv: imm32, or imm64 under REX.W
_GS = (False, 6, 6)  # the gs-relative call's bytes after its prefix

# The bytes a ModRM byte spans with its SIB byte and displacement, by the
# ModRM byte. A SIB byte with base 5 under mod 0 adds a disp32 of its own.
_MODRM_LENGTH = bytes(
    1
    + (mod != 3 and rm == 4)
    + (1 if mod == 1 else 4 if mod == 2 or (mod == 0 and rm == 5) else 0)
    for mod in range(4)
    for _reg in range(8)
    for rm in range(8)
)

# The opcode map, in the manner of SDM Vol. 2 Appendix A: one entry per
# modelled opcode, two-byte opcodes keyed 0x0F00 | second byte, each its
# handler, the handler's argument and its length shape. It is the one place
# that lists what the decoder models; every other opcode decodes to None.
_OPCODE_MAP: dict[
    int,
    tuple[Callable[..., Instruction | None], object, tuple[bool, int, int]],
] = {
    0x01: (_mr, (Mnemonic.ADD, None), _E),
    0x03: (_rm, (Mnemonic.ADD, None), _E),
    0x09: (_mr, (Mnemonic.OR, None), _E),
    0x0B: (_rm, (Mnemonic.OR, None), _E),
    0x21: (_mr, (Mnemonic.AND, None), _E),
    0x23: (_rm, (Mnemonic.AND, None), _E),
    0x29: (_mr, (Mnemonic.SUB, None), _E),
    0x2B: (_rm, (Mnemonic.SUB, None), _E),
    0x31: (_mr, (Mnemonic.XOR, None), _E),
    0x33: (_rm, (Mnemonic.XOR, None), _E),
    0x39: (_mr, (Mnemonic.CMP, None), _E),
    0x3B: (_rm, (Mnemonic.CMP, None), _E),
    0x65: (_gs_call, None, _GS),
    **dict.fromkeys(range(0x50, 0x58), (_push_pop, Mnemonic.PUSH, _Z)),
    **dict.fromkeys(range(0x58, 0x60), (_push_pop, Mnemonic.POP, _Z)),
    **{op: _branch(Mnemonic.JCC, 1, op & 0xF) for op in range(0x70, 0x80)},
    0x81: (_group, (_GROUP1_DIGIT, _simm32), _E_IZ),
    0x83: (_group, (_GROUP1_DIGIT, _simm8), _E_IB),
    0x85: (_mr, (Mnemonic.TEST, None), _E),
    0x87: (_mr, (Mnemonic.XCHG, None), _E),
    0x88: (_mr, (Mnemonic.MOV, 8), _E),
    0x89: (_mr, (Mnemonic.MOV, None), _E),
    0x8A: (_rm, (Mnemonic.MOV, 8), _E),
    0x8B: (_rm, (Mnemonic.MOV, None), _E),
    0x8D: (_lea, None, _E),
    **dict.fromkeys(range(0x90, 0x98), (_xchg_rax, None, _Z)),
    **dict.fromkeys(range(0xB8, 0xC0), (_mov_imm, None, _IV)),
    0xC1: (_group, (_SHIFT_DIGIT, _uimm8), _E_IB),
    0xC2: (_fixed, (Mnemonic.RET_IMM, _uimm16), _IW),
    0xC3: (_fixed, (Mnemonic.RET, None), _Z),
    0xC7: (_group, ({0: Mnemonic.MOV}, _simm32), _E_IZ),
    0xC9: (_fixed, (Mnemonic.LEAVE, None), _Z),
    0xCD: (_fixed, (Mnemonic.INT, _uimm8), _IB),
    0xD3: (_group, (_SHIFT_DIGIT, _cl), _E),
    0xE8: _branch(Mnemonic.CALL_REL, 4),
    0xE9: _branch(Mnemonic.JMP_REL, 4),
    0xEB: _branch(Mnemonic.JMP_REL, 1),
    0xF7: (_unary, {2: Mnemonic.NOT, 3: Mnemonic.NEG}, _E),
    0xFF: (_unary, {0: Mnemonic.INC, 1: Mnemonic.DEC, 2: Mnemonic.CALL_RM,
                    4: Mnemonic.JMP_RM}, _E),
    0x0F05: (_fixed, (Mnemonic.SYSCALL, None), _Z),
    0x0F34: (_fixed, (Mnemonic.SYSENTER, None), _Z),
    **{op: _branch(Mnemonic.JCC, 4, op & 0xF)
       for op in range(0x0F80, 0x0F90)},
    0x0FAF: (_rm, (Mnemonic.IMUL, None), _E),
}

# FIRST_BYTE_TABLE[b] is 1 exactly when some byte string starting with b
# decodes: a one-byte opcode of the map, a REX prefix or 0x0F (two-byte
# opcodes). As a bytes.translate table it maps a page to a mask whose zero
# bytes decode to None at once.
FIRST_BYTE_TABLE = bytes(
    int(b in _OPCODE_MAP or 0x40 <= b <= 0x4F or b == 0x0F)
    for b in range(256)
)


# The decoder's memo: an encoding, sliced by its opcode's length shape,
# maps to the fields of its decode after `addr`, or to () when it decodes
# to None. It lasts one command (see `clear_memo`); a library caller keeps
# it until it calls `clear_memo`, and it grows with the images mined:
# `mine_image` on ls, bash and libc.so.6 one after another leaves 68,099
# encodings in it, and emptying it then frees 40 MiB of a 141 MiB process.
_ENCODINGS: dict[bytes, tuple] = {}


def clear_memo() -> None:
    """Empty the decoder's memo. `cli.main` calls it as each command ends,
    so a caller that runs commands in one process decodes each from an
    empty memo, as a process of its own would, and keeps no encodings
    between commands."""
    _ENCODINGS.clear()


def _decode_body(data: bytes, start: int, addr: int) -> Instruction | None:
    """Parse the prefix and opcode at start and answer from `_ENCODINGS`,
    running the opcode's handler on an encoding the memo does not hold.

    A direct branch's target depends on its address, so a direct branch
    runs its handler and is not stored."""
    op = data[start]
    pos = start + 1
    rex = 0
    if 0x40 <= op <= 0x4F:
        rex = op
        op = data[pos]
        pos += 1
    if op == 0x0F:
        op = 0x0F00 | data[pos]
        pos += 1
    entry = _OPCODE_MAP.get(op)
    if entry is None:
        return None
    handler, arg, shape = entry
    if handler is _rel:
        return _rel(
            data, pos, start, addr, rex, 64 if rex & 0x8 else 32, op, arg
        )
    modrm, imm, imm_w = shape
    end = pos + (imm_w if rex & 0x8 else imm)
    if modrm:
        byte = data[pos]
        end += _MODRM_LENGTH[byte]
        if byte & 0xC7 == 0x04 and data[pos + 1] & 7 == 5:
            end += 4
    if end > len(data):
        return None
    raw = data[start:end]
    rest = _ENCODINGS.get(raw)
    if rest is None:
        insn = handler(
            data, pos, start, addr, rex, 64 if rex & 0x8 else 32, op, arg
        )
        # Keyed by the instruction's own bytes, the slice is not kept.
        if insn is None:
            _ENCODINGS[raw] = ()
        else:
            _ENCODINGS[insn.raw] = insn[1:]
        return insn
    return _new_tuple(Instruction, (addr,) + rest) if rest else None


class PageDecodes(dict):
    """Decode results of one page keyed by in-page offset, each computed on
    first lookup. They depend only on the page bytes, so the linear branch
    scan and any number of traversals of the page share one, and each
    offset is decoded once.

    Each lookup calls the module's `decode` once, which answers from the
    decoder's memo, so an encoding that recurs at other offsets, pages or
    images runs its handler once. Direct branches are the one exception,
    as `decode` says."""

    def __init__(self, page: PageRecord):
        super().__init__()
        self.page = page

    def __missing__(self, offset: int) -> Instruction | None:
        page = self.page
        insn = self[offset] = decode(page.data, page.base + offset, offset)
        return insn


# The claim flags of an instruction of each length; x86 allows 15 bytes.
_CLAIMS = tuple(b"\x01" * length for length in range(16))


class PageDisasm:
    """Incremental recursive-traversal disassembly state for one page.

    Byte ranges of accepted instructions are claimed; a later path that runs
    into claimed bytes at a non-instruction boundary stops there, so whichever
    entry was processed first keeps its stream. A batch's entries are
    processed in ascending address order, each with its whole in-page branch
    closure before the next, so a batch equals adding the same entries one at
    a time in ascending order. Decoding goes through `decodes`, which may be
    shared with other traversals of its page, the page this state covers.
    """

    def __init__(self, decodes: PageDecodes):
        page = decodes.page
        if not page.perms.executable:
            raise ValueError(f"page {page.base:#x} is not executable")
        self.page = page
        self.decodes = decodes
        self.insns: dict[int, Instruction] = {}
        # One flag per page byte, made by the first add_entries: a state
        # that never grows, such as an analysis's empty root, holds none.
        self._claimed = bytearray()

    def add_entries(self, entries: Iterable[int]) -> int:
        """Extend the stream from entry addresses; returns instructions added.

        An entry added before adds nothing: its path stops at the same
        instruction or claimed byte as it did then."""
        entries = sorted(set(entries))
        for entry in entries:
            if not self.page.contains(entry):
                raise ValueError(
                    f"entry {entry:#x} outside page {self.page.base:#x}"
                )
        base, insns, decodes = self.page.base, self.insns, self.decodes
        claimed = self._claimed
        if not claimed:
            claimed = self._claimed = bytearray(PAGE_SIZE)
        added = 0
        for entry in entries:
            work = deque((entry,))
            while work:
                addr = work.popleft()
                while addr not in insns:
                    offset = addr - base
                    if not 0 <= offset < PAGE_SIZE or claimed[offset]:
                        break
                    insn = decodes[offset]
                    if insn is None:
                        break
                    end = offset + insn.length
                    if claimed.find(1, offset, end) != -1:
                        break
                    claimed[offset:end] = _CLAIMS[insn.length]
                    insns[addr] = insn
                    added += 1
                    target = insn.branch_target
                    if target is not None and 0 <= target - base < PAGE_SIZE:
                        if target not in insns and not claimed[target - base]:
                            work.append(target)
                    if insn.mnemonic in _TERMINATORS:
                        break
                    addr = base + end
        return added

    def extended(self, entries: Iterable[int]) -> PageDisasm:
        """A copy of this state with the entries added; this one is kept."""
        new = PageDisasm(self.decodes)
        new.insns = dict(self.insns)
        new._claimed = bytearray(self._claimed)
        new.add_entries(entries)
        return new

    def addresses(self) -> tuple[int, ...]:
        """Sorted addresses of the instructions in the stream."""
        return tuple(sorted(self.insns))

    def instructions(self) -> tuple[Instruction, ...]:
        return tuple(self.insns[a] for a in sorted(self.insns))


def extract_chain_targets(
    insns: Iterable[Instruction],
    image: MemoryImage,
    include_cond: bool = True,
) -> frozenset[int]:
    """Collect code addresses an instruction stream points at.

    Direct call/jmp targets always count, conditional-branch targets count
    unless disabled, and rip-relative indirect call/jmp sites contribute the
    pointed-to word when every page its 8-byte slot touches is mapped
    readable and the pointee lands in an executable page.
    """
    targets: set[int] = set()
    for insn in insns:
        m = insn.mnemonic
        if m in _DIRECT_BRANCHES or (m is _JCC and include_cond):
            targets.add(insn.branch_target)
        elif m in _INDIRECT_BRANCHES:
            op = insn.operands[0]
            if not (op.is_mem and op.mem.rip_relative):
                continue
            slot = (insn.end + op.mem.disp) & MASK64
            try:
                # A slot spans at most two pages: its first and last byte's.
                if not (
                    image.page_at(slot).perms.readable
                    and image.page_at(slot + 7).perms.readable
                ):
                    continue
                value = image.read_u64(slot)
            except UnmappedRead:
                continue
            if image.is_executable(value):
                targets.add(value)
    return frozenset(targets)
