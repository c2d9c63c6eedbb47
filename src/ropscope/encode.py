"""Instruction encoders for the supported x86-64 subset.

Every function returns raw bytes. The synthesizer builds program images from
these, and the test suite uses them as the independent side of
encode/decode round-trip checks. Memory operands are limited to a base
register with an optional displacement, plus explicit rip-relative forms for
indirect branches; that is all the toolkit ever needs to emit. Operands are
32 or 64 bits wide, or 8 bits in the byte movs (mov_rr, mov_rm, mov_mr). Any
other width, and any immediate, displacement or condition code that its
field cannot hold, raises ValueError: an encoding decodes to the values given.
"""

from __future__ import annotations

import struct

from ropscope.disasm import Reg

_ALU_RM_R = {"add": 0x01, "or": 0x09, "and": 0x21, "sub": 0x29, "xor": 0x31, "cmp": 0x39}
_ALU_R_RM = {"add": 0x03, "or": 0x0B, "and": 0x23, "sub": 0x2B, "xor": 0x33, "cmp": 0x3B}
_ALU_DIGIT = {"add": 0, "or": 1, "and": 4, "sub": 5, "xor": 6, "cmp": 7}


def _pack(fmt: str, value: int) -> bytes:
    try:
        return struct.pack(fmt, value)
    except struct.error as exc:
        raise ValueError(f"{value}: {exc}") from None


def _cc(cc: int) -> int:
    if cc not in range(16):
        raise ValueError(f"no condition code {cc}")
    return cc


def _rex(w: int, r: int, x: int, b: int) -> bytes:
    value = 0x40 | (w << 3) | (r << 2) | (x << 1) | b
    return bytes([value]) if value != 0x40 else b""


def _rex_w(width: int, reg_hi: int, rm_hi: int) -> bytes:
    # The decoder reads no 0x66 prefix, so 32 and 64 bits are the only
    # operand widths outside the byte movs.
    if width not in (32, 64):
        raise ValueError(f"cannot encode a {width}-bit operand")
    return _rex(1 if width == 64 else 0, reg_hi, 0, rm_hi)


def _modrm_reg(reg: int, rm: int) -> bytes:
    return bytes([0xC0 | ((reg & 7) << 3) | (rm & 7)])


def _mem_operand(reg_field: int, base: Reg, disp: int) -> bytes:
    """ModRM + optional SIB + displacement for a [base+disp] expression."""
    reg_field &= 7
    low = base & 7
    needs_sib = low == 4  # rsp/r12 base always takes a SIB byte
    if disp == 0 and low != 5:
        mod = 0
        disp_bytes = b""
    elif -128 <= disp <= 127:
        mod = 1
        disp_bytes = _pack("<b", disp)
    else:
        mod = 2
        disp_bytes = _pack("<i", disp)
    if needs_sib:
        return bytes([(mod << 6) | (reg_field << 3) | 4, 0x24]) + disp_bytes
    return bytes([(mod << 6) | (reg_field << 3) | low]) + disp_bytes


def _binary_rm_r(opcode: int, rm: Reg, reg: Reg, width: int = 64) -> bytes:
    return (
        _rex_w(width, reg >> 3, rm >> 3)
        + bytes([opcode])
        + _modrm_reg(reg, rm)
    )


def _binary_mem_r(opcode: int, base: Reg, disp: int, reg: Reg, width: int = 64) -> bytes:
    return (
        _rex_w(width, reg >> 3, base >> 3)
        + bytes([opcode])
        + _mem_operand(reg, base, disp)
    )


def _mov(
    opcode: int, reg: Reg, rm_hi: int, operand: bytes, width: int,
    byte_regs: tuple[Reg, ...],
) -> bytes:
    """A mov of the byte opcode (88 or 8A) at width 8 and of the next one
    otherwise. Without a REX prefix byte registers 4-7 name ah-bh, so a
    byte mov naming spl-dil takes at least the bare prefix 0x40."""
    if width != 8:
        return _rex_w(width, reg >> 3, rm_hi) + bytes([opcode + 1]) + operand
    rex = _rex(0, reg >> 3, 0, rm_hi)
    if not rex and any(4 <= r <= 7 for r in byte_regs):
        rex = b"\x40"
    return rex + bytes([opcode]) + operand


def mov_rr(dst: Reg, src: Reg, width: int = 64) -> bytes:
    return _mov(0x88, src, dst >> 3, _modrm_reg(src, dst), width, (dst, src))


def mov_rm(dst: Reg, base: Reg, disp: int = 0, width: int = 64) -> bytes:
    operand = _mem_operand(dst, base, disp)
    return _mov(0x8A, dst, base >> 3, operand, width, (dst,))


def mov_mr(base: Reg, src: Reg, disp: int = 0, width: int = 64) -> bytes:
    operand = _mem_operand(src, base, disp)
    return _mov(0x88, src, base >> 3, operand, width, (src,))


def mov_ri(dst: Reg, imm: int, width: int = 64) -> bytes:
    # The decoder reads this immediate unsigned, at the operand's width.
    field = "<Q" if width == 64 else "<I"
    return _rex_w(width, 0, dst >> 3) + bytes([0xB8 | (dst & 7)]) + _pack(field, imm)


def mov_ri_modrm(dst: Reg, imm: int, width: int = 64) -> bytes:
    return (
        _rex_w(width, 0, dst >> 3)
        + bytes([0xC7])
        + _modrm_reg(0, dst)
        + _pack("<i", imm)
    )


def mov_mi(base: Reg, imm: int, disp: int = 0, width: int = 64) -> bytes:
    return (
        _rex_w(width, 0, base >> 3)
        + bytes([0xC7])
        + _mem_operand(0, base, disp)
        + _pack("<i", imm)
    )


def alu_rr(op: str, dst: Reg, src: Reg, width: int = 64) -> bytes:
    return _binary_rm_r(_ALU_RM_R[op], dst, src, width)


def alu_rm(op: str, dst: Reg, base: Reg, disp: int = 0, width: int = 64) -> bytes:
    return _binary_mem_r(_ALU_R_RM[op], base, disp, dst, width)


def alu_mr(op: str, base: Reg, src: Reg, disp: int = 0, width: int = 64) -> bytes:
    return _binary_mem_r(_ALU_RM_R[op], base, disp, src, width)


def alu_ri(op: str, dst: Reg, imm: int, width: int = 64) -> bytes:
    digit = _ALU_DIGIT[op]
    rex = _rex_w(width, 0, dst >> 3)
    if -128 <= imm <= 127:
        return rex + bytes([0x83]) + _modrm_reg(digit, dst) + _pack("<b", imm)
    return rex + bytes([0x81]) + _modrm_reg(digit, dst) + _pack("<i", imm)


def alu_mi(op: str, base: Reg, imm: int, disp: int = 0, width: int = 64) -> bytes:
    digit = _ALU_DIGIT[op]
    rex = _rex_w(width, 0, base >> 3)
    if -128 <= imm <= 127:
        return rex + bytes([0x83]) + _mem_operand(digit, base, disp) + _pack("<b", imm)
    return rex + bytes([0x81]) + _mem_operand(digit, base, disp) + _pack("<i", imm)


def imul_rr(dst: Reg, src: Reg, width: int = 64) -> bytes:
    return (
        _rex_w(width, dst >> 3, src >> 3)
        + bytes([0x0F, 0xAF])
        + _modrm_reg(dst, src)
    )


def imul_rm(dst: Reg, base: Reg, disp: int = 0, width: int = 64) -> bytes:
    return (
        _rex_w(width, dst >> 3, base >> 3)
        + bytes([0x0F, 0xAF])
        + _mem_operand(dst, base, disp)
    )


def test_rr(a: Reg, b: Reg, width: int = 64) -> bytes:
    return _binary_rm_r(0x85, a, b, width)


def xchg_rr(a: Reg, b: Reg, width: int = 64) -> bytes:
    return _binary_rm_r(0x87, a, b, width)


def xchg_rax(other: Reg, width: int = 64) -> bytes:
    return _rex_w(width, 0, other >> 3) + bytes([0x90 | (other & 7)])


def push_r(reg: Reg) -> bytes:
    return _rex(0, 0, 0, reg >> 3) + bytes([0x50 | (reg & 7)])


def pop_r(reg: Reg) -> bytes:
    return _rex(0, 0, 0, reg >> 3) + bytes([0x58 | (reg & 7)])


def _group_ff(digit: int, reg: Reg, width: int = 64) -> bytes:
    return _rex_w(width, 0, reg >> 3) + bytes([0xFF]) + _modrm_reg(digit, reg)


def inc_r(reg: Reg, width: int = 64) -> bytes:
    return _group_ff(0, reg, width)


def dec_r(reg: Reg, width: int = 64) -> bytes:
    return _group_ff(1, reg, width)


def dec_m(base: Reg, disp: int = 0, width: int = 64) -> bytes:
    return _rex_w(width, 0, base >> 3) + bytes([0xFF]) + _mem_operand(1, base, disp)


def neg_r(reg: Reg, width: int = 64) -> bytes:
    return _rex_w(width, 0, reg >> 3) + bytes([0xF7]) + _modrm_reg(3, reg)


def not_r(reg: Reg, width: int = 64) -> bytes:
    return _rex_w(width, 0, reg >> 3) + bytes([0xF7]) + _modrm_reg(2, reg)


def shl_ri(reg: Reg, imm: int, width: int = 64) -> bytes:
    return _rex_w(width, 0, reg >> 3) + bytes([0xC1]) + _modrm_reg(4, reg) + _pack("<B", imm)


def shr_ri(reg: Reg, imm: int, width: int = 64) -> bytes:
    return _rex_w(width, 0, reg >> 3) + bytes([0xC1]) + _modrm_reg(5, reg) + _pack("<B", imm)


def shl_cl(reg: Reg, width: int = 64) -> bytes:
    return _rex_w(width, 0, reg >> 3) + bytes([0xD3]) + _modrm_reg(4, reg)


def shr_cl(reg: Reg, width: int = 64) -> bytes:
    return _rex_w(width, 0, reg >> 3) + bytes([0xD3]) + _modrm_reg(5, reg)


def shl_mi(base: Reg, imm: int, disp: int = 0, width: int = 64) -> bytes:
    return _rex_w(width, 0, base >> 3) + bytes([0xC1]) + _mem_operand(4, base, disp) + _pack("<B", imm)


def lea(dst: Reg, base: Reg, disp: int = 0) -> bytes:
    return _binary_mem_r(0x8D, base, disp, dst, 64)


def nop() -> bytes:
    return b"\x90"


def leave() -> bytes:
    return b"\xC9"


def ret() -> bytes:
    return b"\xC3"


def ret_imm(imm: int) -> bytes:
    return b"\xC2" + _pack("<H", imm)


def call_rel32(disp: int) -> bytes:
    return b"\xE8" + _pack("<i", disp)


def jmp_rel32(disp: int) -> bytes:
    return b"\xE9" + _pack("<i", disp)


def jmp_rel8(disp: int) -> bytes:
    return b"\xEB" + _pack("<b", disp)


def jcc_rel8(cc: int, disp: int) -> bytes:
    return bytes([0x70 + _cc(cc)]) + _pack("<b", disp)


def jcc_rel32(cc: int, disp: int) -> bytes:
    return bytes([0x0F, 0x80 + _cc(cc)]) + _pack("<i", disp)


def call_r(reg: Reg) -> bytes:
    return _rex(0, 0, 0, reg >> 3) + bytes([0xFF]) + _modrm_reg(2, reg)


def jmp_r(reg: Reg) -> bytes:
    return _rex(0, 0, 0, reg >> 3) + bytes([0xFF]) + _modrm_reg(4, reg)


def call_m(base: Reg, disp: int = 0) -> bytes:
    return _rex(0, 0, 0, base >> 3) + bytes([0xFF]) + _mem_operand(2, base, disp)


def jmp_m(base: Reg, disp: int = 0) -> bytes:
    return _rex(0, 0, 0, base >> 3) + bytes([0xFF]) + _mem_operand(4, base, disp)


def call_rip(disp: int) -> bytes:
    return bytes([0xFF, 0x15]) + _pack("<i", disp)


def jmp_rip(disp: int) -> bytes:
    return bytes([0xFF, 0x25]) + _pack("<i", disp)


def syscall() -> bytes:
    return b"\x0F\x05"


def sysenter() -> bytes:
    return b"\x0F\x34"


def int_n(imm: int) -> bytes:
    return b"\xCD" + _pack("<B", imm)


def int80() -> bytes:
    return int_n(0x80)


def gs_call() -> bytes:
    return bytes([0x65, 0xFF, 0x15, 0x10, 0x00, 0x00, 0x00])
