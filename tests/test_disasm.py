"""Decoder truth tables, stream disassembly, and chain-target extraction."""

import contextlib
import functools
import hashlib
import io
import inspect
import os
import random
import re
import shutil
import struct
import subprocess

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    BASE,
    RO,
    RX,
    asm,
    code_image,
    GOLDEN_CORPORA,
    decode_stream,
    reference_decode,
    shape_length,
)
from ropscope import disasm, encode
from ropscope.disasm import (
    GS_CALL_BYTES,
    MemRef,
    Mnemonic,
    Operand,
    PageDecodes,
    PageDisasm,
    Reg,
    decode,
    extract_chain_targets,
)
from ropscope.encode import (
    alu_mi,
    alu_mr,
    alu_ri,
    alu_rm,
    alu_rr,
    call_m,
    call_r,
    call_rel32,
    call_rip,
    dec_m,
    dec_r,
    gs_call,
    imul_rm,
    imul_rr,
    inc_r,
    int80,
    int_n,
    jcc_rel8,
    jcc_rel32,
    jmp_m,
    jmp_r,
    jmp_rel8,
    jmp_rel32,
    jmp_rip,
    lea,
    leave,
    mov_mi,
    mov_mr,
    mov_ri,
    mov_ri_modrm,
    mov_rm,
    mov_rr,
    neg_r,
    nop,
    not_r,
    pop_r,
    push_r,
    ret,
    ret_imm,
    shl_cl,
    shl_mi,
    shl_ri,
    shr_cl,
    shr_ri,
    sysenter,
    syscall,
    xchg_rax,
    xchg_rr,
)
from ropscope.encode import test_rr as enc_test_rr
from ropscope.cli import main as cli_main
from ropscope.harvest import ImageAnalysis, collect_branch_targets
from ropscope.snapshot import (
    PAGE_SIZE,
    ImageBuilder,
    PageRecord,
    Perms,
    SegmentTag,
    load_elf,
    load_image,
    load_snapshot,
)
from ropscope.synth import GenParams, generate, materialize

# encoding -> expected text, one row per operand shape the decoder handles
RENDER_TABLE = [
    (mov_rr(Reg.RAX, Reg.RBX), "mov rax, rbx"),
    (mov_rr(Reg.R8, Reg.R15, width=32), "mov r8d, r15d"),
    # A REX prefix, even a bare one, makes byte register 4 spl, not ah.
    (mov_rr(Reg.RSP, Reg.RAX, width=8), "mov spl, al"),
    (mov_rm(Reg.RAX, Reg.RDX), "mov rax, [rdx]"),
    (mov_rm(Reg.RCX, Reg.RSI, disp=0x10), "mov rcx, [rsi+0x10]"),
    (mov_rm(Reg.RBX, Reg.R13, disp=-0x200), "mov rbx, [r13-0x200]"),
    (mov_mr(Reg.RDI, Reg.RAX), "mov [rdi], rax"),
    (mov_mi(Reg.RDI, 0x1234, disp=8), "mov qword [rdi+0x8], 0x1234"),
    (mov_ri(Reg.RDX, 0x11223344), "mov rdx, 0x11223344"),
    (mov_ri_modrm(Reg.RBX, 0x55), "mov rbx, 0x55"),
    (alu_rr("add", Reg.RCX, Reg.RBX), "add rcx, rbx"),
    (alu_rm("sub", Reg.RSI, Reg.RBP), "sub rsi, [rbp]"),
    (alu_mr("add", Reg.RBX, Reg.RAX), "add [rbx], rax"),
    (alu_ri("xor", Reg.RAX, 0x10), "xor rax, 0x10"),
    (alu_mi("or", Reg.RCX, 0x7F), "or qword [rcx], 0x7f"),
    (imul_rr(Reg.RAX, Reg.RBX), "imul rax, rbx"),
    (imul_rm(Reg.RAX, Reg.RCX), "imul rax, [rcx]"),
    (enc_test_rr(Reg.RAX, Reg.RAX), "test rax, rax"),
    (xchg_rr(Reg.RSP, Reg.RAX), "xchg rsp, rax"),
    (xchg_rax(Reg.RBX), "xchg rax, rbx"),
    (push_r(Reg.R12), "push r12"),
    (pop_r(Reg.R12), "pop r12"),
    (inc_r(Reg.RAX), "inc rax"),
    (dec_m(Reg.RBX), "dec qword [rbx]"),
    (neg_r(Reg.RCX), "neg rcx"),
    (not_r(Reg.RDX), "not rdx"),
    (shl_ri(Reg.RAX, 4), "shl rax, 0x4"),
    (shr_cl(Reg.RBX), "shr rbx, cl"),
    (shl_mi(Reg.RCX, 1), "shl qword [rcx], 0x1"),
    (lea(Reg.RAX, Reg.RBX, disp=0x40), "lea rax, [rbx+0x40]"),
    (nop(), "nop"),
    (leave(), "leave"),
    (ret(), "ret"),
    (ret_imm(8), "ret 0x8"),
    (call_r(Reg.RDI), "call rdi"),
    (jmp_r(Reg.RSI), "jmp rsi"),
    (call_m(Reg.RAX, disp=0x18), "call qword [rax+0x18]"),
    (jmp_m(Reg.RBX), "jmp qword [rbx]"),
    (call_rip(0x2000), "call qword [rip+0x2000]"),
    (jmp_rip(-0x800), "jmp qword [rip-0x800]"),
    (syscall(), "syscall"),
    (sysenter(), "sysenter"),
    (int_n(0x21), "int 0x21"),
    (int80(), "int 0x80"),
    (gs_call(), "call gs:[0x10]"),
]


@pytest.mark.parametrize(
    "raw,text", RENDER_TABLE, ids=[t for _, t in RENDER_TABLE]
)
def test_decode_render(raw, text):
    insn = decode(raw, 0x1000)
    assert insn is not None
    assert insn.render() == text
    assert insn.length == len(raw)
    assert insn.raw == raw
    assert insn.addr == 0x1000


def test_branch_targets_are_absolute():
    assert decode(call_rel32(0x100), 0x1000).branch_target == 0x1105
    assert decode(jmp_rel32(-0x20), 0x1000).branch_target == 0xFE5
    assert decode(jmp_rel8(-2), 0x1000).branch_target == 0x1000
    jcc = decode(jcc_rel8(0x4, 5), 0x1000)
    assert jcc.branch_target == 0x1007
    assert jcc.cc == 0x4
    assert decode(jcc_rel32(0x5, 0x100), 0x1000).branch_target == 0x1106
    # register-indirect branches have no static target
    assert decode(jmp_r(Reg.RSI), 0).branch_target is None


# (encoding, reads, writes, memory access). The access is not asserted;
# it only spells out each case id, which keeps its established name.
_EFFECTS = [
    (mov_rm(Reg.RAX, Reg.RDX), {Reg.RDX}, {Reg.RAX}, "LOAD"),
    (mov_mr(Reg.RDI, Reg.RAX), {Reg.RDI, Reg.RAX}, set(), "STORE"),
    (mov_rr(Reg.RAX, Reg.RBX), {Reg.RBX}, {Reg.RAX}, "NONE"),
    (mov_ri(Reg.RAX, 7), set(), {Reg.RAX}, "NONE"),
    (pop_r(Reg.RBX), {Reg.RSP}, {Reg.RBX, Reg.RSP}, "LOAD"),
    (push_r(Reg.R12), {Reg.R12, Reg.RSP}, {Reg.RSP}, "STORE"),
    (xchg_rr(Reg.RSP, Reg.RAX), {Reg.RSP, Reg.RAX}, {Reg.RSP, Reg.RAX},
     "NONE"),
    (enc_test_rr(Reg.RAX, Reg.RAX), {Reg.RAX}, set(), "NONE"),
    (alu_ri("cmp", Reg.RBX, 1), {Reg.RBX}, set(), "NONE"),
    (shr_cl(Reg.RBX), {Reg.RBX, Reg.RCX}, {Reg.RBX}, "NONE"),
    (lea(Reg.RAX, Reg.RBX, disp=0x40), {Reg.RBX}, {Reg.RAX}, "NONE"),
    (leave(), {Reg.RBP, Reg.RSP}, {Reg.RBP, Reg.RSP}, "LOAD"),
    (ret(), {Reg.RSP}, {Reg.RSP}, "LOAD"),
    (call_r(Reg.RDI), {Reg.RDI, Reg.RSP}, {Reg.RSP}, "STORE"),
    (syscall(), {Reg.RAX}, {Reg.RAX, Reg.RCX, Reg.R11}, "NONE"),
    (sysenter(), {Reg.RAX}, {Reg.RAX}, "NONE"),
    (int80(), {Reg.RAX}, {Reg.RAX}, "NONE"),
    (gs_call(), {Reg.RSP}, {Reg.RSP}, "STORE"),
    (ret_imm(8), {Reg.RSP}, {Reg.RSP}, "LOAD"),
    (jmp_r(Reg.RSI), {Reg.RSI}, set(), "NONE"),
    (jmp_rip(-0x800), set(), set(), "LOAD"),
    (call_m(Reg.RAX, disp=0x18), {Reg.RAX, Reg.RSP}, {Reg.RSP}, "STORE"),
    (dec_m(Reg.RBX), {Reg.RBX}, set(), "STORE"),
    (not_r(Reg.RDX), {Reg.RDX}, {Reg.RDX}, "NONE"),
    (shl_ri(Reg.RAX, 4), {Reg.RAX}, {Reg.RAX}, "NONE"),
    (mov_mi(Reg.RDI, 0x1234, disp=8), {Reg.RDI}, set(), "STORE"),
    (xchg_rax(Reg.R9), {Reg.RAX, Reg.R9}, {Reg.RAX, Reg.R9}, "NONE"),
    (pop_r(Reg.R12), {Reg.RSP}, {Reg.R12, Reg.RSP}, "LOAD"),
]


@pytest.mark.parametrize(
    "raw,reads,writes",
    [
        pytest.param(
            raw, reads, writes,
            id=f"{raw.decode('latin-1')}-reads{i}-writes{i}-MemAccess.{access}",
        )
        for i, (raw, reads, writes, access) in enumerate(_EFFECTS)
    ],
)
def test_register_effects(raw, reads, writes):
    insn = decode(raw, 0)
    assert insn.reads == frozenset(reads)
    assert insn.writes == frozenset(writes)


def test_stream_terminators():
    ends = [ret(), ret_imm(4), jmp_rel32(0), jmp_r(Reg.RAX), syscall(),
            sysenter(), int80(), int_n(0x21)]
    flows = [call_rel32(0), call_r(Reg.RDI), gs_call(), jcc_rel8(0, 2),
             nop(), mov_rr(Reg.RAX, Reg.RBX)]
    for raw in ends:
        assert decode(raw, 0).is_terminator, raw.hex()
    for raw in flows:
        assert not decode(raw, 0).is_terminator, raw.hex()


def test_poison_byte_is_invalid():
    assert decode(b"\x06", 0) is None
    assert decode(b"\x06\x90", 0) is None


@pytest.mark.parametrize("raw", [
    "b8010203",         # mov eax, imm32
    "48b8" + "00" * 7,  # mov rax, imm64
    "e80102",           # call rel32
    "0f8001",           # jo rel32
    "8b8001",           # mov eax, [rax+disp32]
    "c70001",           # mov dword [rax], imm32
])
def test_instruction_cut_short_is_invalid(raw):
    # Each encoding lacks its last byte or more.
    assert decode(bytes.fromhex(raw), 0) is None


@given(st.binary(min_size=1, max_size=24))
@settings(max_examples=400)
def test_decode_total_and_bounded(data):
    insn = decode(data, 0x7000)
    if insn is not None:
        assert 1 <= insn.length <= len(data)
        assert insn.raw == data[: insn.length]
        assert insn.addr == 0x7000


# Byte strings rich in decodable instructions, cut anywhere so that tails
# can be truncated mid-instruction.
_ENCODED = st.lists(
    st.sampled_from([raw for raw, _ in RENDER_TABLE]), max_size=4
).map(b"".join)


@given(
    st.data(),
    st.one_of(st.binary(max_size=32), _ENCODED),
    st.sampled_from([0, 0x7000, (1 << 64) - 3]),
)
@settings(max_examples=400)
def test_decode_in_place_equals_decode_of_slice(draw, data, addr):
    cut = draw.draw(st.integers(0, len(data)), label="cut")
    data = data[:cut]
    off = draw.draw(st.integers(0, len(data)), label="offset")
    assert decode(data, addr, off) == decode(data[off:], addr)


@given(
    st.data(),
    st.one_of(st.binary(max_size=32), _ENCODED),
    st.sampled_from([0, 0x7000, (1 << 64) - 3]),
)
@settings(max_examples=400)
def test_decode_equals_reference_decoder(draw, data, addr):
    # reference_decode reads through a cursor object and builds every
    # instruction through _effects; at 2**64 - 3 branch targets wrap.
    cut = draw.draw(st.integers(0, len(data)), label="cut")
    data = data[:cut]
    off = draw.draw(st.integers(0, len(data)), label="offset")
    assert decode(data, addr, off) == reference_decode(data, addr, off)


def _decode_unfiltered(data):
    """The decoder without its first-byte table."""
    try:
        return disasm._decode_body(data, 0, 0)
    except (IndexError, struct.error):
        return None


def test_first_byte_table_is_exact():
    # The decoder dispatches on its first one or two bytes, and the tail
    # is long enough for any operand, so a byte whose 256 two-byte
    # prefixes all fail starts no supported instruction.
    tail = GS_CALL_BYTES[2:] + bytes(12)
    for first in range(256):
        starts = [bytes([first, second]) + tail for second in range(256)]
        decodable = any(_decode_unfiltered(s) is not None for s in starts)
        assert decodable == bool(disasm.FIRST_BYTE_TABLE[first]), hex(first)
        if not decodable:
            assert all(decode(s, 0) is None for s in starts), hex(first)


def _digest_inputs():
    """Every first/second-byte pair with two seeded tails, then every REX
    byte and opcode with one seeded ModRM byte and tail."""
    rng = random.Random(20261018)
    for first in range(256):
        for second in range(256):
            for _ in range(2):
                yield bytes([first, second]) + rng.randbytes(14)
    for rex in range(0x40, 0x50):
        for op in range(256):
            yield bytes([rex, op]) + rng.randbytes(15)


def test_digest_inputs_decode_as_the_reference_does():
    for data in _digest_inputs():
        assert decode(data, 0x7FFF_F000) == reference_decode(
            data, 0x7FFF_F000
        ), data.hex()


def _decode_record(data):
    insn = decode(data, 0x7FFF_F000)
    if insn is None:
        return None
    # Register sets are sorted: frozenset order depends on insertion history.
    return (
        insn.length, insn.render(),
        sorted(map(int, insn.reads)), sorted(map(int, insn.writes)),
        insn.branch_target, insn.cc,
        [(op.kind, op.width) for op in insn.operands],
    )


# sha256 of the decoder's output on _digest_inputs. A change that is meant
# to alter what the decoder returns must update it and say why.
DECODER_DIGEST = "555d79ed996783154c406bc971c0c0d62a88a521ae2daf6948ce1dc9ece1f98e"


def test_decoder_digest_is_pinned():
    digest = hashlib.sha256()
    for data in _digest_inputs():
        digest.update(repr(_decode_record(data)).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == DECODER_DIGEST


class _Misses(dict):
    """A decoder memo whose lookups all miss, so every decode through it
    runs its opcode's handler at its own address."""

    def get(self, key, default=None):
        return default


def assert_memo_agrees(pages):
    """Memoized decodes of the pages, all sharing the decoder's memo, equal
    a decode through a memo that always misses at every offset that can
    start an instruction. Where a decode is not None its length is its
    shape's, and each decode the memo holds is keyed by its own bytes.
    Returns the memo."""
    memo = disasm._ENCODINGS
    # The shape reads no byte past the length it gives, so one offset of
    # each encoding checks them all.
    shaped = set()
    for page in pages:
        mask = page.data.translate(disasm.FIRST_BYTE_TABLE)
        offsets = [off for off, byte in enumerate(mask) if byte]
        decodes = PageDecodes(page)
        memoized = [decodes[off] for off in offsets]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(disasm, "_ENCODINGS", _Misses())
            handled = [
                decode(page.data, page.base + off, off) for off in offsets
            ]
        for off, hit, insn in zip(offsets, memoized, handled):
            assert hit == insn, (hex(page.base), off)
            if insn is not None and insn.raw not in shaped:
                assert shape_length(page.data, off) == insn.length, insn.raw
                shaped.add(insn.raw)
    # The fields after addr: (length, mnemonic, operands, reads, writes,
    # raw, branch_target, cc), or () for an invalid decode.
    for raw, rest in memo.items():
        assert rest == () or (rest[0], rest[5]) == (len(raw), raw)
    return memo


def _page(base, data, at=0):
    """An executable page holding data at offset `at`, poison elsewhere."""
    filled = bytearray([disasm.POISON_BYTE]) * PAGE_SIZE
    filled[at : at + len(data)] = data
    return PageRecord(base, RX, SegmentTag.CODE, bytes(filled))


@given(st.one_of(st.binary(min_size=1, max_size=32), _ENCODED))
@settings(max_examples=300, deadline=None)
def test_memoized_decodes_equal_handler_decodes(data):
    # The same bytes at the start and at the end of a page, at other
    # addresses (the last page wraps a branch target past 2**64), so the
    # second page's decodes are memo hits and its tail is cut short.
    assert_memo_agrees([
        _page(0x7000, data),
        _page(0x40_0000, data, PAGE_SIZE - len(data)),
        _page((1 << 64) - PAGE_SIZE, data, 1),
    ])


@pytest.fixture(scope="module")
def golden_images(tmp_path_factory):
    """Every image of every corpus the golden outputs are computed on."""
    root = tmp_path_factory.mktemp("golden")
    commands = [
        ["synth", "generate", "--out-dir", root / name, *options]
        for name, options in GOLDEN_CORPORA.items()
    ]
    commands.append([
        "synth", "transform", "--manifest", root / "layouts" / "manifest.json",
        "--scheme", "function", "--scheme-seed", "5", "--rename-registers",
    ])
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main([str(a) for a in argv]) == 0
    return [load_snapshot(p) for p in sorted(root.glob("*/*.rsnp"))]


def test_memoized_decodes_equal_handler_decodes_on_golden_corpora(
    golden_images,
):
    assert len(golden_images) == 12
    for image in golden_images:
        assert_memo_agrees(image.executable_pages())


_REAL_BINARIES = [
    "/usr/bin/ls", "/usr/bin/bash", "/usr/lib/x86_64-linux-gnu/libc.so.6",
]


@pytest.mark.parametrize("path", _REAL_BINARIES, ids=os.path.basename)
def test_memoized_decodes_equal_handler_decodes_on_real_binaries(path):
    if not os.path.exists(path):
        pytest.skip(f"{path} is not present")
    memo = assert_memo_agrees(load_image(path).executable_pages())
    assert memo


def test_memo_hit_keeps_each_site_address_and_slot():
    # The same mov and `call [rip+d]` at two sites: the second site's
    # decodes come from the memo, and its call reads its own slot.
    call_at = len(mov_rr(Reg.RAX, Reg.RBX))
    call_end = BASE + call_at + len(call_rip(0))
    slot = BASE + PAGE_SIZE
    code = asm(mov_rr(Reg.RAX, Reg.RBX), call_rip(slot - call_end), ret())
    gap = 0x40
    builder = ImageBuilder()
    builder.put(BASE, code + bytes([disasm.POISON_BYTE]) * (gap - len(code))
                + code, perms=RX, tag=SegmentTag.CODE, fill=0x06)
    targets = (BASE + 0x100, BASE + 0x200)
    slots = bytearray(PAGE_SIZE)
    slots[0:8] = targets[0].to_bytes(8, "little")
    slots[gap : gap + 8] = targets[1].to_bytes(8, "little")
    builder.put(slot, bytes(slots), perms=RO, tag=SegmentTag.DATA)
    image = builder.build()
    page = image.page_at(BASE)
    decodes = ImageAnalysis(image).decodes(page)
    pd = PageDisasm(decodes)
    assert pd.add_entries([BASE, BASE + gap]) == 6
    for offset in (0, call_at):
        first, second = decodes[offset], decodes[gap + offset]
        assert second.raw == first.raw
        # The memo's fields, at this site's address.
        assert second.operands is first.operands
        assert (first.addr, second.addr) == (BASE + offset, BASE + gap + offset)
        for insn in (first, second):
            assert insn == decode(page.data, insn.addr, insn.addr - BASE)
    calls = (decodes[call_at], decodes[gap + call_at])
    assert [extract_chain_targets([c], image) for c in calls] == [
        frozenset({t}) for t in targets
    ]
    assert extract_chain_targets(pd.instructions(), image) == frozenset(targets)


# The encode/decode round trip: for every encode.py form, drawn registers,
# widths, displacements and immediates decode to one instruction of exactly
# the encoding's bytes, with those operands. Each builder draws a form's
# arguments and returns the encoding and the instruction expected from it.
_RT_ADDR = 0x40_0000
_S8 = st.integers(-0x80, 0x7F)
_S32 = st.integers(-(1 << 31), (1 << 31) - 1)


def _want(raw, mnemonic, *operands, disp=None, cc=None):
    """(raw, (mnemonic, operands, branch target, cc)) of a decode at _RT_ADDR."""
    target = None if disp is None else (_RT_ADDR + len(raw) + disp) & disasm.MASK64
    return raw, (mnemonic, operands, target, cc)


def _width(d, widths=(32, 64)):
    return d.draw(st.sampled_from(widths), label="width")


def _reg(d, exclude=()):
    return d.draw(st.sampled_from([r for r in Reg if r not in exclude]), label="reg")


def _disp(d):
    return d.draw(_S32, label="disp")


def _imm(d, bits):
    return d.draw(st.integers(0, (1 << bits) - 1), label="imm")


def _alu(d):
    op = d.draw(st.sampled_from(("add", "or", "and", "sub", "xor", "cmp")), label="op")
    return op, Mnemonic[op.upper()]


def _R(reg, width=64):
    return Operand.make_reg(reg, width)


def _M(base, disp, width=64):
    return Operand.make_mem(MemRef(base, disp=disp), width)


def _I(value, width):
    return Operand.make_imm(value, width)


def _rt_rr(encoder, mnemonic, widths=(32, 64)):
    def build(d):
        w = _width(d, widths)
        a, b = _reg(d), _reg(d)
        return _want(encoder(a, b, width=w), mnemonic, _R(a, w), _R(b, w))
    return build


def _rt_r_m(encoder, mnemonic, widths=(32, 64)):
    def build(d):
        w = _width(d, widths)
        dst, base, disp = _reg(d), _reg(d), _disp(d)
        raw = encoder(dst, base, disp, width=w)
        return _want(raw, mnemonic, _R(dst, w), _M(base, disp, w))
    return build


def _rt_m_r(encoder, mnemonic, widths=(32, 64)):
    def build(d):
        w = _width(d, widths)
        base, src, disp = _reg(d), _reg(d), _disp(d)
        raw = encoder(base, src, disp, width=w)
        return _want(raw, mnemonic, _M(base, disp, w), _R(src, w))
    return build


def _rt_r(encoder, mnemonic, *extra):
    def build(d):
        w = _width(d)
        reg = _reg(d)
        return _want(encoder(reg, width=w), mnemonic, _R(reg, w), *extra)
    return build


def _rt_m(encoder, mnemonic):
    def build(d):
        w, base, disp = _width(d), _reg(d), _disp(d)
        return _want(encoder(base, disp, width=w), mnemonic, _M(base, disp, w))
    return build


def _rt_shift_ri(encoder, mnemonic):
    def build(d):
        w, imm = _width(d), _imm(d, 8)
        reg = _reg(d)
        return _want(encoder(reg, imm, width=w), mnemonic, _R(reg, w), _I(imm, 8))
    return build


# Push, pop and the indirect branches take a 64-bit operand whatever their
# prefix.
def _rt_r64(encoder, mnemonic):
    def build(d):
        reg = _reg(d)
        return _want(encoder(reg), mnemonic, _R(reg))
    return build


def _rt_m64(encoder, mnemonic):
    def build(d):
        base, disp = _reg(d), _disp(d)
        return _want(encoder(base, disp), mnemonic, _M(base, disp))
    return build


def _rt_rip(encoder, mnemonic):
    def build(d):
        disp = _disp(d)
        mem = Operand.make_mem(MemRef(disp=disp, rip_relative=True))
        return _want(encoder(disp), mnemonic, mem)
    return build


def _rt_rel(encoder, mnemonic, disps):
    def build(d):
        disp = d.draw(disps, label="disp")
        return _want(encoder(disp), mnemonic, disp=disp)
    return build


def _rt_jcc(encoder, disps):
    def build(d):
        cc, disp = d.draw(st.integers(0, 15), label="cc"), d.draw(disps, label="disp")
        return _want(encoder(cc, disp), Mnemonic.JCC, disp=disp, cc=cc)
    return build


def _rt_imm(encoder, mnemonic, bits):
    def build(d):
        imm = _imm(d, bits)
        return _want(encoder(imm), mnemonic, _I(imm, bits))
    return build


def _rt_fixed(encoder, mnemonic, *operands):
    return lambda d: _want(encoder(), mnemonic, *operands)


def _rt_mov_ri(d):
    w = _width(d)
    dst, imm = _reg(d), _imm(d, w)
    return _want(mov_ri(dst, imm, width=w), Mnemonic.MOV, _R(dst, w), _I(imm, w))


def _rt_mov_ri_modrm(d):
    w = _width(d)
    dst, imm = _reg(d), d.draw(_S32, label="imm")
    raw = mov_ri_modrm(dst, imm, width=w)
    return _want(raw, Mnemonic.MOV, _R(dst, w), _I(imm, w))


def _rt_mov_mi(d):
    w, base, imm, disp = _width(d), _reg(d), d.draw(_S32, label="imm"), _disp(d)
    raw = mov_mi(base, imm, disp, width=w)
    return _want(raw, Mnemonic.MOV, _M(base, disp, w), _I(imm, w))


def _rt_alu_rr(d):
    (op, mnemonic), w = _alu(d), _width(d)
    a, b = _reg(d), _reg(d)
    return _want(alu_rr(op, a, b, width=w), mnemonic, _R(a, w), _R(b, w))


def _rt_alu_rm(d):
    (op, mnemonic), w = _alu(d), _width(d)
    dst, base, disp = _reg(d), _reg(d), _disp(d)
    raw = alu_rm(op, dst, base, disp, width=w)
    return _want(raw, mnemonic, _R(dst, w), _M(base, disp, w))


def _rt_alu_mr(d):
    (op, mnemonic), w = _alu(d), _width(d)
    base, src, disp = _reg(d), _reg(d), _disp(d)
    raw = alu_mr(op, base, src, disp, width=w)
    return _want(raw, mnemonic, _M(base, disp, w), _R(src, w))


# alu_ri and alu_mi pick the imm8 form for values that fit a signed byte.
def _rt_alu_ri(d):
    (op, mnemonic), w = _alu(d), _width(d)
    dst, imm = _reg(d), d.draw(st.one_of(_S8, _S32), label="imm")
    return _want(alu_ri(op, dst, imm, width=w), mnemonic, _R(dst, w), _I(imm, w))


def _rt_alu_mi(d):
    (op, mnemonic), w = _alu(d), _width(d)
    base, imm, disp = _reg(d), d.draw(st.one_of(_S8, _S32), label="imm"), _disp(d)
    raw = alu_mi(op, base, imm, disp, width=w)
    return _want(raw, mnemonic, _M(base, disp, w), _I(imm, w))


def _rt_lea(d):
    dst, base, disp = _reg(d), _reg(d), _disp(d)
    return _want(lea(dst, base, disp), Mnemonic.LEA, _R(dst), _M(base, disp))


def _rt_xchg_rax(d):
    # xchg rax, rax is the one-byte nop.
    w = _width(d)
    other = _reg(d, exclude=(Reg.RAX,))
    raw = xchg_rax(other, width=w)
    return _want(raw, Mnemonic.XCHG, _R(Reg.RAX, w), _R(other, w))


def _rt_shl_mi(d):
    w, base, imm, disp = _width(d), _reg(d), _imm(d, 8), _disp(d)
    raw = shl_mi(base, imm, disp, width=w)
    return _want(raw, Mnemonic.SHL, _M(base, disp, w), _I(imm, 8))


_ROUND_TRIP = {
    "mov_rr": _rt_rr(mov_rr, Mnemonic.MOV, (8, 32, 64)),
    "mov_rm": _rt_r_m(mov_rm, Mnemonic.MOV, (8, 32, 64)),
    "mov_mr": _rt_m_r(mov_mr, Mnemonic.MOV, (8, 32, 64)),
    "mov_ri": _rt_mov_ri,
    "mov_ri_modrm": _rt_mov_ri_modrm,
    "mov_mi": _rt_mov_mi,
    "alu_rr": _rt_alu_rr,
    "alu_rm": _rt_alu_rm,
    "alu_mr": _rt_alu_mr,
    "alu_ri": _rt_alu_ri,
    "alu_mi": _rt_alu_mi,
    "imul_rr": _rt_rr(imul_rr, Mnemonic.IMUL),
    "imul_rm": _rt_r_m(imul_rm, Mnemonic.IMUL),
    "test_rr": _rt_rr(enc_test_rr, Mnemonic.TEST),
    "xchg_rr": _rt_rr(xchg_rr, Mnemonic.XCHG),
    "xchg_rax": _rt_xchg_rax,
    "push_r": _rt_r64(push_r, Mnemonic.PUSH),
    "pop_r": _rt_r64(pop_r, Mnemonic.POP),
    "inc_r": _rt_r(inc_r, Mnemonic.INC),
    "dec_r": _rt_r(dec_r, Mnemonic.DEC),
    "dec_m": _rt_m(dec_m, Mnemonic.DEC),
    "neg_r": _rt_r(neg_r, Mnemonic.NEG),
    "not_r": _rt_r(not_r, Mnemonic.NOT),
    "shl_ri": _rt_shift_ri(shl_ri, Mnemonic.SHL),
    "shr_ri": _rt_shift_ri(shr_ri, Mnemonic.SHR),
    "shl_cl": _rt_r(shl_cl, Mnemonic.SHL, _R(Reg.RCX, 8)),
    "shr_cl": _rt_r(shr_cl, Mnemonic.SHR, _R(Reg.RCX, 8)),
    "shl_mi": _rt_shl_mi,
    "lea": _rt_lea,
    "nop": _rt_fixed(nop, Mnemonic.NOP),
    "leave": _rt_fixed(leave, Mnemonic.LEAVE),
    "ret": _rt_fixed(ret, Mnemonic.RET),
    "ret_imm": _rt_imm(ret_imm, Mnemonic.RET_IMM, 16),
    "call_rel32": _rt_rel(call_rel32, Mnemonic.CALL_REL, _S32),
    "jmp_rel32": _rt_rel(jmp_rel32, Mnemonic.JMP_REL, _S32),
    "jmp_rel8": _rt_rel(jmp_rel8, Mnemonic.JMP_REL, _S8),
    "jcc_rel8": _rt_jcc(jcc_rel8, _S8),
    "jcc_rel32": _rt_jcc(jcc_rel32, _S32),
    "call_r": _rt_r64(call_r, Mnemonic.CALL_RM),
    "jmp_r": _rt_r64(jmp_r, Mnemonic.JMP_RM),
    "call_m": _rt_m64(call_m, Mnemonic.CALL_RM),
    "jmp_m": _rt_m64(jmp_m, Mnemonic.JMP_RM),
    "call_rip": _rt_rip(call_rip, Mnemonic.CALL_RM),
    "jmp_rip": _rt_rip(jmp_rip, Mnemonic.JMP_RM),
    "syscall": _rt_fixed(syscall, Mnemonic.SYSCALL),
    "sysenter": _rt_fixed(sysenter, Mnemonic.SYSENTER),
    "int_n": _rt_imm(int_n, Mnemonic.INT, 8),
    "int80": _rt_fixed(int80, Mnemonic.INT, _I(0x80, 8)),
    "gs_call": _rt_fixed(gs_call, Mnemonic.CALL_GS, _M(None, 0x10)),
}


_ENCODERS = {
    name: value for name, value in vars(encode).items()
    if callable(value) and not name.startswith("_")
    and getattr(value, "__module__", None) == encode.__name__
}


def test_round_trip_covers_every_encoder():
    assert set(_ROUND_TRIP) == set(_ENCODERS)


@pytest.mark.parametrize("name", sorted(
    name for name, encoder in _ENCODERS.items()
    if "width" in inspect.signature(encoder).parameters
))
def test_encoders_refuse_widths_they_cannot_encode(name):
    # The decoder reads no 0x66 prefix, so no form has a 16-bit encoding,
    # and only the byte movs have an 8-bit one.
    encoder = _ENCODERS[name]
    sample = {"Reg": Reg.RCX, "int": 1, "str": "add"}
    args = [
        sample[param.annotation]
        for param in inspect.signature(encoder).parameters.values()
        if param.default is param.empty
    ]
    byte_forms = ("mov_rr", "mov_rm", "mov_mr")
    for width in (16, 0, 128) if name in byte_forms else (8, 16, 0, 128):
        with pytest.raises(ValueError, match=f"cannot encode a {width}-bit"):
            encoder(*args, width=width)
    for width in (32, 64, 8) if name in byte_forms else (32, 64):
        assert decode(encoder(*args, width=width) + bytes(8), _RT_ADDR)


# Values outside the field that would hold them: none may be masked into
# another instruction, such as int_n(0x180) into int 0x80.
_OUT_OF_RANGE = {
    "jmp_rel8(200)": lambda: jmp_rel8(200),
    "alu_ri(add, rax, 1<<40)": lambda: alu_ri("add", Reg.RAX, 1 << 40),
    "mov_ri_modrm(rax, 1<<33)": lambda: mov_ri_modrm(Reg.RAX, 1 << 33),
    "ret_imm(70000)": lambda: ret_imm(70000),
    "mov_rm(rax, rbx, 1<<40)": lambda: mov_rm(Reg.RAX, Reg.RBX, 1 << 40),
    "jcc_rel32(3, 1<<40)": lambda: jcc_rel32(3, 1 << 40),
    "shl_ri(rax, 300)": lambda: shl_ri(Reg.RAX, 300),
    "int_n(0x180)": lambda: int_n(0x180),
    "jcc_rel8(20, 0)": lambda: jcc_rel8(20, 0),
    "jcc_rel32(16, 0)": lambda: jcc_rel32(16, 0),
    "mov_ri(rax, 1<<40, 32)": lambda: mov_ri(Reg.RAX, 1 << 40, 32),
}


@pytest.mark.parametrize("call", _OUT_OF_RANGE)
def test_encoders_refuse_values_their_fields_cannot_hold(call):
    with pytest.raises(ValueError):
        _OUT_OF_RANGE[call]()


@pytest.mark.parametrize("form", sorted(_ROUND_TRIP))
@given(st.data())
@settings(max_examples=40)
def test_encode_decode_round_trip(form, d):
    raw, expected = _ROUND_TRIP[form](d)
    # Trailing bytes show that the decode ends where the encoding does.
    insn = decode(raw + bytes(8), _RT_ADDR)
    assert insn is not None
    assert insn.raw == raw and insn.length == len(raw)
    assert (insn.mnemonic, insn.operands, insn.branch_target, insn.cc) == expected


def test_decoded_records_are_immutable():
    # One page's decodes are shared by every traversal of it, so no holder
    # may change a record.
    insn = decode(mov_rm(Reg.RAX, Reg.RBX, 8), BASE)
    dst, src = insn.operands
    for record, field in (
        (insn, "addr"), (insn, "operands"), (dst, "reg"), (src, "mem"),
        (src.mem, "disp"), (src.mem, "base"),
    ):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = 1


@pytest.mark.parametrize("width", [8, 16, 32, 64])
def test_register_operands_are_shared(width):
    for reg in Reg:
        for high8 in (False, True):
            first = Operand.make_reg(reg, width, high8)
            assert Operand.make_reg(reg, width, high8) is first
            assert (first.kind, first.reg, first.width, first.high8) == (
                "reg", reg, width, high8
            )
    assert Operand.make_reg(Reg.RDI) is Operand.make_reg(Reg.RDI, 64, False)
    # The decoder hands out the same records.
    insn = decode(mov_rr(Reg.RDI, Reg.RAX), BASE)
    assert insn.operands[0] is Operand.make_reg(Reg.RDI)


def test_decoded_instructions_hash_and_compare_by_value():
    code = asm(mov_rr(Reg.RDI, Reg.RAX), pop_r(Reg.RBX), ret())
    first = decode_stream(code)
    again = decode_stream(code)
    assert first == again
    assert all(a is not b for a, b in zip(first, again))
    assert set(first) == set(again)
    assert len(set(first + again)) == 3
    # Equal bytes at another address are another instruction.
    moved = decode_stream(code, BASE + 0x100)
    assert not set(moved) & set(first)


_LS = "/usr/bin/ls"
# "  addr:\tbytes\ttext", the text cut at objdump's "# ..." comment.
_OBJDUMP_LINE = re.compile(r"\s*([0-9a-f]+):\t([0-9a-f ]+)\t([^#]*)")
# A direct branch prints its target as bare hex; indirect ones start "*".
_OBJDUMP_DIRECT = re.compile(r"(?:callq?|jmpq?|j[a-z]+)\s+([0-9a-f]+)\b")


@pytest.mark.skipif(
    shutil.which("objdump") is None or not os.path.exists(_LS),
    reason="needs GNU objdump and /usr/bin/ls",
)
def test_decode_matches_objdump_lengths_and_targets():
    """At every instruction boundary objdump finds in an executable page,
    a decode that is not None has objdump's length and direct target."""
    image = load_elf(_LS)
    listing = subprocess.run(
        ["objdump", "-d", "-w", "--insn-width=15", _LS],
        capture_output=True, text=True, check=True,
    ).stdout
    decodes: dict[int, PageDecodes] = {}
    boundaries = decoded = 0
    for line in listing.splitlines():
        m = _OBJDUMP_LINE.match(line)
        if m is None:
            continue
        addr = int(m[1], 16)
        if not image.is_executable(addr):
            continue
        page = image.page_at(addr)
        if page.base not in decodes:
            decodes[page.base] = PageDecodes(page)
        insn = decodes[page.base][addr - page.base]
        boundaries += 1
        if insn is None:
            continue
        decoded += 1
        direct = _OBJDUMP_DIRECT.match(m[3])
        expected = (len(m[2].split()), int(direct[1], 16) if direct else None)
        assert (insn.length, insn.branch_target) == expected, line
    # Most of ls is inside the subset; a listing that parsed to nothing
    # would pass the loop vacuously.
    assert decoded > boundaries // 2 > 0


@given(st.binary(min_size=1, max_size=64))
@settings(max_examples=200)
def test_linear_walk_terminates(data):
    off = 0
    while off < len(data):
        insn = decode(data[off:], off)
        off += 1 if insn is None else insn.length
    assert off >= len(data)


def _page_of(image, base=BASE):
    return image.page_at(base)


def _disasm_of(image, base=BASE):
    page = image.page_at(base)
    return PageDisasm(PageDecodes(page))


def test_page_disasm_follows_fallthrough_and_stops_at_ret():
    code = asm(mov_rr(Reg.RAX, Reg.RBX), ret(), nop())  # nop unreachable
    image = code_image(code)
    pd = _disasm_of(image)
    assert pd.add_entries([BASE]) == 2
    assert [i.render() for i in pd.instructions()] == ["mov rax, rbx", "ret"]
    # re-adding a known entry discovers nothing new
    assert pd.add_entries([BASE]) == 0


def test_page_disasm_follows_in_page_direct_branch():
    # jcc hops over a gap of poison; target decodes, the gap does not.
    code = asm(jcc_rel8(0x4, 2), b"\x06\x06", mov_rr(Reg.RCX, Reg.RDX), ret())
    image = code_image(code)
    pd = _disasm_of(image)
    pd.add_entries([BASE])
    rendered = [i.render() for i in pd.instructions()]
    assert rendered == ["je " + hex(BASE + 4), "mov rcx, rdx", "ret"]


def test_page_disasm_incremental_entries():
    part1 = asm(nop(), ret())
    part2 = asm(pop_r(Reg.RBX), ret())
    code = part1 + part2
    image = code_image(code)
    pd = _disasm_of(image)
    assert pd.add_entries([BASE]) == 2
    assert pd.add_entries([BASE + len(part1)]) == 2
    assert len(pd.instructions()) == 4
    ordered = [i.addr for i in pd.instructions()]
    assert ordered == sorted(ordered)


def test_page_disasm_rejects_foreign_entries():
    image = code_image(asm(ret()))
    pd = _disasm_of(image)
    with pytest.raises(ValueError):
        pd.add_entries([BASE + 0x5000])


def test_page_disasm_shares_decodes_of_its_own_page_only():
    image = code_image(asm(nop(), ret()))
    page = _page_of(image)
    decodes = PageDecodes(page)
    first, second = PageDisasm(decodes), PageDisasm(decodes)
    # A state covers the page of its decodes, so it cannot be given another.
    assert first.page is second.page is page
    assert first.add_entries([BASE]) == second.add_entries([BASE]) == 2
    assert first.instructions() == second.instructions()
    assert sorted(decodes) == [0, 1]


def _batch_and_singles(page, entries):
    """(addresses, added) of one batch and of one call per ascending entry."""
    batch = PageDisasm(PageDecodes(page))
    batch_added = batch.add_entries(entries)
    single = PageDisasm(PageDecodes(page))
    single_added = sum(single.add_entries([e]) for e in sorted(set(entries)))
    return (batch.addresses(), batch_added), (single.addresses(), single_added)


def test_page_disasm_batch_finishes_each_entry_first():
    # a: jmp to T; b: mov rax, imm64 whose first immediate byte T is c3.
    # Entry a, taken alone first, claims T as a ret, so b's mov overlaps it.
    a, b = BASE, BASE + 2
    target = b + 2
    code = asm(jmp_rel8(target - (a + 2)), mov_ri(Reg.RAX, 0xC3), ret())
    assert code[target - BASE] == 0xC3
    page = _page_of(code_image(code))
    batch, singles = _batch_and_singles(page, [b, a])
    assert batch == singles == ((a, target), 2)


@functools.lru_cache(maxsize=None)
def _synth_pages(seed: int):
    image, _ = materialize(
        generate(GenParams(n_functions=8, max_functions_per_page=3), seed)
    )
    targets = collect_branch_targets(ImageAnalysis(image))
    return [
        (page, sorted(targets[page.base])) for page in image.executable_pages()
    ]


@given(
    seed=st.integers(0, 3),
    pick=st.integers(0, 1 << 16),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_page_disasm_batch_equals_ascending_singles(seed, pick, data):
    pages = _synth_pages(seed)
    page, targets = pages[pick % len(pages)]
    # Branch targets land on instruction starts; arbitrary offsets add
    # misaligned paths that overlap them.
    chosen = (
        data.draw(st.lists(st.sampled_from(targets), max_size=8))
        if targets
        else []
    )
    offsets = data.draw(st.lists(st.integers(0, PAGE_SIZE - 1), max_size=6))
    entries = chosen + [page.base + off for off in offsets]
    batch, singles = _batch_and_singles(page, entries)
    assert batch == singles


# Encoded forms whose rel8 branches land a few bytes on, so traversals
# follow in-page targets into and across the runs.
_RUN_FORMS = [
    nop(), ret(), pop_r(Reg.RBX), mov_rr(Reg.RAX, Reg.RBX),
    mov_ri(Reg.RCX, 0xC3), alu_ri("add", Reg.RSP, 8), jmp_r(Reg.RAX),
    jmp_rel8(3), jmp_rel8(-6), jcc_rel8(4, 5), call_rel32(2), syscall(),
]


# Runs of encoded forms between random bytes.
_RUN_CODE = st.lists(
    st.one_of(
        st.lists(st.sampled_from(_RUN_FORMS), min_size=1, max_size=6)
        .map(b"".join),
        st.binary(min_size=1, max_size=12),
    ),
    min_size=1,
    max_size=10,
).map(b"".join)


@given(code=_RUN_CODE, data=st.data())
@settings(max_examples=200, deadline=None)
def test_page_disasm_readding_entries_changes_nothing(code, data):
    page = _page_of(code_image(code))
    first = data.draw(
        st.lists(st.integers(0, len(code) + 8), min_size=1, max_size=10)
    )
    again = data.draw(st.lists(st.sampled_from(first), max_size=10))
    pd = PageDisasm(PageDecodes(page))
    pd.add_entries([BASE + off for off in first])
    insns, claimed = dict(pd.insns), bytes(pd._claimed)
    assert pd.add_entries([BASE + off for off in again]) == 0
    assert pd.insns == insns
    assert bytes(pd._claimed) == claimed


@given(code=_RUN_CODE, data=st.data())
@settings(max_examples=200, deadline=None)
def test_page_disasm_claims_its_spans_and_extended_copies(code, data):
    # A state is its instruction addresses: the claimed bytes are exactly
    # the instructions' spans, whatever batches built it.
    page = _page_of(code_image(code))
    batches = data.draw(st.lists(
        st.lists(st.integers(0, len(code) + 8), max_size=6), max_size=4
    ))
    pd = PageDisasm(PageDecodes(page))
    in_place = PageDisasm(PageDecodes(page))
    for batch in batches:
        entries = [BASE + off for off in batch]
        insns, claimed = dict(pd.insns), bytes(pd._claimed)
        new = pd.extended(entries)
        assert (pd.insns, bytes(pd._claimed)) == (insns, claimed)
        in_place.add_entries(entries)
        assert new.insns == in_place.insns
        spans = bytearray(PAGE_SIZE)
        for addr, insn in new.insns.items():
            spans[addr - BASE : addr - BASE + insn.length] = (
                b"\x01" * insn.length
            )
        assert new._claimed == spans
        pd = new


def test_page_disasm_requires_executable_page():
    builder = ImageBuilder()
    builder.put(0x900000, b"\xc3", perms=RO, tag=SegmentTag.DATA)
    page = builder.build().page_at(0x900000)
    with pytest.raises(ValueError):
        PageDisasm(PageDecodes(page))


def test_chain_targets_direct_and_conditional():
    code = asm(
        call_rel32(0x100),
        jcc_rel32(0x4, 0x200),
        jmp_rel32(0x300),
    )
    image = code_image(code)
    insns = decode_stream(code)
    with_cond = extract_chain_targets(insns, image, include_cond=True)
    without = extract_chain_targets(insns, image, include_cond=False)
    jcc_target = insns[1].branch_target
    assert insns[0].branch_target in with_cond
    assert insns[2].branch_target in with_cond
    assert jcc_target in with_cond
    assert jcc_target not in without
    assert len(without) == 2


def test_chain_targets_read_rip_relative_slots():
    slot_addr = BASE + 0x1000  # RO data page next door
    fn_target = 0x555000

    call_insn_len = len(call_rip(0))
    code_addr = BASE
    disp = slot_addr - (code_addr + call_insn_len)
    code = asm(call_rip(disp), ret())

    builder = ImageBuilder()
    builder.put(BASE, code, perms=RX, tag=SegmentTag.CODE, fill=0x06)
    builder.put(slot_addr, fn_target.to_bytes(8, "little"), perms=RO,
                tag=SegmentTag.DATA)
    builder.put(fn_target, asm(ret()), perms=RX, tag=SegmentTag.CODE)
    image = builder.build()

    insns = decode_stream(code)
    targets = extract_chain_targets(insns, image)
    assert fn_target in targets


def test_chain_targets_skip_unmapped_slot():
    disp = 0x100000  # points into unmapped space
    code = asm(call_rip(disp), ret())
    image = code_image(code)
    targets = extract_chain_targets(decode_stream(code), image)
    assert targets == frozenset()


@pytest.mark.parametrize("readable", [True, False])
def test_chain_targets_need_every_slot_byte_readable(readable):
    # The 8-byte slot at 0x401ffc ends in the page at 0x402000, which is
    # readable or mapped with no permissions at all.
    slot_addr, fn_target = BASE + 0x1FFC, BASE + 0x10
    code = asm(call_rip(slot_addr - (BASE + len(call_rip(0)))), ret())
    builder = ImageBuilder()
    builder.put(BASE, code, perms=RX, tag=SegmentTag.CODE, fill=0x06)
    builder.put(slot_addr, fn_target.to_bytes(8, "little")[:4], perms=RO,
                tag=SegmentTag.DATA)
    builder.put(slot_addr + 4, bytes(4), perms=RO if readable else Perms(
        readable=False), tag=SegmentTag.DATA)
    image = builder.build()
    targets = extract_chain_targets(decode_stream(code), image)
    assert targets == (frozenset({fn_target}) if readable else frozenset())
