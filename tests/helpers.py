"""Shared builders used across the test modules."""

from __future__ import annotations

import struct
from collections import deque
import statistics
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from ropscope import disasm as disasm_module
from ropscope import encode as enc
from ropscope.disasm import (
    _GROUP1_DIGIT,
    _REG_OPERANDS,
    _REGS,
    _SHIFT_DIGIT,
    GS_CALL_BYTES,
    MASK64,
    POISON_BYTE,
    Instruction,
    MemRef,
    Mnemonic,
    Operand,
    Reg,
    PageDecodes,
    PageDisasm,
    _effects,
    decode,
    extract_chain_targets,
)
from ropscope.gadgets import (
    BUILTIN_SETS,
    Footprint,
    Gadget,
    GadgetType,
    GadgetSetSpec,
    TC_CATEGORIES,
    TypeCount,
    classify,
    find_gadgets,
    leaked_types,
    set_coverage,
    type_counts,
)
from ropscope.harvest import (
    LEAK_TICKS_PER_PAGE,
    EventKind,
    HarvestEvent,
    HarvestOptions,
    HarvestTrace,
    ImageAnalysis,
    StartPointerInvalid,
    collect_branch_targets,
    page_start_pointers,
)
from ropscope.ptrscan import PointerHit, PointerScanReport
from ropscope.rerand import (
    ConvergenceRecord,
    UpperBoundReport,
    _non_reactive_intervals,
    merged_time_to_types,
)
from ropscope.snapshot import (
    PAGE_SIZE,
    ElfFormatError,
    ImageBuilder,
    MemoryImage,
    PageRecord,
    Perms,
    SegmentTag,
    WritableExecutableError,
    page_base,
)
from ropscope.synth import (
    AsmItem,
    GroundTruth,
    PlantRecord,
    SynthProgram,
    _Chunk,
    _rename_args,
)

RX = Perms(True, False, True)
RW = Perms(True, True, False)
RO = Perms(True, False, False)

BASE = 0x400000


def asm(*chunks: bytes) -> bytes:
    return b"".join(chunks)


def decode_stream(data: bytes, base: int = BASE) -> list[Instruction]:
    """Decode a byte string linearly; fixtures must decode cleanly."""
    out: list[Instruction] = []
    off = 0
    while off < len(data):
        insn = decode(data[off:], base + off)
        assert insn is not None, f"undecodable fixture byte at offset {off}"
        out.append(insn)
        off += insn.length
    return out


def code_image(
    code: bytes, base: int = BASE, fill: int = 0x06
) -> MemoryImage:
    """One executable region starting at base, poison-filled to page size."""
    builder = ImageBuilder()
    builder.put(base, code, perms=RX, tag=SegmentTag.CODE, fill=fill)
    return builder.build()


def multi_page_image(
    pages: dict[int, bytes], fill: int = 0x06
) -> MemoryImage:
    builder = ImageBuilder()
    for base, code in sorted(pages.items()):
        assert base % PAGE_SIZE == 0
        builder.put(base, code, perms=RX, tag=SegmentTag.CODE, fill=fill)
    return builder.build()


def shape_length(data: bytes, offset: int = 0) -> int | None:
    """The length of the encoding at data[offset:] by its opcode-map entry's
    length shape, with ModRM, SIB and displacement sized by the SDM's rules
    rather than the decoder's table; None when no map entry covers its
    opcode or the bytes end first."""
    try:
        pos = offset
        op = data[pos]
        pos += 1
        rex = 0
        if 0x40 <= op <= 0x4F:
            rex, op = op, data[pos]
            pos += 1
        if op == 0x0F:
            op = 0x0F00 | data[pos]
            pos += 1
        entry = disasm_module._OPCODE_MAP.get(op)
        if entry is None:
            return None
        modrm, imm, imm_w = entry[2]
        if modrm:
            mod, rm = data[pos] >> 6, data[pos] & 7
            pos += 1
            if mod != 3 and rm == 4:
                base = data[pos] & 7
                pos += 1
                if mod == 0 and base == 5:
                    pos += 4
            elif mod == 0 and rm == 5:
                pos += 4
            pos += {0: 0, 1: 1, 2: 4, 3: 0}[mod]
    except IndexError:
        return None
    end = pos + (imm_w if rex & 0x8 else imm)
    return end - offset if end <= len(data) else None


# The `synth generate` options of each corpus the golden outputs are
# computed on.
GOLDEN_CORPORA = {
    "packed": ["--seed", "7", "--functions", "12",
               "--max-functions-per-page", "3",
               "--schemes", "coarse,instruction"],
    "sparse": ["--seed", "11", "--functions", "6",
               "--max-functions-per-page", "1"],
    # One function per page on 24 pages: starts share most of their pages.
    "wide": ["--seed", "5", "--functions", "24",
             "--max-functions-per-page", "1"],
    # Out-degree about 4 with two functions a page: many pages are entered
    # by several batches, so a walk moves past their first node.
    "batches": ["--seed", "7", "--functions", "60",
                "--connectivity", "0.067", "--max-functions-per-page", "2"],
    # The generator's own files: every layout, truth and the manifest.
    "layouts": ["--seed", "7", "--functions", "12",
                "--max-functions-per-page", "3",
                "--schemes", "coarse,function,block,instruction",
                "--rename-registers"],
}


def all_layouts_options(name: str) -> list[str]:
    """The `synth generate` options of the golden corpus `name`, emitting
    all four scheme layouts besides the baseline."""
    options = list(GOLDEN_CORPORA[name])
    if "--schemes" in options:
        at = options.index("--schemes")
        del options[at:at + 2]
    return options + ["--schemes", "coarse,function,block,instruction"]


_EHDR = struct.Struct("<16sHHIQQQIHHHHHH")
_PHDR = struct.Struct("<IIQQQQQQ")


def build_elf(segments: list[dict]) -> bytes:
    """Assemble a minimal ELF64 little-endian executable image.

    Each segment dict: vaddr, data, memsz (>= len(data)), flags (PF_* bits).
    Segment file bytes are packed back to back after the headers.
    """
    ehsize = _EHDR.size
    phoff = ehsize
    phnum = len(segments)
    data_off = phoff + phnum * _PHDR.size

    phdrs = b""
    blobs = b""
    off = data_off
    for seg in segments:
        data = seg["data"]
        memsz = seg.get("memsz", len(data))
        assert memsz >= len(data)
        phdrs += _PHDR.pack(
            seg.get("type", 1),
            seg["flags"],
            off,
            seg["vaddr"],
            seg["vaddr"],
            len(data),
            memsz,
            PAGE_SIZE,
        )
        blobs += data
        off += len(data)

    ident = b"\x7fELF" + bytes([2, 1, 1, 0]) + bytes(8)
    ehdr = _EHDR.pack(
        ident, 2, 0x3E, 1, segments[0]["vaddr"] if segments else 0,
        phoff, 0, 0, ehsize, _PHDR.size, phnum, 0, 0, 0,
    )
    return ehdr + phdrs + blobs


_ELF_MAGIC = b"\x7fELF"
_PT_LOAD = 1
_PF_X = 1
_PF_W = 2
_PF_R = 4


def reference_load_elf(
    src: str | Path | bytes, kind: str = "exec_only"
) -> MemoryImage:
    """load_elf as a walk over every byte of every segment, with a set of
    claimed offsets per page. An oracle for the page-span loader; it has
    no zero-fill cap, so keep its inputs small."""
    if kind not in ("exec_only", "all_load"):
        raise ValueError(f"unknown load kind {kind!r}")
    raw = Path(src).read_bytes() if isinstance(src, (str, Path)) else src

    if len(raw) < _EHDR.size:
        raise ElfFormatError("file shorter than ELF header")
    ident = raw[:16]
    if ident[:4] != _ELF_MAGIC:
        raise ElfFormatError("bad ELF magic")
    if ident[4] != 2:
        raise ElfFormatError("not a 64-bit ELF object")
    if ident[5] != 1:
        raise ElfFormatError("not little-endian")
    fields = _EHDR.unpack_from(raw, 0)
    e_phoff, e_phentsize, e_phnum = fields[5], fields[9], fields[10]
    if e_phentsize != _PHDR.size:
        raise ElfFormatError(f"unexpected program header size {e_phentsize}")
    if e_phoff + e_phnum * _PHDR.size > len(raw):
        raise ElfFormatError("program header table extends past end of file")

    # Accumulate page contents; segments may land on the same page only if
    # their byte ranges do not collide.
    page_bytes: dict[int, bytearray] = {}
    page_perms: dict[int, Perms] = {}
    page_tags: dict[int, SegmentTag] = {}
    claimed: dict[int, set[int]] = {}

    for i in range(e_phnum):
        p_type, p_flags, p_offset, p_vaddr, _paddr, p_filesz, p_memsz, _align = (
            _PHDR.unpack_from(raw, e_phoff + i * _PHDR.size)
        )
        if p_type != _PT_LOAD or p_memsz == 0:
            continue
        executable = bool(p_flags & _PF_X)
        writable = bool(p_flags & _PF_W)
        if executable and writable:
            raise WritableExecutableError(
                f"segment at {p_vaddr:#x} is writable and executable"
            )
        if kind == "exec_only" and not executable:
            continue
        if p_offset + p_filesz > len(raw):
            raise ElfFormatError("segment file extent past end of file")
        if p_filesz > p_memsz:
            raise ElfFormatError("segment filesz exceeds memsz")
        if p_vaddr + p_memsz > 1 << 64:
            raise ElfFormatError(
                f"segment at {p_vaddr:#x} runs past the end of the address space"
            )

        perms = Perms(bool(p_flags & _PF_R), writable, executable)
        seg_tag = SegmentTag.CODE if executable else SegmentTag.DATA
        content = raw[p_offset : p_offset + p_filesz]
        for j in range(p_memsz):
            addr = p_vaddr + j
            base = page_base(addr)
            if base not in page_bytes:
                page_bytes[base] = bytearray(PAGE_SIZE)
                page_perms[base] = perms
                page_tags[base] = seg_tag
                claimed[base] = set()
            off = addr - base
            if off in claimed[base]:
                raise ElfFormatError(f"overlapping PT_LOAD segments at {addr:#x}")
            claimed[base].add(off)
            page_bytes[base][off] = content[j] if j < len(content) else 0
            if perms != page_perms[base]:
                # Two loads share a page with different permissions; take the union
                # of readability and keep the stronger (executable) mapping.
                merged = Perms(
                    perms.readable or page_perms[base].readable,
                    perms.writable or page_perms[base].writable,
                    perms.executable or page_perms[base].executable,
                )
                page_perms[base] = merged
                if merged.executable:
                    page_tags[base] = SegmentTag.CODE

    pages = [
        PageRecord(base, page_perms[base], page_tags[base], bytes(data))
        for base, data in sorted(page_bytes.items())
    ]
    return MemoryImage(pages, {"source": "elf", "load_kind": kind})


@dataclass
class ReferenceImageBuilder:
    """ImageBuilder placing one byte at a time. An oracle for the
    page-span put."""

    _pages: dict[int, bytearray] = field(default_factory=dict)
    _perms: dict[int, Perms] = field(default_factory=dict)
    _tags: dict[int, SegmentTag] = field(default_factory=dict)

    def put(
        self,
        addr: int,
        data: bytes,
        perms: Perms = RX,
        tag: SegmentTag = SegmentTag.CODE,
        fill: int = 0,
    ) -> None:
        for i, value in enumerate(data):
            base = page_base(addr + i)
            if base not in self._pages:
                self._pages[base] = bytearray([fill]) * PAGE_SIZE
                self._perms[base] = perms
                self._tags[base] = tag
            self._pages[base][addr + i - base] = value

    def reserve(
        self,
        base: int,
        perms: Perms = RX,
        tag: SegmentTag = SegmentTag.CODE,
        fill: int = 0,
    ) -> None:
        if base not in self._pages:
            self._pages[base] = bytearray([fill]) * PAGE_SIZE
            self._perms[base] = perms
            self._tags[base] = tag

    def build(self, metadata: dict[str, str] | None = None) -> MemoryImage:
        pages = [
            PageRecord(base, self._perms[base], self._tags[base], bytes(data))
            for base, data in sorted(self._pages.items())
        ]
        return MemoryImage(pages, metadata)


def gadget_multiset(gadgets) -> list[tuple]:
    """Stable comparable key per gadget for whole-image equality checks."""
    return sorted(
        (
            g.addr,
            g.length,
            tuple(sorted(t.value for t in g.types)),
            tuple(
                sorted((t.value, f.value) for t, f in g.footprints.items())
            ),
        )
        for g in gadgets
    )


def reference_category_counts(
    gadgets: Iterable[Gadget],
) -> dict[str, TypeCount]:
    """MIN/EX counts of expressiveness-core gadgets grouped by operation
    category. A gadget contributes once per category it has a type in."""
    category_of = {
        gtype: name for name, members in TC_CATEGORIES.items()
        for gtype in members
    }
    out = {name: TypeCount() for name in TC_CATEGORIES}
    for gadget in gadgets:
        # Whether the gadget has a minimal type, per category it is in.
        minimal: dict[str, bool] = {}
        for gtype in gadget.types:
            name = category_of.get(gtype)
            if name is not None:
                minimal[name] = (
                    minimal.get(name, False)
                    or gadget.footprints[gtype] is Footprint.MIN_FP
                )
        for name, is_min in minimal.items():
            if is_min:
                out[name].min_fp += 1
            else:
                out[name].ex_fp += 1
    return out


def reference_population_stats(gadgets: Sequence[Gadget]) -> dict:
    """One layout's scheme-comparison entry read off its Gadget records: the
    MIN/EX counts per type and per category, and whether they cover the tc
    set. An oracle for `gadgets.population_stats`, which counts windows
    without building them."""
    counts = type_counts(gadgets)
    tc = set_coverage(counts, BUILTIN_SETS["tc"])
    return {
        "gadgets": len(gadgets),
        # A label is one (gadget, type) pair, counted once in its type.
        "min_fp_labels": sum(c.min_fp for c in counts.values()),
        "types": {
            t.value: {"min_fp": c.min_fp, "ex_fp": c.ex_fp}
            for t, c in counts.items()
        },
        "categories": {
            name: {"min_fp": c.min_fp, "ex_fp": c.ex_fp}
            for name, c in reference_category_counts(gadgets).items()
        },
        "tc_preserved": tc.converged,
        "tc_preserved_min_fp": tc.converged_min_fp,
    }


def reference_offline_disassemble(
    image: MemoryImage, opts: HarvestOptions = HarvestOptions()
) -> dict[int, tuple[Instruction, ...]]:
    """Offline disassembly as a FIFO of single addresses: every start
    pointer and linear-scan target, then each stream's chain targets
    whenever an entry extends it. An oracle for the shared traversal."""
    seeds = set(page_start_pointers(image, opts).values())
    for targets in collect_branch_targets(ImageAnalysis(image)).values():
        seeds |= targets
    states: dict[int, PageDisasm] = {}
    pending: deque[int] = deque(sorted(seeds))
    handled: set[int] = set()
    while pending:
        addr = pending.popleft()
        if addr in handled:
            continue
        handled.add(addr)
        if not image.is_executable(addr):
            continue
        base = page_base(addr)
        if base not in states:
            states[base] = PageDisasm(PageDecodes(image.page_at(addr)))
        if states[base].add_entries([addr]):
            stream = states[base].instructions()
            for target in sorted(
                extract_chain_targets(
                    stream, image, include_cond=opts.follow_cond_branches
                )
            ):
                if target not in handled:
                    pending.append(target)
    return {base: st.instructions() for base, st in states.items()}


def is_sys_entry(insn: Instruction) -> bool:
    """syscall, sysenter, int 0x80 or the gs-relative call, in any encoding."""
    if insn.mnemonic in (Mnemonic.SYSCALL, Mnemonic.SYSENTER, Mnemonic.CALL_GS):
        return True
    return (
        insn.mnemonic is Mnemonic.INT
        and bool(insn.operands)
        and insn.operands[0].imm == 0x80
    )


_SYS_SCAN_PATTERNS = (
    bytes([0x0F, 0x05]),
    bytes([0x0F, 0x34]),
    bytes([0xCD, 0x80]),
    GS_CALL_BYTES,
)


def reference_sys_anchors(insns) -> list[int]:
    """System-entry anchors found by scanning raw stream bytes for the
    opcode strings, keeping only hits aligned to a system-entry instruction
    whose encoding starts with the hit. An oracle for the per-instruction
    terminator rule in find_gadgets."""
    by_addr = {i.addr: i for i in insns}
    anchors: list[int] = []
    # Maximal byte-adjacent runs, so patterns spanning two instructions are
    # visible to the scan too.
    runs: list[tuple[int, bytes]] = []
    current_start: int | None = None
    current = b""
    prev_end: int | None = None
    for insn in insns:
        if prev_end is not None and insn.addr == prev_end:
            current += insn.raw
        else:
            if current_start is not None:
                runs.append((current_start, current))
            current_start = insn.addr
            current = insn.raw
        prev_end = insn.end
    if current_start is not None:
        runs.append((current_start, current))

    for start, blob in runs:
        for pattern in _SYS_SCAN_PATTERNS:
            pos = blob.find(pattern)
            while pos != -1:
                insn = by_addr.get(start + pos)
                if insn is not None and insn.raw.startswith(pattern) \
                        and is_sys_entry(insn):
                    anchors.append(start + pos)
                pos = blob.find(pattern, pos + 1)
    return sorted(set(anchors))


# --- the per-type classifier, an oracle for classify ---
#
# The window classifier as it was before classify made one backward scan:
# a forward loop over every instruction's core matches, then one scan per
# sequence-shaped type. Kept verbatim apart from the two function names.

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



# Per-instruction core matching. Each hit names a type and whether the match
# is in the type's minimal shape (register operands or a bare [reg] address).


def reference_insn_cores(insn: Instruction) -> list[tuple[GadgetType, bool]]:
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


def reference_classify(
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
        matches = [reference_insn_cores(insn) for insn in insns]
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


def reference_find_gadgets(
    insns, max_len: int, heuristic: bool
) -> tuple[Gadget, ...]:
    """Every window of up to max_len byte-adjacent stream instructions that
    ends at a terminator and holds no unconditional transfer before it,
    each rebuilt from scratch and passed to the public classify. An oracle
    for find_gadgets."""
    stream = sorted(insns, key=lambda i: i.addr)
    terminators = {
        Mnemonic.RET, Mnemonic.RET_IMM, Mnemonic.JMP_RM, Mnemonic.CALL_RM,
    }
    blockers = {
        Mnemonic.RET, Mnemonic.RET_IMM, Mnemonic.JMP_REL, Mnemonic.JMP_RM,
    }
    out = []
    for end, last in enumerate(stream):
        if not (
            last.mnemonic in terminators
            or (is_sys_entry(last) and last.raw.startswith(_SYS_SCAN_PATTERNS))
            or (heuristic and last.mnemonic is Mnemonic.JMP_REL)
        ):
            continue
        for length in range(1, min(max_len, end + 1) + 1):
            window = stream[end - length + 1 : end + 1]
            adjacent = all(
                a.end == b.addr for a, b in zip(window, window[1:])
            )
            if adjacent and not any(i.mnemonic in blockers for i in window[:-1]):
                out.append(classify(window, heuristic))
    return tuple(sorted(out, key=lambda g: (g.addr, g.length)))


def reference_branch_targets(image: MemoryImage) -> dict[int, set[int]]:
    """Direct branch targets by page from a linear scan that resynchronizes
    one byte at a time. An oracle for collect_branch_targets."""
    exec_pages = image.executable_pages()
    targets_by_page: dict[int, set[int]] = {p.base: set() for p in exec_pages}
    for page in exec_pages:
        pos = 0
        while pos < PAGE_SIZE:
            insn = decode(page.data[pos:], page.base + pos)
            if insn is None:
                pos += 1
                continue
            target = insn.branch_target
            if target is not None and page_base(target) in targets_by_page:
                targets_by_page[page_base(target)].add(target)
            pos += insn.length
    return targets_by_page


class ReferenceTraversal:
    """The harvest's page loop with a set of handled targets, a fresh
    PageDisasm per page and every stream mined where it changes: no shared
    analysis, no tree and no target masks. An oracle for the traversal.

    Yields, per visit, the page base, whether it is the first visit, the
    instructions the batch added and, when the stream changed or on the
    first visit, its (gadgets, ascending chain targets, types)."""

    def __init__(self, image: MemoryImage, opts: HarvestOptions, seeds):
        self.image = image
        self.opts = opts
        self.states: dict[int, PageDisasm] = {}
        self.mined: dict[int, tuple] = {}
        self.skipped = 0
        self._pending: dict[int, set[int]] = {}
        self._handled: set[int] = set()
        self._queue: deque[int] = deque()
        self._add_targets(sorted(set(seeds)))

    def _add_targets(self, targets) -> None:
        handled = self._handled
        fresh = [t for t in targets if t not in handled]
        handled.update(fresh)
        for addr in fresh:
            if not self.image.is_executable(addr):
                self.skipped += 1
                continue
            base = page_base(addr)
            if base not in self._pending:
                self._queue.append(base)
                self._pending[base] = set()
            self._pending[base].add(addr)

    def __iter__(self):
        image, opts = self.image, self.opts
        while self._queue:
            base = self._queue.popleft()
            first_visit = base not in self.states
            if first_visit:
                self.states[base] = PageDisasm(PageDecodes(image.page_at(base)))
            added = self.states[base].add_entries(self._pending.pop(base))
            mined = None
            if added or first_visit:
                stream = self.states[base].instructions()
                gadgets = find_gadgets(
                    stream, opts.max_gadget_len, opts.enable_heuristic_types
                )
                targets = sorted(extract_chain_targets(
                    stream, image, include_cond=opts.follow_cond_branches
                ))
                mined = self.mined[base] = (
                    gadgets, targets, leaked_types(gadgets)
                )
                self._add_targets(targets)
            yield base, first_visit, added, mined

    def gadgets(self) -> tuple[Gadget, ...]:
        return tuple(
            g for base in sorted(self.mined) for g in self.mined[base][0]
        )


def reference_harvest(
    image: MemoryImage, start: int, opts: HarvestOptions = HarvestOptions()
) -> HarvestTrace:
    """The clocked harvest over ReferenceTraversal, stamping every event as
    it happens. An oracle for harvest."""
    if not image.is_executable(start):
        raise StartPointerInvalid(f"start pointer {start:#x}")
    tracked = set(opts.track_set.required) if opts.track_set else None
    leak_cost = analysis_cost = 0
    converged = False
    events: list[HarvestEvent] = []
    seen_types: set = set()

    def stamp(kind, payload):
        events.append(HarvestEvent(
            len(events) + 1, leak_cost + analysis_cost, kind, payload
        ))

    walk = ReferenceTraversal(image, opts, (start,))
    for base, first_visit, added, mined in walk:
        if first_visit:
            leak_cost += LEAK_TICKS_PER_PAGE
            stamp(EventKind.PAGE_DISCOVERED, {"base": base})
        analysis_cost += added
        if mined is None:
            continue
        new_types = mined[2] - seen_types
        if tracked is not None:
            new_types &= tracked
        for gtype in sorted(new_types, key=lambda t: t.value):
            stamp(EventKind.TYPE_LEAKED, {"type": gtype.value})
        seen_types |= new_types
        if tracked is not None and not converged and tracked <= seen_types:
            converged = True
            stamp(EventKind.CONVERGED, {"set": opts.track_set.name})
            if opts.stop_on_convergence:
                break
    return HarvestTrace(
        start=start,
        events=events,
        leak_cost=leak_cost,
        analysis_cost=analysis_cost,
        pages_found=len(walk.states),
        skipped_targets=walk.skipped,
        gadgets=walk.gadgets(),
    )


def reference_converge(
    image: MemoryImage,
    start: int,
    spec: GadgetSetSpec | None = None,
    opts: HarvestOptions = HarvestOptions(),
) -> ConvergenceRecord:
    """converge read off a full reference_harvest trace. An oracle for
    converge."""
    spec = spec or opts.track_set or BUILTIN_SETS["tc"]
    trace = reference_harvest(image, start, replace(
        opts, track_set=spec, stop_on_convergence=True
    ))
    leaked = [
        e.clock for e in trace.events if e.kind is EventKind.TYPE_LEAKED
    ]
    return ConvergenceRecord(
        start=start,
        set_name=spec.name,
        convergence_clock=trace.convergence_clock(),
        type_timeline=tuple(
            (clock, k) for k, clock in enumerate(leaked, 1)
        ),
        leak_fraction=(
            trace.leak_cost / trace.total_cost if trace.total_cost else 0.0
        ),
        total_cost=trace.total_cost,
        pages_found=trace.pages_found,
    )


# The node map as it was before edges: a node's chain targets are an int
# mask over the target index, its children are the nodes themselves, every
# stream is mined for its gadgets, and a visit decodes the targets it has
# not handled off the mask's binary text. ReferenceAnalysis and ReferenceWalk
# keep that ImageAnalysis and _Walk verbatim, as the oracle for the edges,
# the root table and mining on first read.


class _MaskNode:
    __slots__ = ("disasm", "gadgets", "targets", "types", "children")

    def __init__(
        self,
        disasm: PageDisasm,
        gadgets: tuple[Gadget, ...] = (),
        targets: int = 0,
        types: frozenset[GadgetType] = frozenset(),
    ):
        self.disasm = disasm
        self.gadgets = gadgets
        self.targets = targets
        self.types = types
        self.children: dict[tuple[int, ...], _MaskNode | None] = {}


_UNSEEN = object()  # a batch not yet added to a node


class ReferenceAnalysis:
    """ImageAnalysis with target masks and a node map that holds the
    roots; the parts of it that ReferenceWalk uses."""

    def __init__(
        self, image: MemoryImage, opts: HarvestOptions = HarvestOptions()
    ):
        self.image = image
        self.opts = opts
        self._decodes: dict[int, PageDecodes] = {}
        self._nodes: dict[tuple[int, tuple[int, ...]], _MaskNode] = {}
        self._target_bits: dict[int, int] = {}
        self._targets: list[tuple[int, int | None]] = []

    def decodes(self, page: PageRecord) -> PageDecodes:
        if page.base not in self._decodes:
            self._decodes[page.base] = PageDecodes(page)
        return self._decodes[page.base]

    def target_mask(self, addrs: Iterable[int]) -> int:
        """The mask of these addresses in the target index, which gains a
        bit for each address it has not met before."""
        bits = self._target_bits
        targets = self._targets
        mask = 0
        for addr in addrs:
            bit = bits.get(addr)
            if bit is None:
                bit = bits[addr] = len(targets)
                executable = self.image.is_executable(addr)
                targets.append((addr, page_base(addr) if executable else None))
            mask |= 1 << bit
        return mask

    def targets(self, mask: int) -> list[tuple[int, int | None]]:
        """(address, page base or None) of each target in the mask, in
        ascending address order. The bits are read off the mask's binary
        text, in time linear in its length however many bits are set."""
        targets = self._targets
        digits = bin(mask)
        top = len(digits) - 1  # bit i is digits[top - i]
        out = []
        pos = digits.find("1", 2)
        while pos != -1:
            out.append(targets[top - pos])
            pos = digits.find("1", pos + 1)
        out.sort()
        return out

    def root(self, base: int) -> _MaskNode:
        """The empty-stream node of the page at `base`, where each of its
        traversals starts; it yields nothing and is never mined."""
        node = self._nodes.get((base, ()))
        if node is None:
            page = self.image.page_at(base)
            node = self._nodes[base, ()] = _MaskNode(
                PageDisasm(self.decodes(page))
            )
        return node

    def advance(
        self, base: int, node: _MaskNode, entries: Iterable[int]
    ) -> _MaskNode:
        """The node reached from `node` of the page at `base` by adding one
        batch of entries: `node` itself when the batch adds nothing, and
        built and mined on the first visit to its stream."""
        batch = tuple(sorted(entries))
        child = node.children.get(batch, _UNSEEN)
        if child is _UNSEEN:
            disasm = node.disasm.extended(batch)
            key = (base, disasm.addresses())
            child = self._nodes.get(key)
            if child is None:
                stream = disasm.instructions()
                opts = self.opts
                gadgets = find_gadgets(
                    stream, opts.max_gadget_len, opts.enable_heuristic_types
                )
                targets = extract_chain_targets(
                    stream, self.image, include_cond=opts.follow_cond_branches
                )
                child = self._nodes[key] = _MaskNode(
                    disasm, gadgets, self.target_mask(targets),
                    leaked_types(gadgets),
                )
            node.children[batch] = None if child is node else child
        return child or node


class ReferenceWalk:
    """harvest._Walk over a ReferenceAnalysis."""

    def __init__(
        self,
        analysis: ReferenceAnalysis,
        seeds: Iterable[int],
        track_set: GadgetSetSpec | None = None,
        stop_on_convergence: bool = False,
        page_events: bool = False,
    ):
        tracked = set(track_set.required) if track_set else None
        nodes: dict[int, _MaskNode] = {}
        pending: dict[int, list[int]] = {}
        # Targets handled so far, as a mask over the analysis's index.
        handled = analysis.target_mask(seeds)
        for addr, base in analysis.targets(handled):
            pending.setdefault(base, []).append(addr)
        queue = deque(pending)
        skipped = 0
        leak_cost = 0
        analysis_cost = 0
        events: list[HarvestEvent] = []
        seen_types: set[GadgetType] = set()

        while queue:
            base = queue.popleft()
            node = nodes.get(base)
            first_visit = node is None
            if first_visit:
                node = analysis.root(base)
                leak_cost += LEAK_TICKS_PER_PAGE
                if page_events:
                    events.append(HarvestEvent(
                        len(events) + 1, leak_cost + analysis_cost,
                        EventKind.PAGE_DISCOVERED, {"base": base},
                    ))
            child = nodes[base] = analysis.advance(
                base, node, pending.pop(base)
            )
            if child is node and not first_visit:
                continue
            fresh = child.targets & ~handled
            if fresh:
                handled |= fresh
                for addr, tbase in analysis.targets(fresh):
                    if tbase is None:
                        skipped += 1
                        continue
                    entries = pending.get(tbase)
                    if entries is None:
                        queue.append(tbase)
                        entries = pending[tbase] = []
                    entries.append(addr)
            # add_entries only adds, so the lengths differ by what it added.
            analysis_cost += len(child.disasm.insns) - len(node.disasm.insns)

            # seen_types already holds the types of every other page, so
            # only the page just mined can add new ones.
            new_types = child.types - seen_types
            if tracked is not None:
                new_types &= tracked
            if not new_types:
                continue
            clock = leak_cost + analysis_cost
            # A GadgetType is a str, so they sort by value.
            for gtype in sorted(new_types):
                events.append(HarvestEvent(
                    len(events) + 1, clock, EventKind.TYPE_LEAKED,
                    {"type": gtype.value},
                ))
            seen_types |= new_types
            # A set spec is never empty, so the walk converges on the visit
            # that brings its last missing type.
            if tracked is not None and tracked <= seen_types:
                events.append(HarvestEvent(
                    len(events) + 1, clock, EventKind.CONVERGED,
                    {"set": track_set.name},
                ))
                if stop_on_convergence:
                    break

        self.nodes = nodes
        self.skipped = skipped
        self.leak_cost = leak_cost
        self.analysis_cost = analysis_cost
        self.events = events

    def gadgets(self) -> tuple[Gadget, ...]:
        """Gadgets of every visited page's current stream, in page order."""
        nodes = self.nodes
        return tuple(chain.from_iterable(
            nodes[base].gadgets for base in sorted(nodes)
        ))


def reference_upper_bound(
    image: MemoryImage, opts: HarvestOptions = HarvestOptions()
) -> tuple[UpperBoundReport, ReferenceAnalysis]:
    """upper_bound with each start's convergence run a ReferenceWalk over
    one shared ReferenceAnalysis, and that analysis. An oracle for the
    edges of upper_bound's node map."""
    spec = opts.track_set or BUILTIN_SETS["tc"]
    analysis = ReferenceAnalysis(image, opts)
    records = {}
    for _, start in sorted(page_start_pointers(image, opts).items()):
        walk = ReferenceWalk(analysis, (start,), spec, True)
        events = walk.events
        converged = bool(events) and events[-1].kind is EventKind.CONVERGED
        leaks = [e.clock for e in events if e.kind is EventKind.TYPE_LEAKED]
        total = walk.leak_cost + walk.analysis_cost
        records[start] = ConvergenceRecord(
            start=start,
            set_name=spec.name,
            convergence_clock=events[-1].clock if converged else None,
            type_timeline=tuple((c, k) for k, c in enumerate(leaks, 1)),
            leak_fraction=walk.leak_cost / total if total else 0.0,
            total_cost=total,
            pages_found=len(walk.nodes),
        )
    clocks = [
        r.convergence_clock for r in records.values() if r.converged
    ]
    merged = merged_time_to_types(list(records.values()), len(spec.required))
    report = UpperBoundReport(
        spec_name=spec.name,
        per_start=records,
        minimum_clock=min(clocks) if clocks else None,
        average_clock=float(statistics.fmean(clocks)) if clocks else None,
        non_reactive_intervals=_non_reactive_intervals(merged),
    )
    return report, analysis


def reference_scan_pointers(
    image: MemoryImage,
    tags: Sequence[SegmentTag] | None = None,
    lib_range: tuple[int, int] | None = None,
    alignment: int = 8,
    require_executable_target: bool = True,
) -> PointerScanReport:
    """Scan aligned words in data pages for code addresses, one word at a
    time. An oracle for ptrscan.scan_pointers.

    tags restricts which segments are scanned (default: everything that is
    not executable). lib_range keeps only values in [lo, hi). Values must
    point at mapped memory; by default they must point at executable
    memory, since only those can seed code harvesting.
    """
    if alignment < 1:
        raise ValueError("alignment must be positive")
    if lib_range is not None and lib_range[0] >= lib_range[1]:
        raise ValueError("empty library range")

    wanted = None if tags is None else set(tags)
    hits: list[PointerHit] = []
    scanned_pages = 0
    scanned_words = 0
    for page in image.pages:
        if page.perms.executable:
            continue
        if wanted is not None and page.tag not in wanted:
            continue
        scanned_pages += 1
        data = page.data
        for off in range(0, len(data) - 7, alignment):
            scanned_words += 1
            value = int.from_bytes(data[off : off + 8], "little")
            if lib_range is not None and not (
                lib_range[0] <= value < lib_range[1]
            ):
                continue
            if not image.is_mapped(value):
                continue
            is_exec = image.is_executable(value)
            if require_executable_target and not is_exec:
                continue
            hits.append(
                PointerHit(
                    addr=page.base + off,
                    value=value,
                    tag=page.tag,
                    target_executable=is_exec,
                )
            )
    return PointerScanReport(
        hits=tuple(hits),
        lib_range=lib_range,
        scanned_pages=scanned_pages,
        scanned_words=scanned_words,
    )


# Encoded sizes of the targeted branches, as the x86-64 manual gives them
# (E8/E9 rel32, 0F 8x rel32), not as the encoder computes them.
_BRANCH_SIZES = {"call_rel32": 5, "jmp_rel32": 5, "jcc_rel32": 6}


def reference_layout(
    program: SynthProgram,
    chunks: Sequence[_Chunk],
    start_base: int,
    renames: Mapping[int, Mapping[Reg, Reg]] | None = None,
) -> tuple[MemoryImage, GroundTruth]:
    """synth._layout as it was before the link jump became one more branch
    item of its unit, kept verbatim. An oracle for synth._layout."""
    # Resolve renames and encode every untargeted item once. A targeted
    # branch has a fixed size and is encoded once its target is placed.
    resolved: dict[tuple[int, int], tuple[AsmItem, bytes | None]] = {}
    size_of: dict[tuple[int, int], int] = {}
    for f, fn in enumerate(program.functions):
        for i, item in enumerate(fn.items):
            if renames and f in renames:
                item = _rename_args(item, renames[f])
            code = None
            if item.target is None:
                code = getattr(enc, item.op)(*item.args)
            resolved[(f, i)] = (item, code)
            size_of[(f, i)] = _BRANCH_SIZES[item.op] if code is None else len(code)

    # Pass 1: place chunks, record every item's address.
    addr_of: dict[tuple[int, int], int] = {}
    link_addr: list[int | None] = []
    cursor = start_base
    placements: list[tuple[int, _Chunk]] = []
    last_used = start_base
    for chunk in chunks:
        size = sum(size_of[key] for key in chunk.items)
        if chunk.link_to is not None:
            size += _BRANCH_SIZES["jmp_rel32"]
        if size > PAGE_SIZE:
            raise ValueError("relocation unit larger than a page")
        if page_base(cursor) != page_base(cursor + size - 1):
            cursor = page_base(cursor) + PAGE_SIZE
        placements.append((cursor, chunk))
        pos = cursor
        for key in chunk.items:
            addr_of[key] = pos
            pos += size_of[key]
        link_addr.append(pos if chunk.link_to is not None else None)
        cursor = pos + (
            _BRANCH_SIZES["jmp_rel32"] if chunk.link_to is not None else 0
        )
        last_used = max(last_used, cursor)
        cursor += chunk.gap_after
        if chunk.new_page_after:
            cursor = page_base(cursor) + PAGE_SIZE

    # Pass 2: encode with resolved branch displacements. Pages past the
    # last emitted byte are never materialized.
    lo_page = page_base(start_base)
    hi_page = page_base(last_used - 1 if last_used > start_base else start_base)
    n_pages = (hi_page - lo_page) // PAGE_SIZE + 1
    blob = bytearray(bytes([POISON_BYTE]) * (n_pages * PAGE_SIZE))

    page_edges: dict[int, set[int]] = {}

    def note_edge(insn_addr: int, target_addr: int) -> None:
        page_edges.setdefault(page_base(insn_addr), set()).add(
            page_base(target_addr)
        )

    def emit(addr: int, encoded: bytes) -> None:
        off = addr - lo_page
        blob[off : off + len(encoded)] = encoded

    for chunk_pos, (placed_at, chunk) in enumerate(placements):
        for key in chunk.items:
            item, code = resolved[key]
            addr = addr_of[key]
            if code is None:
                target_addr = addr_of[item.target]
                disp = target_addr - (addr + size_of[key])
                code = getattr(enc, item.op)(*item.args, disp)
                note_edge(addr, target_addr)
            elif item.op == "jmp_rel8":
                note_edge(addr, addr + len(code) + item.args[0])
            emit(addr, code)
        la = link_addr[chunk_pos]
        if la is not None:
            assert chunk.link_to is not None
            target_addr = addr_of[chunk.link_to]
            disp = target_addr - (la + 5)
            emit(la, enc.jmp_rel32(disp))
            note_edge(la, target_addr)

    pages = []
    for k in range(n_pages):
        base = lo_page + k * PAGE_SIZE
        data = bytes(blob[k * PAGE_SIZE : (k + 1) * PAGE_SIZE])
        pages.append(PageRecord(base, RX, SegmentTag.CODE, data))
    image = MemoryImage(pages, metadata={"generator": "synth"})

    planted = tuple(
        PlantRecord(
            p.gtype, addr_of[(p.fn_idx, p.start_item)], p.n_items, p.fn_idx
        )
        for p in program.plants
    )
    entries = tuple(
        addr_of[(f, 0)] for f in range(len(program.functions))
    )
    fn_pages = []
    for f in range(len(program.functions)):
        touched: set[int] = set()
        for i in range(len(program.functions[f].items)):
            a = addr_of[(f, i)]
            touched.add(page_base(a))
            touched.add(page_base(a + size_of[(f, i)] - 1))
        fn_pages.append(frozenset(touched))

    truth = GroundTruth(
        planted=planted,
        page_edges={p: frozenset(t) for p, t in sorted(page_edges.items())},
        function_entries=entries,
        function_pages=tuple(fn_pages),
        call_graph=program.call_graph,
    )
    return image, truth


# The decoder as it was before its hot path read byte positions directly:
# a `_Cursor` object reads each byte through a method call, and every
# decode builds its instruction through `_fin` and `_effects`. Its bodies
# are kept verbatim as the oracle for `disasm.decode`; only `decode` is
# renamed `reference_decode` and the first-byte table
# `_REFERENCE_FIRST_BYTE_TABLE`. The records, register tables and the
# `_effects` rule are the package's own.


def _s8(value: int) -> int:
    return value - 0x100 if value >= 0x80 else value


def _s32(value: int) -> int:
    return value - 0x100000000 if value >= 0x80000000 else value


class _Cursor:
    """Byte reader over data[start:]; a read past the end raises
    IndexError or struct.error.

    addr is the address of data[start], so a relative branch target and the
    instruction length are both measured from start."""

    __slots__ = ("data", "pos", "start", "addr")

    def __init__(self, data: bytes, start: int, addr: int):
        self.data = data
        self.pos = start
        self.start = start
        self.addr = addr

    def u8(self) -> int:
        value = self.data[self.pos]
        self.pos += 1
        return value

    def u16(self) -> int:
        value = struct.unpack_from("<H", self.data, self.pos)[0]
        self.pos += 2
        return value

    def u32(self) -> int:
        value = struct.unpack_from("<I", self.data, self.pos)[0]
        self.pos += 4
        return value

    def u64(self) -> int:
        value = struct.unpack_from("<Q", self.data, self.pos)[0]
        self.pos += 8
        return value

    def target(self, disp: int) -> int:
        """Absolute target of a displacement relative to the cursor."""
        return (self.addr + self.pos - self.start + disp) & MASK64


def _reg_op(index: int, width: int, rex_present: bool) -> Operand:
    if width == 8 and not rex_present and 4 <= index <= 7:
        return _REG_OPERANDS[_REGS[index - 4], 8, True]
    return _REG_OPERANDS[_REGS[index], width, False]


def _parse_modrm(
    cur: _Cursor, rex: int, width: int
) -> tuple[Operand, int]:
    """Parse ModRM (and SIB/displacement). Returns (r/m operand, reg field)."""
    modrm = cur.u8()
    mod = modrm >> 6
    reg = ((modrm >> 3) & 7) | ((rex & 0x4) << 1)
    rm = modrm & 7
    if mod == 3:
        return _reg_op(rm | ((rex & 1) << 3), width, rex != 0), reg

    base: Reg | None = None
    index: Reg | None = None
    scale = 1
    disp = 0
    rip = False
    if rm == 4:
        sib = cur.u8()
        scale = 1 << (sib >> 6)
        index_bits = ((sib >> 3) & 7) | ((rex & 0x2) << 2)
        if index_bits != 4:
            index = _REGS[index_bits]
        base_bits = sib & 7
        if base_bits == 5 and mod == 0:
            disp = _s32(cur.u32())
        else:
            base = _REGS[base_bits | ((rex & 1) << 3)]
    elif rm == 5 and mod == 0:
        rip = True
        disp = _s32(cur.u32())
    else:
        base = _REGS[rm | ((rex & 1) << 3)]

    if mod == 1:
        disp = _s8(cur.u8())
    elif mod == 2:
        disp = _s32(cur.u32())
    mem = MemRef(base, index, scale, disp, rip)
    return Operand.make_mem(mem, width), reg


def reference_decode(data: bytes, addr: int, offset: int = 0) -> Instruction | None:
    """Decode one instruction at addr from data[offset:], reading in place.

    Returns None for anything outside the supported subset; the invalid
    marker always consumes 1 byte."""
    if offset >= len(data) or not _REFERENCE_FIRST_BYTE_TABLE[data[offset]]:
        return None
    try:
        return _decode_body(_Cursor(data, offset, addr))
    except (IndexError, struct.error):
        return None


def _fin(
    cur: _Cursor,
    mnemonic: Mnemonic,
    operands: tuple[Operand, ...] = (),
    branch_target: int | None = None,
    cc: int | None = None,
) -> Instruction:
    """Build the instruction spanning the bytes the cursor has consumed."""
    reads, writes = _effects(mnemonic, operands)
    return Instruction(
        cur.addr, cur.pos - cur.start, mnemonic, operands, reads, writes,
        bytes(cur.data[cur.start : cur.pos]), branch_target, cc,
    )


# Source operand readers, called after the ModRM bytes with the operand size.


def _simm8(cur: _Cursor, width: int) -> Operand:
    return Operand.make_imm(_s8(cur.u8()), width)


def _simm32(cur: _Cursor, width: int) -> Operand:
    return Operand.make_imm(_s32(cur.u32()), width)


def _uimm8(cur: _Cursor, width: int) -> Operand:
    return Operand.make_imm(cur.u8(), 8)


def _uimm16(cur: _Cursor, width: int) -> Operand:
    return Operand.make_imm(cur.u16(), 16)


def _cl(cur: _Cursor, width: int) -> Operand:
    return Operand.make_reg(Reg.RCX, 8)


# Opcode-map handlers. Each takes the cursor past the opcode, the REX byte
# (0 if none), the operand size, the opcode key and its map argument.


def _mr(cur: _Cursor, rex: int, width: int, op: int, arg) -> Instruction:
    """op r/m, reg. arg: (mnemonic, fixed width or None for operand size)."""
    mnemonic, w = arg
    w = w or width
    rm, reg_bits = _parse_modrm(cur, rex, w)
    return _fin(cur, mnemonic, (rm, _reg_op(reg_bits, w, rex != 0)))


def _rm(cur: _Cursor, rex: int, width: int, op: int, arg) -> Instruction:
    """op reg, r/m. arg: (mnemonic, fixed width or None for operand size)."""
    mnemonic, w = arg
    w = w or width
    rm, reg_bits = _parse_modrm(cur, rex, w)
    return _fin(cur, mnemonic, (_reg_op(reg_bits, w, rex != 0), rm))


def _lea(cur: _Cursor, rex: int, width: int, op: int, arg) -> Instruction | None:
    rm, reg_bits = _parse_modrm(cur, rex, width)
    if not rm.is_mem:
        return None
    return _fin(cur, Mnemonic.LEA, (_reg_op(reg_bits, width, rex != 0), rm))


def _group(cur: _Cursor, rex: int, width: int, op: int, arg) -> Instruction | None:
    """op r/m, source, the ModRM reg field (/digit) picking the mnemonic.

    arg: (digit -> mnemonic, source reader)."""
    digits, source = arg
    rm, digit = _parse_modrm(cur, rex, width)
    mnemonic = digits.get(digit)
    if mnemonic is None:
        return None
    return _fin(cur, mnemonic, (rm, source(cur, width)))


def _unary(cur: _Cursor, rex: int, width: int, op: int, arg) -> Instruction | None:
    """op r/m, the ModRM reg field (/digit) picking the mnemonic. arg: digit
    -> mnemonic; an indirect branch's operand is 64 bits in long mode."""
    rm, digit = _parse_modrm(cur, rex, width)
    mnemonic = arg.get(digit)
    if mnemonic is None:
        return None
    if mnemonic is Mnemonic.CALL_RM or mnemonic is Mnemonic.JMP_RM:
        rm = Operand.make_reg(rm.reg) if rm.is_reg else Operand.make_mem(rm.mem)
    return _fin(cur, mnemonic, (rm,))


def _push_pop(cur: _Cursor, rex: int, width: int, op: int, arg) -> Instruction:
    """push or pop of the register in the opcode's low bits. arg: mnemonic."""
    reg = _REGS[(op & 7) | ((rex & 1) << 3)]
    return _fin(cur, arg, (Operand.make_reg(reg),))


def _xchg_rax(cur: _Cursor, rex: int, width: int, op: int, arg) -> Instruction:
    other = (op & 7) | ((rex & 1) << 3)
    if other == 0:
        return _fin(cur, Mnemonic.NOP)
    return _fin(
        cur, Mnemonic.XCHG,
        (Operand.make_reg(Reg.RAX, width), _reg_op(other, width, rex != 0)),
    )


def _mov_imm(cur: _Cursor, rex: int, width: int, op: int, arg) -> Instruction:
    reg = _REGS[(op & 7) | ((rex & 1) << 3)]
    imm = cur.u64() if rex & 0x8 else cur.u32()
    return _fin(
        cur, Mnemonic.MOV,
        (Operand.make_reg(reg, width), Operand.make_imm(imm, width)),
    )


def _rel(cur: _Cursor, rex: int, width: int, op: int, arg) -> Instruction:
    """Direct branch. arg: (mnemonic, displacement bytes); a Jcc's condition
    is the opcode's low nibble."""
    mnemonic, size = arg
    disp = _s8(cur.u8()) if size == 1 else _s32(cur.u32())
    return _fin(
        cur, mnemonic, (), branch_target=cur.target(disp),
        cc=op & 0xF if mnemonic is Mnemonic.JCC else None,
    )


def _fixed(cur: _Cursor, rex: int, width: int, op: int, arg) -> Instruction:
    """No ModRM operand. arg: (mnemonic, immediate reader or None)."""
    mnemonic, imm = arg
    return _fin(cur, mnemonic, () if imm is None else (imm(cur, width),))


# The opcode map, in the manner of SDM Vol. 2 Appendix A: one entry per
# modelled opcode, two-byte opcodes keyed 0x0F00 | second byte. It is the one
# place that lists what the decoder models; every other opcode decodes to None.
_OPCODE_MAP: dict[int, tuple[Callable[..., Instruction | None], object]] = {
    0x01: (_mr, (Mnemonic.ADD, None)),
    0x03: (_rm, (Mnemonic.ADD, None)),
    0x09: (_mr, (Mnemonic.OR, None)),
    0x0B: (_rm, (Mnemonic.OR, None)),
    0x21: (_mr, (Mnemonic.AND, None)),
    0x23: (_rm, (Mnemonic.AND, None)),
    0x29: (_mr, (Mnemonic.SUB, None)),
    0x2B: (_rm, (Mnemonic.SUB, None)),
    0x31: (_mr, (Mnemonic.XOR, None)),
    0x33: (_rm, (Mnemonic.XOR, None)),
    0x39: (_mr, (Mnemonic.CMP, None)),
    0x3B: (_rm, (Mnemonic.CMP, None)),
    **dict.fromkeys(range(0x50, 0x58), (_push_pop, Mnemonic.PUSH)),
    **dict.fromkeys(range(0x58, 0x60), (_push_pop, Mnemonic.POP)),
    **dict.fromkeys(range(0x70, 0x80), (_rel, (Mnemonic.JCC, 1))),
    0x81: (_group, (_GROUP1_DIGIT, _simm32)),
    0x83: (_group, (_GROUP1_DIGIT, _simm8)),
    0x85: (_mr, (Mnemonic.TEST, None)),
    0x87: (_mr, (Mnemonic.XCHG, None)),
    0x88: (_mr, (Mnemonic.MOV, 8)),
    0x89: (_mr, (Mnemonic.MOV, None)),
    0x8A: (_rm, (Mnemonic.MOV, 8)),
    0x8B: (_rm, (Mnemonic.MOV, None)),
    0x8D: (_lea, None),
    **dict.fromkeys(range(0x90, 0x98), (_xchg_rax, None)),
    **dict.fromkeys(range(0xB8, 0xC0), (_mov_imm, None)),
    0xC1: (_group, (_SHIFT_DIGIT, _uimm8)),
    0xC2: (_fixed, (Mnemonic.RET_IMM, _uimm16)),
    0xC3: (_fixed, (Mnemonic.RET, None)),
    0xC7: (_group, ({0: Mnemonic.MOV}, _simm32)),
    0xC9: (_fixed, (Mnemonic.LEAVE, None)),
    0xCD: (_fixed, (Mnemonic.INT, _uimm8)),
    0xD3: (_group, (_SHIFT_DIGIT, _cl)),
    0xE8: (_rel, (Mnemonic.CALL_REL, 4)),
    0xE9: (_rel, (Mnemonic.JMP_REL, 4)),
    0xEB: (_rel, (Mnemonic.JMP_REL, 1)),
    0xF7: (_unary, {2: Mnemonic.NOT, 3: Mnemonic.NEG}),
    0xFF: (_unary, {0: Mnemonic.INC, 1: Mnemonic.DEC, 2: Mnemonic.CALL_RM,
                    4: Mnemonic.JMP_RM}),
    0x0F05: (_fixed, (Mnemonic.SYSCALL, None)),
    0x0F34: (_fixed, (Mnemonic.SYSENTER, None)),
    **dict.fromkeys(range(0x0F80, 0x0F90), (_rel, (Mnemonic.JCC, 4))),
    0x0FAF: (_rm, (Mnemonic.IMUL, None)),
}

# _REFERENCE_FIRST_BYTE_TABLE[b] is 1 exactly when some byte string starting with b
# decodes: a one-byte opcode of the map, a REX prefix, 0x0F (two-byte
# opcodes) or 0x65 (the gs-relative call). As a bytes.translate table it maps
# a page to a mask whose zero bytes decode to None at once.
_REFERENCE_FIRST_BYTE_TABLE = bytes(
    int(b in _OPCODE_MAP or 0x40 <= b <= 0x4F or b in (0x0F, 0x65))
    for b in range(256)
)


def _decode_body(cur: _Cursor) -> Instruction | None:
    if cur.data.startswith(GS_CALL_BYTES, cur.start):
        cur.pos += len(GS_CALL_BYTES)
        mem = Operand.make_mem(MemRef(disp=0x10), 64)
        return _fin(cur, Mnemonic.CALL_GS, (mem,))
    rex = 0
    op = cur.u8()
    if 0x40 <= op <= 0x4F:
        rex = op
        op = cur.u8()
    if op == 0x0F:
        op = 0x0F00 | cur.u8()
    entry = _OPCODE_MAP.get(op)
    if entry is None:
        return None
    handler, arg = entry
    return handler(cur, rex, 64 if rex & 0x8 else 32, op, arg)
