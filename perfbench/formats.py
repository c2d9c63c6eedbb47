"""Byte-level writers and readers for the benchmark's inputs.

These follow the published file formats (ELF64 program headers, the `.rsnp`
container described in the ropscope README) without calling ropscope, so
that the benchmark's inputs and its expected outputs are computed apart
from the program under test.
"""

from __future__ import annotations

import json
import struct

PAGE = 4096

PF_X, PF_W, PF_R = 1, 2, 4
PERM_R, PERM_W, PERM_X = 1, 2, 4
TAG_CODE, TAG_DATA = 0, 3

_EHDR = struct.Struct("<16sHHIQQQIHHHHHH")
_PHDR = struct.Struct("<IIQQQQQQ")
_RSNP_HEADER = struct.Struct("<4sHHQ")
_RSNP_PAGE = struct.Struct("<QBBH")


def build_elf(segments: list[dict], entry: int = 0) -> bytes:
    """A little-endian ELF64 executable with one PT_LOAD per segment.

    Each segment is a dict with vaddr, data, memsz and flags (PF_* bits);
    an optional filesz overrides len(data) to describe a broken header.
    File contents follow the headers, each segment 16-byte aligned.
    """
    phoff = _EHDR.size
    offset = phoff + len(segments) * _PHDR.size
    phdrs = bytearray()
    blobs = bytearray()
    for seg in segments:
        offset = (offset + 15) & ~15
        pad = offset - (phoff + len(segments) * _PHDR.size + len(blobs))
        blobs += bytes(pad)
        data = seg["data"]
        filesz = seg.get("filesz", len(data))
        phdrs += _PHDR.pack(
            1, seg["flags"], offset, seg["vaddr"], seg["vaddr"],
            filesz, seg["memsz"], PAGE,
        )
        blobs += data
        offset += len(data)
    ident = b"\x7fELF" + bytes([2, 1, 1]) + bytes(9)
    ehdr = _EHDR.pack(
        ident, 2, 62, 1, entry, phoff, 0, 0,
        _EHDR.size, _PHDR.size, len(segments), 0, 0, 0,
    )
    return ehdr + bytes(phdrs) + bytes(blobs)


def encode_rsnp(pages: list[tuple[int, int, int, bytes]], metadata: dict) -> bytes:
    """Encode (base, perm bits, tag, data) records in the given order."""
    out = bytearray(_RSNP_HEADER.pack(b"RSNP", 1, 0, len(pages)))
    for base, perms, tag, data in pages:
        out += _RSNP_PAGE.pack(base, perms, tag, 0) + data
    meta = json.dumps(metadata, sort_keys=True, separators=(",", ":")).encode()
    return bytes(out + struct.pack("<I", len(meta)) + meta)


def decode_rsnp(raw: bytes) -> list[tuple[int, int, int, bytes]]:
    """Page records of a well-formed `.rsnp` file, in file order."""
    magic, _version, _reserved, count = _RSNP_HEADER.unpack_from(raw, 0)
    if magic != b"RSNP":
        raise ValueError("not an .rsnp file")
    offset = _RSNP_HEADER.size
    pages = []
    for _ in range(count):
        base, perms, tag, _ = _RSNP_PAGE.unpack_from(raw, offset)
        offset += _RSNP_PAGE.size
        pages.append((base, perms, tag, raw[offset : offset + PAGE]))
        offset += PAGE
    return pages


def pad_to_pages(data: bytes, memsz: int) -> bytes:
    """Segment bytes zero-filled to memsz and then to page granularity."""
    size = -(-memsz // PAGE) * PAGE
    return data + bytes(size - len(data))


def malformed_inputs() -> dict[str, bytes]:
    """Fixed hostile inputs; each should be refused with a SnapshotError.

    They do not depend on the seed. `elf_wraps_2_64` is refused by no
    loader today: its segment ends past 2^64 and it loads anyway.
    """
    page = bytes([0x06]) * PAGE
    valid = encode_rsnp([(0x1000, PERM_R | PERM_X, TAG_CODE, page)], {})
    code = bytes([0xC3]) + bytes(15)
    return {
        "rsnp_truncated": valid[: _RSNP_HEADER.size + _RSNP_PAGE.size + 100],
        "rsnp_bad_magic": b"RSNQ" + valid[4:],
        "rsnp_unsorted": encode_rsnp(
            [
                (0x2000, PERM_R | PERM_X, TAG_CODE, page),
                (0x1000, PERM_R | PERM_X, TAG_CODE, page),
            ],
            {},
        ),
        "elf_past_eof": build_elf(
            [{"vaddr": 0x400000, "data": code, "filesz": 0x10000,
              "memsz": 0x10000, "flags": PF_R | PF_X}],
            entry=0x400000,
        ),
        "elf_wraps_2_64": build_elf(
            [{"vaddr": (1 << 64) - PAGE, "data": code, "memsz": 2 * PAGE,
              "flags": PF_R | PF_X}],
            entry=(1 << 64) - PAGE,
        ),
    }
