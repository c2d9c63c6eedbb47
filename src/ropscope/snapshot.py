"""Memory image snapshots: page records, a binary container format, ELF ingestion.

A MemoryImage is the unit every other module consumes: a set of page-aligned,
fixed-size pages with permissions and a coarse segment tag. Images come from
three places: the native snapshot container, a minimal ELF64 loader, or the
synthetic program generator.
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from ropscope.canonical import dumps

PAGE_SIZE = 4096
PAGE_MASK = ~(PAGE_SIZE - 1)

SNAPSHOT_MAGIC = b"RSNP"
SNAPSHOT_VERSION = 1

# Most zero-fill (p_memsz beyond p_filesz, summed over the kept segments)
# load_elf will allocate. No file backs these bytes, so without a cap a
# few hundred bytes of ELF could ask for terabytes.
MAX_ZERO_FILL = 64 << 20

# Pointers are plain integers throughout; the alias is documentation.
Pointer = int


class SnapshotError(Exception):
    """Base class for snapshot container and ELF ingestion failures."""


class MalformedHeaderError(SnapshotError):
    """Container header is missing, truncated, or has bad magic/version."""


class TruncatedPageError(SnapshotError):
    """Container ends before the declared page payload or metadata."""


class OverlappingPagesError(SnapshotError):
    """Two pages in an image share the same base address."""


class ElfFormatError(SnapshotError):
    """Input is not a loadable little-endian ELF64 object."""


class WritableExecutableError(SnapshotError):
    """A page or segment requests both writable and executable permission."""


class UnmappedRead(Exception):
    """An address was dereferenced that no page in the image covers."""

    def __init__(self, addr: int):
        super().__init__(f"unmapped address {addr:#x}")
        self.addr = addr


class SegmentTag(IntEnum):
    """Coarse provenance of a page; wire values are fixed by the container format."""

    CODE = 0
    STACK = 1
    HEAP = 2
    DATA = 3
    OTHER = 4


# The tags by wire value, which runs 0, 1, 2, ... with no gaps.
_SEGMENT_TAGS = tuple(SegmentTag)


@dataclass(frozen=True)
class Perms:
    """Page permission flags. Writable and executable never combine."""

    readable: bool = True
    writable: bool = False
    executable: bool = False

    def __post_init__(self) -> None:
        if self.writable and self.executable:
            raise WritableExecutableError("page cannot be writable and executable")

    def to_bits(self) -> int:
        return (
            (1 if self.readable else 0)
            | (2 if self.writable else 0)
            | (4 if self.executable else 0)
        )

    @staticmethod
    def from_bits(bits: int) -> Perms:
        """The shared Perms of the low three bits; write and execute
        together raise WritableExecutableError, as the constructor does."""
        perms = _PERMS_BY_BITS[bits & 7]
        if perms is None:
            raise WritableExecutableError(
                "page cannot be writable and executable"
            )
        return perms

    def __str__(self) -> str:
        return (
            ("r" if self.readable else "-")
            + ("w" if self.writable else "-")
            + ("x" if self.executable else "-")
        )


_PERMS_BY_BITS = tuple(
    None if bits & 6 == 6 else Perms(
        readable=bool(bits & 1),
        writable=bool(bits & 2),
        executable=bool(bits & 4),
    )
    for bits in range(8)
)
RX = Perms(readable=True, writable=False, executable=True)
RW = Perms(readable=True, writable=True, executable=False)
RO = Perms(readable=True, writable=False, executable=False)


@dataclass(frozen=True)
class PageRecord:
    """One page of memory: base address, permissions, tag, and raw bytes."""

    base: int
    perms: Perms
    tag: SegmentTag
    data: bytes

    def __post_init__(self) -> None:
        if self.base % PAGE_SIZE != 0:
            raise ValueError(f"page base {self.base:#x} not {PAGE_SIZE}-aligned")
        if self.base < 0:
            raise ValueError("page base must be non-negative")
        if len(self.data) != PAGE_SIZE:
            raise ValueError(f"page data must be exactly {PAGE_SIZE} bytes")

    @property
    def end(self) -> int:
        return self.base + PAGE_SIZE

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end


def page_base(addr: int) -> int:
    """Base address of the page containing addr."""
    return addr & PAGE_MASK


def page_spans(start: int, end: int) -> Iterator[tuple[int, int, int]]:
    """Split [start, end) by page: (page base, in-page lo, in-page hi), ascending."""
    while start < end:
        base = page_base(start)
        hi = min(end - base, PAGE_SIZE)
        yield base, start - base, hi
        start = base + hi


class MemoryImage:
    """An immutable collection of non-overlapping pages plus string metadata."""

    def __init__(
        self, pages: Iterable[PageRecord], metadata: dict[str, str] | None = None
    ):
        by_base: dict[int, PageRecord] = {}
        for page in pages:
            if page.base in by_base:
                raise OverlappingPagesError(f"duplicate page at {page.base:#x}")
            by_base[page.base] = page
        self._by_base = dict(sorted(by_base.items()))
        self.metadata: dict[str, str] = dict(metadata or {})

    @property
    def pages(self) -> tuple[PageRecord, ...]:
        return tuple(self._by_base.values())

    def __len__(self) -> int:
        return len(self._by_base)

    def __iter__(self) -> Iterator[PageRecord]:
        return iter(self._by_base.values())

    def page_at(self, addr: Pointer) -> PageRecord:
        """The page containing addr; raises UnmappedRead if none does."""
        page = self._by_base.get(page_base(addr))
        if page is None:
            raise UnmappedRead(addr)
        return page

    def is_executable(self, addr: Pointer) -> bool:
        page = self._by_base.get(page_base(addr))
        return page is not None and page.perms.executable

    def executable_pages(self) -> tuple[PageRecord, ...]:
        return tuple(p for p in self if p.perms.executable)

    def read_bytes(self, addr: Pointer, length: int) -> bytes:
        """Read length bytes starting at addr, allowed to span adjacent pages."""
        return b"".join(
            self.page_at(base + lo).data[lo:hi]
            for base, lo, hi in page_spans(addr, addr + length)
        )

    def read_u64(self, addr: Pointer) -> int:
        return struct.unpack("<Q", self.read_bytes(addr, 8))[0]


# Container layout, all little-endian:
#   magic "RSNP", u16 version, u16 reserved, u64 page count
#   per page (ascending base): u64 base, u8 perm bits, u8 tag, u16 reserved, 4096 bytes
#   trailer: u32 metadata length, UTF-8 JSON object
_HEADER = struct.Struct("<4sHHQ")
_PAGE_HEADER = struct.Struct("<QBBH")


def save_snapshot(image: MemoryImage, dest: str | Path | BinaryIO) -> None:
    """Serialize an image to the snapshot container. Output is canonical:
    pages sorted by base, metadata JSON with sorted keys and no whitespace."""
    buf = io.BytesIO()
    buf.write(_HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, 0, len(image)))
    for page in image:
        buf.write(_PAGE_HEADER.pack(page.base, page.perms.to_bits(), int(page.tag), 0))
        buf.write(page.data)
    meta = dumps(image.metadata).encode("utf-8")
    buf.write(struct.pack("<I", len(meta)))
    buf.write(meta)
    payload = buf.getvalue()
    if isinstance(dest, (str, Path)):
        Path(dest).write_bytes(payload)
    else:
        dest.write(payload)


def load_snapshot(src: str | Path | BinaryIO | bytes) -> MemoryImage:
    """Parse the snapshot container; malformed input raises a distinct error."""
    if isinstance(src, (str, Path)):
        raw = Path(src).read_bytes()
    elif isinstance(src, bytes):
        raw = src
    else:
        raw = src.read()

    if len(raw) < _HEADER.size:
        raise MalformedHeaderError("snapshot shorter than header")
    magic, version, _reserved, count = _HEADER.unpack_from(raw, 0)
    if magic != SNAPSHOT_MAGIC:
        raise MalformedHeaderError(f"bad magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise MalformedHeaderError(f"unsupported version {version}")

    offset = _HEADER.size
    pages = []
    last_base = -1
    for _ in range(count):
        if offset + _PAGE_HEADER.size + PAGE_SIZE > len(raw):
            raise TruncatedPageError("page record extends past end of file")
        base, perm_bits, tag_value, _reserved = _PAGE_HEADER.unpack_from(raw, offset)
        offset += _PAGE_HEADER.size
        data = raw[offset : offset + PAGE_SIZE]
        offset += PAGE_SIZE
        if base <= last_base:
            # Equal bases are overlap; descending order also violates the format.
            if base == last_base:
                raise OverlappingPagesError(f"duplicate page at {base:#x}")
            raise MalformedHeaderError("pages not sorted by base address")
        last_base = base
        if base % PAGE_SIZE:
            raise MalformedHeaderError(f"page base {base:#x} not {PAGE_SIZE}-aligned")
        if tag_value >= len(_SEGMENT_TAGS):
            raise MalformedHeaderError(f"unknown segment tag {tag_value}")
        tag = _SEGMENT_TAGS[tag_value]
        pages.append(PageRecord(base, Perms.from_bits(perm_bits), tag, data))

    if offset + 4 > len(raw):
        raise TruncatedPageError("missing metadata length")
    (meta_len,) = struct.unpack_from("<I", raw, offset)
    offset += 4
    if offset + meta_len > len(raw):
        raise TruncatedPageError("metadata extends past end of file")
    try:
        metadata = json.loads(raw[offset : offset + meta_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and integers too long to
        # convert; RecursionError, nesting deeper than the parser allows.
        raise MalformedHeaderError("metadata is not a UTF-8 JSON object") from exc
    if not isinstance(metadata, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in metadata.items()
    ):
        raise MalformedHeaderError("metadata must be a string-to-string object")
    return MemoryImage(pages, metadata)


# Minimal ELF64 structures, just enough to map PT_LOAD segments.
_ELF_MAGIC = b"\x7fELF"
_EHDR = struct.Struct("<16sHHIQQQIHHHHHH")
_PHDR = struct.Struct("<IIQQQQQQ")
_PT_LOAD = 1
_PF_X = 1
_PF_W = 2
_PF_R = 4


@dataclass(slots=True)
class _LoadedPage:
    """A page load_elf is filling: its merged permissions, its bytes and a
    mask of the bytes some segment has placed."""

    perms: Perms
    data: bytearray = field(default_factory=lambda: bytearray(PAGE_SIZE))
    claimed: bytearray = field(default_factory=lambda: bytearray(PAGE_SIZE))


def load_elf(src: str | Path | bytes, kind: str = "exec_only") -> MemoryImage:
    """Map the PT_LOAD segments of a little-endian ELF64 file into an image.

    kind selects which segments to keep: "exec_only" takes only executable
    loads (tagged CODE); "all_load" takes every PT_LOAD, tagging
    non-executable ones DATA. File bytes short of memsz are zero-filled, as
    is any slack to page granularity; more than MAX_ZERO_FILL bytes of
    zero-fill over the kept segments raises ElfFormatError. So does mapping
    more file bytes than the file holds plus a page per kept segment, which
    only segments sharing file bytes can do.
    """
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

    segments = []
    for i in range(e_phnum):
        p_type, p_flags, p_offset, p_vaddr, _paddr, p_filesz, p_memsz, _align = (
            _PHDR.unpack_from(raw, e_phoff + i * _PHDR.size)
        )
        if p_type == _PT_LOAD and p_memsz and (kind == "all_load" or p_flags & _PF_X):
            segments.append((p_flags, p_offset, p_vaddr, p_filesz, p_memsz))
    if sum(max(memsz - filesz, 0) for *_, filesz, memsz in segments) > MAX_ZERO_FILL:
        raise ElfFormatError(f"segments zero-fill more than {MAX_ZERO_FILL} bytes")
    # Segments may share file bytes (neighbours share a partial page), but
    # without a bound a file with n headers maps n times its size. Each
    # segment counts only the bytes the file holds, so a segment running
    # past the end of the file is still refused for that below.
    mapped = sum(
        min(filesz, max(len(raw) - offset, 0))
        for _, offset, _, filesz, _ in segments
    )
    if mapped > len(raw) + PAGE_SIZE * len(segments):
        raise ElfFormatError(
            f"segments map {mapped} file bytes from a {len(raw)}-byte file"
        )

    # Accumulate page contents; segments may land on the same page only if
    # their byte ranges do not collide. A claim mask marks the bytes placed.
    loaded: dict[int, _LoadedPage] = {}

    for p_flags, p_offset, p_vaddr, p_filesz, p_memsz in segments:
        executable = bool(p_flags & _PF_X)
        writable = bool(p_flags & _PF_W)
        if executable and writable:
            raise WritableExecutableError(
                f"segment at {p_vaddr:#x} is writable and executable"
            )
        if p_offset + p_filesz > len(raw):
            raise ElfFormatError("segment file extent past end of file")
        if p_filesz > p_memsz:
            raise ElfFormatError("segment filesz exceeds memsz")
        if p_vaddr + p_memsz > 1 << 64:
            raise ElfFormatError(
                f"segment at {p_vaddr:#x} runs past the end of the address space"
            )

        perms = Perms(bool(p_flags & _PF_R), writable, executable)
        content = raw[p_offset : p_offset + p_filesz]
        for base, lo, hi in page_spans(p_vaddr, p_vaddr + p_memsz):
            page = loaded.get(base)
            if page is None:
                page = loaded[base] = _LoadedPage(perms)
            # A byte walk would test the span's first byte for overlap before
            # merging permissions and the rest after, so this does too.
            mask = page.claimed
            if not mask[lo] and perms != page.perms:
                # Two loads share a page: take the union of the permissions,
                # which is code if either is.
                page.perms = Perms.from_bits(perms.to_bits() | page.perms.to_bits())
            hit = mask.find(1, lo, hi)
            if hit != -1:
                raise ElfFormatError(
                    f"overlapping PT_LOAD segments at {base + hit:#x}"
                )
            mask[lo:hi] = b"\x01" * (hi - lo)
            # Bytes past the file extent were never claimed, so they are zero.
            chunk = content[base + lo - p_vaddr : base + hi - p_vaddr]
            page.data[lo : lo + len(chunk)] = chunk

    # A page is code exactly when its merged permissions are executable.
    pages = [
        PageRecord(
            base,
            page.perms,
            SegmentTag.CODE if page.perms.executable else SegmentTag.DATA,
            bytes(page.data),
        )
        for base, page in sorted(loaded.items())
    ]
    return MemoryImage(pages, {"source": "elf", "load_kind": kind})


def load_image(path: str | Path, kind: str = "exec_only") -> MemoryImage:
    """Load a snapshot container or an ELF file, told apart by magic bytes.

    A path ending in .rsnp is always read as a snapshot. kind is passed to
    load_elf when the file is an ELF.
    """
    if not str(path).endswith(".rsnp"):
        with open(path, "rb") as fh:
            magic = fh.read(4)
        if magic == _ELF_MAGIC:
            return load_elf(path, kind)
    return load_snapshot(path)


@dataclass
class ImageBuilder:
    """Mutable staging area for composing images byte by byte, as the test
    fixtures do; synth lays out its pages itself."""

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
        for base, lo, hi in page_spans(addr, addr + len(data)):
            self.reserve(base, perms, tag, fill)
            self._pages[base][lo:hi] = data[base + lo - addr : base + hi - addr]

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
