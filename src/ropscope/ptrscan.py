"""Code-pointer scanning over data memory.

Measures how exposed code addresses are in non-code memory: scan stack,
heap, or data pages for aligned machine words that land inside a target
address range, typically the mapped extent of one library. Every such word
is a potential bootstrap pointer for recursive code harvesting.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from math import gcd
from typing import NamedTuple, Sequence

from ropscope.canonical import csv_text
from ropscope.snapshot import PAGE_MASK, PAGE_SIZE, MemoryImage, SegmentTag


# Each tag's name in reports, indexed by tag: its wire values run 0, 1, 2, ...
_TAG_TEXT = tuple(tag.name.lower() for tag in SegmentTag)


class PointerHit(NamedTuple):
    addr: int
    value: int
    tag: SegmentTag
    target_executable: bool


@dataclass(frozen=True)
class PointerScanReport:
    hits: tuple[PointerHit, ...]
    lib_range: tuple[int, int] | None
    scanned_pages: int
    scanned_words: int

    @property
    def occurrences(self) -> int:
        return len(self.hits)

    @property
    def unique_values(self) -> int:
        return len({h.value for h in self.hits})

    def by_tag(self) -> dict[SegmentTag, int]:
        out: dict[SegmentTag, int] = {}
        for h in self.hits:
            out[h.tag] = out.get(h.tag, 0) + 1
        return out

    def to_dict(self) -> dict:
        return {
            "lib_range": None
            if self.lib_range is None
            else [f"{self.lib_range[0]:#x}", f"{self.lib_range[1]:#x}"],
            "scanned_pages": self.scanned_pages,
            "scanned_words": self.scanned_words,
            "occurrences": self.occurrences,
            "unique_values": self.unique_values,
            "by_tag": {
                _TAG_TEXT[tag]: count
                for tag, count in sorted(self.by_tag().items())
            },
        }

    def to_csv(self) -> str:
        return csv_text(
            ["addr", "value", "segment", "target_executable"],
            (
                [f"{addr:#x}", f"{value:#x}", _TAG_TEXT[tag], int(executable)]
                for addr, value, tag, executable in self.hits
            ),
        )


def _word_plans(alignment: int) -> list[tuple[struct.Struct, int, int, int]]:
    """How to read one page's words at offsets that are multiples of alignment.

    Offsets fall into residue classes r mod 8. Class r is read with one
    unpack of every 8-byte word from offset r; the wanted words are then the
    slice [first::step] of it, where word j sits at offset r + 8j. One plan
    (unpacker, r, first, step) per class that has an offset in the page.
    """
    step = alignment // gcd(alignment, 8)
    plans = []
    for r in range(8):
        count = (PAGE_SIZE - r) // 8
        first = next(
            (j for j in range(min(step, count)) if (r + 8 * j) % alignment == 0),
            None,
        )
        if first is not None:
            plans.append((struct.Struct(f"<{count}Q"), r, first, step))
    return plans


def scan_pointers(
    image: MemoryImage,
    tags: Sequence[SegmentTag] | None = None,
    lib_range: tuple[int, int] | None = None,
    alignment: int = 8,
    require_executable_target: bool = True,
) -> PointerScanReport:
    """Scan aligned words in data pages for code addresses.

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
    # Executability of every mapped page: one lookup per candidate answers
    # both the mapped and the executable test.
    executable = {page.base: page.perms.executable for page in image}
    # Only values inside the library range and the mapped extent can hit.
    lo, hi = 0, 0
    if executable:
        lo, hi = min(executable), max(executable) + PAGE_SIZE
    if lib_range is not None:
        lo, hi = max(lo, lib_range[0]), min(hi, lib_range[1])
    plans = _word_plans(alignment)
    words_per_page = len(range(0, PAGE_SIZE - 7, alignment))

    hits: list[PointerHit] = []
    scanned_pages = 0
    for page in image:
        if page.perms.executable:
            continue
        if wanted is not None and page.tag not in wanted:
            continue
        scanned_pages += 1
        data = page.data
        found: list[tuple[int, int]] = []
        for word, r, first, step in plans:
            words = word.unpack_from(data, r)[first::step]
            off, stride = r + 8 * first, 8 * step
            found += [
                (off + stride * i, value)
                for i, value in enumerate(words)
                if lo <= value < hi
            ]
        found.sort()
        base, tag = page.base, page.tag
        for off, value in found:
            is_exec = executable.get(value & PAGE_MASK)
            if is_exec is None or (require_executable_target and not is_exec):
                continue
            hits.append(PointerHit(base + off, value, tag, is_exec))
    return PointerScanReport(
        hits=tuple(hits),
        lib_range=lib_range,
        scanned_pages=scanned_pages,
        scanned_words=scanned_pages * words_per_page,
    )
