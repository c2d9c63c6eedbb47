"""Memory image model, snapshot serialization, and ELF segment loading."""

import io

import pytest

from helpers import BASE, RO, RW, RX, build_elf, code_image
from ropscope.snapshot import (
    PAGE_SIZE,
    ElfFormatError,
    ImageBuilder,
    MalformedHeaderError,
    MemoryImage,
    OverlappingPagesError,
    PageRecord,
    Perms,
    SegmentTag,
    TruncatedPageError,
    UnmappedRead,
    WritableExecutableError,
    load_elf,
    load_snapshot,
    page_base,
    save_snapshot,
)

PF_X, PF_W, PF_R = 1, 2, 4


def test_page_base():
    assert page_base(0) == 0
    assert page_base(0x1FFF) == 0x1000
    assert page_base(0x11F95C4) == 0x11F9000


def test_writable_executable_rejected():
    with pytest.raises(WritableExecutableError):
        Perms(True, True, True)


def test_page_record_validation():
    with pytest.raises(ValueError):
        PageRecord(0x1000, RX, SegmentTag.CODE, b"\x90" * 100)
    with pytest.raises(ValueError):
        PageRecord(0x1001, RX, SegmentTag.CODE, bytes(PAGE_SIZE))


def test_overlapping_pages_rejected():
    page = PageRecord(0x1000, RX, SegmentTag.CODE, bytes(PAGE_SIZE))
    with pytest.raises(OverlappingPagesError):
        MemoryImage([page, page])


def test_builder_composes_pages_and_reads():
    builder = ImageBuilder()
    builder.put(0x401000 - 2, b"\x01\x02\x03\x04", perms=RX,
                tag=SegmentTag.CODE)
    builder.put(0x500000, b"\xAA" * 16, perms=RW, tag=SegmentTag.STACK)
    builder.reserve(0x600000, perms=RO, tag=SegmentTag.DATA, fill=0x11)
    image = builder.build()

    assert [p.base for p in image.pages] == [0x400000, 0x401000, 0x500000,
                                             0x600000]
    # A put spanning a page boundary lands bytes on both sides.
    assert image.read_bytes(0x401000 - 2, 4) == b"\x01\x02\x03\x04"
    assert image.read_u64(0x500000) == 0xAAAAAAAAAAAAAAAA
    assert image.read_bytes(0x600000, 2) == b"\x11\x11"

    assert image.is_mapped(0x500000)
    assert not image.is_mapped(0x700000)
    assert image.is_executable(0x400000)
    assert not image.is_executable(0x500000)
    assert [p.base for p in image.executable_pages()] == [0x400000, 0x401000]
    assert [p.base for p in image if p.tag is SegmentTag.STACK] == [0x500000]


def test_unmapped_reads_raise():
    image = code_image(b"\xc3")
    with pytest.raises(UnmappedRead):
        image.read_bytes(BASE + PAGE_SIZE, 1)
    with pytest.raises(UnmappedRead):
        # Crossing from a mapped page into a hole must not silently truncate.
        image.read_bytes(BASE + PAGE_SIZE - 4, 8)
    with pytest.raises(UnmappedRead):
        image.page_at(0x123000)
    assert image.page_at(BASE + 17).base == BASE


def test_snapshot_round_trip_bytes_exact():
    builder = ImageBuilder()
    builder.put(0x400000, bytes(range(256)) * 4, perms=RX,
                tag=SegmentTag.CODE)
    builder.put(0x7FF000, b"\x01" * 32, perms=RW, tag=SegmentTag.HEAP)
    image = builder.build({"source": "unit-test", "rev": "1"})

    buf = io.BytesIO()
    save_snapshot(image, buf)
    blob = buf.getvalue()
    restored = load_snapshot(blob)

    assert restored.pages == image.pages
    assert restored.metadata == image.metadata

    buf2 = io.BytesIO()
    save_snapshot(restored, buf2)
    assert buf2.getvalue() == blob


def test_snapshot_file_round_trip(tmp_path):
    image = code_image(b"\x90\xc3")
    path = tmp_path / "img.rsnp"
    save_snapshot(image, path)
    assert load_snapshot(path).pages == image.pages


def test_snapshot_header_errors():
    image = code_image(b"\xc3")
    buf = io.BytesIO()
    save_snapshot(image, buf)
    blob = buf.getvalue()
    with pytest.raises(MalformedHeaderError):
        load_snapshot(b"XXXX" + blob[4:])
    with pytest.raises(TruncatedPageError):
        load_snapshot(blob[:-10])


def test_elf_exec_only_maps_code_segment():
    code = b"\x90" * 8 + b"\xc3"
    elf = build_elf([
        {"vaddr": 0x400000, "data": code, "flags": PF_R | PF_X},
        {"vaddr": 0x600000, "data": b"\x55" * 16, "flags": PF_R | PF_W},
    ])
    image = load_elf(elf)
    assert [p.base for p in image.pages] == [0x400000]
    assert image.pages[0].perms.executable
    assert image.read_bytes(0x400000, len(code)) == code
    # Slack past the file extent is zero-filled to the page boundary.
    assert image.read_bytes(0x400000 + len(code), 4) == bytes(4)


def test_elf_all_load_tags_data_and_zero_fills():
    elf = build_elf([
        {"vaddr": 0x400000, "data": b"\xc3", "flags": PF_R | PF_X},
        {
            "vaddr": 0x601000,
            "data": b"\x77" * 8,
            "memsz": 0x20,
            "flags": PF_R | PF_W,
        },
    ])
    image = load_elf(elf, kind="all_load")
    assert [p.base for p in image.pages] == [0x400000, 0x601000]
    data_page = image.page_at(0x601000)
    assert data_page.tag is SegmentTag.DATA
    assert data_page.perms.writable and not data_page.perms.executable
    # memsz beyond filesz reads back as zeros
    assert image.read_bytes(0x601008, 0x18) == bytes(0x18)


def test_elf_unaligned_vaddr():
    elf = build_elf([
        {"vaddr": 0x400123, "data": b"\xc3", "flags": PF_R | PF_X},
    ])
    image = load_elf(elf)
    assert image.read_bytes(0x400123, 1) == b"\xc3"
    assert image.pages[0].base == 0x400000


def test_elf_format_errors():
    with pytest.raises(ElfFormatError):
        load_elf(b"NOTELF" + bytes(100))
    with pytest.raises(ElfFormatError):
        load_elf(bytes(10))
    wx = build_elf([
        {"vaddr": 0x400000, "data": b"\xc3", "flags": PF_R | PF_W | PF_X},
    ])
    with pytest.raises(WritableExecutableError):
        load_elf(wx)
    with pytest.raises(ValueError):
        load_elf(build_elf([]), kind="bogus")


def test_elf_segment_wrapping_address_space_rejected():
    wraps = build_elf([
        {"vaddr": 2**64 - PAGE_SIZE, "data": b"\xc3", "memsz": 2 * PAGE_SIZE,
         "flags": PF_R | PF_X},
    ])
    for kind in ("exec_only", "all_load"):
        with pytest.raises(ElfFormatError):
            load_elf(wraps, kind=kind)
    # A segment ending exactly at the top of the address space still loads.
    top = build_elf([
        {"vaddr": 2**64 - PAGE_SIZE, "data": b"\xc3", "memsz": PAGE_SIZE,
         "flags": PF_R | PF_X},
    ])
    assert [p.base for p in load_elf(top).pages] == [2**64 - PAGE_SIZE]


def test_elf_non_load_segments_skipped():
    elf = build_elf([
        {"vaddr": 0x400000, "data": b"\xc3", "flags": PF_R | PF_X},
        {"vaddr": 0x500000, "data": b"\x01", "flags": PF_R | PF_X,
         "type": 4},
    ])
    image = load_elf(elf)
    assert [p.base for p in image.pages] == [0x400000]


def test_elf_overlapping_code_segments_rejected():
    elf = build_elf([
        {"vaddr": 0x400000, "data": b"\x90" * 16, "flags": PF_R | PF_X},
        {"vaddr": 0x400008, "data": b"\xc3" * 8, "flags": PF_R | PF_X},
    ])
    with pytest.raises(ElfFormatError) as info:
        load_elf(elf)
    assert str(info.value) == "overlapping PT_LOAD segments at 0x400008"


@pytest.mark.parametrize("code_first", [False, True])
def test_elf_data_and_code_share_one_code_page(code_first):
    data = {"vaddr": 0x400000, "data": b"\x55" * 16, "flags": PF_R}
    code = {"vaddr": 0x400010, "data": b"\xc3", "flags": PF_R | PF_X}
    segments = [code, data] if code_first else [data, code]
    image = load_elf(build_elf(segments), kind="all_load")
    assert [(p.base, str(p.perms), p.tag) for p in image] == [
        (0x400000, "r-x", SegmentTag.CODE)
    ]
    assert image.read_bytes(0x400000, 18) == b"\x55" * 16 + b"\xc3\x00"


def test_elf_writable_and_code_segments_on_one_page_rejected():
    elf = build_elf([
        {"vaddr": 0x400000, "data": b"\x55" * 16, "flags": PF_R | PF_W},
        {"vaddr": 0x400010, "data": b"\xc3", "flags": PF_R | PF_X},
    ])
    with pytest.raises(WritableExecutableError):
        load_elf(elf, kind="all_load")
    # exec_only never maps the writable segment, so the page is plain code.
    assert str(load_elf(elf).pages[0].perms) == "r-x"
