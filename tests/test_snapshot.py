"""Memory image model, snapshot serialization, and ELF segment loading."""

import io
import os
import struct
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    BASE,
    RO,
    RW,
    RX,
    ReferenceImageBuilder,
    build_elf,
    code_image,
    reference_load_elf,
)
from ropscope.snapshot import (
    MAX_ZERO_FILL,
    PAGE_SIZE,
    ElfFormatError,
    ImageBuilder,
    MalformedHeaderError,
    MemoryImage,
    OverlappingPagesError,
    PageRecord,
    Perms,
    SegmentTag,
    SnapshotError,
    TruncatedPageError,
    UnmappedRead,
    WritableExecutableError,
    load_elf,
    load_snapshot,
    page_base,
    page_spans,
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


def test_perms_from_bits_matches_the_constructor_on_every_byte():
    # A .rsnp page record stores its perms in one byte; only the low three
    # bits count, and each valid pattern reads as one shared Perms.
    for bits in range(256):
        flags = (bool(bits & 1), bool(bits & 2), bool(bits & 4))
        if flags[1] and flags[2]:
            with pytest.raises(WritableExecutableError):
                Perms(*flags)
            with pytest.raises(WritableExecutableError):
                Perms.from_bits(bits)
            continue
        assert Perms.from_bits(bits) == Perms(*flags)
        assert Perms.from_bits(bits) is Perms.from_bits(bits & 7)


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

    bases = {p.base for p in image}
    assert page_base(0x500000) in bases
    assert page_base(0x700000) not in bases
    assert image.is_executable(0x400000)
    assert not image.is_executable(0x500000)
    assert [p.base for p in image.executable_pages()] == [0x400000, 0x401000]
    assert [p.base for p in image if p.tag is SegmentTag.STACK] == [0x500000]


def test_unmapped_reads_raise():
    image = code_image(b"\xc3")
    # The error names the first byte that could not be read.
    with pytest.raises(UnmappedRead) as info:
        image.read_bytes(BASE + PAGE_SIZE, 1)
    assert info.value.addr == BASE + PAGE_SIZE
    with pytest.raises(UnmappedRead) as info:
        image.read_bytes(BASE + PAGE_SIZE + 5, 2)
    assert info.value.addr == BASE + PAGE_SIZE + 5
    with pytest.raises(UnmappedRead) as info:
        # Crossing from a mapped page into a hole must not silently truncate.
        image.read_bytes(BASE + PAGE_SIZE - 4, 8)
    assert info.value.addr == BASE + PAGE_SIZE
    with pytest.raises(UnmappedRead):
        image.page_at(0x123000)
    assert image.page_at(BASE + 17).base == BASE
    assert image.read_bytes(BASE + PAGE_SIZE, 0) == b""


def test_page_spans():
    assert list(page_spans(0x1000, 0x1000)) == []
    assert list(page_spans(0x1FFE, 0x3003)) == [
        (0x1000, 0xFFE, 0x1000),
        (0x2000, 0, 0x1000),
        (0x3000, 0, 3),
    ]
    assert list(page_spans(0x1004, 0x1008)) == [(0x1000, 4, 8)]
    top = 2**64 - PAGE_SIZE
    assert list(page_spans(top + 1, 2**64)) == [(top, 1, PAGE_SIZE)]


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


# A 4-page window in which generated segments and puts land, so they
# share pages, straddle page boundaries and collide.
_WINDOW = 4 * PAGE_SIZE


# Writable plus executable is refused outright, so it is drawn rarely.
_FLAGS = st.sampled_from([PF_R | PF_X, PF_R | PF_X, PF_R, PF_R, PF_R | PF_W,
                          PF_R | PF_W, PF_X, 0, PF_R | PF_W | PF_X])


@st.composite
def _elf_segments(draw):
    packed = draw(st.booleans())
    cursor = BASE + draw(st.integers(0, PAGE_SIZE))
    segments = []
    for _ in range(draw(st.integers(1, 4))):
        if packed:
            # Back to back with small gaps: pages shared, no collisions.
            vaddr = cursor + draw(st.integers(0, 64))
        else:
            vaddr = BASE + draw(st.integers(0, _WINDOW - 1))
        memsz = draw(st.integers(0, max(1, min(2 * PAGE_SIZE,
                                               BASE + _WINDOW - vaddr))))
        filesz = draw(st.integers(0, memsz))
        segments.append({
            "vaddr": vaddr,
            "data": bytes((vaddr + k) % 251 + 1 for k in range(filesz)),
            "memsz": memsz,
            "flags": draw(_FLAGS),
        })
        cursor = vaddr + memsz
    return segments


def _load_outcome(loader, raw, kind):
    try:
        buf = io.BytesIO()
        save_snapshot(loader(raw, kind), buf)
        return buf.getvalue()
    except SnapshotError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(_elf_segments(), st.sampled_from(["exec_only", "all_load"]))
def test_load_elf_matches_byte_walk(segments, kind):
    """Same .rsnp bytes as the per-byte loader, or the same refusal."""
    raw = build_elf(segments)
    assert _load_outcome(load_elf, raw, kind) == _load_outcome(
        reference_load_elf, raw, kind
    )


@pytest.mark.parametrize(
    "code_vaddr,error",
    [
        # The code segment's first byte lands on a data byte: overlap wins.
        (BASE + 0x10, ElfFormatError),
        # Its first byte is free and a later one collides: the permission
        # merge of writable data with code fails first.
        (BASE, WritableExecutableError),
    ],
)
def test_elf_refusal_precedence_on_a_shared_page(code_vaddr, error):
    elf = build_elf([
        {"vaddr": BASE + 0x10, "data": b"\x55" * 32, "flags": PF_R | PF_W},
        {"vaddr": code_vaddr, "data": b"\x90" * 32, "flags": PF_R | PF_X},
    ])
    outcome = _load_outcome(load_elf, elf, "all_load")
    assert outcome[0] is error
    assert outcome == _load_outcome(reference_load_elf, elf, "all_load")


_PERMS = [RX, RW, RO]


@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.tuples(
        st.booleans(),
        st.integers(0, _WINDOW - 1),
        st.integers(0, PAGE_SIZE + 300),
        st.sampled_from(_PERMS),
        st.sampled_from(list(SegmentTag)),
        st.integers(0, 255),
    ),
    min_size=1,
    max_size=6,
))
def test_builder_matches_byte_walk(ops):
    """put and reserve build the same pages as a builder that places one
    byte at a time."""
    builder, reference = ImageBuilder(), ReferenceImageBuilder()
    for is_put, offset, length, perms, tag, fill in ops:
        for target in (builder, reference):
            if is_put:
                data = bytes((offset + k) % 256 for k in range(length))
                target.put(BASE + offset, data, perms=perms, tag=tag, fill=fill)
            else:
                target.reserve(page_base(BASE + offset), perms, tag, fill)
    assert builder.build().pages == reference.build().pages


@pytest.mark.parametrize("kind", ["exec_only", "all_load"])
def test_load_elf_matches_byte_walk_on_real_binary(kind):
    # The byte walk takes seconds and hundreds of MiB on larger binaries
    # such as python3, so the oracle runs on ls only.
    if not os.path.exists("/usr/bin/ls"):
        pytest.skip("/usr/bin/ls not present")
    raw = open("/usr/bin/ls", "rb").read()
    assert load_elf(raw, kind).pages == reference_load_elf(raw, kind).pages


def _timed(call, *args):
    """Run call; return the SnapshotError it raised, or None, and insist
    it returned within a second."""
    start = time.perf_counter()
    try:
        call(*args)
        error = None
    except SnapshotError as exc:
        error = exc
    assert time.perf_counter() - start < 1.0
    return error


@pytest.mark.parametrize("kind", ["exec_only", "all_load"])
def test_elf_zero_fill_cap(kind):
    # 376 bytes of ELF asking for a terabyte of zero-fill.
    huge = build_elf([
        {"vaddr": BASE, "data": bytes(256), "memsz": 2**40,
         "flags": PF_R | PF_X},
    ])
    assert len(huge) == 376
    error = _timed(load_elf, huge, kind)
    assert isinstance(error, ElfFormatError)
    assert str(error) == f"segments zero-fill more than {MAX_ZERO_FILL} bytes"
    # The cap is on the sum over the kept segments.
    half = MAX_ZERO_FILL // 2 + 1
    split = build_elf([
        {"vaddr": BASE, "data": b"\xc3", "memsz": 1 + half,
         "flags": PF_R | PF_X},
        {"vaddr": 0x40000000, "data": b"", "memsz": half,
         "flags": PF_R | PF_X},
    ])
    assert isinstance(_timed(load_elf, split, kind), ElfFormatError)


def test_elf_zero_fill_cap_skips_unmapped_segments():
    elf = build_elf([
        {"vaddr": BASE, "data": b"\xc3", "flags": PF_R | PF_X},
        {"vaddr": 0x40000000, "data": b"", "memsz": 2**40, "flags": PF_R},
    ])
    assert [p.base for p in load_elf(elf).pages] == [BASE]
    with pytest.raises(ElfFormatError):
        load_elf(elf, kind="all_load")


@pytest.mark.parametrize("kind", ["exec_only", "all_load"])
def test_elf_segments_sharing_file_bytes_are_refused(kind):
    # 400 code segments at distinct addresses all map the same 32 KiB, so
    # 55 KiB of file would map 12.5 MiB.
    blob = b"\x90" * (8 * PAGE_SIZE - 1) + b"\xc3"
    elf = bytearray(build_elf([
        {"vaddr": BASE + i * len(blob), "data": blob if i == 0 else b"",
         "flags": PF_R | PF_X}
        for i in range(400)
    ]))
    phdr = struct.Struct("<IIQQQQQQ")
    for i in range(1, 400):
        at = 64 + i * phdr.size
        fields = list(phdr.unpack_from(elf, at))
        fields[2] = 64 + 400 * phdr.size  # p_offset of the shared blob
        fields[5] = fields[6] = len(blob)  # p_filesz, p_memsz
        phdr.pack_into(elf, at, *fields)
    assert len(elf) == 55232
    error = _timed(load_elf, bytes(elf), kind)
    assert isinstance(error, ElfFormatError)
    assert str(error) == "segments map 13107200 file bytes from a 55232-byte file"
    # Up to a page per segment may be shared, as neighbouring segments of
    # real files share a partial page.
    shared = bytearray(build_elf([
        {"vaddr": BASE, "data": b"\xc3" * 100, "flags": PF_R | PF_X},
        {"vaddr": BASE + 0x10000, "data": b"\x01" * 100, "flags": PF_R},
    ]))
    fields = list(phdr.unpack_from(shared, 64 + phdr.size))
    fields[2] = 0
    fields[5] = fields[6] = len(shared)
    phdr.pack_into(shared, 64 + phdr.size, *fields)
    assert len(load_elf(bytes(shared), "all_load").pages) == 2


def _snapshot_blob(metadata=None):
    builder = ImageBuilder()
    builder.put(BASE, b"\x90\xc3", perms=RX, tag=SegmentTag.CODE)
    builder.put(0x7FF000, b"\x01" * 8, perms=RW, tag=SegmentTag.HEAP)
    buf = io.BytesIO()
    save_snapshot(builder.build(metadata or {"source": "unit-test"}), buf)
    return buf.getvalue()


# Container sizes: the file header, and each page record's header.
_HEADER_SIZE, _RECORD_SIZE = 16, 12


def _with_metadata(blob, meta: bytes) -> bytes:
    end = _HEADER_SIZE + 2 * (_RECORD_SIZE + PAGE_SIZE)
    return blob[:end] + struct.pack("<I", len(meta)) + meta


@pytest.mark.parametrize(
    "mutate",
    [
        # A page base off the page grid.
        lambda blob: blob[:16] + struct.pack("<Q", BASE + 1) + blob[24:],
        lambda blob: _with_metadata(blob, b"[" * 20000),
        lambda blob: _with_metadata(blob, b'{"a": ' + b"1" * 5000 + b"}"),
    ],
    ids=["unaligned-base", "deep-nesting", "long-integer"],
)
def test_snapshot_hostile_bytes_raise_malformed_header(mutate):
    with pytest.raises(MalformedHeaderError):
        load_snapshot(mutate(_snapshot_blob()))


def test_snapshot_reads_every_tag_byte_by_its_wire_value():
    blob = bytearray(_snapshot_blob())
    tag_at = _HEADER_SIZE + 9  # after the first record's base and perms
    for value in range(256):
        blob[tag_at] = value
        if value in {tag.value for tag in SegmentTag}:
            assert load_snapshot(bytes(blob)).pages[0].tag is SegmentTag(value)
        else:
            with pytest.raises(MalformedHeaderError):
                load_snapshot(bytes(blob))


def test_snapshot_truncated_at_every_record_boundary():
    blob = _snapshot_blob()
    record = _RECORD_SIZE + PAGE_SIZE
    cuts = [0, 8, _HEADER_SIZE, _HEADER_SIZE + _RECORD_SIZE,
            _HEADER_SIZE + record, _HEADER_SIZE + record + _RECORD_SIZE,
            _HEADER_SIZE + 2 * record, _HEADER_SIZE + 2 * record + 2,
            len(blob) - 1]
    for cut in cuts:
        assert _timed(load_snapshot, blob[:cut]) is not None


_HUGE = st.sampled_from([2**31, 2**32 - 1, 2**40, 2**63, 2**64 - 1])


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, _HEADER_SIZE + _RECORD_SIZE + 40),
                       st.integers(1, 255)),
             max_size=4),
    st.one_of(st.none(), _HUGE, st.integers(0, 5)),
    st.data(),
)
def test_snapshot_fuzzed_bytes_raise_only_snapshot_errors(flips, count, data):
    blob = bytearray(_snapshot_blob())
    # Byte flips in the header, the first page record header and the start
    # of its page.
    for pos, mask in flips:
        blob[pos] ^= mask
    if count is not None:
        blob[8:16] = struct.pack("<Q", count)
    cut = data.draw(st.integers(0, len(blob)))
    _timed(load_snapshot, bytes(blob[:cut]))


_PHDR_FIELDS = {"p_offset": 8, "p_filesz": 32, "p_memsz": 40}


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 64 + 3 * 56 - 1), st.integers(1, 255)),
             max_size=4),
    st.lists(
        st.tuples(st.sampled_from(["e_phnum", *_PHDR_FIELDS]),
                  st.integers(0, 2), _HUGE),
        max_size=2,
    ),
    st.sampled_from(["exec_only", "all_load"]),
    st.data(),
)
def test_elf_fuzzed_bytes_raise_only_snapshot_errors(flips, fields, kind, data):
    elf = bytearray(build_elf([
        {"vaddr": BASE, "data": b"\x90" * 64 + b"\xc3", "flags": PF_R | PF_X},
        {"vaddr": BASE + 0x1040, "data": b"\x01" * 32, "memsz": 0x100,
         "flags": PF_R | PF_W},
        {"vaddr": BASE + 0x2000, "data": b"\xc3", "flags": PF_R},
    ]))
    for pos, mask in flips:
        elf[pos] ^= mask
    for name, index, value in fields:
        if name == "e_phnum":
            elf[56:58] = struct.pack("<H", value & 0xFFFF)
        else:
            at = 64 + index * 56 + _PHDR_FIELDS[name]
            elf[at : at + 8] = struct.pack("<Q", value)
    cut = data.draw(st.integers(0, len(elf)))
    _timed(load_elf, bytes(elf[:cut]), kind)
