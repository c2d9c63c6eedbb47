"""Pointer scanning over non-executable segments."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import RO, RW, RX, reference_scan_pointers
from ropscope.ptrscan import scan_pointers
from ropscope.snapshot import PAGE_SIZE, ImageBuilder, SegmentTag


def fixture_image():
    """Two lib code pages, a stack, and a heap with known pointer layout."""
    lib_lo, lib_hi = 0x500000, 0x502000

    builder = ImageBuilder()
    builder.put(lib_lo, b"\xc3", perms=RX, tag=SegmentTag.CODE, fill=0x06)
    builder.put(lib_lo + 0x1000, b"\xc3", perms=RX, tag=SegmentTag.CODE,
                fill=0x06)
    builder.put(0x503000, b"\xc3", perms=RX, tag=SegmentTag.CODE, fill=0x06)

    stack = bytearray(64)
    stack[0:8] = (0x500010).to_bytes(8, "little")   # in range
    stack[8:16] = (0x500010).to_bytes(8, "little")  # duplicate
    stack[16:24] = (0x501020).to_bytes(8, "little")  # second page
    stack[24:32] = (42).to_bytes(8, "little")        # decoy: unmapped
    stack[32:40] = (0x503000).to_bytes(8, "little")  # exec but out of range
    stack[40:48] = (0x600000).to_bytes(8, "little")  # mapped, not exec
    builder.put(0x7FE000, bytes(stack), perms=RW, tag=SegmentTag.STACK)

    heap = (0x500018).to_bytes(8, "little")
    builder.put(0x600000, heap, perms=RW, tag=SegmentTag.HEAP)

    # pointer at a 4-aligned (not 8-aligned) slot
    builder.put(0x610004, (0x500020).to_bytes(8, "little"), perms=RW,
                tag=SegmentTag.DATA)

    return builder.build(), (lib_lo, lib_hi)


def test_scan_recovers_exact_counts():
    image, lib_range = fixture_image()
    report = scan_pointers(image, lib_range=lib_range)
    values = sorted(hex(h.value) for h in report.hits)
    assert values == ["0x500010", "0x500010", "0x500018", "0x501020"]
    assert report.occurrences == 4
    assert report.unique_values == 3


def test_scan_skips_executable_pages_as_sources():
    image, lib_range = fixture_image()
    report = scan_pointers(image, lib_range=lib_range)
    exec_bases = {p.base for p in image.executable_pages()}
    for hit in report.hits:
        assert (hit.addr & ~0xFFF) not in exec_bases
    # stack, heap, and data pages and nothing else
    assert report.scanned_pages == 3
    assert report.scanned_words == 3 * 512


def test_range_filter_excludes_outside_code():
    image, lib_range = fixture_image()
    unranged = scan_pointers(image)
    ranged = scan_pointers(image, lib_range=lib_range)
    unranged_values = {h.value for h in unranged.hits}
    assert 0x503000 in unranged_values  # executable, so unranged keeps it
    assert all(h.value != 0x503000 for h in ranged.hits)
    assert all(lib_range[0] <= h.value < lib_range[1] for h in ranged.hits)


def test_nonexecutable_targets_need_the_flag():
    image, _ = fixture_image()
    strict = scan_pointers(image)
    assert all(h.target_executable for h in strict.hits)
    assert all(h.value != 0x600000 for h in strict.hits)

    loose = scan_pointers(image, require_executable_target=False)
    loose_values = {h.value for h in loose.hits}
    assert 0x600000 in loose_values  # mapped RW target now allowed
    assert 42 not in loose_values  # unmapped values never count


def test_tag_restriction():
    image, lib_range = fixture_image()
    stack_only = scan_pointers(
        image, tags=[SegmentTag.STACK], lib_range=lib_range
    )
    assert {h.tag for h in stack_only.hits} == {SegmentTag.STACK}
    assert stack_only.occurrences == 3
    assert stack_only.scanned_pages == 1

    by_tag = scan_pointers(image, lib_range=lib_range).by_tag()
    assert by_tag[SegmentTag.STACK] == 3
    assert by_tag[SegmentTag.HEAP] == 1


def test_alignment_controls_visibility():
    image, lib_range = fixture_image()
    coarse = scan_pointers(image, lib_range=lib_range)
    assert all(h.value != 0x500020 for h in coarse.hits)

    fine = scan_pointers(image, lib_range=lib_range, alignment=4)
    assert 0x500020 in {h.value for h in fine.hits}
    assert fine.occurrences >= coarse.occurrences


def test_report_serialization():
    image, lib_range = fixture_image()
    report = scan_pointers(image, lib_range=lib_range)
    d = report.to_dict()
    assert d["occurrences"] == 4
    assert d["unique_values"] == 3
    assert d["by_tag"]["stack"] == 3

    lines = report.to_csv().strip().splitlines()
    assert lines[0] == "addr,value,segment,target_executable"
    assert len(lines) == report.occurrences + 1


def test_deterministic_hit_order():
    image, lib_range = fixture_image()
    a = scan_pointers(image, lib_range=lib_range)
    b = scan_pointers(image, lib_range=lib_range)
    assert a.hits == b.hits
    addrs = [h.addr for h in a.hits]
    assert addrs == sorted(addrs)


# Scan parameters the differential tests cover: every residue pattern of
# offsets mod 8, strides that skip words, alignments whose second offset is
# the last word of its residue class (4081, 4084), and alignments with no
# offset past 0 in a page (4095, 4096, 5000).
ALIGNMENTS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 24, 4081, 4084, 4095, 4096,
              5000)
CODE_LO, CODE_HI = 0x500000, 0x503000
MAPPED_HI = 0x800000  # end of the last page of scan_image
LIB_RANGES = (
    None,
    (0x500100, 0x500200),  # inside one page
    (0x502800, 0x506000),  # straddles mapped and unmapped memory
    (-0x1000, 0x501800),  # negative lo
)
TAG_FILTERS = (None, (SegmentTag.STACK, SegmentTag.DATA))


def boundary_values() -> list[int]:
    """lo, hi-1 and hi of every library range and of the mapped extent,
    plus values in code, in mapped data and in unmapped memory."""
    values = [0, 42, 0x600000, 0x603FFF, 0x604000, 0x7FE008, 2**64 - 1]
    for lo, hi in [r for r in LIB_RANGES if r] + [(CODE_LO, MAPPED_HI)]:
        values += [lo % 2**64, hi - 1, hi]
    values += [CODE_LO + 0x10, CODE_HI - 8, CODE_HI, CODE_HI + 0x20]
    return values


def scan_image(seed: int):
    """Three code pages, a non-executable CODE page, and data pages of every
    tag holding planted values at arbitrary byte offsets. Each data page
    ends in one of: a pointer in the last readable word (offset 4088), a
    pointer whose bytes start at 4089 or later and so are cut by the page
    end, or a pointer in the last word of residue class 1 or 4 (4081, 4084).
    """
    rng = random.Random(seed)
    values = boundary_values()
    builder = ImageBuilder()
    for base in range(CODE_LO, CODE_HI, PAGE_SIZE):
        builder.put(base, b"\xc3", perms=RX, tag=SegmentTag.CODE)
    builder.put(CODE_HI, b"\x90", perms=RO)  # ImageBuilder's default tag
    data_pages = [
        (0x600000, SegmentTag.HEAP, 4088),
        (0x601000, SegmentTag.DATA, rng.randrange(4089, PAGE_SIZE)),
        (0x603000, SegmentTag.OTHER, 4081),
        (0x7FE000, SegmentTag.STACK, 4084),
        (0x7FF000, SegmentTag.STACK, 4088),
    ]
    for base, tag, tail in data_pages:
        page = bytearray(rng.randbytes(PAGE_SIZE))
        for _ in range(120):
            off = rng.randrange(PAGE_SIZE - 7)
            page[off : off + 8] = rng.choice(values).to_bytes(8, "little")
        pointer = rng.choice([CODE_LO + 0x10, 0x500100, 0x502800, 0x7FF008])
        tail_bytes = pointer.to_bytes(8, "little")[: PAGE_SIZE - tail]
        page[tail : tail + 8] = tail_bytes
        builder.put(base, bytes(page), perms=RW, tag=tag)
    return builder.build()


def assert_same_scan(image, **kwargs):
    got = scan_pointers(image, **kwargs)
    want = reference_scan_pointers(image, **kwargs)
    assert got.to_csv() == want.to_csv(), kwargs
    assert got.to_dict() == want.to_dict(), kwargs
    assert got.scanned_pages == want.scanned_pages, kwargs
    assert got.scanned_words == want.scanned_words, kwargs


def test_scan_matches_the_word_by_word_oracle():
    for seed in (1, 2):
        image = scan_image(seed)
        for alignment in ALIGNMENTS:
            for lib_range in LIB_RANGES:
                for tags in TAG_FILTERS:
                    for require in (True, False):
                        assert_same_scan(
                            image,
                            tags=tags,
                            lib_range=lib_range,
                            alignment=alignment,
                            require_executable_target=require,
                        )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    alignment=st.one_of(st.sampled_from(ALIGNMENTS), st.integers(1, 5000)),
    lib_range=st.one_of(
        st.none(),
        st.sampled_from(LIB_RANGES[1:]),
        st.tuples(
            st.integers(-0x10000, 0x800000), st.integers(1, 0x300000)
        ).map(lambda t: (t[0], t[0] + t[1])),
    ),
    tags=st.sampled_from(TAG_FILTERS),
    require=st.booleans(),
)
def test_scan_property_matches_oracle(seed, alignment, lib_range, tags, require):
    assert_same_scan(
        scan_image(seed),
        tags=tags,
        lib_range=lib_range,
        alignment=alignment,
        require_executable_target=require,
    )


def test_last_word_is_read_and_cut_words_never_are():
    value = (CODE_LO + 0x10).to_bytes(8, "little")
    builder = ImageBuilder()
    builder.put(CODE_LO, b"\xc3", perms=RX)
    first = bytearray(PAGE_SIZE)
    first[4088:] = value
    builder.put(0x600000, bytes(first), perms=RW, tag=SegmentTag.DATA)
    # The same pointer starting at offset 4089 of the next page runs one
    # byte into the page after it; a word never spans pages.
    second = bytearray(PAGE_SIZE)
    second[4089:] = value[:7]
    builder.put(0x601000, bytes(second), perms=RW, tag=SegmentTag.DATA)
    builder.put(0x602000, value[7:], perms=RW, tag=SegmentTag.DATA)
    image = builder.build()
    for alignment in (1, 8):
        report = scan_pointers(image, alignment=alignment)
        assert [h.addr for h in report.hits] == [0x600000 + 4088]
        assert report.scanned_words == 3 * len(range(0, 4089, alignment))

