"""Relations between runs that any correct harvest model satisfies.

Unlike the verbatim oracles in helpers.py, these do not pin how the
current code computes a quantity, only how two runs of it must relate.

Stop: a --stop-on-convergence harvest is the full harvest cut at
convergence. Its events are a prefix of the full harvest's, and
rerand.converge's record is the one derived from the full harvest's
page-discovery and type-leak events alone: the convergence clock is the
clock of the type leak that completes the tracked set.

Track set: for gadget sets A ⊆ B, from every start, A converges whenever B
does and no later. The walk is the same whatever it tracks, and A's types
have all leaked once B's have.

Shift: a COARSE re-layout moves the whole image by a number of pages and
changes no byte of code, so upper_bound's records, in start order, are
equal once each start is rebased, and so are each harvest's events once
each discovered page is. Nothing the model measures may read an absolute
address.

Gadget length: raising max_gadget_len only adds windows, and the walk
order does not depend on mining, so from every start a harvest finds the
same pages at the same leak and analysis cost at every length, each type
leaks no later at a longer length, and an upper_bound start that converges
still converges, no later.

Locality: a code page that no branch or pointer reaches, and that branches
nowhere, is harvested only from its own start, so adding one to an image
adds exactly one upper_bound record, from a start on that page, and leaves
every other record equal.
"""

from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import RX, asm
from ropscope.disasm import POISON_BYTE, Reg
from ropscope.encode import mov_rr, pop_r, ret
from ropscope.gadgets import BUILTIN_SETS, GadgetSetSpec
from ropscope.harvest import (
    LEAK_TICKS_PER_PAGE,
    EventKind,
    HarvestOptions,
    ImageAnalysis,
    harvest,
    page_start_pointers,
)
from ropscope.rerand import ConvergenceRecord, converge, upper_bound
from ropscope.snapshot import (
    PAGE_SIZE,
    MemoryImage,
    PageRecord,
    SegmentTag,
    load_image,
)
from ropscope.synth import (
    GenParams,
    RandomizationScheme,
    SchemeKind,
    apply_scheme,
    generate,
    materialize,
)


def record_from_full_harvest(trace, spec):
    """The convergence record read off a full harvest's events, and the
    number of its events a stopping harvest keeps."""
    required = set(spec.required)
    leaked = set()
    clocks = []
    pages = 0
    for i, event in enumerate(trace.events):
        if event.kind is EventKind.PAGE_DISCOVERED:
            pages += 1
        elif event.kind is EventKind.TYPE_LEAKED:
            leaked.add(event.payload["type"])
            clocks.append(event.clock)
            # Only tracked types leak, so this is the visit's last leak.
            if required <= leaked:
                clock = event.clock
                record = ConvergenceRecord(
                    start=trace.start,
                    set_name=spec.name,
                    convergence_clock=clock,
                    type_timeline=tuple(
                        (c, k) for k, c in enumerate(clocks, 1)
                    ),
                    leak_fraction=LEAK_TICKS_PER_PAGE * pages / clock,
                    total_cost=clock,
                    pages_found=pages,
                )
                # The leaks, then the convergence event.
                return record, i + 2
    total = trace.total_cost
    record = ConvergenceRecord(
        start=trace.start,
        set_name=spec.name,
        convergence_clock=None,
        type_timeline=tuple((c, k) for k, c in enumerate(clocks, 1)),
        leak_fraction=trace.leak_cost / total if total else 0.0,
        total_cost=total,
        pages_found=trace.pages_found,
    )
    return record, len(trace.events)


def assert_stop_relation(image, opts):
    spec = opts.track_set
    analysis = ImageAnalysis(image, opts)
    stopping = replace(opts, stop_on_convergence=True)
    starts = sorted(page_start_pointers(image, opts, analysis).values())
    assert starts
    for start in starts:
        full = harvest(image, start, opts, analysis)
        stopped = harvest(image, start, stopping, analysis)
        expected, kept = record_from_full_harvest(full, spec)
        assert stopped.events == full.events[:kept]
        if expected.converged:
            assert full.events[kept - 1].kind is EventKind.CONVERGED
            assert full.events[kept - 1].clock == expected.convergence_clock
        else:
            assert not full.converged
        assert converge(image, start, stopping, analysis) == expected


@given(
    n_functions=st.integers(1, 10),
    connectivity=st.sampled_from([0.0, 0.2, 0.5]),
    per_page=st.sampled_from([None, 1, 3]),
    strongly_connected=st.booleans(),
    seed=st.integers(0, 2**16),
    set_name=st.sampled_from(sorted(BUILTIN_SETS)),
    max_len=st.integers(2, 10),
)
@settings(max_examples=12, deadline=None)
def test_stop_cuts_the_full_harvest_at_convergence(
    n_functions, connectivity, per_page, strongly_connected, seed, set_name,
    max_len,
):
    params = GenParams(
        n_functions=n_functions,
        mean_fn_len=8,
        connectivity=connectivity,
        ensure_strongly_connected=strongly_connected,
        max_functions_per_page=per_page,
    )
    image, _ = materialize(generate(params, seed))
    assert_stop_relation(image, HarvestOptions(
        max_gadget_len=max_len, track_set=BUILTIN_SETS[set_name]
    ))


@pytest.mark.parametrize("set_name", ["tc", "priority"])
def test_stop_cuts_the_full_harvest_at_convergence_on_ls(set_name):
    path = Path("/usr/bin/ls")
    if not path.exists():
        pytest.skip("/usr/bin/ls is not present")
    assert_stop_relation(load_image(path), HarvestOptions(
        max_gadget_len=10, track_set=BUILTIN_SETS[set_name]
    ))


def assert_track_set_relation(image, opts, subsets):
    """From every start, each subset of opts.track_set converges whenever
    the set does, at a clock no later. Returns the number of starts the set
    converges from."""
    analysis = ImageAnalysis(image, opts)
    starts = sorted(page_start_pointers(image, opts, analysis).values())
    assert starts
    converged = 0
    for start in starts:
        whole = converge(image, start, opts, analysis)
        if not whole.converged:
            continue
        converged += 1
        for subset in subsets:
            part = converge(
                image, start, replace(opts, track_set=subset), analysis
            )
            assert part.converged, (start, subset)
            assert part.convergence_clock <= whole.convergence_clock, (
                start, subset,
            )
    return converged


@given(
    n_functions=st.integers(1, 10),
    connectivity=st.sampled_from([0.0, 0.2, 0.5]),
    per_page=st.sampled_from([None, 1, 3]),
    seed=st.integers(0, 2**16),
    set_name=st.sampled_from(sorted(BUILTIN_SETS)),
    max_len=st.integers(2, 10),
    data=st.data(),
)
@settings(max_examples=12, deadline=None)
def test_a_subset_converges_no_later_than_its_set(
    n_functions, connectivity, per_page, seed, set_name, max_len, data,
):
    params = GenParams(
        n_functions=n_functions,
        mean_fn_len=8,
        connectivity=connectivity,
        max_functions_per_page=per_page,
    )
    image, _ = materialize(generate(params, seed))
    spec = BUILTIN_SETS[set_name]
    subsets = [
        GadgetSetSpec(f"sub{i}", tuple(data.draw(st.lists(
            st.sampled_from(spec.required), min_size=1, unique=True,
        ))))
        for i in range(3)
    ]
    assert_track_set_relation(
        image, HarvestOptions(max_gadget_len=max_len, track_set=spec), subsets
    )


def test_a_subset_converges_no_later_than_its_set_on_ls():
    path = Path("/usr/bin/ls")
    if not path.exists():
        pytest.skip("/usr/bin/ls is not present")
    image = load_image(path)
    opts = HarvestOptions(max_gadget_len=10)
    # No start converges on a built-in set here, so the set is the most
    # types one start's harvest leaks, and the subsets are all of its own.
    analysis = ImageAnalysis(image, opts)
    leaked = max(
        (
            sorted(harvest(image, start, opts, analysis).type_clocks())
            for start in page_start_pointers(image, opts, analysis).values()
        ),
        key=lambda types: (len(types), types),
    )
    assert len(leaked) >= 3
    subsets = [
        GadgetSetSpec(f"sub{mask}", tuple(
            t for i, t in enumerate(leaked) if mask >> i & 1
        ))
        for mask in range(1, (1 << len(leaked)) - 1)
    ]
    spec = GadgetSetSpec("leaked", tuple(leaked))
    assert assert_track_set_relation(
        image, replace(opts, track_set=spec), subsets
    ) > 0


def rebased_events(trace, delta):
    """The trace's events with each discovered page moved down by delta."""
    return [
        event._replace(payload={"base": event.payload["base"] - delta})
        if event.kind is EventKind.PAGE_DISCOVERED
        else event
        for event in trace.events
    ]


def assert_shift_relation(image, shifted, delta, opts):
    report = upper_bound(image, opts)
    moved = upper_bound(shifted, opts)
    assert [replace(r, start=r.start - delta) for _, r in sorted(
        moved.per_start.items()
    )] == [r for _, r in sorted(report.per_start.items())]
    assert (moved.minimum_clock, moved.average_clock) == (
        report.minimum_clock, report.average_clock,
    )
    assert moved.non_reactive_intervals == report.non_reactive_intervals
    analysis = ImageAnalysis(image, opts)
    moved_analysis = ImageAnalysis(shifted, opts)
    for start in sorted(report.per_start):
        trace = harvest(image, start, opts, analysis)
        moved_trace = harvest(shifted, start + delta, opts, moved_analysis)
        assert rebased_events(moved_trace, delta) == trace.events


@given(
    n_functions=st.integers(1, 10),
    connectivity=st.sampled_from([0.0, 0.2, 0.5]),
    per_page=st.sampled_from([None, 1, 3]),
    seed=st.integers(0, 2**16),
    scheme_seed=st.integers(0, 2**16),
    set_name=st.sampled_from(sorted(BUILTIN_SETS)),
    max_len=st.integers(2, 10),
)
@settings(max_examples=12, deadline=None)
def test_a_coarse_shift_changes_no_record_or_event(
    n_functions, connectivity, per_page, seed, scheme_seed, set_name, max_len,
):
    program = generate(GenParams(
        n_functions=n_functions,
        mean_fn_len=8,
        connectivity=connectivity,
        max_functions_per_page=per_page,
    ), seed)
    image, truth = materialize(program)
    shifted, moved_truth = apply_scheme(
        program, RandomizationScheme(SchemeKind.COARSE, seed=scheme_seed)
    )
    delta = moved_truth.function_entries[0] - truth.function_entries[0]
    assert delta > 0 and delta % 4096 == 0
    assert_shift_relation(image, shifted, delta, HarvestOptions(
        max_gadget_len=max_len, track_set=BUILTIN_SETS[set_name]
    ))


GADGET_LENGTHS = (3, 5, 10)


def assert_gadget_length_relation(image, heuristic):
    """The gadget length relation over GADGET_LENGTHS. Returns the number of
    upper_bound starts that converge at the shortest length."""
    runs = []
    for max_len in GADGET_LENGTHS:
        opts = HarvestOptions(
            max_gadget_len=max_len, enable_heuristic_types=heuristic
        )
        analysis = ImageAnalysis(image, opts)
        starts = sorted(page_start_pointers(image, opts, analysis).values())
        traces = [harvest(image, start, opts, analysis) for start in starts]
        runs.append((starts, traces, upper_bound(image, opts)))
    assert runs[0][0]
    for (starts, traces, report), (_, longer_traces, longer_report) in zip(
        runs, runs[1:]
    ):
        assert [t.start for t in longer_traces] == starts
        for trace, longer in zip(traces, longer_traces):
            assert (longer.pages(), longer.leak_cost, longer.analysis_cost) == (
                trace.pages(), trace.leak_cost, trace.analysis_cost,
            ), trace.start
            longer_clocks = longer.type_clocks()
            for gtype, clock in trace.type_clocks().items():
                assert longer_clocks.get(gtype, clock + 1) <= clock, (
                    trace.start, gtype,
                )
        assert longer_report.per_start.keys() == report.per_start.keys()
        for start, record in report.per_start.items():
            if record.converged:
                longer = longer_report.per_start[start]
                assert longer.converged, start
                assert longer.convergence_clock <= record.convergence_clock, start
    return sum(r.converged for r in runs[0][2].per_start.values())


@pytest.mark.parametrize("heuristic", [False, True], ids=["core", "heuristic"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_longer_gadget_length_leaks_no_later(seed, heuristic):
    # One function per page: every start converges, so the relation
    # compares convergence clocks from every start.
    image, _ = materialize(generate(
        GenParams(n_functions=12, max_functions_per_page=1), seed
    ))
    pages = len(image.executable_pages())
    assert assert_gadget_length_relation(image, heuristic) == pages


@pytest.mark.parametrize("heuristic", [False, True], ids=["core", "heuristic"])
def test_a_longer_gadget_length_leaks_no_later_on_ls(heuristic):
    path = Path("/usr/bin/ls")
    if not path.exists():
        pytest.skip("/usr/bin/ls is not present")
    assert_gadget_length_relation(load_image(path), heuristic)


def with_unreached_page(image):
    """The image plus one executable page right past its last page, holding
    gadgets and no branch, and that page's base. No branch or pointer of
    the image points past its own pages, so nothing reaches the new one."""
    base = image.pages[-1].end
    code = asm(pop_r(Reg.RBX), ret(), mov_rr(Reg.RAX, Reg.RBX), ret())
    data = code + bytes([POISON_BYTE]) * (PAGE_SIZE - len(code))
    page = PageRecord(base, RX, SegmentTag.CODE, data)
    return MemoryImage([*image, page], image.metadata), base


@pytest.mark.parametrize("per_page", [1, 3])
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_an_unreached_page_adds_one_record_and_changes_no_other(
    seed, per_page
):
    image, _ = materialize(generate(
        GenParams(n_functions=12, max_functions_per_page=per_page), seed
    ))
    grown, base = with_unreached_page(image)
    opts = HarvestOptions(max_gadget_len=10)
    report = upper_bound(image, opts)
    grown_report = upper_bound(grown, opts)
    added = grown_report.per_start.keys() - report.per_start.keys()
    assert len(added) == 1
    (start,) = added
    assert base <= start < base + PAGE_SIZE
    assert {
        s: r for s, r in grown_report.per_start.items() if s != start
    } == report.per_start
