"""Convergence records, interval safety, and the per-start upper bound."""

from dataclasses import replace

import pytest

from helpers import asm, code_image, reference_upper_bound
from ropscope.canonical import dumps
from ropscope.disasm import Reg
from ropscope.encode import pop_r, ret
from ropscope.gadgets import BUILTIN_SETS, GadgetSetSpec, GadgetType
from ropscope.harvest import HarvestOptions, page_start_pointers
from ropscope.rerand import (
    IntervalSafety,
    converge,
    evaluate_interval,
    merged_time_to_types,
    upper_bound,
)
from ropscope.synth import GenParams, generate, materialize

OPTS = HarvestOptions(max_gadget_len=10)


def corpus_image(seed=7, n_functions=8):
    program = generate(
        GenParams(n_functions=n_functions, mean_fn_len=8, connectivity=0.4),
        seed=seed,
    )
    image, _truth = materialize(program)
    return image


def test_converge_record_shape():
    image = corpus_image()
    start = sorted(page_start_pointers(image, OPTS).values())[0]
    record = converge(image, start, OPTS)

    assert record.start == start
    assert record.set_name == "tc"
    assert record.converged
    assert 0.0 <= record.leak_fraction <= 1.0
    assert record.total_cost > 0
    assert record.pages_found >= 1

    counts = [count for _, count in record.type_timeline]
    clocks = [clock for clock, _ in record.type_timeline]
    assert counts == list(range(1, len(counts) + 1))
    assert clocks == sorted(clocks)
    assert record.type_timeline[-1][1] == len(BUILTIN_SETS["tc"].required)
    assert record.convergence_clock == record.type_timeline[-1][0]


def test_converge_stops_at_tracked_set():
    # Convergence clock must equal the arrival of the last required type.
    image = corpus_image()
    start = sorted(page_start_pointers(image, OPTS).values())[0]
    spec = GadgetSetSpec("pair", (GadgetType.LR, GadgetType.MR))
    record = converge(image, start, replace(OPTS, track_set=spec))
    assert record.set_name == "pair"
    assert record.converged
    assert record.type_timeline[-1][1] == 2


def test_time_to_k_types():
    image = corpus_image()
    start = sorted(page_start_pointers(image, OPTS).values())[0]
    record = converge(image, start, OPTS)
    assert record.time_to_k_types(0) == 0
    assert record.time_to_k_types(1) == record.type_timeline[0][0]
    n = len(record.type_timeline)
    assert record.time_to_k_types(n) == record.type_timeline[-1][0]
    assert record.time_to_k_types(n + 5) is None


def test_unconverged_record():
    image = code_image(asm(pop_r(Reg.RBX), ret()))
    spec = GadgetSetSpec("wants-sys", (GadgetType.SYS, GadgetType.LR))
    record = converge(image, 0x400000, replace(OPTS, track_set=spec))
    assert not record.converged
    assert record.convergence_clock is None
    assert record.type_timeline[-1][1] == 1  # LR arrived, SYS never did


def test_merged_time_to_types():
    image = corpus_image()
    report = upper_bound(image, OPTS)
    records = list(report.per_start.values())
    merged = merged_time_to_types(records, len(BUILTIN_SETS["tc"].required))
    for k, clock in enumerate(merged, start=1):
        candidates = [
            t for r in records if (t := r.time_to_k_types(k)) is not None
        ]
        assert clock == (min(candidates) if candidates else None)
    # Merged clocks never decrease with k while defined.
    defined = [c for c in merged if c is not None]
    assert defined == sorted(defined)


def test_upper_bound_report():
    image = corpus_image()
    report = upper_bound(image, OPTS)
    assert report.spec_name == "tc"
    assert report.converged_count == len(report.per_start)
    clocks = [
        r.convergence_clock
        for r in report.per_start.values()
        if r.converged
    ]
    assert report.minimum_clock == min(clocks)
    assert report.average_clock == pytest.approx(sum(clocks) / len(clocks))
    for lo, hi in report.non_reactive_intervals:
        assert 0 <= lo < hi


def test_upper_bound_deterministic():
    image = corpus_image()
    a = upper_bound(image, OPTS)
    b = upper_bound(image, OPTS)
    assert dumps(a.to_dict()) == dumps(b.to_dict())
    assert a.timeline_csv() == b.timeline_csv()


def test_timeline_csv_rows():
    image = corpus_image()
    report = upper_bound(image, OPTS)
    lines = report.timeline_csv().strip().splitlines()
    assert lines[0] == "start,clock,types_available"
    expected_rows = sum(
        len(r.type_timeline) for r in report.per_start.values()
    )
    assert len(lines) == expected_rows + 1


def test_interval_threshold_is_exactly_the_minimum_clock():
    image = corpus_image()
    report = upper_bound(image, OPTS)
    mc = report.minimum_clock
    assert mc is not None
    # Safe up to and including the fastest convergence, unsafe beyond it.
    for interval in (1, mc // 2, mc):
        assert evaluate_interval(interval, report=report) is \
            IntervalSafety.SAFE
    for interval in (mc + 1, mc * 2):
        assert evaluate_interval(interval, report=report) is \
            IntervalSafety.UNSAFE


def test_interval_always_safe_without_convergence():
    image = code_image(asm(pop_r(Reg.RBX), ret()))
    spec = GadgetSetSpec("wants-sys", (GadgetType.SYS,))
    report = upper_bound(image, replace(OPTS, track_set=spec))
    verdict = evaluate_interval(10 ** 9, report=report)
    assert verdict is IntervalSafety.SAFE


def test_interval_validation():
    image = corpus_image()
    report = upper_bound(image, OPTS)
    with pytest.raises(ValueError):
        evaluate_interval(0, report=report)
    with pytest.raises(ValueError):
        evaluate_interval(-5, report=report)


def test_record_serialization():
    image = corpus_image()
    start = sorted(page_start_pointers(image, OPTS).values())[0]
    record = converge(image, start, OPTS)
    d = record.to_dict()
    assert d["start"] == hex(start)
    assert d["set"] == "tc"
    assert d["type_timeline"] == [list(e) for e in record.type_timeline]


# upper_bound against the node map it replaced (helpers.ReferenceWalk): the
# same report and timeline on packed pages, on one function per page with
# starts that share most of their pages, on pages entered by several
# batches, with seeded starts and with the heuristic types.
HEURISTIC_SET = GadgetSetSpec(
    "heuristic",
    (GadgetType.BROP, GadgetType.FS, GadgetType.CS1, GadgetType.STOP,
     GadgetType.TM, GadgetType.CS2),
)
ORACLE_CASES = {
    "packed": (GenParams(n_functions=12, max_functions_per_page=3), OPTS),
    "one-per-page-24": (
        GenParams(n_functions=24, connectivity=4 / 24, max_functions_per_page=1),
        OPTS,
    ),
    "one-per-page-200": (
        GenParams(n_functions=200, connectivity=4 / 200,
                  max_functions_per_page=1),
        OPTS,
    ),
    "two-per-page-60": (
        GenParams(n_functions=60, connectivity=4 / 60, max_functions_per_page=2),
        OPTS,
    ),
    # Densely linked: each page's root edge carries about a quarter of the
    # index, and every walk soon handles all of it.
    "dense-60": (GenParams(n_functions=60, max_functions_per_page=1), OPTS),
    "start-seed": (
        GenParams(n_functions=24, max_functions_per_page=2),
        replace(OPTS, start_seed=3),
    ),
    "heuristic": (
        GenParams(n_functions=24, max_functions_per_page=1),
        HarvestOptions(max_gadget_len=20, enable_heuristic_types=True,
                       track_set=HEURISTIC_SET),
    ),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_upper_bound_matches_node_map_oracle(case):
    params, opts = ORACLE_CASES[case]
    image, _ = materialize(generate(params, seed=7))
    expected, analysis = reference_upper_bound(image, opts)
    report = upper_bound(image, opts)
    assert report.to_dict() == expected.to_dict()
    assert report.timeline_csv() == expected.timeline_csv()
    if case == "two-per-page-60":
        # Some page is entered again after its first node: the walk moves
        # along an edge that does not start at a root.
        assert any(
            node.children for (_, addresses), node in analysis._nodes.items()
            if addresses
        )
    if case == "heuristic":
        # Types only the 9-window (BROP) and 20-instruction windows (TM)
        # give are tracked; no start finds STOP, so none converges.
        assert report.converged_count == 0
        assert max(len(r.type_timeline) for r in report.per_start.values()) >= 4
