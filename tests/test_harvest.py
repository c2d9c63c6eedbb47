"""Recursive code-page harvesting: closure, costs, events, determinism."""

import io
import json
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ropscope.disasm as disasm_module
import ropscope.harvest as harvest_module
import ropscope.rerand as rerand_module
from ropscope import cli
from helpers import (
    GOLDEN_CORPORA,
    RW,
    all_layouts_options,
    asm,
    code_image,
    gadget_multiset,
    multi_page_image,
    reference_branch_targets,
    reference_converge,
    reference_harvest,
    reference_offline_disassemble,
    reference_population_stats,
    reference_report_rows,
    reference_start_pointers,
    shape_length,
)
from ropscope.disasm import PageDisasm, Reg
from ropscope.encode import (
    call_rel32,
    jcc_rel32,
    jmp_rel32,
    mov_rr,
    nop,
    pop_r,
    ret,
    syscall,
)
from ropscope.gadgets import (
    BUILTIN_SETS,
    GadgetSetSpec,
    GadgetType,
    find_gadgets,
    labelling_counts,
    leaked_types,
    population_stats,
    type_counts,
)
from ropscope.harvest import (
    EventKind,
    HarvestOptions,
    ImageAnalysis,
    StartPointerInvalid,
    collect_branch_targets,
    harvest,
    harvest_all_starts,
    image_gadget_report,
    mine_image,
    offline_disassemble,
    page_start_pointers,
)
from ropscope.rerand import converge, upper_bound
from ropscope.snapshot import (
    PAGE_SIZE,
    ImageBuilder,
    SegmentTag,
    load_image,
    load_snapshot,
    page_base,
    save_snapshot,
)
from ropscope.synth import (
    GenParams,
    RandomizationScheme,
    SchemeKind,
    apply_scheme,
    generate,
    materialize,
)


def call_to(src: int, dst: int) -> bytes:
    """call rel32 from src reaching dst."""
    return call_rel32(dst - (src + 5))


def topology_image():
    """One page calling into two non-adjacent pages, like a leaked function
    pointer landing mid-page."""
    base_a, base_b, base_c = 0x11F9000, 0x11FB000, 0x11FC000
    start = 0x11F95C4

    fn_b = base_b + 0x10
    fn_c = base_c + 0x20
    code_a = asm(
        call_to(start, fn_b),
        call_to(start + 5, fn_c),
        ret(),
    )
    builder = ImageBuilder()
    builder.reserve(base_a, fill=0x06)
    builder.put(start, code_a, fill=0x06)
    builder.put(fn_b, asm(pop_r(Reg.RBX), ret()), fill=0x06)
    builder.put(fn_c, asm(mov_rr(Reg.RDI, Reg.RAX), ret()), fill=0x06)
    return builder.build(), start, {base_a, base_b, base_c}


def test_harvest_reaches_pages_via_chain_targets():
    image, start, expected_pages = topology_image()
    trace = harvest(image, start)
    assert trace.pages_found == 3
    assert set(trace.pages()) == expected_pages
    assert trace.skipped_targets == 0


def test_harvest_cost_accounting():
    image, start, _ = topology_image()
    trace = harvest(image, start)
    assert trace.leak_cost == 100 * trace.pages_found
    # Page A runs call, call, ret from the start; pages B and C each run
    # two instructions to their ret.
    assert trace.analysis_cost == 3 + 2 + 2
    assert trace.leak_cost + trace.analysis_cost == trace.total_cost


def test_harvest_event_invariants():
    image, start, _ = topology_image()
    trace = harvest(image, start)

    steps = [e.step for e in trace.events]
    assert steps == sorted(steps)
    assert len(set(steps)) == len(steps)

    clocks = [e.clock for e in trace.events]
    assert clocks == sorted(clocks)

    discovered = [e for e in trace.events
                  if e.kind is EventKind.PAGE_DISCOVERED]
    bases = [e.payload["base"] for e in discovered]
    assert len(bases) == len(set(bases)) == trace.pages_found

    leaks = [e for e in trace.events if e.kind is EventKind.TYPE_LEAKED]
    names = [e.payload["type"] for e in leaks]
    assert len(names) == len(set(names))


def assert_same_trace(trace, expected):
    """Two traces agree on their JSONL, their report and their gadgets."""
    assert trace.to_jsonl() == expected.to_jsonl()
    assert trace.report() == expected.report()
    assert trace.gadgets == expected.gadgets


def test_harvest_deterministic_and_jsonl_stable():
    image, start, _ = topology_image()
    a = harvest(image, start)
    b = harvest(image, start)
    assert a.to_jsonl() == b.to_jsonl()

    lines = a.to_jsonl().strip().splitlines()
    header = json.loads(lines[0])
    assert header["start"] == hex(start)
    assert header["pages_found"] == a.pages_found
    for line in lines[1:]:
        event = json.loads(line)
        assert set(event) == {"step", "clock", "kind", "payload"}


@pytest.mark.parametrize("page_events", [False, True])
def test_trace_is_read_off_its_walk(page_events):
    # Every field comes from the walk: a walk that records no page events,
    # as converge's do, still gives the trace the pages it visited.
    image, start, _ = topology_image()
    opts = HarvestOptions(track_set=BUILTIN_SETS["tc"])
    walk = harvest_module._walk_from(image, start, opts, None, page_events)
    trace = harvest_module.HarvestTrace(start, walk)
    assert trace.start == start
    assert trace.events is walk.events
    assert (trace.leak_cost, trace.analysis_cost, trace.skipped_targets) == (
        walk.leak_cost, walk.analysis_cost, walk.skipped
    )
    assert trace.pages_found == len(walk.nodes) == 3
    assert trace.report()["gadgets"] == walk.windows() == len(trace.gadgets)
    assert trace.gadgets == walk.gadgets()


def test_harvest_type_leak_clocks():
    image, start, _ = topology_image()
    trace = harvest(image, start)
    clocks = trace.type_clocks()
    assert GadgetType.LR in clocks
    assert GadgetType.MR in clocks
    # A type cannot be known before its page's leak tick is paid.
    assert min(clocks.values()) > 100


def test_unmapped_and_nonexec_targets_skipped_once():
    base = 0x400000
    target_rw = 0x600000
    hole = 0x900000
    code = asm(
        call_to(base, hole),
        call_to(base + 5, hole),  # same unmapped target twice
        call_to(base + 10, target_rw),
        ret(),
    )
    builder = ImageBuilder()
    builder.put(base, code, fill=0x06)
    builder.put(target_rw, b"\x00" * 8, perms=RW, tag=SegmentTag.DATA)
    image = builder.build()

    trace = harvest(image, base)
    assert trace.pages_found == 1
    assert trace.skipped_targets == 2  # hole once, rw target once


def test_invalid_start_pointers():
    image = code_image(asm(ret()))
    with pytest.raises(StartPointerInvalid):
        harvest(image, 0x95000000)
    builder = ImageBuilder()
    builder.put(0x400000, asm(ret()))
    builder.put(0x500000, b"\x00" * 8, perms=RW, tag=SegmentTag.STACK)
    image2 = builder.build()
    with pytest.raises(StartPointerInvalid):
        harvest(image2, 0x500000)


def test_start_on_poison_still_leaks_the_page():
    image = code_image(asm(pop_r(Reg.RBX), ret()))
    trace = harvest(image, 0x400000 + 0x200)
    assert trace.pages_found == 1
    assert trace.analysis_cost == 0


def test_stop_on_convergence_needs_a_track_set():
    with pytest.raises(ValueError, match="stop_on_convergence"):
        HarvestOptions(stop_on_convergence=True)


def test_track_set_and_stop_on_convergence():
    base_a, base_b = 0x400000, 0x402000
    code_a = asm(pop_r(Reg.RBX), ret(), call_to(base_a + 3, base_b), ret())
    code_b = asm(syscall(), ret())
    image = multi_page_image({base_a: code_a, base_b: code_b})

    spec = GadgetSetSpec("only-lr", (GadgetType.LR,))
    opts = HarvestOptions(track_set=spec, stop_on_convergence=True)
    trace = harvest(image, base_a, opts)
    assert trace.converged
    assert trace.events[-1].kind is EventKind.CONVERGED
    assert trace.events[-1].payload["set"] == "only-lr"
    # convergence on page A means page B is never leaked
    assert trace.pages_found == 1
    leak_names = {
        e.payload["type"]
        for e in trace.events
        if e.kind is EventKind.TYPE_LEAKED
    }
    assert leak_names == {"LR"}
    assert trace.convergence_clock() == trace.events[-1].clock


def test_unconverged_trace_has_no_convergence_clock():
    image = code_image(asm(pop_r(Reg.RBX), ret()))
    spec = GadgetSetSpec("needs-sys", (GadgetType.SYS,))
    trace = harvest(image, 0x400000, HarvestOptions(track_set=spec))
    assert not trace.converged
    assert trace.convergence_clock() is None


def test_conditional_branch_following_toggle():
    base = 0x400000
    far = base + 0x1000
    code = asm(jcc_rel32(0x4, far - (base + 6)), ret())
    builder = ImageBuilder()
    builder.put(base, code, fill=0x06)
    builder.put(far, asm(pop_r(Reg.RCX), ret()), fill=0x06)
    image = builder.build()

    followed = harvest(image, base)
    assert far in followed.pages()
    ignored = harvest(
        image, base, HarvestOptions(follow_cond_branches=False)
    )
    assert far not in ignored.pages()


def test_harvest_matches_ground_truth_closure_per_page_corpus():
    params = GenParams(
        n_functions=7,
        mean_fn_len=8,
        connectivity=0.3,
        ensure_strongly_connected=False,
        max_functions_per_page=1,
    )
    program = generate(params, seed=21)
    image, truth = materialize(program)
    opts = HarvestOptions(max_gadget_len=10)
    for entry in truth.function_entries:
        trace = harvest(image, entry, opts)
        expected = truth.reachable_pages(page_base(entry))
        assert set(trace.pages()) == expected


def test_harvest_all_starts_is_sorted_and_complete():
    image, start, _ = topology_image()
    opts = HarvestOptions()
    traces = harvest_all_starts(image, opts)
    starts = page_start_pointers(image, opts)
    assert sorted(traces) == list(traces)
    assert set(traces) == set(starts.values())
    for s, trace in traces.items():
        assert trace.start == s


# One function per page on 1, 24 and 60 pages, where every start reaches a
# page with the same entries; three functions per page without strong
# connectivity, where starts reach the same page through different entries
# and so mine several streams of it; and /usr/bin/ls, whose overlapping
# real code paths also reach pages through different batch histories.
SHARED_CORPORA = {
    "1page": GenParams(n_functions=1, max_functions_per_page=1),
    "24pages": GenParams(n_functions=24, max_functions_per_page=1),
    "60pages": GenParams(n_functions=60, max_functions_per_page=1),
    "8pages-sparse": GenParams(
        n_functions=24,
        connectivity=0.1,
        ensure_strongly_connected=False,
        max_functions_per_page=3,
    ),
}


@pytest.fixture(scope="module", params=[*sorted(SHARED_CORPORA), "ls"])
def shared_corpus(request):
    if request.param == "ls":
        path = Path("/usr/bin/ls")
        if not path.exists():
            pytest.skip("/usr/bin/ls is not present")
        return load_image(path)
    image, _ = materialize(generate(SHARED_CORPORA[request.param], seed=7))
    return image


def test_shared_analysis_matches_fresh_runs(shared_corpus):
    # Each fresh run builds its own analysis, so it sees none of the
    # decoding and mining the shared runs reuse across starts.
    image = shared_corpus
    tc = BUILTIN_SETS["tc"]
    opts = HarvestOptions(max_gadget_len=10, track_set=tc)
    starts = sorted(set(page_start_pointers(image, opts).values()))

    fresh = {s: converge(image, s, opts) for s in starts}
    assert dict(upper_bound(image, opts).per_start) == fresh
    # In reverse order, one analysis reaches pages through other batch
    # histories than upper_bound's ascending starts do.
    analysis = ImageAnalysis(image, opts)
    for s in reversed(starts):
        assert converge(image, s, opts, analysis) == fresh[s]

    traces = harvest_all_starts(image, opts)
    assert list(traces) == starts
    # Full closures from every start cost seconds at 60 pages; every
    # fourth start still checks runs made with a well-filled analysis.
    for s in starts[::4] if len(starts) > 24 else starts:
        assert_same_trace(traces[s], harvest(image, s, opts))


def graph_edges(analysis):
    """(node, batch, child) for every edge of an analysis's node map; a
    batch that adds nothing leads back to its node."""
    return [
        (node, batch, node if edge is None else edge.child)
        for node in analysis._nodes.values()
        for batch, edge in node.children.items()
    ]


def upper_bound_on(analysis, monkeypatch):
    """Run upper_bound with `analysis` in place of the one it builds."""
    monkeypatch.setattr(
        rerand_module, "ImageAnalysis", lambda image, opts: analysis
    )
    return upper_bound(analysis.image, HarvestOptions(max_gadget_len=10))


def test_tree_states_are_never_changed(shared_corpus, monkeypatch):
    # Named for the per-page trees the node map replaced.
    analysis = ImageAnalysis(shared_corpus, HarvestOptions(max_gadget_len=10))
    first = upper_bound_on(analysis, monkeypatch)

    def states():
        return {
            key: (id(node), dict(node.disasm.insns), bytes(node.disasm._claimed))
            for key, node in analysis._nodes.items()
        }

    before = states()
    assert upper_bound_on(analysis, monkeypatch) == first
    assert states() == before
    # A node is keyed by its page and its stream, and a child is its
    # node's state plus one batch, so building it left the node as it was.
    for (base, addresses), node in analysis._nodes.items():
        assert node.disasm.page.base == base
        assert node.disasm.addresses() == addresses
        # No node refers to itself, so reference counting frees the map.
        assert all(
            edge is None or edge.child is not node
            for edge in node.children.values()
        )
    for node, batch, child in graph_edges(analysis):
        assert child.disasm.page is node.disasm.page
        assert node.disasm.insns.items() <= child.disasm.insns.items()
        assert child.disasm.insns == node.disasm.extended(batch).insns


def test_edges_hold_what_their_batch_adds(shared_corpus, monkeypatch):
    # A visit replays an edge in place of the node it leads to: the
    # instructions its batch added and the targets the child has that its
    # node lacks, in address order.
    analysis = ImageAnalysis(shared_corpus, HarvestOptions(max_gadget_len=10))
    upper_bound_on(analysis, monkeypatch)
    edges = 0
    for node in analysis._nodes.values():
        known = set(node.targets)
        for edge in node.children.values():
            if edge is None:
                continue
            edges += 1
            child = edge.child
            assert edge.added == len(child.disasm.insns) - len(node.disasm.insns)
            assert edge.added > 0
            assert edge.targets == tuple(
                t for t in child.targets if t not in known
            )
            assert list(child.targets) == sorted(child.targets)
    assert edges


def count_mining(monkeypatch):
    """The sorted stream addresses that harvest passes to find_gadgets and
    to stream_types from now on, by function name."""
    mined = {"find_gadgets": [], "stream_types": []}
    for name, streams in mined.items():

        def counting(insns, *rest, mine=getattr(harvest_module, name),
                     streams=streams):
            streams.append(tuple(sorted(insn.addr for insn in insns)))
            return mine(insns, *rest)

        monkeypatch.setattr(harvest_module, name, counting)
    return mined


def test_analysis_mines_gadgets_when_read(shared_corpus):
    # Convergence runs read each node's types alone; a harvest that shares
    # their analysis reads gadgets, which are mined then, and gets the
    # trace a fresh harvest gets. Each node's types and window count are
    # those of its stream's gadgets.
    image = shared_corpus
    opts = HarvestOptions(max_gadget_len=10)
    analysis = ImageAnalysis(image, opts)
    starts = sorted(page_start_pointers(image, opts, analysis).values())
    for s in starts:
        converge(image, s, opts, analysis)
    # Roots hold the empty stream's products, never None.
    nodes = [node for (_, addresses), node in analysis._nodes.items()
             if addresses]
    assert nodes
    for s in starts[:3]:
        assert_same_trace(
            harvest(image, s, opts, analysis), harvest(image, s, opts)
        )
    for node in nodes:
        gadgets = find_gadgets(node.disasm.insns.values(), 10)
        assert leaked_types(gadgets) == node.types
        assert len(gadgets) == node.windows


def test_add_entries_runs_once_per_tree_node(shared_corpus, monkeypatch):
    # add_entries runs once per edge of the node map, and each kind of
    # mining at most once per distinct non-empty stream (named for the
    # trees the map replaced).
    calls = []
    add_entries = PageDisasm.add_entries

    def counting_add_entries(self, entries):
        calls.append(self)
        return add_entries(self, entries)

    monkeypatch.setattr(PageDisasm, "add_entries", counting_add_entries)
    mined = count_mining(monkeypatch)
    opts = HarvestOptions(max_gadget_len=10)
    analysis = ImageAnalysis(shared_corpus, opts)

    def check_counts():
        assert len(calls) == len(graph_edges(analysis))
        streams = {key[1] for key in analysis._nodes if key[1]}
        for name, mined_streams in mined.items():
            assert len(set(mined_streams)) == len(mined_streams), name
            assert set(mined_streams) <= streams, name
        return streams

    upper_bound_on(analysis, monkeypatch)
    # Convergence runs read every stream's types and no gadget.
    assert len(mined["stream_types"]) == len(check_counts())
    assert mined["find_gadgets"] == []
    # Harvests from every start to closure, in reverse order, add edges
    # only for the batches upper_bound did not take.
    starts = page_start_pointers(shared_corpus, opts, analysis)
    for start in sorted(starts.values(), reverse=True):
        harvest(shared_corpus, start, opts, analysis)
    check_counts()


def test_batch_histories_with_one_stream_share_a_node():
    # Two paths that never meet: both orders of the batches end with both
    # streams on the page, and so at one node.
    first = asm(pop_r(Reg.RAX), ret())
    image = code_image(first + asm(pop_r(Reg.RBX), ret()))
    base = image.executable_pages()[0].base
    a, b = base, base + len(first)
    analysis = ImageAnalysis(image, HarvestOptions())

    def advance(node, entries):
        edge = analysis.advance(base, node, tuple(sorted(entries)))
        return node if edge is None else edge.child

    root = analysis.root(base)
    assert analysis.root(base) is root
    ab = advance(advance(root, [a]), [b])
    ba = advance(advance(root, [b]), [a])
    assert ab is ba
    assert advance(root, [b, a]) is ab
    assert ab.disasm.addresses() == (a, a + 1, b, b + 1)
    # A batch that adds nothing leads back to its own node.
    assert advance(ab, [a]) is ab
    assert advance(root, [base + PAGE_SIZE - 1]) is root
    # The empty stream, a, b and both.
    assert len(analysis._nodes) == 4


def test_roots_and_decodes_live_in_the_node_map(shared_corpus, monkeypatch):
    # One map of traversal states: a page's root is its empty stream's
    # node and holds the page's decode results, and a target entry is its
    # address and its page base, or None off executable pages.
    analysis = ImageAnalysis(shared_corpus, HarvestOptions(max_gadget_len=10))
    upper_bound_on(analysis, monkeypatch)
    assert vars(analysis).keys() == {"image", "opts", "_nodes", "target_index"}
    pages = shared_corpus.executable_pages()
    for page in pages:
        root = analysis._nodes[page.base, ()]
        assert analysis.root(page.base) is root
        assert root.disasm.insns == {}
        assert analysis.decodes(page) is root.disasm.decodes
        assert root.disasm.decodes.page is page
    assert {base for base, addresses in analysis._nodes if not addresses} == {
        page.base for page in pages
    }
    assert analysis.target_index
    for addr, entry in analysis.target_index.items():
        executable = shared_corpus.is_executable(addr)
        assert entry == (addr, page_base(addr) if executable else None)


def test_harvest_refuses_mismatched_analysis():
    image, start, _ = topology_image()
    other, _, _ = topology_image()
    opts = HarvestOptions(max_gadget_len=10)
    analysis = ImageAnalysis(image, opts)
    for bad_image, bad_opts in (
        (other, opts),
        (image, HarvestOptions(max_gadget_len=5)),
        (image, HarvestOptions(max_gadget_len=10, enable_heuristic_types=True)),
        (image, HarvestOptions(max_gadget_len=10, follow_cond_branches=False)),
    ):
        with pytest.raises(ValueError):
            harvest(bad_image, start, bad_opts, analysis)
        with pytest.raises(ValueError):
            page_start_pointers(bad_image, bad_opts, analysis)
    # The scan reads only the analysis's image, not its mining options.
    assert collect_branch_targets(analysis) == collect_branch_targets(
        ImageAnalysis(image)
    )
    # Tracking and stopping are not mining options: one analysis serves them.
    tracked = HarvestOptions(
        max_gadget_len=10,
        track_set=BUILTIN_SETS["tc"],
        stop_on_convergence=True,
    )
    assert_same_trace(
        harvest(image, start, tracked, analysis),
        harvest(image, start, tracked),
    )


def test_converge_checks_like_harvest():
    # converge runs harvest's loop without building a trace; it refuses the
    # same starts and analyses.
    image, start, _ = topology_image()
    opts = HarvestOptions(max_gadget_len=10)
    analysis = ImageAnalysis(image, opts)
    with pytest.raises(StartPointerInvalid):
        converge(image, 0x11FA000, opts, analysis)
    with pytest.raises(ValueError):
        converge(image, start, HarvestOptions(), analysis)
    other, _, _ = topology_image()
    with pytest.raises(ValueError):
        converge(other, start, opts, analysis)


def test_page_start_pointer_strategies_deterministic():
    image, _, _ = topology_image()
    lowest = page_start_pointers(image, HarvestOptions())
    assert lowest == page_start_pointers(image, HarvestOptions())
    assert set(lowest) == {p.base for p in image.executable_pages()}
    for base, start in lowest.items():
        assert page_base(start) == base

    seeded = page_start_pointers(image, HarvestOptions(start_seed=5))
    again = page_start_pointers(image, HarvestOptions(start_seed=5))
    assert seeded == again


def test_collect_branch_targets_groups_by_page():
    image, start, _ = topology_image()
    grouped = collect_branch_targets(ImageAnalysis(image))
    all_targets = set().union(*grouped.values()) if grouped else set()
    assert 0x11FB010 in all_targets
    assert 0x11FC020 in all_targets
    for target_page, targets in grouped.items():
        assert all(page_base(t) == target_page for t in targets)


_REL = st.integers(-2 * PAGE_SIZE, 3 * PAGE_SIZE)
_SCAN_CHUNKS = st.one_of(
    st.binary(min_size=1, max_size=12),
    st.builds(jmp_rel32, _REL),
    st.builds(call_rel32, _REL),
    st.builds(jcc_rel32, st.integers(0, 15), _REL),
    st.sampled_from([nop(), ret(), syscall(), pop_r(Reg.RBX)]),
)


@given(
    pages=st.lists(
        st.tuples(st.lists(_SCAN_CHUNKS, min_size=1, max_size=40),
                  st.integers(0, PAGE_SIZE)),
        min_size=1, max_size=3,
    ),
    fill=st.sampled_from([0x06, 0x00, 0xCC, 0x90, 0x0F]),
)
@settings(max_examples=40, deadline=None)
def test_collect_branch_targets_matches_byte_by_byte_scan(pages, fill):
    # Each page's code sits at a drawn offset, cut at the page end, in a
    # poison fill that may or may not decode.
    contents = {}
    for i, (chunks, offset) in enumerate(pages):
        code = asm(*chunks)[: PAGE_SIZE - offset]
        contents[0x400000 + i * PAGE_SIZE] = bytes([fill]) * offset + code
    image = multi_page_image(contents, fill=fill)
    assert collect_branch_targets(ImageAnalysis(image)) == (
        reference_branch_targets(image)
    )


def test_mine_image_scans_branch_targets_once(monkeypatch):
    calls = []
    scan = harvest_module.collect_branch_targets

    def counting_scan(analysis):
        calls.append(analysis.image)
        return scan(analysis)

    monkeypatch.setattr(harvest_module, "collect_branch_targets", counting_scan)
    image, _, _ = topology_image()
    mine_image(image)
    assert calls == [image]


def test_offline_mining_mines_only_what_it_returns(monkeypatch):
    # offline_disassemble reads no node's gadgets or types, and mine_image
    # reads the gadgets of each visited page's stream and no types.
    mined = count_mining(monkeypatch)
    image, _ = materialize(generate(
        GenParams(n_functions=10, max_functions_per_page=3), 2
    ))
    streams = offline_disassemble(image)
    assert mined == {"find_gadgets": [], "stream_types": []}
    mine_image(image)
    assert mined["stream_types"] == []
    assert sorted(mined["find_gadgets"]) == sorted(
        tuple(insn.addr for insn in stream) for stream in streams.values()
    )


# Seeded corpora of one function per page, three per page and packed.
POPULATION_LAYOUTS = {"1-per-page": 1, "3-per-page": 3, "packed": None}


@pytest.mark.parametrize("seed", range(1, 6))
@pytest.mark.parametrize("layout", list(POPULATION_LAYOUTS))
def test_image_population_equals_reference_stats(seed, layout):
    # compare's entry is read off the labelling pass's tally; the oracle
    # reads it off the Gadget records mine_image builds.
    image, _ = materialize(generate(GenParams(
        n_functions=12, max_functions_per_page=POPULATION_LAYOUTS[layout]
    ), seed))
    for heuristic in (False, True):
        for max_len in (1, 3, 10):
            opts = HarvestOptions(
                max_gadget_len=max_len, enable_heuristic_types=heuristic
            )
            _, labellings = image_gadget_report(image, opts, rows=False)
            assert population_stats(labellings) == (
                reference_population_stats(mine_image(image, opts))
            )


@pytest.mark.parametrize("heuristic", [False, True],
                         ids=["default-types", "heuristic-types"])
def test_image_population_equals_reference_stats_on_ls(heuristic):
    path = Path("/usr/bin/ls")
    if not path.exists():
        pytest.skip("/usr/bin/ls is not present")
    image = load_image(path)
    for max_len in (3, 10):
        opts = HarvestOptions(
            max_gadget_len=max_len, enable_heuristic_types=heuristic
        )
        _, labellings = image_gadget_report(image, opts, rows=False)
        stats = population_stats(labellings)
        assert stats == reference_population_stats(mine_image(image, opts))
        assert stats["gadgets"] > 0


def reference_gadget_report(image, opts):
    """The rows, per-type counts and window count that `image_gadget_report`
    and its tally give, read off the Gadget records `mine_image` builds."""
    gadgets = mine_image(image, opts)
    return reference_report_rows(gadgets), type_counts(gadgets), len(gadgets)


def gadget_report(image, opts, rows=True):
    """`image_gadget_report`'s rows, with its tally read as per-type counts
    and a window count."""
    out, labellings = image_gadget_report(image, opts, rows)
    return out, labelling_counts(labellings), sum(labellings.values())


@pytest.mark.parametrize("seed", range(1, 6))
@pytest.mark.parametrize("layout", list(POPULATION_LAYOUTS))
def test_image_gadget_report_equals_reference_rows(seed, layout):
    image, _ = materialize(generate(GenParams(
        n_functions=12, max_functions_per_page=POPULATION_LAYOUTS[layout]
    ), seed))
    for heuristic in (False, True):
        for max_len in (1, 3, 10):
            opts = HarvestOptions(
                max_gadget_len=max_len, enable_heuristic_types=heuristic
            )
            expected = reference_gadget_report(image, opts)
            assert gadget_report(image, opts) == expected
            # Without rows it still counts every window.
            assert gadget_report(image, opts, rows=False) == (
                [], *expected[1:]
            )


@pytest.mark.parametrize("heuristic", [False, True],
                         ids=["default-types", "heuristic-types"])
def test_image_gadget_report_equals_reference_rows_on_ls(heuristic):
    path = Path("/usr/bin/ls")
    if not path.exists():
        pytest.skip("/usr/bin/ls is not present")
    image = load_image(path)
    for max_len in (3, 10):
        opts = HarvestOptions(
            max_gadget_len=max_len, enable_heuristic_types=heuristic
        )
        report = gadget_report(image, opts)
        assert report == reference_gadget_report(image, opts)
        assert report[2] > 0


def decoded_addrs(monkeypatch, run):
    """Addresses passed to decode while run() executes, in call order."""
    addrs = []
    decode = disasm_module.decode

    def counting_decode(data, addr, offset=0):
        addrs.append(addr)
        return decode(data, addr, offset)

    # `from ropscope.disasm import decode` copies the binding, so replace
    # it in every module that holds one.
    for name, module in list(sys.modules.items()):
        if name.startswith("ropscope") and vars(module).get("decode") is decode:
            monkeypatch.setattr(module, "decode", counting_decode)
    run()
    monkeypatch.undo()
    return addrs


def handled_encodings(monkeypatch, run):
    """The encodings passed to an opcode handler other than the direct
    branches' while run() executes, each cut to its length shape."""
    encodings = []
    opcode_map = {}
    for op, (handler, arg, shape) in disasm_module._OPCODE_MAP.items():
        if handler is not disasm_module._rel:
            def counting(data, pos, start, *rest, handler=handler):
                encodings.append(data[start:start + shape_length(data, start)])
                return handler(data, pos, start, *rest)
            handler = counting
        opcode_map[op] = (handler, arg, shape)
    monkeypatch.setattr(disasm_module, "_OPCODE_MAP", opcode_map)
    run()
    monkeypatch.undo()
    return encodings


@pytest.mark.parametrize("corpus", ["24pages", "8pages-sparse"])
def test_each_offset_is_decoded_once_per_analysis(corpus, monkeypatch):
    # The linear branch scan, the start sweep and every traversal share one
    # analysis, so none decodes an offset another already did.
    image, _ = materialize(generate(SHARED_CORPORA[corpus], seed=7))
    opts = HarvestOptions(max_gadget_len=10)
    mined = decoded_addrs(monkeypatch, lambda: mine_image(image, opts))
    bounded = decoded_addrs(monkeypatch, lambda: upper_bound(image, opts))
    for addrs in (mined, bounded):
        assert addrs
        assert len(addrs) == len(set(addrs))
    # The decoder's memo outlives each call (cli.main empties it when a
    # command ends), so an encoding that is not a direct branch reaches
    # its handler once however many offsets hold it, and a second run over
    # the same image runs no handler.
    for run, addrs in (
        (lambda: mine_image(image, opts), mined),
        (lambda: upper_bound(image, opts), bounded),
    ):
        disasm_module._ENCODINGS.clear()
        encodings = handled_encodings(monkeypatch, run)
        assert encodings
        assert len(encodings) == len(set(encodings)) < len(addrs)
        assert handled_encodings(monkeypatch, run) == []


@pytest.fixture(scope="module")
def golden_layouts(tmp_path_factory):
    """Each golden corpus's directory, generated with all four scheme
    layouts, by name."""
    root = tmp_path_factory.mktemp("layouts")
    dirs = {}
    for name in GOLDEN_CORPORA:
        dirs[name] = root / name
        argv = ["synth", "generate", "--out-dir", str(dirs[name]),
                *all_layouts_options(name)]
        with redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    return dirs


def layout_paths(corpus_dir) -> list[Path]:
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    return [corpus_dir / e["snapshot_path"] for e in manifest["entries"]]


def test_each_encoding_is_handled_once_per_compare(
    golden_layouts, monkeypatch
):
    # The decoder's memo outlives each layout's mining, so an encoding that
    # is not a direct branch reaches its handler once per command, however
    # many layouts and offsets hold it. cli.main empties the memo as the
    # command ends, so a second compare in the process handles the same
    # encodings again, as a process of its own would.
    corpus = golden_layouts["packed"]
    argv = ["compare", "--manifest", str(corpus / "manifest.json"),
            "--max-len", "10"]

    def compare():
        with redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0

    addrs = decoded_addrs(monkeypatch, compare)
    assert not disasm_module._ENCODINGS
    encodings = handled_encodings(monkeypatch, compare)
    assert encodings
    assert len(encodings) == len(set(encodings)) < len(addrs)
    assert handled_encodings(monkeypatch, compare) == encodings
    # Mined one after another by plain mine_image calls, the layouts
    # handle exactly what compare handled.
    opts = HarvestOptions(max_gadget_len=10)
    paths = layout_paths(corpus)
    assert len(paths) == 5

    def mine_layouts():
        for path in paths:
            mine_image(load_snapshot(path), opts)

    assert not disasm_module._ENCODINGS
    assert handled_encodings(monkeypatch, mine_layouts) == encodings


def no_accepted_target_image():
    """A page of each start case: one with no branch target, one whose
    only target lands in filler, one of filler alone, and one with an
    accepted target beside a target in filler. The offset sweep picks the
    first three pages' starts."""
    a, b, c, d = 0x400000, 0x401000, 0x402000, 0x403000
    pop_ret = asm(pop_r(Reg.RBX), ret())
    return multi_page_image({
        a: asm(call_to(a, b + 0x20), call_to(a + 5, d),
               call_to(a + 10, d + 0x10), ret()),
        b: bytes([0x06]) * 0x100 + pop_ret,
        c: bytes([0x06]),
        d: pop_ret,
    })


@pytest.mark.parametrize("start_seed", [None, 3])
def test_closure_seeds_are_the_targets_and_the_chosen_starts(
    golden_layouts, start_seed
):
    # The closure seeds every branch target and the start pointers of the
    # one start rule, which stops at a page's lowest accepted target when
    # unseeded; the oracle sweeps every target before it chooses.
    opts = HarvestOptions(start_seed=start_seed)
    images = [no_accepted_target_image()] + [
        load_snapshot(path)
        for corpus in golden_layouts.values()
        for path in layout_paths(corpus)
    ]
    assert len(images) == 1 + 5 * len(GOLDEN_CORPORA)
    for image in images:
        assert page_start_pointers(image, opts) == (
            reference_start_pointers(image, opts)
        )
        assert offline_disassemble(image, opts) == (
            reference_offline_disassemble(image, opts)
        )
    # The crafted image's starts: the first accepted offset of the page
    # with no target and of the page whose target is filler, the base of
    # the page of filler alone, and the accepted target of the last page.
    image = images[0]
    assert page_start_pointers(image, opts) == {
        0x400000: 0x400000, 0x401000: 0x401100, 0x402000: 0x402000,
        0x403000: 0x403000,
    }


def test_offline_mining_equals_stream_mining_on_linear_code():
    code = asm(pop_r(Reg.RBX), ret(), mov_rr(Reg.RDI, Reg.RAX), ret())
    image = code_image(code)
    mined = mine_image(image)
    streams = offline_disassemble(image)
    direct = [
        g for insns in streams.values() for g in find_gadgets(insns)
    ]
    assert gadget_multiset(mined) == gadget_multiset(direct)
    assert gadget_multiset(mine_image(image)) == gadget_multiset(mined)


@pytest.mark.parametrize("follow_cond", [True, False])
@pytest.mark.parametrize("kind", [None, *SchemeKind])
def test_offline_disassemble_matches_single_entry_reference(kind, follow_cond):
    opts = HarvestOptions(follow_cond_branches=follow_cond, max_gadget_len=8)
    for seed, per_page in ((1, 1), (2, 3), (3, None)):
        program = generate(
            GenParams(n_functions=10, max_functions_per_page=per_page), seed
        )
        if kind is None:
            image, _ = materialize(program)
        else:
            image, _ = apply_scheme(
                program, RandomizationScheme(kind, seed=seed)
            )
        streams = offline_disassemble(image, opts)
        assert streams == reference_offline_disassemble(image, opts)
        assert gadget_multiset(mine_image(image, opts)) == gadget_multiset(
            g
            for base in sorted(streams)
            for g in find_gadgets(
                streams[base], opts.max_gadget_len, opts.enable_heuristic_types
            )
        )


@pytest.mark.parametrize("follow_cond", [True, False])
def test_offline_disassemble_matches_reference_on_ls(follow_cond):
    path = Path("/usr/bin/ls")
    if not path.exists():
        pytest.skip("/usr/bin/ls is not present")
    image = load_image(path)
    opts = HarvestOptions(follow_cond_branches=follow_cond)
    assert offline_disassemble(image, opts) == reference_offline_disassemble(
        image, opts
    )


# The traversal against ReferenceTraversal, a set-based loop with no shared
# analysis: dense and sparse seeded corpora and /usr/bin/ls, each option
# that changes which pages a run reaches or when it stops, and a seeded
# start choice.
ORACLE_CORPORA = {
    "24pages": GenParams(n_functions=24, max_functions_per_page=1),
    "dense": GenParams(
        n_functions=30, connectivity=0.6, max_functions_per_page=2
    ),
    "sparse": SHARED_CORPORA["8pages-sparse"],
}
ORACLE_OPTIONS = {
    "default": HarvestOptions(max_gadget_len=10),
    "no-cond": HarvestOptions(max_gadget_len=10, follow_cond_branches=False),
    "stop": HarvestOptions(
        max_gadget_len=10,
        track_set=BUILTIN_SETS["priority"],
        stop_on_convergence=True,
    ),
    "seeded": HarvestOptions(max_gadget_len=6, start_seed=11),
}


def oracle_image(corpus):
    if corpus == "ls":
        if not Path("/usr/bin/ls").exists():
            pytest.skip("/usr/bin/ls is not present")
        return load_image("/usr/bin/ls")
    image, _ = materialize(generate(ORACLE_CORPORA[corpus], seed=7))
    return image


def assert_matches_reference(image, opts):
    """From every start, one shared analysis gives the reference's trace,
    gadgets and convergence records."""
    analysis = ImageAnalysis(image, opts)
    starts = sorted(page_start_pointers(image, opts, analysis).values())
    assert starts
    for start in starts:
        trace = harvest(image, start, opts, analysis)
        expected = reference_harvest(image, start, opts)
        assert trace.to_jsonl() == expected.to_jsonl()
        assert trace.gadgets == expected.gadgets
        for name in ("tc", "movtc"):
            spec = BUILTIN_SETS[name]
            tracked = replace(opts, track_set=spec)
            assert converge(image, start, tracked, analysis) == (
                reference_converge(image, start, spec, opts)
            )


@pytest.mark.parametrize("options", sorted(ORACLE_OPTIONS))
@pytest.mark.parametrize("corpus", [*sorted(ORACLE_CORPORA), "ls"])
def test_traversal_matches_set_based_reference(corpus, options):
    assert_matches_reference(oracle_image(corpus), ORACLE_OPTIONS[options])


@given(
    n_functions=st.integers(1, 14),
    connectivity=st.sampled_from([0.0, 0.1, 0.3, 0.7]),
    per_page=st.sampled_from([None, 1, 2, 4]),
    strongly_connected=st.booleans(),
    seed=st.integers(0, 2**16),
    options=st.sampled_from(sorted(ORACLE_OPTIONS)),
)
@settings(max_examples=25, deadline=None)
def test_traversal_matches_reference_on_drawn_params(
    n_functions, connectivity, per_page, strongly_connected, seed, options
):
    params = GenParams(
        n_functions=n_functions,
        mean_fn_len=8,
        connectivity=connectivity,
        ensure_strongly_connected=strongly_connected,
        max_functions_per_page=per_page,
    )
    image, _ = materialize(generate(params, seed))
    assert_matches_reference(image, ORACLE_OPTIONS[options])


@pytest.mark.parametrize("stop", [False, True])
@pytest.mark.parametrize("corpus", [*sorted(ORACLE_CORPORA), "ls"])
def test_own_analysis_counts_and_mines_like_a_full_one(corpus, stop):
    # A harvest given no analysis mines types alone, counts its gadgets
    # from its nodes and mines them when read; a full shared analysis
    # mines every gadget up front. Both give the same trace.
    image = oracle_image(corpus)
    for opts in (
        HarvestOptions(
            max_gadget_len=10, track_set=BUILTIN_SETS["priority"],
            stop_on_convergence=stop,
        ),
        HarvestOptions(
            max_gadget_len=8, enable_heuristic_types=True,
            track_set=BUILTIN_SETS["tc"], stop_on_convergence=stop,
        ),
    ):
        full = ImageAnalysis(image, opts)
        starts = sorted(page_start_pointers(image, opts, full).values())
        for start in starts[::2]:
            own = harvest(image, start, opts)
            shared = harvest(image, start, opts, full)
            assert own.report() == shared.report()
            assert own.report()["gadgets"] == len(own.gadgets)
            assert shared.report()["gadgets"] == len(shared.gadgets)
            assert own.to_jsonl() == shared.to_jsonl()
            assert own.gadgets == shared.gadgets


def test_harvest_command_mines_no_gadgets(tmp_path, monkeypatch):
    # The command prints a gadget count and clocks, which each node's types
    # and window count give: find_gadgets never runs.
    image, truth = materialize(generate(SHARED_CORPORA["24pages"], seed=7))
    path = tmp_path / "image.rsnp"
    save_snapshot(image, path)
    start = truth.function_entries[0]
    mined = []

    def counting_find_gadgets(stream, *rest):
        mined.append(stream)
        return find_gadgets(stream, *rest)

    monkeypatch.setattr(harvest_module, "find_gadgets", counting_find_gadgets)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main([
            "harvest", str(path), "--start", hex(start), "--max-len", "10",
            "--set", "tc", "--trace", str(tmp_path / "trace.jsonl"),
        ])
    assert code == 0
    report = json.loads(buf.getvalue())
    assert mined == []
    trace = harvest(image, start, HarvestOptions(
        max_gadget_len=10, track_set=BUILTIN_SETS["tc"]
    ))
    assert report == json.loads(json.dumps(trace.report()))
    assert mined == []
    assert report["gadgets"] == len(trace.gadgets) > 0
    assert mined
