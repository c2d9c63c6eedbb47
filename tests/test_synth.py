"""Synthetic program generation, layout schemes, and ground truth."""

from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_layout
from ropscope import synth
from ropscope.disasm import decode
from ropscope.gadgets import Footprint, GadgetType, leaked_types
from ropscope.harvest import (
    HarvestOptions,
    ImageAnalysis,
    collect_branch_targets,
    mine_image,
)
from ropscope.snapshot import PAGE_SIZE, page_base
from ropscope.synth import (
    PLANTABLE_TYPES,
    GenParams,
    RandomizationScheme,
    SchemeKind,
    apply_scheme,
    default_gadget_mix,
    erase_plants,
    generate,
    materialize,
)

OPTS = HarvestOptions(max_gadget_len=10)

PARAMS = GenParams(n_functions=10, mean_fn_len=9, connectivity=0.3)


def min_fp_counts(gadgets) -> Counter:
    counts: Counter = Counter()
    for g in gadgets:
        for gtype, fp in g.footprints.items():
            if fp is Footprint.MIN_FP:
                counts[gtype] += 1
    return counts


@pytest.fixture(scope="module")
def program():
    return generate(PARAMS, seed=42)


@pytest.fixture(scope="module")
def baseline(program):
    return materialize(program)


def test_generation_is_deterministic():
    assert generate(PARAMS, seed=42) == generate(PARAMS, seed=42)
    assert generate(PARAMS, seed=42) != generate(PARAMS, seed=43)


def test_unplantable_mix_rejected():
    with pytest.raises(ValueError):
        generate(GenParams(gadget_mix={GadgetType.TM: 1}), seed=0)
    assert len(PLANTABLE_TYPES) == 22


def test_every_plant_is_recoverable(baseline):
    image, truth = baseline
    gadgets = mine_image(image, OPTS)
    by_addr: dict[int, list] = {}
    for g in gadgets:
        by_addr.setdefault(g.addr, []).append(g)
    for plant in truth.planted:
        matches = [
            g
            for g in by_addr.get(plant.addr, [])
            if g.footprints.get(plant.gtype) is Footprint.MIN_FP
        ]
        assert matches, f"{plant.gtype.value} plant at {plant.addr:#x} lost"


def test_plants_never_straddle_pages(baseline):
    image, truth = baseline
    for plant in truth.planted:
        addr = plant.addr
        for _ in range(plant.n_items):
            raw = image.read_bytes(addr, min(15, 16))
            insn = decode(raw, addr)
            assert insn is not None
            assert page_base(addr) == page_base(plant.addr)
            addr = insn.end


def test_ground_truth_structure(baseline, program):
    image, truth = baseline
    assert len(truth.function_entries) == PARAMS.n_functions
    assert len(truth.function_pages) == PARAMS.n_functions
    mapped = {p.base for p in image.executable_pages()}
    for entry, pages in zip(truth.function_entries, truth.function_pages):
        assert page_base(entry) in pages
        assert pages <= mapped
    for page, targets in truth.page_edges.items():
        assert page in mapped
        assert targets <= mapped
    assert truth.call_graph == program.call_graph
    assert truth.multi_instruction_plants == sum(
        1 for p in truth.planted if p.n_items > 1
    )


def test_page_edges_match_disassembly(baseline):
    image, truth = baseline
    observed = collect_branch_targets(ImageAnalysis(image))
    # grouping key is the destination page of each collected target
    for page, targets in observed.items():
        assert {page_base(t) for t in targets} == {page}
    truth_dst_pages = set()
    for dsts in truth.page_edges.values():
        truth_dst_pages |= dsts
    assert truth_dst_pages <= set(observed)


def test_reachable_pages_closure(baseline):
    image, truth = baseline
    start_page = page_base(truth.function_entries[0])
    closure = truth.reachable_pages(start_page)
    assert start_page in closure
    # closed under the edge relation
    for page in closure:
        assert truth.page_edges.get(page, frozenset()) <= closure


def test_structure_preserving_schemes_keep_min_footprints(program, baseline):
    image, _ = baseline
    base_counts = min_fp_counts(mine_image(image, OPTS))
    assert base_counts

    for kind in (SchemeKind.COARSE, SchemeKind.FUNCTION, SchemeKind.BLOCK):
        shuffled, _truth = apply_scheme(
            program, RandomizationScheme(kind=kind, seed=9)
        )
        counts = min_fp_counts(mine_image(shuffled, OPTS))
        assert counts == base_counts, kind.value


def test_instruction_scheme_strictly_reduces(program, baseline):
    image, truth = baseline
    base_counts = min_fp_counts(mine_image(image, OPTS))
    dispersed, _ = apply_scheme(
        program, RandomizationScheme(kind=SchemeKind.INSTRUCTION, seed=9)
    )
    counts = min_fp_counts(mine_image(dispersed, OPTS))
    assert truth.multi_instruction_plants > 0
    assert sum(counts.values()) < sum(base_counts.values())
    for gtype, n in counts.items():
        assert n <= base_counts[gtype]


def test_coarse_scheme_is_a_pure_shift(program, baseline):
    image, _ = baseline
    shifted, _ = apply_scheme(
        program, RandomizationScheme(kind=SchemeKind.COARSE, seed=4)
    )
    base_pages = [p.base for p in image.executable_pages()]
    new_pages = [p.base for p in shifted.executable_pages()]
    delta = new_pages[0] - base_pages[0]
    assert delta % PAGE_SIZE == 0
    assert PAGE_SIZE <= delta <= 63 * PAGE_SIZE
    assert new_pages == [b + delta for b in base_pages]
    assert [p.data for p in shifted.executable_pages()] != []


def test_function_scheme_permutes_entries(program, baseline):
    _, base_truth = baseline
    shuffled, truth = apply_scheme(
        program, RandomizationScheme(kind=SchemeKind.FUNCTION, seed=11)
    )
    assert sorted(truth.function_entries) != list(truth.function_entries) or (
        truth.function_entries != base_truth.function_entries
    )
    assert len(truth.function_entries) == len(base_truth.function_entries)


def test_register_rename_keeps_counts(program, baseline):
    image, _ = baseline
    base_counts = min_fp_counts(mine_image(image, OPTS))
    renamed, _ = apply_scheme(
        program,
        RandomizationScheme(
            kind=SchemeKind.FUNCTION, seed=5, rename_registers=True
        ),
    )
    assert min_fp_counts(mine_image(renamed, OPTS)) == base_counts


def test_register_rename_requires_function_scheme(program):
    with pytest.raises(ValueError):
        apply_scheme(
            program,
            RandomizationScheme(
                kind=SchemeKind.COARSE, seed=5, rename_registers=True
            ),
        )


def test_apply_scheme_deterministic(program):
    scheme = RandomizationScheme(kind=SchemeKind.INSTRUCTION, seed=3)
    a, _ = apply_scheme(program, scheme)
    b, _ = apply_scheme(program, scheme)
    assert a.pages == b.pages


def test_erase_plants_removes_exactly_one_type():
    mix = {GadgetType.LM: 2, GadgetType.LR: 2, GadgetType.SYS: 1}
    params = GenParams(n_functions=6, mean_fn_len=8, gadget_mix=mix)
    program = generate(params, seed=13)
    image, truth = materialize(program)

    before = leaked_types(mine_image(image, OPTS))
    assert GadgetType.LM in before

    scrubbed = erase_plants(image, truth, GadgetType.LM)
    after = leaked_types(mine_image(scrubbed, OPTS))
    assert GadgetType.LM not in after
    assert GadgetType.LR in after
    assert GadgetType.SYS in after
    assert len(scrubbed.pages) == len(image.pages)


def test_one_function_per_page_layout():
    params = GenParams(
        n_functions=5, mean_fn_len=6, max_functions_per_page=1
    )
    program = generate(params, seed=2)
    _, truth = materialize(program)
    entry_pages = [page_base(e) for e in truth.function_entries]
    assert len(set(entry_pages)) == len(entry_pages)


def test_params_round_trip():
    params = GenParams(
        n_functions=3, mean_fn_len=4, connectivity=0.5,
        gadget_mix={GadgetType.LR: 1},
    )
    assert GenParams.from_dict(params.to_dict()) == params
    # to_dict writes an int connectivity as it is.
    params = GenParams(connectivity=0)
    assert GenParams.from_dict(params.to_dict()) == params


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"max_functions_per_page": 0},
         "params max_functions_per_page must be at least 1"),
        ({"max_functions_per_page": -1},
         "params max_functions_per_page must be at least 1"),
        ({"n_functions": 0}, "need at least one function"),
        ({"mean_fn_len": 0}, "params mean_fn_len must be at least 1, not 0"),
        ({"mean_fn_len": -5}, "params mean_fn_len must be at least 1, not -5"),
        ({"base": -4096}, "params base must be non-negative"),
        ({"gadget_mix": {GadgetType.LR: 1, GadgetType.FS: 2}},
         "gadget type FS is not plantable"),
        ({"connectivity": float("nan")},
         "params connectivity must be in [0, 1], not nan"),
        ({"connectivity": 2.5},
         "params connectivity must be in [0, 1], not 2.5"),
        ({"connectivity": -0.1},
         "params connectivity must be in [0, 1], not -0.1"),
        ({"gadget_mix": {GadgetType.LR: 1, GadgetType.LM: -1}},
         "gadget_mix count of LM must be non-negative"),
    ],
    ids=["zero-per-page", "negative-per-page", "no-functions",
         "zero-mean-len", "negative-mean-len",
         "negative-base", "unplantable", "nan-connectivity",
         "connectivity-above-one", "negative-connectivity",
         "negative-mix-count"],
)
def test_params_refuse_invalid_values(fields, message):
    with pytest.raises(ValueError) as exc:
        GenParams(**fields)
    assert str(exc.value) == message


def test_params_accept_connectivity_bounds_and_empty_mix():
    for connectivity in (0.0, 1.0):
        assert GenParams(connectivity=connectivity).connectivity == connectivity
    assert GenParams(mean_fn_len=1).mean_fn_len == 1
    assert GenParams(gadget_mix={GadgetType.LR: 0}).gadget_mix == {
        GadgetType.LR: 0
    }


# The layout oracle: helpers.reference_layout is the layout that placed,
# encoded and recorded each unit's link jump on a path of its own. Both must
# give the same pages and ground truth, or refuse the same input.
def _layout_outcome(lay):
    try:
        image, truth = lay()
    except ValueError as exc:
        return "ValueError", str(exc)
    pages = [(p.base, p.perms, p.tag, p.data) for p in image.pages]
    return pages, image.metadata, truth.to_dict()


def _assert_layout_matches_reference(lay):
    outcome = _layout_outcome(lay)
    with mock.patch.object(synth, "_layout", reference_layout):
        assert _layout_outcome(lay) == outcome
    return outcome


_LAYOUT_CORPORA = {
    "packed": GenParams(n_functions=24, mean_fn_len=12, connectivity=0.3),
    "one_per_page": GenParams(n_functions=12, max_functions_per_page=1),
    "three_per_page": GenParams(n_functions=16, max_functions_per_page=3),
    # No calls and no plants, so every page edge is a link jump's. In the
    # corpora above, other branches already join their few pages, which
    # would hide a lost link edge.
    "links_only": GenParams(
        n_functions=12, mean_fn_len=80, connectivity=0.0,
        ensure_strongly_connected=False, gadget_mix={},
    ),
}


@pytest.mark.parametrize("corpus", sorted(_LAYOUT_CORPORA))
@pytest.mark.parametrize("seed", [0, 7])
def test_layout_matches_reference(corpus, seed):
    program = generate(_LAYOUT_CORPORA[corpus], seed)
    outcome = _assert_layout_matches_reference(lambda: materialize(program))
    assert outcome[0] != "ValueError"
    for kind in SchemeKind:
        for rename in (False, True):
            scheme = RandomizationScheme(kind, seed + 1, rename)
            _assert_layout_matches_reference(
                lambda: apply_scheme(program, scheme)
            )


@given(
    params=st.builds(
        GenParams,
        n_functions=st.integers(1, 16),
        mean_fn_len=st.integers(2, 40),
        connectivity=st.floats(0.0, 1.0),
        gadget_mix=st.sampled_from([None, {}]),
        ensure_strongly_connected=st.booleans(),
        max_functions_per_page=st.none() | st.integers(1, 4),
        base=st.integers(0, 1 << 32),
    ),
    seed=st.integers(0, 1 << 16),
    kind=st.sampled_from(SchemeKind),
    rename=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_layout_matches_reference_on_drawn_params(params, seed, kind, rename):
    program = generate(params, seed)
    scheme = RandomizationScheme(kind, seed, rename)
    _assert_layout_matches_reference(lambda: materialize(program))
    _assert_layout_matches_reference(lambda: apply_scheme(program, scheme))


def test_unit_larger_than_a_page_is_refused_by_both_layouts():
    program = generate(GenParams(n_functions=2, mean_fn_len=3000), seed=5)
    outcome = _assert_layout_matches_reference(lambda: materialize(program))
    assert outcome == ("ValueError", "relocation unit larger than a page")
