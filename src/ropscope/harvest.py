"""Recursive code-page harvesting from a single leaked code pointer.

Starting from one pointer into an executable page, the harvester leaks that
page, disassembles it by recursive traversal, extracts control-flow targets
(direct call/jump/branch destinations plus code pointers read through
rip-relative indirect branch slots), and repeats for every newly revealed
executable page until no new pages or instructions appear.

Progress is measured on a deterministic clock: leaking a page costs
LEAK_TICKS_PER_PAGE ticks and analyzing one newly decoded instruction costs
one tick.
The trace records when each page and each gadget type first became
available, which is what rerandomization-interval analysis consumes.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Iterable, Mapping, NamedTuple

from ropscope.canonical import dumps
from ropscope.disasm import (
    FIRST_BYTE_TABLE,
    Instruction,
    PageDecodes,
    PageDisasm,
    extract_chain_targets,
)
from ropscope.gadgets import (
    Gadget,
    GadgetSetSpec,
    GadgetType,
    _TYPE_TEXT,
    find_gadgets,
    population_stats,
    stream_types,
)
from ropscope.snapshot import PAGE_SIZE, MemoryImage, PageRecord, page_base


LEAK_TICKS_PER_PAGE = 100


class StartPointerInvalid(ValueError):
    """The starting pointer does not land in mapped executable memory."""


@dataclass(frozen=True)
class HarvestOptions:
    follow_cond_branches: bool = True
    max_gadget_len: int = 5
    enable_heuristic_types: bool = False
    track_set: GadgetSetSpec | None = None
    stop_on_convergence: bool = False
    # Each page's start pointer is its lowest candidate when None, else one
    # drawn by a generator seeded with this seed and the page base.
    start_seed: int | None = None

    def __post_init__(self) -> None:
        if self.max_gadget_len < 1:
            raise ValueError("max_len must be at least 1")
        if self.stop_on_convergence and self.track_set is None:
            raise ValueError("stop_on_convergence needs a gadget set to "
                             "track (--set or --set-file)")


class EventKind(str, Enum):
    PAGE_DISCOVERED = "page_discovered"
    TYPE_LEAKED = "type_leaked"
    CONVERGED = "converged"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


# Bound once for the per-event code: on Python 3.11 a member read through its
# Enum class costs as much as twenty module-global reads.
_PAGE_DISCOVERED, _TYPE_LEAKED, _CONVERGED = EventKind
# The text of each kind, and the gadget type of each type name.
_KIND_TEXT = {kind: kind.value for kind in EventKind}
_GADGET_TYPES = {gtype.value: gtype for gtype in GadgetType}


class HarvestEvent(NamedTuple):
    step: int
    clock: int
    kind: EventKind
    payload: Mapping[str, object]

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "clock": self.clock,
            "kind": _KIND_TEXT[self.kind],
            "payload": dict(self.payload),
        }


class HarvestTrace:
    """A harvest's clocked record. Its gadgets, those of every visited
    page's stream in page order, are an analysis product and not part of
    the serialized trace: a trace of a walk takes their count from the
    walk's nodes and mines the gadgets on their first read."""

    def __init__(
        self,
        start: int,
        events: list[HarvestEvent],
        leak_cost: int,
        analysis_cost: int,
        pages_found: int,
        skipped_targets: int,
        gadgets: tuple[Gadget, ...] = (),
        walk: _Walk | None = None,
    ):
        self.start = start
        self.events = events
        self.leak_cost = leak_cost
        self.analysis_cost = analysis_cost
        self.pages_found = pages_found
        self.skipped_targets = skipped_targets
        self._gadgets = gadgets
        self._walk = walk
        self.gadget_count = len(gadgets) if walk is None else walk.windows()

    @property
    def gadgets(self) -> tuple[Gadget, ...]:
        if self._walk is not None:
            self._gadgets = self._walk.gadgets()
            self._walk = None
        return self._gadgets

    def _record(self) -> tuple:
        return (
            self.start, self.events, self.leak_cost, self.analysis_cost,
            self.pages_found, self.skipped_targets,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HarvestTrace):
            return NotImplemented
        return (
            self._record() == other._record()
            and self.gadgets == other.gadgets
        )

    def __repr__(self) -> str:
        return f"HarvestTrace({self.summary()})"

    @property
    def total_cost(self) -> int:
        return self.leak_cost + self.analysis_cost

    @property
    def converged(self) -> bool:
        return self.convergence_clock() is not None

    def pages(self) -> tuple[int, ...]:
        return tuple(
            e.payload["base"]  # type: ignore[misc]
            for e in self.events
            if e.kind is _PAGE_DISCOVERED
        )

    def type_clocks(self) -> dict[GadgetType, int]:
        """Clock value at which each gadget type first became available."""
        return {
            _GADGET_TYPES[e.payload["type"]]: e.clock
            for e in self.events
            if e.kind is _TYPE_LEAKED
        }

    def convergence_clock(self) -> int | None:
        for e in self.events:
            if e.kind is _CONVERGED:
                return e.clock
        return None

    def summary(self) -> dict:
        """The run's totals: the first record of the JSONL trace."""
        return {
            "start": f"{self.start:#x}",
            "leak_cost": self.leak_cost,
            "analysis_cost": self.analysis_cost,
            "total_cost": self.total_cost,
            "pages_found": self.pages_found,
            "skipped_targets": self.skipped_targets,
            "converged": self.converged,
        }

    def report(self) -> dict:
        """The summary, gadget count and clocks the harvest command prints."""
        return {
            **self.summary(),
            "gadgets": self.gadget_count,
            "convergence_clock": self.convergence_clock(),
            "type_clocks": dict(sorted(
                (t.value, clock) for t, clock in self.type_clocks().items()
            )),
        }

    def to_jsonl(self) -> str:
        lines = [dumps(self.summary())] + [dumps(e.to_dict()) for e in self.events]
        return "\n".join(lines) + "\n"


# A chain target's entry in ImageAnalysis's target index: its address and
# its page base, or None when the address is not executable.
_Target = tuple[int, int | None]


class _Node:
    """A page's traversal state in ImageAnalysis's node map: its stream,
    its chain targets as index entries in address order, what mining the
    stream yields and `children`, the edge each batch met so far takes, or
    None for a batch that adds nothing, so no node refers to itself and
    reference counting frees the map. A mined node's gadgets, and its
    gadget types with its window count (`len` of its gadgets), are None
    until ImageAnalysis first reads them. A node never changes after it is
    built, except to gain children and its products."""

    __slots__ = ("disasm", "gadgets", "targets", "types", "windows", "children")

    def __init__(
        self,
        disasm: PageDisasm,
        gadgets: tuple[Gadget, ...] | None = (),
        targets: tuple[_Target, ...] = (),
        types: frozenset[GadgetType] | None = frozenset(),
        windows: int | None = 0,
    ):
        self.disasm = disasm
        self.gadgets = gadgets
        self.targets = targets
        self.types = types
        self.windows = windows
        self.children: dict[tuple[int, ...], _Edge | None] = {}


class _Edge(NamedTuple):
    """Where one batch of entries leads from a node: the child, the
    instructions the batch added, and the child's chain targets that the
    node does not have, in address order."""

    child: _Node
    added: int
    targets: tuple[_Target, ...]


_UNSEEN = object()  # a batch not yet added to a node


class ImageAnalysis:
    """Facts that depend only on the image and the mining options, computed
    once and shared by every harvest over that image.

    It holds each page's decode results by offset in the page's root,
    where every traversal of the page starts, and the linear branch scan
    reads them there too, so each offset is decoded once per image. The
    decoder keeps one memo by encoding until `disasm.clear_memo`, which
    `cli.main` calls as each command ends, so each encoding runs its
    handler once however many offsets, pages and images hold it; direct
    branches are the one exception, since their targets depend on
    their addresses (see `disasm.decode`).

    It holds one node per traversal state, keyed by page base and stream
    addresses; a page's root is its empty stream's node. The addresses
    determine the state: its claimed bytes are its instructions' spans,
    each the page's shared decode at its offset.
    So a stream is mined once however many batch histories reach it, and a
    harvest replays its traversal along the edges its nodes store by sorted
    batch: `PageDisasm.add_entries` runs once per (node, batch) edge over
    all harvests. An edge holds what the harvest would have decoded and the
    chain targets it would have found new on the page.

    It owns the target index too: every chain target and seed address any
    traversal meets gets one entry, so a traversal that has handled as many
    addresses as the index holds has handled them all.

    A node finds its chain targets when built, since every walk follows
    them, and mines its gadget types and window count (`types`) and its
    gadgets (`gadgets`) on their first read. Only walks that record events
    read types, and only offline mining and `trace.gadgets` read gadgets,
    so each walk mines only what its caller reads.
    """

    def __init__(
        self, image: MemoryImage, opts: HarvestOptions = HarvestOptions()
    ):
        self.image = image
        self.opts = opts
        self._nodes: dict[tuple[int, tuple[int, ...]], _Node] = {}
        self.target_index: dict[int, _Target] = {}

    def check(self, image: MemoryImage, opts: HarvestOptions) -> None:
        """Raise ValueError unless built for this image and options that
        mine the same: gadget length, heuristic types and branch following."""
        if image is not self.image:
            raise ValueError("analysis was built for another image")
        built = self.opts
        if (
            opts.max_gadget_len != built.max_gadget_len
            or opts.enable_heuristic_types != built.enable_heuristic_types
            or opts.follow_cond_branches != built.follow_cond_branches
        ):
            raise ValueError("analysis was built for other mining options")

    def decodes(self, page: PageRecord) -> PageDecodes:
        """The decode results of an executable page, held by its root."""
        return self.root(page.base).disasm.decodes

    def target_entries(self, addrs: Iterable[int]) -> tuple[_Target, ...]:
        """The entries of these distinct addresses in the target index, in
        address order; the index gains one for each address it has not met
        before."""
        index = self.target_index
        out = []
        for addr in addrs:
            entry = index.get(addr)
            if entry is None:
                executable = self.image.is_executable(addr)
                entry = index[addr] = (
                    addr, page_base(addr) if executable else None
                )
            out.append(entry)
        out.sort()
        return tuple(out)

    def root(self, base: int) -> _Node:
        """The empty-stream node of the page at `base`, which holds the
        page's decodes and where each of its traversals starts; it yields
        nothing and is never mined."""
        node = self._nodes.get((base, ()))
        if node is None:
            decodes = PageDecodes(self.image.page_at(base))
            node = self._nodes[base, ()] = _Node(PageDisasm(decodes))
        return node

    def advance(
        self, base: int, node: _Node, batch: tuple[int, ...]
    ) -> _Edge | None:
        """The edge a sorted batch of entries takes from `node` of the page
        at `base`: None when the batch adds nothing. It is built on the
        batch's first visit to the node and kept among its children, and
        its child is mined on the first visit to the child's stream."""
        edge = node.children.get(batch, _UNSEEN)
        if edge is not _UNSEEN:
            return edge
        disasm = node.disasm.extended(batch)
        # add_entries only adds, so the lengths differ by what it added.
        added = len(disasm.insns) - len(node.disasm.insns)
        edge = None
        if added:
            key = (base, disasm.addresses())
            child = self._nodes.get(key)
            if child is None:
                child = self._nodes[key] = self._mine(disasm)
            targets = child.targets
            if node.targets:
                known = set(node.targets)
                targets = tuple(t for t in targets if t not in known)
            edge = _Edge(child, added, targets)
        node.children[batch] = edge
        return edge

    def _mine(self, disasm: PageDisasm) -> _Node:
        """A new stream's node, with the chain targets every walk follows."""
        targets = self.target_entries(extract_chain_targets(
            disasm.insns.values(), self.image,
            include_cond=self.opts.follow_cond_branches,
        ))
        return _Node(disasm, None, targets, None, None)

    def types(self, node: _Node) -> frozenset[GadgetType]:
        """The node's gadget types, mined with its window count when first
        read."""
        if node.types is None:
            opts = self.opts
            node.types, node.windows = stream_types(
                node.disasm.insns.values(), opts.max_gadget_len,
                opts.enable_heuristic_types,
            )
        return node.types

    def gadgets(self, node: _Node) -> tuple[Gadget, ...]:
        """The node's gadgets, mined on their first read."""
        if node.gadgets is None:
            opts = self.opts
            node.gadgets = find_gadgets(
                node.disasm.insns.values(), opts.max_gadget_len,
                opts.enable_heuristic_types,
            )
        return node.gadgets


class _Walk:
    """The harvester's page loop on the clock, shared by harvest,
    rerand.converge and offline mining. Building a walk runs it.

    Seeds, which must be executable, and every chain target found later
    become pending entries of their page; a page is queued whenever it has
    pending entries, and each visit adds them all as one batch, moving the
    page's node along the analysis's edge for that batch. A page's first
    visit costs LEAK_TICKS_PER_PAGE and every instruction a batch adds one
    tick. When a visit changes the page's stream, the chain targets the
    edge brings that the walk has not handled are queued, and the new
    node's gadget types not seen before (only those in `track_set`, when
    one is given) become events; covering `track_set` converges the walk,
    and ends it with `stop_on_convergence`. Page discoveries are events
    only with `page_events`; with neither it nor `track_set` a walk reads
    no node's types. The clocks are the same either way.
    """

    def __init__(
        self,
        analysis: ImageAnalysis,
        seeds: Iterable[int],
        track_set: GadgetSetSpec | None = None,
        stop_on_convergence: bool = False,
        page_events: bool = False,
    ):
        tracked = set(track_set.required) if track_set else None
        set_name = track_set.name if track_set else None
        nodes: dict[int, _Node] = {}
        pending: dict[int, list[int]] = {}
        # The addresses of the targets handled so far, each in the
        # analysis's index. A page's node's own targets are always among
        # them, so of an edge's targets only those another page brought can
        # be handled.
        handled: set[int] = set()
        for addr, base in analysis.target_entries(seeds):
            handled.add(addr)
            pending.setdefault(base, []).append(addr)
        queue = deque(pending)
        skipped = 0
        leak_cost = 0
        analysis_cost = 0
        events: list[HarvestEvent] = []
        # Every type of the nodes reached so far, tracked or not.
        seen_types: set[GadgetType] = set()
        records = page_events or tracked is not None
        index = analysis.target_index

        while queue:
            base = queue.popleft()
            batch = tuple(sorted(pending.pop(base)))
            node = nodes.get(base)
            if node is None:
                node = nodes[base] = analysis.root(base)
                leak_cost += LEAK_TICKS_PER_PAGE
                if page_events:
                    events.append(HarvestEvent(
                        len(events) + 1, leak_cost + analysis_cost,
                        _PAGE_DISCOVERED, {"base": base},
                    ))
            edge = analysis.advance(base, node, batch)
            if edge is None:
                continue
            child, added, targets = edge
            nodes[base] = child
            # A walk that has handled every target in the index finds none
            # new. One on densely linked code soon has, and from then on it
            # skips edges of a hundred targets; see BENCH_25.json.
            if len(handled) == len(index):
                targets = ()
            for addr, tbase in targets:
                if addr in handled:
                    continue
                handled.add(addr)
                if tbase is None:
                    skipped += 1
                    continue
                entries = pending.get(tbase)
                if entries is None:
                    queue.append(tbase)
                    entries = pending[tbase] = []
                entries.append(addr)
            analysis_cost += added
            if not records:
                continue

            # seen_types already holds the types of every other page, so
            # only the page just reached can add new ones; mostly it adds
            # none.
            types = child.types
            if types is None:
                types = analysis.types(child)
            if types <= seen_types:
                continue
            new_types = types - seen_types
            seen_types |= new_types
            if tracked is not None:
                new_types &= tracked
            if not new_types:
                continue
            clock = leak_cost + analysis_cost
            # A GadgetType is a str, so they sort by value.
            for gtype in sorted(new_types):
                events.append(HarvestEvent(
                    len(events) + 1, clock, _TYPE_LEAKED,
                    {"type": _TYPE_TEXT[gtype]},
                ))
            # A set spec is never empty, so the walk converges on the visit
            # that brings its last missing type.
            if tracked is not None and tracked <= seen_types:
                events.append(HarvestEvent(
                    len(events) + 1, clock, _CONVERGED, {"set": set_name},
                ))
                if stop_on_convergence:
                    break

        self.analysis = analysis
        self.nodes = nodes
        self.skipped = skipped
        self.leak_cost = leak_cost
        self.analysis_cost = analysis_cost
        self.events = events

    def gadgets(self) -> tuple[Gadget, ...]:
        """Gadgets of every visited page's current stream, in page order."""
        nodes, analysis = self.nodes, self.analysis
        return tuple(chain.from_iterable(
            analysis.gadgets(nodes[base]) for base in sorted(nodes)
        ))

    def windows(self) -> int:
        """How many gadgets `gadgets` gives, read without building them."""
        return sum(node.windows for node in self.nodes.values())


def _walk_from(
    image: MemoryImage,
    start: int,
    opts: HarvestOptions,
    analysis: ImageAnalysis | None,
    page_events: bool,
) -> _Walk:
    """The walk from one start pointer that harvest and rerand.converge
    clock, tracking `opts.track_set`, over a new analysis when none is
    passed: neither reads a gadget unless asked to."""
    if not image.is_executable(start):
        raise StartPointerInvalid(
            f"start pointer {start:#x} is not in executable memory"
        )
    if analysis is None:
        analysis = ImageAnalysis(image, opts)
    else:
        analysis.check(image, opts)
    return _Walk(
        analysis, (start,), opts.track_set, opts.stop_on_convergence,
        page_events,
    )


def harvest(
    image: MemoryImage,
    start: int,
    opts: HarvestOptions = HarvestOptions(),
    analysis: ImageAnalysis | None = None,
) -> HarvestTrace:
    """Run the harvesting loop from one leaked code pointer.

    Pass an analysis built for the same image and mining options to share
    decoding and mining with other harvests; otherwise the harvest builds
    its own. Either way the trace counts its gadgets from the window counts
    of the walk's nodes, and `trace.gadgets` mines them when first read.
    """
    walk = _walk_from(image, start, opts, analysis, page_events=True)
    return HarvestTrace(
        start=start,
        events=walk.events,
        leak_cost=walk.leak_cost,
        analysis_cost=walk.analysis_cost,
        pages_found=len(walk.nodes),
        skipped_targets=walk.skipped,
        walk=walk,
    )


# Start-pointer discovery: one plausible leaked pointer per executable page.

_SWEEP_MIN_INSNS = 8


def _sweep_accepts(decodes: PageDecodes, offset: int) -> bool:
    """Decode forward from an offset; accept streams that reach a control
    transfer, produce several valid instructions, or exit the page cleanly."""
    count = 0
    pos = offset
    while pos < PAGE_SIZE:
        insn = decodes[pos]
        if insn is None:
            return False
        count += 1
        if insn.is_terminator:
            return True
        if count >= _SWEEP_MIN_INSNS:
            return True
        pos += insn.length
    return True


def collect_branch_targets(analysis: ImageAnalysis) -> dict[int, set[int]]:
    """Linear-scan every executable page of the analysis's image,
    resynchronizing on the next byte that can start an instruction after an
    invalid decode, and collect direct branch targets keyed by the page they
    land in. Targets outside executable pages are dropped.

    The scan reads through the analysis's decode results, so the
    traversals that share the analysis find every scanned offset already
    decoded."""
    exec_pages = analysis.image.executable_pages()
    targets_by_page: dict[int, set[int]] = {p.base: set() for p in exec_pages}
    for page in exec_pages:
        decodes = analysis.decodes(page)
        # Bytes the mask marks 0 decode to None at once, so skipping them
        # is the same walk as advancing one byte at a time.
        mask = page.data.translate(FIRST_BYTE_TABLE)
        pos = mask.find(1)
        while pos != -1:
            insn = decodes[pos]
            if insn is None:
                pos += 1
            else:
                if insn.branch_target is not None:
                    tbase = page_base(insn.branch_target)
                    if tbase in targets_by_page:
                        targets_by_page[tbase].add(insn.branch_target)
                pos += insn.length
            pos = mask.find(1, pos)
    return targets_by_page


def page_start_pointers(
    image: MemoryImage,
    opts: HarvestOptions = HarvestOptions(),
    analysis: ImageAnalysis | None = None,
) -> dict[int, int]:
    """Pick one start pointer per executable page.

    Direct branch targets collected from a linear scan of all executable
    bytes are preferred (lowest in-page target that decodes acceptably);
    otherwise the first offset whose forward decode is accepted; otherwise
    the page base. An analysis passed in shares its decode results.
    """
    if analysis is None:
        analysis = ImageAnalysis(image, opts)
    else:
        analysis.check(image, opts)
    return _choose_starts(analysis, collect_branch_targets(analysis), opts)


def _choose_starts(
    analysis: ImageAnalysis,
    targets_by_page: dict[int, set[int]],
    opts: HarvestOptions,
) -> dict[int, int]:
    out: dict[int, int] = {}
    for page in analysis.image.executable_pages():
        decodes = analysis.decodes(page)
        candidates = sorted(
            t
            for t in targets_by_page[page.base]
            if _sweep_accepts(decodes, t - page.base)
        )
        if candidates:
            if opts.start_seed is None:
                out[page.base] = candidates[0]
            else:
                rng = random.Random(opts.start_seed ^ page.base)
                out[page.base] = rng.choice(candidates)
            continue
        out[page.base] = _swept_start(page, decodes)
    return out


def _swept_start(page: PageRecord, decodes: PageDecodes) -> int:
    """The start of a page none of whose branch targets is accepted: its
    first offset whose forward decode is accepted, else its base."""
    for off in range(PAGE_SIZE):
        if _sweep_accepts(decodes, off):
            return page.base + off
    return page.base


def harvest_all_starts(
    image: MemoryImage, opts: HarvestOptions = HarvestOptions()
) -> dict[int, HarvestTrace]:
    """Harvest once from each per-page start pointer, sharing one
    analysis: each trace's gadgets are mined when read."""
    analysis = ImageAnalysis(image, opts)
    starts = page_start_pointers(image, opts, analysis)
    return {
        start: harvest(image, start, opts, analysis)
        for _, start in sorted(starts.items())
    }


def _closure_seeds(
    analysis: ImageAnalysis, targets_by_page: dict[int, set[int]]
) -> set[int]:
    """Every direct branch target plus the per-page start pointers.

    A page's start pointer is one of its targets whenever one of them is
    accepted, and every target is a seed already, so only a page with no
    accepted target adds its swept start: the seeds are those of
    `_choose_starts` under any `start_seed`."""
    seeds: set[int] = set()
    for page in analysis.image.executable_pages():
        targets = targets_by_page[page.base]
        seeds |= targets
        decodes = analysis.decodes(page)
        if not any(_sweep_accepts(decodes, t - page.base) for t in targets):
            seeds.add(_swept_start(page, decodes))
    return seeds


def _closure(image: MemoryImage, opts: HarvestOptions) -> _Walk:
    """The walk to closure, tracking no set, from every direct branch
    target the linear scan finds plus the per-page start pointers; offline
    mining reads its nodes and leaves its clock unread."""
    analysis = ImageAnalysis(image, opts)
    seeds = _closure_seeds(analysis, collect_branch_targets(analysis))
    return _Walk(analysis, sorted(seeds))


def offline_disassemble(
    image: MemoryImage, opts: HarvestOptions = HarvestOptions()
) -> dict[int, tuple[Instruction, ...]]:
    """Disassemble every executable page without the leak clock.

    Runs the harvest's traversal to closure from every direct branch target
    the linear scan finds plus one start per page. Used for whole-image
    mining when the memory image is already in hand rather than leaked page
    by page."""
    walk = _closure(image, opts)
    return {base: n.disasm.instructions() for base, n in walk.nodes.items()}


def mine_image(
    image: MemoryImage, opts: HarvestOptions = HarvestOptions()
) -> tuple[Gadget, ...]:
    """Gadgets of every offline-disassembled stream, in page order.

    The decoder's memo outlives the call, so mining several images, such
    as the layouts of one program in one command, runs each encoding the
    images share through its handler once (see ImageAnalysis)."""
    return _closure(image, opts).gadgets()


def image_population(
    image: MemoryImage, opts: HarvestOptions = HarvestOptions()
) -> dict:
    """`population_stats` of every offline-disassembled stream: what
    `mine_image` finds, counted without building a Gadget per window."""
    walk = _closure(image, opts)
    return population_stats(
        (node.disasm.insns.values() for node in walk.nodes.values()),
        opts.max_gadget_len, opts.enable_heuristic_types,
    )
