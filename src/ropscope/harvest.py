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
from operator import itemgetter
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
    Labelling,
    _TYPE_TEXT,
    _addr,
    _classify,
    _terminator_windows,
    find_gadgets,
    labelling_text,
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
    """A harvest's clocked record, read off its walk: the events, both
    costs, the pages the walk visited, the targets it skipped and its
    gadget count, which the walk's nodes give without building a gadget.
    Its gadgets, those of every visited page's stream in page order, are
    an analysis product and not part of the serialized trace:
    `trace.gadgets` mines the walk's streams each time it is read."""

    def __init__(self, start: int, walk: _Walk):
        self.start = start
        self.events = walk.events
        self.leak_cost = walk.leak_cost
        self.analysis_cost = walk.analysis_cost
        self.pages_found = len(walk.nodes)
        self.skipped_targets = walk.skipped
        self.gadget_count = walk.windows()
        self._walk = walk

    @property
    def gadgets(self) -> tuple[Gadget, ...]:
        return self._walk.gadgets()

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
    its chain targets as index entries in address order, its gadget types
    and window count, and `children`, the edge each batch met so far takes,
    or None for a batch that adds nothing, so no node refers to itself and
    reference counting frees the map. A mined node's types and window count
    (how many gadgets `find_gadgets` makes of its stream) are None until
    ImageAnalysis first reads them. A node never changes after it is
    built, except to gain children and those two products."""

    __slots__ = ("disasm", "targets", "types", "windows", "children")

    def __init__(
        self,
        disasm: PageDisasm,
        targets: tuple[_Target, ...] = (),
        types: frozenset[GadgetType] | None = frozenset(),
        windows: int | None = 0,
    ):
        self.disasm = disasm
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
    and the start rule's sweeps read them there too, so each offset is
    decoded once per image. The decoder keeps one memo by encoding until
    `disasm.clear_memo`, which `cli.main` calls as each command ends, so
    each encoding runs its handler once however many offsets, pages and
    images hold it; direct branches are the one exception, since their
    targets depend on their addresses (see `disasm.decode`).

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
    them, and mines its gadget types and window count (`types`) on their
    first read; only walks that record events read them. No node keeps
    its gadgets: `_Walk.gadgets` mines each visited stream afresh, for
    `mine_image`, whose walk is its own, and for each read of
    `trace.gadgets`.
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
        return _Node(disasm, targets, None, None)

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
        """Gadgets of every visited page's current stream, in page order,
        mined on each call."""
        nodes, opts = self.nodes, self.analysis.opts
        return tuple(chain.from_iterable(
            find_gadgets(
                nodes[base].disasm.insns.values(), opts.max_gadget_len,
                opts.enable_heuristic_types,
            )
            for base in sorted(nodes)
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
    of the walk's nodes, and `trace.gadgets` mines them when read.
    """
    walk = _walk_from(image, start, opts, analysis, page_events=True)
    return HarvestTrace(start, walk)


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
    """Pick one start pointer per executable page by `_choose_starts`' rule
    over the direct branch targets a linear scan of all executable bytes
    collects. An analysis passed in shares its decode results.
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
    """The one start rule: a page starts at its lowest branch target whose
    forward decode is accepted, or, with `opts.start_seed`, at one of its
    accepted targets drawn by a generator seeded with the seed and the
    page base. A page with no accepted target starts at its first accepted
    offset, else at its base."""
    out: dict[int, int] = {}
    for page in analysis.image.executable_pages():
        base = page.base
        decodes = analysis.decodes(page)
        accepted = (
            t for t in sorted(targets_by_page[base])
            if _sweep_accepts(decodes, t - base)
        )
        if opts.start_seed is None:
            start = next(accepted, None)
        else:
            candidates = list(accepted)
            rng = random.Random(opts.start_seed ^ base)
            start = rng.choice(candidates) if candidates else None
        if start is None:
            start = next(
                (base + off for off in range(PAGE_SIZE)
                 if _sweep_accepts(decodes, off)),
                base,
            )
        out[base] = start
    return out


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


def _closure(image: MemoryImage, opts: HarvestOptions) -> _Walk:
    """The walk to closure, tracking no set, seeded with every direct
    branch target the linear scan finds plus the start `_choose_starts`
    picks for each page; a page's start is one of its targets unless none
    of them is accepted, so the seeds are the same under any
    `start_seed`. Offline mining reads the walk's nodes and leaves its
    clock unread."""
    analysis = ImageAnalysis(image, opts)
    targets_by_page = collect_branch_targets(analysis)
    starts = _choose_starts(analysis, targets_by_page, opts)
    return _Walk(
        analysis, set(starts.values()).union(*targets_by_page.values())
    )


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
    """Gadgets of every offline-disassembled stream, in page order, for
    `corrupt`, which judges each one; `image_gadget_report` labels the
    same windows without building them. The closure walk is the call's
    own, so each of its streams is mined once.

    The decoder's memo outlives the call, so mining several images, such
    as the layouts of one program in one command, runs each encoding the
    images share through its handler once (see ImageAnalysis)."""
    return _closure(image, opts).gadgets()


# The keys of a `gadgets` report row, in the order of its CSV columns.
REPORT_FIELDS = ("addr", "bytes_hex", "text", "types", "footprints")


def image_gadget_report(
    image: MemoryImage,
    opts: HarvestOptions = HarvestOptions(),
    rows: bool = True,
) -> tuple[list[dict], dict[Labelling, int]]:
    """The one offline labelling pass: every window of every
    offline-disassembled stream, labelled without a Gadget per window. It
    gives the `gadgets` report's rows, in the order of `mine_image`'s
    gadgets (by page, then by window start and end), and how many windows
    have each `_classify` labelling, which `labelling_counts` turns into
    the per-type MIN/EX counts `type_counts` gives and `population_stats`
    into a `compare` entry; the counts sum to the window count. With
    `rows` false, as `compare` and `gadgets --pretty` call it, no row is
    made and no instruction rendered.

    Windows that end at one terminator are suffixes of the longest, which
    is byte-adjacent, so its instructions are rendered once and its bytes
    are one slice of the page: each window's text and hex are suffixes of
    those two strings. A window's `types` and `footprints` columns come
    from its `_classify` labelling, rendered once per distinct labelling.
    """
    walk = _closure(image, opts)
    max_len, heuristic = opts.max_gadget_len, opts.enable_heuristic_types
    tally: dict[Labelling, int] = {}
    labels: dict[Labelling, tuple[str, str]] = {}
    out: list[dict] = []
    for base in sorted(walk.nodes):
        disasm = walk.nodes[base].disasm
        stream = tuple(sorted(disasm.insns.values(), key=_addr))
        size = len(stream)
        keyed: list[tuple[int, dict]] = []
        for low, pos, matches in _terminator_windows(
            stream, max_len, heuristic
        ):
            stop = pos + 1
            if rows:
                texts = [insn.render() for insn in stream[low:stop]]
                text = "; ".join(texts)
                first = stream[low].addr
                hexed = disasm.page.data[
                    first - base : stream[pos].end - base
                ].hex()
                cut = 0
            for start in range(low, stop):
                labelling = tuple(_classify(
                    stream[start:stop], heuristic, matches[start:stop],
                )[1].items())
                tally[labelling] = tally.get(labelling, 0) + 1
                if not rows:
                    continue
                label = labels.get(labelling)
                if label is None:
                    label = labels[labelling] = labelling_text(labelling)
                addr = stream[start].addr
                keyed.append((start * size + pos, {
                    "addr": f"{addr:#x}",
                    "bytes_hex": hexed[2 * (addr - first):],
                    "text": text[cut:],
                    "types": label[0],
                    "footprints": label[1],
                }))
                cut += len(texts[start - low]) + 2
        # Positions order windows as find_gadgets' (addr, length) does.
        keyed.sort(key=itemgetter(0))
        out += [row for _, row in keyed]
    return out, tally
