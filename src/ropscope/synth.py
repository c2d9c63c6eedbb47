"""Synthetic code-corpus generation with controllable rerandomization.

Generates programs as lists of functions over a small instruction IR, lays
them out into executable pages, and re-lays them under rerandomization
schemes of increasing granularity: whole-image shift, function permutation,
basic-block permutation, and single-instruction dispersal.

Every generated program carries exact ground truth: which gadget patterns
were planted and where, which pages reference which other pages through
branches, and the function call graph. Layout keeps relocation units inside
page boundaries and separates them with invalid filler bytes so instruction
streams never run across unit boundaries; gadget windows therefore live
entirely inside one unit, which is what makes ground truth exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Iterable, Mapping, Sequence

from ropscope import encode as enc
from ropscope.disasm import POISON_BYTE, Reg, decode
from ropscope.gadgets import BROP_REGS, GadgetType, gadget_type
from ropscope.snapshot import (
    PAGE_SIZE,
    RX,
    MemoryImage,
    PageRecord,
    SegmentTag,
    page_base,
)

# Registers eligible for renaming and for random operand picks. The stack
# pointer stays fixed so renaming cannot change which instructions pivot,
# and rbp stays fixed because frame-teardown patterns pin it.
RENAME_DOMAIN: tuple[Reg, ...] = (
    Reg.RAX, Reg.RCX, Reg.RDX, Reg.RBX, Reg.RSI, Reg.RDI,
    Reg.R8, Reg.R9, Reg.R10, Reg.R11, Reg.R12, Reg.R13, Reg.R14, Reg.R15,
)

# Immediate whose every byte decodes as an invalid opcode; keeps misaligned
# decode paths from resynchronizing into phantom instructions.
POISON_IMM32 = int.from_bytes(bytes([POISON_BYTE] * 4), "little")

FUNCTION_GAP = 8
CELL_GAP_MIN = 1
CELL_GAP_MAX = 2

# Items whose ops never fall through to the next item.
_NO_FALLTHROUGH_OPS = frozenset(
    {"ret", "ret_imm", "jmp_rel32", "jmp_rel8", "jmp_r", "jmp_m"}
)


@dataclass(frozen=True)
class AsmItem:
    """One instruction in the generator IR.

    op names an encoder function; args are its arguments minus any branch
    displacement. Branch items carry target=(function index, item index)
    and get their displacement resolved at layout time. pin marks items
    whose registers must survive renaming untouched.
    """

    op: str
    args: tuple = ()
    target: tuple[int, int] | None = None
    pin: bool = False

    @property
    def falls_through(self) -> bool:
        return self.op not in _NO_FALLTHROUGH_OPS


@dataclass(frozen=True)
class PlantSpec:
    gtype: GadgetType
    fn_idx: int
    start_item: int
    n_items: int


@dataclass
class SynthFunction:
    items: list[AsmItem]
    block_starts: list[int] = field(default_factory=list)


@dataclass(frozen=True)
class GenParams:
    """Generator parameters. Construction raises ValueError when
    max_functions_per_page is below 1, n_functions or mean_fn_len is below
    1, connectivity is not a probability (NaN included), base is negative,
    or gadget_mix names a type with no plant template or gives a count
    below 0."""

    n_functions: int = 12
    mean_fn_len: int = 10
    connectivity: float = 0.25
    gadget_mix: Mapping[GadgetType, int] | None = None
    ensure_strongly_connected: bool = True
    max_functions_per_page: int | None = None
    base: int = 0x400000

    def __post_init__(self) -> None:
        per_page = self.max_functions_per_page
        if per_page is not None and per_page < 1:
            raise ValueError("params max_functions_per_page must be at least 1")
        if self.n_functions < 1:
            raise ValueError("need at least one function")
        if self.mean_fn_len < 1:
            raise ValueError(
                f"params mean_fn_len must be at least 1, not {self.mean_fn_len}"
            )
        # A NaN fails every comparison, so it fails this one too.
        if not 0.0 <= self.connectivity <= 1.0:
            raise ValueError(
                f"params connectivity must be in [0, 1], not {self.connectivity}"
            )
        if self.base < 0:
            raise ValueError("params base must be non-negative")
        for gtype, count in (self.gadget_mix or {}).items():
            if gtype not in _PLANTS:
                raise ValueError(f"gadget type {gtype.value} is not plantable")
            if count < 0:
                raise ValueError(
                    f"gadget_mix count of {gtype.value} must be non-negative"
                )

    def to_dict(self) -> dict:
        return {
            "n_functions": self.n_functions,
            "mean_fn_len": self.mean_fn_len,
            "connectivity": self.connectivity,
            "gadget_mix": None
            if self.gadget_mix is None
            else {t.value: n for t, n in sorted(
                self.gadget_mix.items(), key=lambda kv: kv[0].value
            )},
            "ensure_strongly_connected": self.ensure_strongly_connected,
            "max_functions_per_page": self.max_functions_per_page,
            "base": self.base,
        }

    @staticmethod
    def from_dict(data: Mapping) -> "GenParams":
        """Inverse of to_dict; malformed params (a missing key, a value of
        the wrong type, an unknown gadget type) raise ValueError. An
        integer field takes an int and no bool, ensure_strongly_connected a
        bool, and connectivity an int or a float."""
        try:
            mix = data.get("gadget_mix")
            if mix is not None:
                mix = {
                    gadget_type(k): _integer(v, f"gadget_mix count of {k}")
                    for k, v in mix.items()
                }
            per_page = data.get("max_functions_per_page")
            connectivity = data["connectivity"]
            if isinstance(connectivity, (bool, str)):
                raise TypeError(
                    f"connectivity must be a number, not {connectivity!r}"
                )
            strongly_connected = data["ensure_strongly_connected"]
            if not isinstance(strongly_connected, bool):
                raise TypeError(
                    "ensure_strongly_connected must be true or false, "
                    f"not {strongly_connected!r}"
                )
            return GenParams(
                n_functions=_integer(data["n_functions"], "n_functions"),
                mean_fn_len=_integer(data["mean_fn_len"], "mean_fn_len"),
                connectivity=float(connectivity),
                gadget_mix=mix,
                ensure_strongly_connected=strongly_connected,
                max_functions_per_page=None if per_page is None else _integer(
                    per_page, "max_functions_per_page"
                ),
                base=_integer(data["base"], "base"),
            )
        except KeyError as exc:
            raise ValueError(f"params lack {exc.args[0]!r}") from None
        # float() of an int beyond the float range overflows.
        except (AttributeError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed params: {exc}") from None


def _integer(value: object, name: str) -> int:
    """int(value), refusing the bools, floats and strings int() coerces."""
    if isinstance(value, (bool, float, str)):
        raise TypeError(f"{name} must be an integer, not {value!r}")
    return int(value)


class SchemeKind(str, Enum):
    COARSE = "coarse"
    FUNCTION = "function"
    BLOCK = "block"
    INSTRUCTION = "instruction"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class RandomizationScheme:
    kind: SchemeKind
    seed: int = 0
    rename_registers: bool = False

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "seed": self.seed,
            "rename_registers": self.rename_registers,
        }


@dataclass(frozen=True)
class PlantRecord:
    gtype: GadgetType
    addr: int
    n_items: int
    fn_idx: int


@dataclass(frozen=True)
class GroundTruth:
    planted: tuple[PlantRecord, ...]
    page_edges: Mapping[int, frozenset[int]]
    function_entries: tuple[int, ...]
    function_pages: tuple[frozenset[int], ...]
    call_graph: tuple[tuple[int, int], ...]

    @property
    def multi_instruction_plants(self) -> int:
        return sum(1 for p in self.planted if p.n_items >= 2)

    def reachable_pages(self, start_page: int) -> frozenset[int]:
        """Transitive closure over branch page edges."""
        seen = {start_page}
        frontier = [start_page]
        while frontier:
            page = frontier.pop()
            for nxt in self.page_edges.get(page, frozenset()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return frozenset(seen)

    def to_dict(self) -> dict:
        return {
            "planted": [
                {
                    "type": p.gtype.value,
                    "addr": f"{p.addr:#x}",
                    "n_items": p.n_items,
                    "fn": p.fn_idx,
                }
                for p in self.planted
            ],
            "page_edges": {
                f"{page:#x}": sorted(f"{t:#x}" for t in targets)
                for page, targets in sorted(self.page_edges.items())
            },
            "function_entries": [f"{a:#x}" for a in self.function_entries],
            "function_pages": [
                sorted(f"{p:#x}" for p in pages)
                for pages in self.function_pages
            ],
            "call_graph": [list(e) for e in self.call_graph],
            "multi_instruction_plants": self.multi_instruction_plants,
        }


@dataclass
class SynthProgram:
    params: GenParams
    seed: int
    functions: list[SynthFunction]
    plants: list[PlantSpec]
    call_graph: tuple[tuple[int, int], ...]


def _pick(rng: random.Random, exclude: Iterable[Reg] = ()) -> Reg:
    excluded = set(exclude)
    return rng.choice([r for r in RENAME_DOMAIN if r not in excluded])


# Plant templates, keyed by the gadget type they plant. Each takes three
# distinct registers and returns IR items whose leading instructions form the
# named gadget in minimal footprint once a return or indirect branch closes
# the window. A type is plantable exactly when it has a template here.
_PLANTS: dict[GadgetType, Callable[[Reg, Reg, Reg], list[AsmItem]]] = {
    GadgetType.MR: lambda a, b, c: [AsmItem("mov_rr", (a, b)), AsmItem("ret")],
    GadgetType.LR: lambda a, b, c: [AsmItem("pop_r", (a,)), AsmItem("ret")],
    GadgetType.AM: lambda a, b, c: [
        AsmItem("alu_rr", ("add", a, b)), AsmItem("ret"),
    ],
    GadgetType.LM: lambda a, b, c: [AsmItem("mov_rm", (a, b)), AsmItem("ret")],
    GadgetType.AM_LD: lambda a, b, c: [
        AsmItem("alu_rm", ("add", a, b)), AsmItem("ret"),
    ],
    GadgetType.SM: lambda a, b, c: [AsmItem("mov_mr", (a, b)), AsmItem("ret")],
    GadgetType.ST: lambda a, b, c: [AsmItem("mov_mr", (a, b)), AsmItem("ret")],
    GadgetType.AM_ST: lambda a, b, c: [
        AsmItem("alu_mr", ("sub", a, b)), AsmItem("ret"),
    ],
    GadgetType.LOGIC: lambda a, b, c: [
        AsmItem("alu_rr", ("xor", a, b)), AsmItem("ret"),
    ],
    GadgetType.SP: lambda a, b, c: [
        AsmItem("mov_rr", (Reg.RSP, b)), AsmItem("ret"),
    ],
    GadgetType.JMP: lambda a, b, c: [AsmItem("jmp_r", (a,))],
    GadgetType.CALL: lambda a, b, c: [AsmItem("call_r", (a,))],
    GadgetType.SYS: lambda a, b, c: [AsmItem("syscall"), AsmItem("ret")],
    GadgetType.STCONST: lambda a, b, c: [
        AsmItem("mov_mi", (a, 0x11)), AsmItem("ret"),
    ],
    GadgetType.STCONSTEX: lambda a, b, c: [
        AsmItem("mov_mr", (a, b, 8)), AsmItem("ret"),
    ],
    GadgetType.LMEX: lambda a, b, c: [
        AsmItem("mov_rm", (a, b, 16)), AsmItem("ret"),
    ],
    GadgetType.CP: lambda a, b, c: [
        AsmItem("mov_mr", (a, b)), AsmItem("call_r", (c,)),
    ],
    GadgetType.CS2: lambda a, b, c: [AsmItem("call_r", (a,)), AsmItem("ret")],
    GadgetType.RF: lambda a, b, c: [
        AsmItem("mov_mr", (a, b)),
        AsmItem("call_r", (c,)),
        AsmItem("jmp_r", (a,)),
    ],
    GadgetType.EP: lambda a, b, c: [
        AsmItem("pop_r", (Reg.RBP,), None, True), AsmItem("call_r", (a,)),
    ],
    GadgetType.BROP: lambda a, b, c: [
        AsmItem("pop_r", (r,), None, True) for r in BROP_REGS
    ] + [AsmItem("ret")],
    GadgetType.STOP: lambda a, b, c: [AsmItem("jmp_rel8", (-2,))],
}

PLANTABLE_TYPES: tuple[GadgetType, ...] = tuple(
    t for t in GadgetType if t in _PLANTS
)


def _plant_items(gtype: GadgetType, rng: random.Random) -> list[AsmItem]:
    a = _pick(rng)
    b = _pick(rng, exclude=(a,))
    c = _pick(rng, exclude=(a, b))
    return _PLANTS[gtype](a, b, c)


def default_gadget_mix() -> dict[GadgetType, int]:
    mix = {
        GadgetType.LR: 3, GadgetType.MR: 2, GadgetType.AM: 2,
        GadgetType.LM: 2, GadgetType.SM: 2, GadgetType.AM_LD: 1,
        GadgetType.AM_ST: 1, GadgetType.LOGIC: 2, GadgetType.SP: 1,
        GadgetType.JMP: 2, GadgetType.CALL: 2, GadgetType.SYS: 1,
        GadgetType.STCONST: 1, GadgetType.STCONSTEX: 1, GadgetType.LMEX: 1,
        GadgetType.CP: 1, GadgetType.CS2: 1, GadgetType.RF: 1,
        GadgetType.EP: 1, GadgetType.BROP: 1,
    }
    return mix


# Fillers: instructions that never form gadget cores and carry no branch
# targets. mov_ri is core-bearing (register assignment) so it only appears
# in positions that cannot sit directly before a window-closing return.
_SAFE_FILLERS: tuple[Callable[[random.Random], AsmItem], ...] = (
    lambda rng: AsmItem("nop"),
    lambda rng: AsmItem("test_rr", (_pick(rng), _pick(rng))),
    lambda rng: AsmItem("inc_r", (_pick(rng),)),
    lambda rng: AsmItem("dec_r", (_pick(rng),)),
    lambda rng: AsmItem("alu_rr", ("cmp", _pick(rng), _pick(rng))),
)


def _filler(rng: random.Random, allow_core: bool) -> AsmItem:
    if allow_core and rng.random() < 0.3:
        return AsmItem("mov_ri", (_pick(rng), POISON_IMM32, 32))
    return rng.choice(_SAFE_FILLERS)(rng)


def generate(params: GenParams, seed: int) -> SynthProgram:
    """Build a program: functions of filler runs, cross-calls, and plants."""
    rng = random.Random(seed)
    n = params.n_functions
    mix = dict(
        params.gadget_mix
        if params.gadget_mix is not None
        else default_gadget_mix()
    )

    # Call graph: independent coin per ordered pair, plus a ring when the
    # harvest-from-anywhere property is required.
    edges: set[tuple[int, int]] = set()
    coin, p = rng.random, params.connectivity
    for i in range(n):
        edges.update([(i, j) for j in range(n) if j != i and coin() < p])
    if params.ensure_strongly_connected and n > 1:
        for i in range(n):
            edges.add((i, (i + 1) % n))

    # Deal plants across functions.
    plant_queue: list[GadgetType] = []
    for gtype, count in sorted(mix.items(), key=lambda kv: kv[0].value):
        plant_queue.extend([gtype] * count)
    rng.shuffle(plant_queue)
    plants_per_fn: list[list[GadgetType]] = [[] for _ in range(n)]
    for k, gtype in enumerate(plant_queue):
        plants_per_fn[k % n].append(gtype)

    calls_per_fn: list[list[int]] = [[] for _ in range(n)]
    for i, j in sorted(edges):
        calls_per_fn[i].append(j)

    functions: list[SynthFunction] = []
    plant_specs: list[PlantSpec] = []
    for fn_idx in range(n):
        items: list[AsmItem] = []
        block_starts = [0]
        guarded = list(plants_per_fn[fn_idx])
        tail_type: GadgetType | None = guarded.pop() if guarded else None

        n_fill = max(2, int(rng.gauss(params.mean_fn_len, 2)))
        segments = 1 + len(guarded) + len(calls_per_fn[fn_idx])
        per_seg = max(1, n_fill // segments)

        def fill_run(count: int) -> None:
            for _ in range(count):
                items.append(_filler(rng, allow_core=True))

        def plant(gtype: GadgetType, guard: bool) -> None:
            body = _plant_items(gtype, rng)
            # A return closes a plant that falls through, so its window
            # cannot run on into the next filler run.
            closed = body + [AsmItem("ret")] if body[-1].falls_through else body
            block_starts.append(len(items))
            if guard:
                # A conditional hop over the plant keeps the function
                # decodable end to end while the plant still closes a window.
                skip_idx = len(items) + 1 + len(closed)
                items.append(AsmItem(
                    "jcc_rel32", (rng.randrange(16),), (fn_idx, skip_idx)
                ))
            plant_specs.append(PlantSpec(gtype, fn_idx, len(items), len(body)))
            items.extend(closed)

        fill_run(per_seg)
        for callee in calls_per_fn[fn_idx]:
            items.append(AsmItem("call_rel32", (), (callee, 0)))
            fill_run(per_seg)

        for gtype in guarded:
            plant(gtype, guard=True)
            block_starts.append(len(items))
            fill_run(max(1, per_seg // 2))

        # Function tail: a plant in closing position, or a plain return
        # behind a coreless filler so no accidental window forms.
        if tail_type is not None:
            plant(tail_type, guard=False)
        else:
            if items and items[-1].op == "mov_ri":
                items.append(AsmItem("nop"))
            items.append(AsmItem("ret"))

        # Normalize block starts: unique, sorted, in range.
        starts = sorted({s for s in block_starts if 0 <= s < len(items)})
        functions.append(SynthFunction(items=items, block_starts=starts))

    return SynthProgram(
        params=params,
        seed=seed,
        functions=functions,
        plants=plant_specs,
        call_graph=tuple(sorted(edges)),
    )


# Layout. Chunks are the relocation units of a scheme; each chunk is a run
# of items plus an optional trailing link jump, placed without straddling a
# page boundary and separated from its neighbors by invalid bytes. The link
# jump is one more targeted branch of its unit: it is placed, encoded and
# recorded in the page edges like any other.


@dataclass
class _Chunk:
    items: list[tuple[int, int]]  # (fn_idx, item_idx) in emission order
    link_to: tuple[int, int] | None = None
    gap_after: int = FUNCTION_GAP
    new_page_after: bool = False


def _rename_args(item: AsmItem, mapping: Mapping[Reg, Reg]) -> AsmItem:
    if item.pin:
        return item
    new_args = tuple(
        mapping.get(a, a) if isinstance(a, Reg) else a for a in item.args
    )
    return replace(item, args=new_args)


def _layout(
    program: SynthProgram,
    chunks: Sequence[_Chunk],
    start_base: int,
    renames: Mapping[int, Mapping[Reg, Reg]] | None = None,
) -> tuple[MemoryImage, GroundTruth]:
    # Placement: a unit is its chunk's renamed items plus the link jump, if
    # any. Every item is encoded here; a targeted branch, at displacement 0,
    # only for its size, and again once every target is placed.
    functions = program.functions
    addr_of: dict[tuple[int, int], int] = {}
    laid: list[tuple[int, AsmItem, bytes]] = []
    fn_pages: list[set[int]] = [set() for _ in functions]
    cursor = last_used = start_base
    for chunk in chunks:
        unit: list[tuple[tuple[int, int] | None, AsmItem]] = []
        for f, i in chunk.items:
            item = functions[f].items[i]
            if renames and f in renames:
                item = _rename_args(item, renames[f])
            unit.append(((f, i), item))
        if chunk.link_to is not None:
            unit.append((None, AsmItem("jmp_rel32", (), chunk.link_to)))
        codes = [
            getattr(enc, item.op)(
                *item.args, *(() if item.target is None else (0,))
            )
            for _, item in unit
        ]
        size = sum(map(len, codes))
        if size > PAGE_SIZE:
            raise ValueError("relocation unit larger than a page")
        if page_base(cursor) != page_base(cursor + size - 1):
            cursor = page_base(cursor) + PAGE_SIZE
        page = page_base(cursor)
        for (key, item), code in zip(unit, codes):
            if key is not None:
                addr_of[key] = cursor
                fn_pages[key[0]].add(page)
            laid.append((cursor, item, code))
            cursor += len(code)
        last_used = cursor
        cursor += chunk.gap_after
        if chunk.new_page_after:
            cursor = page_base(cursor) + PAGE_SIZE

    # Encoding: resolve every targeted branch, link jumps included, and note
    # each direct branch's page edge. Pages past the last emitted byte are
    # never materialized.
    lo_page = page_base(start_base)
    hi_page = page_base(last_used - 1 if last_used > start_base else start_base)
    if hi_page + PAGE_SIZE > 1 << 64:
        raise ValueError(
            f"malformed params: the layout from {start_base:#x} ends past 2**64"
        )
    n_pages = (hi_page - lo_page) // PAGE_SIZE + 1
    blob = bytearray(bytes([POISON_BYTE]) * (n_pages * PAGE_SIZE))
    page_edges: dict[int, set[int]] = {}
    for addr, item, code in laid:
        size = len(code)
        target = None
        if item.target is not None:
            target = addr_of[item.target]
            code = getattr(enc, item.op)(*item.args, target - (addr + size))
        elif item.op == "jmp_rel8":
            target = addr + size + item.args[0]
        if target is not None:
            page_edges.setdefault(page_base(addr), set()).add(page_base(target))
        blob[addr - lo_page : addr - lo_page + size] = code

    pages = []
    for k in range(n_pages):
        base = lo_page + k * PAGE_SIZE
        data = bytes(blob[k * PAGE_SIZE : (k + 1) * PAGE_SIZE])
        pages.append(PageRecord(base, RX, SegmentTag.CODE, data))
    image = MemoryImage(pages, metadata={"generator": "synth"})

    planted = tuple(
        PlantRecord(
            p.gtype, addr_of[(p.fn_idx, p.start_item)], p.n_items, p.fn_idx
        )
        for p in program.plants
    )
    truth = GroundTruth(
        planted=planted,
        page_edges={p: frozenset(t) for p, t in sorted(page_edges.items())},
        function_entries=tuple(addr_of[(f, 0)] for f in range(len(functions))),
        function_pages=tuple(map(frozenset, fn_pages)),
        call_graph=program.call_graph,
    )
    return image, truth


def _function_chunks(
    program: SynthProgram, order: Sequence[int]
) -> list[_Chunk]:
    chunks = []
    per_page = program.params.max_functions_per_page
    for pos, f in enumerate(order):
        chunk = _Chunk(
            items=[(f, i) for i in range(len(program.functions[f].items))],
        )
        if per_page is not None and (pos + 1) % per_page == 0:
            chunk.new_page_after = True
        chunks.append(chunk)
    return chunks


def _block_chunks(
    program: SynthProgram, rng: random.Random
) -> list[_Chunk]:
    blocks: list[_Chunk] = []
    for f, fn in enumerate(program.functions):
        bounds = list(fn.block_starts) + [len(fn.items)]
        for b in range(len(bounds) - 1):
            span = [(f, i) for i in range(bounds[b], bounds[b + 1])]
            if not span:
                continue
            last = fn.items[span[-1][1]]
            link = None
            if last.falls_through and bounds[b + 1] < len(fn.items):
                link = (f, bounds[b + 1])
            blocks.append(_Chunk(items=span, link_to=link))
    rng.shuffle(blocks)
    return blocks


def _instruction_chunks(
    program: SynthProgram, rng: random.Random
) -> list[_Chunk]:
    cells: list[_Chunk] = []
    for f, fn in enumerate(program.functions):
        for i, item in enumerate(fn.items):
            link = None
            if item.falls_through and i + 1 < len(fn.items):
                link = (f, i + 1)
            cells.append(
                _Chunk(
                    items=[(f, i)],
                    link_to=link,
                    gap_after=rng.randint(CELL_GAP_MIN, CELL_GAP_MAX),
                )
            )
    rng.shuffle(cells)
    return cells


def materialize(program: SynthProgram) -> tuple[MemoryImage, GroundTruth]:
    """Identity layout: original function order at the requested base."""
    order = list(range(len(program.functions)))
    chunks = _function_chunks(program, order)
    return _layout(program, chunks, program.params.base)


def apply_scheme(
    program: SynthProgram, scheme: RandomizationScheme
) -> tuple[MemoryImage, GroundTruth]:
    """Re-lay the program under a rerandomization scheme."""
    rng = random.Random(scheme.seed)
    n = len(program.functions)

    renames: Mapping[int, Mapping[Reg, Reg]] | None = None
    if scheme.rename_registers:
        if scheme.kind is not SchemeKind.FUNCTION:
            raise ValueError(
                "register renaming applies to function-level rerandomization"
            )
        renames = {}
        for f in range(n):
            perm = list(RENAME_DOMAIN)
            rng.shuffle(perm)
            renames[f] = dict(zip(RENAME_DOMAIN, perm))

    base = program.params.base
    if scheme.kind is SchemeKind.COARSE:
        base += (1 + rng.randrange(63)) * PAGE_SIZE
        chunks = _function_chunks(program, list(range(n)))
    elif scheme.kind is SchemeKind.FUNCTION:
        order = list(range(n))
        rng.shuffle(order)
        chunks = _function_chunks(program, order)
    elif scheme.kind is SchemeKind.BLOCK:
        chunks = _block_chunks(program, rng)
    else:
        chunks = _instruction_chunks(program, rng)
    return _layout(program, chunks, base, renames)


def erase_plants(
    image: MemoryImage,
    truth: GroundTruth,
    gtype: GadgetType,
) -> MemoryImage:
    """Overwrite every planted gadget of one type with invalid bytes,
    returning a new image. Models targeted gadget elimination."""
    spans = [
        (plant.addr, plant.n_items)
        for plant in truth.planted
        if plant.gtype is gtype
    ]
    new_pages = {p.base: bytearray(p.data) for p in image.pages}
    for addr, n_items in spans:
        pos = addr
        for _ in range(n_items):
            page = image.page_at(pos)
            insn = decode(page.data, pos, pos - page.base)
            if insn is None:
                break
            new_pages[page.base][
                pos - page.base : pos - page.base + insn.length
            ] = bytes([POISON_BYTE]) * insn.length
            pos = insn.end

    rebuilt = [
        PageRecord(p.base, p.perms, p.tag, bytes(new_pages[p.base]))
        for p in image.pages
    ]
    return MemoryImage(rebuilt, metadata=dict(image.metadata))
