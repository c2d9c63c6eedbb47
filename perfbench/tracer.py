"""Per-layer tracing from outside the program.

While active, a Tracer replaces public functions of ropscope's modules with
timing wrappers, in every ropscope module that binds them, and puts the
originals back when it stops; no file of the program changes. Calls at
layer boundaries become spans (id, name, start, end, parent, leaf time)
kept in memory. The hottest leaf calls (decode, classify, leaked_types and
the encoder) are counted and timed in aggregate instead of spanned, so that
memory stays bounded; their time is charged to the enclosing span, so a
span's self time is its duration minus its child spans and leaf calls.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

MIB = float(1 << 20)

# (module, attribute) of each function recorded as a span.
SPANS = (
    ("cli", "main"),
    ("snapshot", "load_elf"),
    ("snapshot", "load_snapshot"),
    ("snapshot", "save_snapshot"),
    ("disasm", "PageDisasm.add_entries"),
    ("disasm", "extract_chain_targets"),
    ("gadgets", "find_gadgets"),
    ("gadgets", "evaluate_set"),
    ("harvest", "harvest"),
    ("harvest", "page_start_pointers"),
    ("harvest", "collect_branch_targets"),
    ("harvest", "offline_disassemble"),
    ("harvest", "mine_image"),
    ("rerand", "converge"),
    ("rerand", "upper_bound"),
    ("quality", "assess_gadgets"),
    ("synth", "generate"),
    ("synth", "materialize"),
    ("synth", "apply_scheme"),
    ("ptrscan", "scan_pointers"),
)

# (module, attribute) of each leaf function timed in aggregate.
LEAVES = (("disasm", "decode"), ("gadgets", "classify"), ("gadgets", "leaked_types"))


def _pages(image) -> int:
    return len(image) * 4096


# Counts taken from a span's arguments and result, keyed by span name.
_COUNTS = {
    "snapshot.load_elf": lambda args, r: {"load_elf_bytes": _pages(r)},
    "snapshot.load_snapshot": lambda args, r: {"load_snapshot_bytes": _pages(r)},
    "snapshot.save_snapshot": lambda args, r: {"save_snapshot_bytes": _pages(args[0])},
    "disasm.add_entries": lambda args, r: {"insns_added": r},
    "disasm.extract_chain_targets": lambda args, r: {"chain_insns": len(args[0])},
    "gadgets.find_gadgets": lambda args, r: {"insns_mined": len(args[0])},
    "harvest.harvest": lambda args, r: {"pages_leaked": r.pages_found},
    "quality.assess_gadgets": lambda args, r: {"verdicts": len(r)},
    "synth.materialize": lambda args, r: {"pages_laid_out": len(r[0])},
    "synth.apply_scheme": lambda args, r: {"pages_laid_out": len(r[0])},
    "ptrscan.scan_pointers": lambda args, r: {
        "words_scanned": r.scanned_words, "hits": r.occurrences,
    },
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._undo: list[tuple] = []
        self._stack: list[list] = []  # open spans: [id, leaf seconds]
        self._in_leaf = False
        self._next_id = 0
        self.reset()

    def reset(self) -> None:
        """Start a new measurement window; spans already recorded are kept."""
        self.first_span = len(self.spans)
        self.leaves: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.counts: Counter = Counter()
        self.decoded_addrs: set[int] = set()

    # Installing and removing the wrappers.

    def start(self) -> None:
        for module, attr in SPANS:
            self._wrap(module, attr, self._span)
        for module, attr in LEAVES:
            self._wrap(module, attr, self._leaf)
        encode = sys.modules["ropscope.encode"]
        for attr, value in list(vars(encode).items()):
            if callable(value) and not attr.startswith("_") and \
                    getattr(value, "__module__", None) == encode.__name__:
                self._wrap("encode", attr, self._leaf, name="encode")

    def stop(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> Tracer:
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _wrap(self, module: str, attr: str, make, name: str | None = None) -> None:
        owner = sys.modules[f"ropscope.{module}"]
        if "." in attr:  # a method: rebind it on its class only
            cls_name, attr = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, make(name or f"{module}.{attr}", original))
            return
        original = getattr(owner, attr)
        wrapper = make(name or f"{module}.{attr}", original)
        # `from x import f` copies the binding, so rebind f everywhere.
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "ropscope" or mod_name.startswith("ropscope."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def _span(self, name: str, fn):
        count = _COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            self._next_id += 1
            frame = [self._next_id, 0.0]
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.spans.append((frame[0], name, t0, t1, parent, frame[1]))
            if count is not None:
                self.counts.update(count(args, result))
            return result

        return wrapper

    def _leaf(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_leaf:  # a leaf calling another: counted once
                return fn(*args, **kwargs)
            self._in_leaf = True
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                self._in_leaf = False
                agg = self.leaves[name]
                agg[0] += 1
                agg[1] += elapsed
                if self._stack:
                    self._stack[-1][1] += elapsed
            if name == "disasm.decode":
                self.decoded_addrs.add(args[1])
                if result is None:
                    self.counts["decode_invalid"] += 1
            return result

        return wrapper

    # Deriving the per-layer metrics of the current window.

    def metrics(self) -> dict[str, float]:
        spans = self.spans[self.first_span :]
        child_s: dict[int, float] = defaultdict(float)
        for _sid, _name, t0, t1, parent, _leaf in spans:
            if parent is not None:
                child_s[parent] += t1 - t0
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for sid, name, t0, t1, _parent, leaf_s in spans:
            total[name] += t1 - t0
            own[name] += t1 - t0 - child_s[sid] - leaf_s
            calls[name] += 1
        leaf_calls = {name: agg[0] for name, agg in self.leaves.items()}
        leaf_s = {name: agg[1] for name, agg in self.leaves.items()}
        c = self.counts

        def rate(amount: float, seconds: float) -> float:
            return amount / seconds if seconds > 0 else 0.0

        decode_calls = leaf_calls.get("disasm.decode", 0)
        return {
            "snapshot.load_elf_s": total["snapshot.load_elf"],
            "snapshot.load_elf_mib_per_s":
                rate(c["load_elf_bytes"] / MIB, total["snapshot.load_elf"]),
            "snapshot.load_snapshot_s": total["snapshot.load_snapshot"],
            "snapshot.load_snapshot_mib_per_s":
                rate(c["load_snapshot_bytes"] / MIB, total["snapshot.load_snapshot"]),
            "snapshot.save_snapshot_s": total["snapshot.save_snapshot"],
            "snapshot.save_snapshot_mib_per_s":
                rate(c["save_snapshot_bytes"] / MIB, total["snapshot.save_snapshot"]),
            "disasm.decode_calls": decode_calls,
            "disasm.decode_invalid": c["decode_invalid"],
            "disasm.decode_s": leaf_s.get("disasm.decode", 0.0),
            "disasm.decode_distinct_ratio":
                len(self.decoded_addrs) / decode_calls if decode_calls else 0.0,
            "disasm.add_entries_calls": calls["disasm.add_entries"],
            "disasm.add_entries_self_s": own["disasm.add_entries"],
            "disasm.insns_added": c["insns_added"],
            "disasm.chain_targets_calls": calls["disasm.extract_chain_targets"],
            "disasm.chain_targets_s": total["disasm.extract_chain_targets"],
            "disasm.chain_insns_scanned": c["chain_insns"],
            "gadgets.find_gadgets_calls": calls["gadgets.find_gadgets"],
            "gadgets.find_gadgets_self_s": own["gadgets.find_gadgets"],
            "gadgets.insns_mined": c["insns_mined"],
            "gadgets.classify_calls": leaf_calls.get("gadgets.classify", 0),
            "gadgets.classify_s": leaf_s.get("gadgets.classify", 0.0),
            "gadgets.windows_per_s": rate(
                leaf_calls.get("gadgets.classify", 0), total["gadgets.find_gadgets"]
            ),
            "gadgets.leaked_types_calls": leaf_calls.get("gadgets.leaked_types", 0),
            "gadgets.leaked_types_s": leaf_s.get("gadgets.leaked_types", 0.0),
            "gadgets.evaluate_set_s": total["gadgets.evaluate_set"],
            "harvest.harvest_calls": calls["harvest.harvest"],
            "harvest.harvest_self_s": own["harvest.harvest"],
            "harvest.pages_leaked": c["pages_leaked"],
            "harvest.start_pointers_s": total["harvest.page_start_pointers"],
            "harvest.branch_scan_s": total["harvest.collect_branch_targets"],
            "harvest.offline_disassemble_self_s": own["harvest.offline_disassemble"],
            "harvest.mine_image_self_s": own["harvest.mine_image"],
            "rerand.converge_calls": calls["rerand.converge"],
            "rerand.converge_self_s": own["rerand.converge"],
            "rerand.upper_bound_self_s": own["rerand.upper_bound"],
            "quality.assess_s": total["quality.assess_gadgets"],
            "quality.verdicts": c["verdicts"],
            "quality.verdicts_per_s":
                rate(c["verdicts"], total["quality.assess_gadgets"]),
            "synth.generate_s": total["synth.generate"],
            "synth.layout_s": total["synth.materialize"] + total["synth.apply_scheme"],
            "synth.pages_laid_out": c["pages_laid_out"],
            "encode.calls": leaf_calls.get("encode", 0),
            "encode.s": leaf_s.get("encode", 0.0),
            "ptrscan.scan_s": total["ptrscan.scan_pointers"],
            "ptrscan.words_scanned": c["words_scanned"],
            "ptrscan.words_per_s":
                rate(c["words_scanned"], total["ptrscan.scan_pointers"]),
            "ptrscan.hits": c["hits"],
            "cli.self_s": own["cli.main"],
        }

    def write_spans(self, path: Path) -> None:
        with path.open("w") as fh:
            for sid, name, t0, t1, parent, leaf_s in self.spans:
                fh.write(json.dumps(
                    {"id": sid, "name": name, "start": t0, "end": t1,
                     "parent": parent, "leaf_s": leaf_s},
                    separators=(",", ":"),
                ) + "\n")
