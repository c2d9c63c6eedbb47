"""Rerandomization interval analysis.

Runs the harvester from every plausible per-page start pointer and reduces
the traces to the defender-facing question: how quickly can an attacker who
leaks one pointer accumulate a working gadget set, and which rerandomization
intervals still defeat the fastest such run.

The model is single-round: the measured fastest convergence clock is the
upper bound the interval must not exceed. Mid-harvest layout shuffles that
invalidate partial knowledge are out of scope.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping, Sequence

from ropscope.canonical import csv_text
from ropscope.gadgets import BUILTIN_SETS
from ropscope.harvest import (
    EventKind,
    HarvestOptions,
    ImageAnalysis,
    _walk_from,
    page_start_pointers,
)
from ropscope.snapshot import MemoryImage


@dataclass(frozen=True)
class ConvergenceRecord:
    """Outcome of one harvesting run tracked against a gadget set.

    type_timeline holds (clock, cumulative distinct types available) pairs,
    one per newly leaked type; counts never decrease. leak_fraction is the
    share of total clock spent leaking pages rather than analyzing code.
    """

    start: int
    set_name: str
    convergence_clock: int | None
    type_timeline: tuple[tuple[int, int], ...]
    leak_fraction: float
    total_cost: int
    pages_found: int

    @property
    def converged(self) -> bool:
        return self.convergence_clock is not None

    def time_to_k_types(self, k: int) -> int | None:
        """Clock at which the k-th distinct tracked type became available."""
        if k <= 0:
            return 0
        for clock, count in self.type_timeline:
            if count >= k:
                return clock
        return None

    def to_dict(self) -> dict:
        return {
            "start": f"{self.start:#x}",
            "set": self.set_name,
            "converged": self.converged,
            "convergence_clock": self.convergence_clock,
            "leak_fraction": round(self.leak_fraction, 6),
            "total_cost": self.total_cost,
            "pages_found": self.pages_found,
            "type_timeline": [list(entry) for entry in self.type_timeline],
        }


def converge(
    image: MemoryImage,
    start: int,
    opts: HarvestOptions = HarvestOptions(),
    analysis: ImageAnalysis | None = None,
) -> ConvergenceRecord:
    """Harvest from one start until the tracked set (`opts.track_set`, the
    `tc` set when None) is covered or the reachable code is exhausted. An
    analysis shared across starts saves repeated decoding and mining; see
    harvest. It runs harvest's clocked loop but keeps only the clocks: no
    page events and no gadgets."""
    spec = opts.track_set or BUILTIN_SETS["tc"]
    run_opts = replace(opts, track_set=spec, stop_on_convergence=True)
    walk = _walk_from(image, start, run_opts, analysis, page_events=False)
    events = walk.events
    # The walk stops on convergence, so its event is the last one.
    converged = bool(events) and events[-1].kind is EventKind.CONVERGED
    leaks = [e.clock for e in events if e.kind is EventKind.TYPE_LEAKED]
    total = walk.leak_cost + walk.analysis_cost
    return ConvergenceRecord(
        start=start,
        set_name=spec.name,
        convergence_clock=events[-1].clock if converged else None,
        type_timeline=tuple(
            (clock, k) for k, clock in enumerate(leaks, 1)
        ),
        leak_fraction=walk.leak_cost / total if total else 0.0,
        total_cost=total,
        pages_found=len(walk.nodes),
    )


def merged_time_to_types(
    records: Sequence[ConvergenceRecord], n_types: int
) -> list[int | None]:
    """Best (minimum) clock to k available types over all runs, k=1..n."""
    out: list[int | None] = []
    for k in range(1, n_types + 1):
        times = [
            t for r in records if (t := r.time_to_k_types(k)) is not None
        ]
        out.append(min(times) if times else None)
    return out


def _non_reactive_intervals(
    merged: Sequence[int | None],
) -> tuple[tuple[int, int], ...]:
    """Maximal clock spans where the best attacker's available-type count
    stays constant; rerandomizing later inside a span defeats nothing
    extra."""
    intervals: list[tuple[int, int]] = []
    prev_clock = 0
    for clock in merged:
        if clock is None:
            break
        if clock > prev_clock:
            intervals.append((prev_clock, clock))
        prev_clock = clock
    return tuple(intervals)


@dataclass(frozen=True)
class UpperBoundReport:
    spec_name: str
    per_start: Mapping[int, ConvergenceRecord]
    minimum_clock: int | None
    average_clock: float | None
    non_reactive_intervals: tuple[tuple[int, int], ...]

    @property
    def converged_count(self) -> int:
        return sum(1 for r in self.per_start.values() if r.converged)

    def to_dict(self) -> dict:
        return {
            "set": self.spec_name,
            "starts": len(self.per_start),
            "converged_starts": self.converged_count,
            "minimum_clock": self.minimum_clock,
            "average_clock": self.average_clock,
            "non_reactive_intervals": [
                list(iv) for iv in self.non_reactive_intervals
            ],
            "per_start": [
                r.to_dict() for _, r in sorted(self.per_start.items())
            ],
        }

    def timeline_csv(self) -> str:
        return csv_text(
            ["start", "clock", "types_available"],
            (
                [f"{record.start:#x}", clock, count]
                for _, record in sorted(self.per_start.items())
                for clock, count in record.type_timeline
            ),
        )


def upper_bound(
    image: MemoryImage, opts: HarvestOptions = HarvestOptions()
) -> UpperBoundReport:
    """Converge from one deterministic pointer per code page, tracking
    `opts.track_set` (the `tc` set when None); the minimum over converged
    runs is the largest interval that still defeats every measured attack
    path."""
    spec = opts.track_set or BUILTIN_SETS["tc"]
    analysis = ImageAnalysis(image, opts)
    # Each start lies in its own page, so no start repeats.
    starts = page_start_pointers(image, opts, analysis)
    records = {
        start: converge(image, start, opts, analysis)
        for _, start in sorted(starts.items())
    }

    converged_clocks = [
        clock
        for r in records.values()
        if (clock := r.convergence_clock) is not None
    ]
    minimum = min(converged_clocks) if converged_clocks else None
    average = (
        float(statistics.fmean(converged_clocks)) if converged_clocks else None
    )
    merged = merged_time_to_types(list(records.values()), len(spec.required))
    return UpperBoundReport(
        spec_name=spec.name,
        per_start=records,
        minimum_clock=minimum,
        average_clock=average,
        non_reactive_intervals=_non_reactive_intervals(merged),
    )


class IntervalSafety(str, Enum):
    SAFE = "safe"
    UNSAFE = "unsafe"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


def check_interval(interval: int) -> None:
    """Raise ValueError unless `interval` can be judged: a positive number
    of clock ticks."""
    if interval <= 0:
        raise ValueError("interval must be positive")


def evaluate_interval(interval: int, report: UpperBoundReport) -> IntervalSafety:
    """Judge a rerandomization interval against measured convergence.

    Unsafe exactly when the fastest converged run beats the interval
    strictly: rerandomizing at the same tick the attacker would finish
    still defeats the attack.
    """
    check_interval(interval)
    if report.minimum_clock is not None and report.minimum_clock < interval:
        return IntervalSafety.UNSAFE
    return IntervalSafety.SAFE


def interval_verdict(interval: int, report: UpperBoundReport) -> dict:
    """evaluate_interval's verdict with what it was judged on."""
    return {
        "interval": interval,
        "safety": evaluate_interval(interval, report).value,
        "minimum_clock": report.minimum_clock,
    }
