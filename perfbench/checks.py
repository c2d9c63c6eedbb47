"""Output checks, each against a value the benchmark computes on its own.

Every check returns a list of problems; an empty list means the output is
right. Expected values come from the generator's ground-truth files and the
bytes the benchmark wrote, never from another ropscope call.
"""

from __future__ import annotations

import csv
import io
import json
import statistics

PAGE_MASK = ~0xFFF
TC_TYPES = 11


def reachable_pages(truth: dict, start: int) -> set[int]:
    """Pages reachable from the start's page over the truth's branch edges."""
    edges = {
        int(page, 16): [int(t, 16) for t in targets]
        for page, targets in truth["page_edges"].items()
    }
    seen = {start & PAGE_MASK}
    frontier = list(seen)
    while frontier:
        for nxt in edges.get(frontier.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def check_harvest(jsonl: str, truth: dict, start: int) -> list[str]:
    lines = [json.loads(line) for line in jsonl.splitlines()]
    pages = [
        e["payload"]["base"] for e in lines[1:] if e["kind"] == "page_discovered"
    ]
    expected = reachable_pages(truth, start)
    problems = []
    if set(pages) != expected or len(pages) != len(expected):
        problems.append(
            f"harvest from {start:#x} leaked {len(pages)} pages, "
            f"ground truth reaches {len(expected)}"
        )
    if lines[0]["pages_found"] != len(expected):
        problems.append("harvest summary pages_found disagrees with the trace")
    return problems


def check_upper_bound(report_json: str, timeline_csv: str, exec_pages: int) -> list[str]:
    report = json.loads(report_json)
    problems = []
    if not report["starts"] == report["converged_starts"] == exec_pages:
        problems.append(
            f"upper-bound: {report['starts']} starts, "
            f"{report['converged_starts']} converged, {exec_pages} pages"
        )
    clocks = [
        r["convergence_clock"] for r in report["per_start"] if r["converged"]
    ] or [None]
    if report["minimum_clock"] != min(clocks):
        problems.append("upper-bound minimum_clock is not the least clock")
    if clocks != [None] and report["average_clock"] != statistics.fmean(clocks):
        problems.append("upper-bound average_clock is not the mean clock")
    rows = []
    for record in report["per_start"]:
        timeline = record["type_timeline"]
        times = [clock for clock, _ in timeline]
        if times != sorted(times):
            problems.append(f"timeline of {record['start']} goes back in time")
        if [count for _, count in timeline] != list(range(1, TC_TYPES + 1)):
            problems.append(f"timeline of {record['start']} miscounts types")
        leak = record["leak_fraction"] * record["total_cost"]
        if abs(leak - 100 * record["pages_found"]) > 1e-6 * record["total_cost"]:
            problems.append(f"leak fraction of {record['start']} is off")
        rows += [[record["start"], str(c), str(n)] for c, n in timeline]
    parsed = list(csv.reader(io.StringIO(timeline_csv)))
    if parsed != [["start", "clock", "types_available"]] + rows:
        problems.append("timeline CSV rows differ from the JSON timelines")
    return problems


def check_compare(compare_json: str) -> list[str]:
    stats = json.loads(compare_json)
    counts = {name: s["min_fp_labels"] for name, s in stats.items()}
    problems = []
    if not counts["baseline"] == counts["coarse"] == counts["function"]:
        problems.append(f"MIN-footprint counts differ across layouts: {counts}")
    if not counts["instruction"] < counts["baseline"]:
        problems.append(f"instruction layout kept every MIN gadget: {counts}")
    return problems


def check_plants(gadgets_json: str, verdicts_csv: str, truth: dict, layout: str) -> list[str]:
    """Every planted gadget is mined at its address with its planted type,
    a MIN footprint and an uncorrupted verdict for that window."""
    verdicts = list(csv.DictReader(io.StringIO(verdicts_csv)))
    windows: dict[tuple[str, str], list[str]] = {}
    position = 0
    for row in json.loads(gadgets_json)["gadgets"]:
        footprints = dict(f.split("=") for f in row["footprints"].split("|") if f)
        # corrupt assesses each window's types in sorted order, in mining order
        for gtype in sorted(footprints):
            verdict = verdicts[position]
            position += 1
            if (verdict["addr"], verdict["type"]) != (row["addr"], gtype):
                return [f"{layout}: verdict rows do not follow the mined windows"]
            windows.setdefault((row["addr"], gtype), []).append(
                footprints[gtype] + verdict["corrupted"]
            )
    if position != len(verdicts):
        return [f"{layout}: {len(verdicts) - position} verdicts without a window"]
    missing = [
        f"{p['type']}@{p['addr']}"
        for p in truth["planted"]
        if "MIN0" not in windows.get((p["addr"], p["type"]), [])
    ]
    if missing:
        return [f"{layout}: planted gadgets not mined as MIN and sound: {missing}"]
    return []


def check_scan(scan_json: str, planted: list[int], data_pages: int) -> list[str]:
    report = json.loads(scan_json)
    expected = {
        "scanned_pages": data_pages,
        "scanned_words": data_pages * 512,
        "occurrences": len(planted),
        "unique_values": len(set(planted)),
        "by_tag": {"data": len(planted)},
    }
    got = {key: report[key] for key in expected}
    if got != expected:
        return [f"scan found {got}, planted {expected}"]
    return []
