#!/usr/bin/env python3
"""Sweep harvester convergence times across start pointers and report which
rerandomization intervals remain safe.

Works on a saved snapshot or, with --generate, on a fresh synthetic program.
Prints the per-start convergence table, the merged non-reactive intervals,
and a verdict line per requested interval. Optionally dumps the raw
(start, clock, types) timeline as CSV for plotting.
"""

from __future__ import annotations

import argparse
import sys

from ropscope.cli import run_guarded
from ropscope.gadgets import BUILTIN_SETS, load_set_spec
from ropscope.harvest import HarvestOptions
from ropscope.rerand import check_interval, evaluate_interval, upper_bound
from ropscope.snapshot import load_image
from ropscope.synth import GenParams, generate, materialize


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("snapshot", nargs="?", help="snapshot or ELF to study")
    ap.add_argument("--generate", action="store_true",
                    help="study a generated program instead of a file")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed of the generated program")
    ap.add_argument("--functions", type=int, default=GenParams.n_functions)
    ap.add_argument("--set", default="tc",
                    choices=sorted(BUILTIN_SETS))
    ap.add_argument("--set-file", default=None,
                    help="JSON gadget-set spec; overrides --set")
    ap.add_argument("--intervals", type=int, nargs="*", default=[],
                    help="candidate rerandomization intervals to judge")
    ap.add_argument("--max-len", type=int, default=10,
                    help="mining window size; 10 covers the longest plant, "
                         "BROP's 8 pops plus ret")
    ap.add_argument("--start-seed", type=int, default=None,
                    help="draw each page's start pointer from its "
                         "candidates with this seed, not the lowest")
    ap.add_argument("--timeline-csv", default=None)
    args = ap.parse_args(argv)
    if not (args.generate or args.snapshot):
        ap.error("give a snapshot path or --generate")
    return run_guarded(lambda: study(args))


def study(args) -> int:
    """Check every option, then load or generate the image and report."""
    for interval in args.intervals:
        check_interval(interval)
    spec = (load_set_spec(args.set_file) if args.set_file
            else BUILTIN_SETS[args.set])
    opts = HarvestOptions(
        max_gadget_len=args.max_len,
        track_set=spec,
        start_seed=args.start_seed,
    )
    if args.generate:
        params = GenParams(n_functions=args.functions)
        image, _ = materialize(generate(params, args.seed))
    else:
        image = load_image(args.snapshot)
    report = upper_bound(image, opts)

    print(f"tracked set: {report.spec_name} "
          f"({len(spec.required)} types)")
    print(f"{'start':>14}  {'converged':>9}  {'clock':>8}  "
          f"{'leak%':>6}  pages")
    for _, rec in sorted(report.per_start.items()):
        clock = rec.convergence_clock if rec.converged else "-"
        print(f"{rec.start:#14x}  {str(rec.converged):>9}  {clock:>8}  "
              f"{100 * rec.leak_fraction:6.1f}  {rec.pages_found}")
    print(f"minimum clock: {report.minimum_clock}   "
          f"average: {report.average_clock}")
    for lo, hi in report.non_reactive_intervals:
        print(f"non-reactive window [{lo}, {hi})")

    for interval in args.intervals:
        verdict = evaluate_interval(interval, report=report)
        print(f"interval {interval}: {verdict.value}")

    if args.timeline_csv:
        with open(args.timeline_csv, "w") as fh:
            fh.write(report.timeline_csv())
        print(f"wrote {args.timeline_csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
