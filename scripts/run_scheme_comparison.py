#!/usr/bin/env python3
"""Measure how each rerandomization scheme changes the surviving gadget
population over a corpus of synthetic programs.

For every program the baseline layout is mined, then each requested scheme
is applied and mined again. The headline number is the percentage change in
minimal-footprint gadgets; coarse and function-level shuffles should leave
it at zero while instruction-level dispersal should cut it sharply.

Example:
    python3 scripts/run_scheme_comparison.py --programs 20 --seed 3 \
        --schemes coarse function block instruction --json out.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import Counter

from ropscope.cli import run_guarded
from ropscope.gadgets import min_fp_reduction_pct
from ropscope.harvest import HarvestOptions, image_population
from ropscope.synth import (
    GenParams,
    RandomizationScheme,
    SchemeKind,
    apply_scheme,
    default_gadget_mix,
    generate,
    materialize,
)


def run_program(seed: int, params: GenParams, schemes, opts) -> dict:
    program = generate(params, seed)
    base_image, truth = materialize(program)
    base = image_population(base_image, opts)["min_fp_labels"]
    row = {
        "seed": seed,
        "baseline_min_fp": base,
        "multi_instruction_plants": truth.multi_instruction_plants,
        "schemes": {},
    }
    for kind in schemes:
        scheme = RandomizationScheme(kind=kind, seed=seed + 1)
        image, _ = apply_scheme(program, scheme)
        count = image_population(image, opts)["min_fp_labels"]
        row["schemes"][kind.value] = {
            "min_fp": count,
            "reduction_pct": round(min_fp_reduction_pct(base, count), 2),
        }
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--programs", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--functions", type=int, default=GenParams.n_functions)
    ap.add_argument("--mean-len", type=int, default=GenParams.mean_fn_len)
    ap.add_argument("--mix-scale", type=int, default=2,
                    help="repeat the default plant mix this many times")
    ap.add_argument(
        "--schemes", nargs="+",
        default=["coarse", "function", "block", "instruction"],
        choices=[k.value for k in SchemeKind],
    )
    ap.add_argument("--max-len", type=int, default=10,
                    help="mining window size; 10 covers the longest plant, "
                         "BROP's 8 pops plus ret")
    ap.add_argument("--json", default=None, help="write full results here")
    args = ap.parse_args(argv)
    return run_guarded(lambda: compare(args))


def compare(args) -> int:
    """Check every option, then mine each program under each scheme and
    report."""
    if args.programs < 1:
        raise ValueError("--programs must be at least 1")
    mix = {t: n * args.mix_scale for t, n in default_gadget_mix().items()}
    params = GenParams(
        n_functions=args.functions,
        mean_fn_len=args.mean_len,
        gadget_mix=mix,
    )
    schemes = [SchemeKind(s) for s in args.schemes]
    opts = HarvestOptions(max_gadget_len=args.max_len)

    rows = [
        run_program(args.seed + i, params, schemes, opts)
        for i in range(args.programs)
    ]

    width = max(len(k.value) for k in schemes)
    print(f"programs: {len(rows)}   plants/program: {sum(mix.values())} "
          f"({rows[0]['multi_instruction_plants']} multi-instruction)")
    print(f"{'scheme':<{width}}  mean reduction  min  max  zero-change")
    for kind in schemes:
        cuts = [r["schemes"][kind.value]["reduction_pct"] for r in rows]
        zeros = sum(1 for c in cuts if c == 0.0)
        print(
            f"{kind.value:<{width}}  {statistics.fmean(cuts):13.2f}%"
            f"  {min(cuts):.1f}  {max(cuts):.1f}  {zeros}/{len(cuts)}"
        )

    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"params": params.to_dict(), "rows": rows}, fh,
                      indent=2, sort_keys=True)
        print(f"wrote {args.json}")

    histogram = Counter()
    for row in rows:
        for kind in schemes:
            if row["schemes"][kind.value]["min_fp"] > row["baseline_min_fp"]:
                histogram[kind.value] += 1
    if histogram:
        print("WARNING: schemes that ever increased minimal gadgets:",
              dict(histogram))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
