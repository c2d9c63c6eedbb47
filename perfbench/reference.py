#!/usr/bin/env python3
"""Regenerate perfbench/reference_checksums.json.

    python3 perfbench/reference.py --seeds 1 2 3 4 5 6 7 8 9 10

For each workload and seed, set the workload up, run its checked round and
store the combined sha256 of its inputs and of its canonical outputs. A
benchmark run with one of these seeds reports correct=false when its
checksums differ, so a change that moves any output on the seeded corpora
shows as incorrect rather than as a speed-up.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    import runner

    reference: dict[str, dict[str, dict[str, str]]] = {}
    for workload in runner.WORKLOADS:
        for seed in args.seeds:
            work = HERE.parent / ".perfbench_out" / f"reference-{workload}-{seed}"
            try:
                prep = runner.prepare(workload, seed, work)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if prep.problems:
                print(f"{workload} seed {seed}: {prep.problems}", file=sys.stderr)
                return 1
            reference.setdefault(workload, {})[str(seed)] = {
                "inputs": runner.combined(prep.inputs),
                "outputs": runner.combined(prep.outputs),
            }
            print(f"{workload} seed {seed}: {reference[workload][str(seed)]}")
    runner.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
