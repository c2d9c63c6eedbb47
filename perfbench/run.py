#!/usr/bin/env python3
"""Run one workload of the ropscope benchmark and print its metrics.

    python3 perfbench/run.py --workload converge --seed 1 --seconds 20 --trace 0

Run it from a source checkout: it imports ropscope from src/. The last
line of stdout is the result, one JSON object with the keys correct,
attempted, failed and metrics; the metrics are the end-to-end ones of
BENCHMARK.json with --trace 0 and the per-layer ones with --trace 1. The
line before it is the run's record (versions, commit, checksums of every
input and output, sample counts), which is also written under
.perfbench_out/ together with the spans of a traced run. See README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("converge", "survey", "ingest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "ropscope" / "cli.py").is_file() or not spec_path.is_file():
        print("perfbench: run from a ropscope checkout with src/ropscope "
              "and BENCHMARK.json", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import runner  # imports ropscope, so only once src/ is on the path

    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = runner.run(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    measured = record["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    for problem in record["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({k: v for k, v in record.items() if k not in ("inputs", "outputs")},
                     sort_keys=True))
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
