"""Set up a workload, check its outputs once, then time whole rounds of it.

A run sets the workload up, runs one untimed round whose outputs are
checked against values computed apart from the program, and then repeats
the round until the run's seconds are spent. Every timed operation's
outputs must hash to the same digests as the checked round. In an
untraced run the workload is set up once more, in a scratch directory,
before every round, so the set-ups that `setup_s` is the median of spread
over the run like the operations; each must write the same inputs.

A metric is the median over the run's timed operations of its kind, each
operation's time scaled to a fixed machine speed by the yardsticks timed
around and within its round (see yardstick.py); set-up times are scaled by
yardsticks timed just before each set-up. The record keeps the wall-clock
samples and the unscaled medians as well.

With tracing on, untraced and traced rounds alternate. Per-layer metrics
are medians over the traced rounds, and the tracing overhead is the median
difference in operation time between a traced round and the untraced round
just before it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracer import Tracer
from workloads import WORKLOADS, Op, Outputs, Plan
import yardstick
from yardstick import INTERPRETER, NOMINAL_S

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference_checksums.json"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def combined(digests: dict[str, str]) -> str:
    return sha256("".join(f"{k} {v}\n" for k, v in sorted(digests.items())).encode())


def digest_tree(path: Path) -> dict[str, str]:
    return {
        str(f.relative_to(path)): sha256(f.read_bytes())
        for f in sorted(path.rglob("*"))
        if f.is_file()
    }


def digest_outputs(label: str, outputs: dict[str, bytes]) -> dict[str, str]:
    return {f"{label}/{name}": sha256(data) for name, data in outputs.items()}


@dataclass
class Setup:
    wall_s: float
    gauge_s: float  # median interpreter yardstick time just before it

    @property
    def scaled_s(self) -> float:
        return self.wall_s * NOMINAL_S[INTERPRETER] / self.gauge_s


def timed_setup(workload: str, seed: int, path: Path) -> tuple[Plan, Setup, dict[str, str]]:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    gauge_s = statistics.median(yardstick.measure()[INTERPRETER] for _ in range(5))
    t0 = perf_counter()
    plan = WORKLOADS[workload](path, seed)
    return plan, Setup(perf_counter() - t0, gauge_s), digest_tree(path)


@dataclass
class Prepared:
    plan: Plan
    setups: list[Setup]
    inputs: dict[str, str]
    outputs: dict[str, str]
    failures: dict[str, str]
    problems: list[str]


def prepare(workload: str, seed: int, work: Path) -> Prepared:
    """Set the workload up and run its checked round."""
    plan, setup, inputs = timed_setup(workload, seed, work / "inputs")
    outputs: Outputs = {}
    failures: dict[str, str] = {}
    for op in plan.ops:
        try:
            clear(op)
            outputs[op.label] = op.collect(op.run())
        except Exception as exc:  # counted as a failed operation, reported
            failures[op.label] = f"{type(exc).__name__}: {exc}"
    try:
        problems = plan.verify(outputs)
    except (KeyError, IndexError, ValueError) as exc:  # output too malformed to check
        problems = [f"output check failed: {type(exc).__name__}: {exc}"]
    out_digests: dict[str, str] = {}
    for label, out in outputs.items():
        out_digests.update(digest_outputs(label, out))
    return Prepared(plan, [setup], inputs, out_digests, failures, problems)


# Yardstick timings taken before and after every round; one more is taken
# after every operation. None is taken right before one: an operation that
# runs right after the interpreter yardstick is slowed by it (a 90 µs
# snapshot write took 150 to 290 µs).
GAUGE_BURST = 8


@dataclass
class Round:
    op_s: float = 0.0  # time inside operations, checks excluded
    failed: int = 0
    samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    gauge_s: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    changed: list[str] = field(default_factory=list)
    layers: dict[str, float] | None = None

    def gauge(self, times: int = GAUGE_BURST) -> None:
        for _ in range(times):
            for gauge, elapsed in yardstick.measure().items():
                self.gauge_s[gauge].append(elapsed)


def base_label(label: str) -> str:
    """The operation a repeated copy (label#k) repeats."""
    return label.partition("#")[0]


def clear(op: Op) -> None:
    for path in op.writes:
        path.unlink(missing_ok=True)


def run_round(ops: list[Op], expected: dict[str, str]) -> Round:
    r = Round()
    r.gauge()
    for op in ops:
        clear(op)
        gc.collect()  # start each operation from a collected heap, as a fresh process would
        t0 = perf_counter()
        try:
            raw = op.run()
        except Exception:  # the checked round recorded why
            r.op_s += perf_counter() - t0
            r.failed += 1
            continue
        elapsed = perf_counter() - t0
        r.op_s += elapsed
        r.samples[base_label(op.label)].append(elapsed)
        r.gauge(1)
        for key, digest in digest_outputs(op.label, op.collect(raw)).items():
            if expected.get(key) != digest:
                r.changed.append(key)
    r.gauge()
    return r


def scaled(r: Round, gauges: dict[str, str]) -> dict[str, list[float]]:
    """The round's samples at the machine speed the yardsticks' nominal
    times stand for, by the median yardstick time over the round."""
    factor = {g: NOMINAL_S[g] / statistics.median(ts) for g, ts in r.gauge_s.items()}
    return {
        label: [x * factor[gauges[label]] for x in xs] for label, xs in r.samples.items()
    }


def pooled(per_round: list[dict[str, list[float]]]) -> dict[str, list[float]]:
    return {
        label: [x for samples in per_round for x in samples.get(label, ())]
        for label in sorted({label for samples in per_round for label in samples})
    }


def git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """One benchmark run; returns its record, which holds the metrics."""
    work = out_dir / f"work-{os.getpid()}"
    rounds: list[Round] = []
    tracer = Tracer() if trace else None
    try:
        prep = prepare(workload, seed, work)
        ops = prep.plan.ops
        deadline = perf_counter() + seconds
        while not rounds or perf_counter() < deadline:
            if tracer is None:
                _, setup, inputs = timed_setup(workload, seed, work / "setup")
                prep.setups.append(setup)
                if inputs != prep.inputs:
                    prep.problems.append("set-ups from the same seed wrote different inputs")
            rounds.append(run_round(ops, prep.outputs))
            if tracer is not None:
                tracer.reset()
                with tracer:
                    traced = run_round(ops, prep.outputs)
                traced.layers = tracer.metrics()
                rounds.append(traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tracer is not None:
        tracer.write_spans(out_dir / f"spans-{workload}-seed{seed}.jsonl")

    problems = sorted(set(prep.problems))
    changed = sorted({key for r in rounds for key in r.changed})
    if changed:
        problems.append(f"outputs changed between rounds: {changed}")
    known = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    reference = known.get(workload, {}).get(str(seed))
    ours = {"inputs": combined(prep.inputs), "outputs": combined(prep.outputs)}
    if reference is not None and reference != ours:
        problems.append("checksums differ from reference_checksums.json")

    untraced = [r for r in rounds if r.layers is None]
    samples = pooled([r.samples for r in untraced])
    wall_metrics = None
    if tracer is None:
        gauges = {op.label: op.gauge for op in ops}
        metrics = end_to_end(
            ops, pooled([scaled(r, gauges) for r in untraced]),
            [s.scaled_s for s in prep.setups],
        )
        wall_metrics = end_to_end(ops, samples, [s.wall_s for s in prep.setups])
    else:
        metrics = per_layer(rounds)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(HERE.parent),
        "rounds": len(rounds),
        "attempted": len(ops) * len(rounds),
        "failed": sum(r.failed for r in rounds),
        "failures": prep.failures,
        "setup_s": [s.wall_s for s in prep.setups],
        "setup_gauge_s": [s.gauge_s for s in prep.setups],
        "samples": samples,
        "gauge_s": [
            {g: statistics.median(ts) for g, ts in r.gauge_s.items()} for r in untraced
        ],
        "wall_metrics": wall_metrics,
        "reference": "none" if reference is None else
                     "match" if reference == ours else "mismatch",
        "inputs_sha256": ours["inputs"],
        "outputs_sha256": ours["outputs"],
        "inputs": prep.inputs,
        "outputs": prep.outputs,
        "problems": problems,
        "metrics": metrics,
    }


def end_to_end(
    ops: list[Op], samples: dict[str, list[float]], setup_s: list[float]
) -> dict[str, float]:
    times: dict[str, list[float]] = defaultdict(list)
    for op in ops:
        if op.metric is not None and op.label in samples:
            times[op.metric] += samples[op.label]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for metric, values in times.items():
        metrics[metric] = statistics.median(values)
    return metrics


def per_layer(rounds: list[Round]) -> dict[str, float]:
    """Medians over the traced rounds; the overhead is taken over adjacent
    (untraced, traced) round pairs, which share the machine's speed of the
    moment."""
    pairs = list(zip(rounds[::2], rounds[1::2]))
    metrics = {
        name: statistics.median(t.layers[name] for _, t in pairs)
        for name in pairs[0][1].layers
    }
    metrics["trace.overhead_s"] = statistics.median(t.op_s - u.op_s for u, t in pairs)
    metrics["trace.overhead_pct"] = statistics.median(
        100 * (t.op_s - u.op_s) / u.op_s for u, t in pairs
    )
    return metrics
