"""Command-line interface.

Subcommands cover the full measurement workflow: harvest a snapshot from a
leaked pointer, mine and classify gadgets offline, compute rerandomization
upper bounds, assess register corruption, scan data memory for code
pointers, generate synthetic corpora, and compare rerandomization schemes
over a corpus manifest.

Reports are emitted as canonical JSON (sorted keys, no whitespace) so
identical inputs produce byte-identical output; --pretty switches to
human-readable tables.

Exit codes: 0 on success, 1 for input/output and parse failures, 2 for
domain errors such as invalid start pointers or malformed options.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import Callable

from ropscope import disasm
from ropscope.canonical import csv_text, dumps
from ropscope.gadgets import (
    GadgetSetSpec,
    GadgetType,
    add_min_fp_reductions,
    gadget_type,
    labelling_counts,
    load_set_spec,
    population_stats,
    resolve_set,
    set_coverage,
)
from ropscope.harvest import (
    REPORT_FIELDS,
    HarvestOptions,
    StartPointerInvalid,
    harvest,
    image_gadget_report,
    mine_image,
    page_start_pointers,
)
from ropscope.ptrscan import scan_pointers
from ropscope.quality import (
    assess_gadgets,
    corruption_report,
    corruption_report_csv,
    summarize_by_type,
    verdict_report_csv,
)
from ropscope.rerand import check_interval, interval_verdict, upper_bound
from ropscope.snapshot import (
    SegmentTag,
    SnapshotError,
    load_image,
    load_snapshot,
    save_snapshot,
)
from ropscope.synth import (
    GenParams,
    RandomizationScheme,
    SchemeKind,
    apply_scheme,
    generate,
    materialize,
)


def _parse_int(text: str) -> int:
    return int(text, 0)


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    try:
        if not sep:
            raise ValueError
        return _parse_int(lo), _parse_int(hi)
    except ValueError:
        raise ValueError(f"range must look like LO:HI, got {text!r}") from None


def _parse_types(text: str) -> list[GadgetType]:
    return [gadget_type(name.strip()) for name in text.split(",")]


def _resolve_set(args) -> GadgetSetSpec | None:
    if getattr(args, "set_file", None):
        return load_set_spec(args.set_file)
    if getattr(args, "set_name", None):
        return resolve_set(args.set_name)
    return None


def _defaults(cls) -> dict:
    """The field defaults of the options dataclass `cls`, for the
    set_defaults of a command that builds it: the command's arguments are
    named (dest) after the fields they set, and the fields it has no
    argument for keep their defaults."""
    return {f.name: f.default for f in fields(cls)}


def _options(cls, args, **given):
    """`cls` built from the parsed arguments named after its fields, with
    the `given` fields passed in instead."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)} | given)


def _harvest_options(args) -> HarvestOptions:
    return _options(HarvestOptions, args, track_set=_resolve_set(args))


# Subcommand handlers. Each returns a process exit code.


def _cmd_harvest(args) -> int:
    opts = _harvest_options(args)
    trace = harvest(load_image(args.snapshot), args.start, opts)
    if args.trace:
        Path(args.trace).write_text(trace.to_jsonl())
    report = trace.report()
    if args.pretty:
        for key in ("start", "pages_found", "leak_cost", "analysis_cost",
                    "total_cost", "skipped_targets", "gadgets", "converged"):
            print(f"{key.replace('_', ' '):18s}{report[key]}")
        if report["type_clocks"]:
            print("type availability clocks:")
            for name, clock in report["type_clocks"].items():
                print(f"  {name:10s} {clock}")
    else:
        print(dumps(report))
    return 0


def _cmd_gadgets(args) -> int:
    opts = _harvest_options(args)
    spec = opts.track_set
    # The report is rendered only where it is written: to --out, or to
    # stdout unless --pretty prints the summary in its place.
    rendered = bool(args.out) or not args.pretty
    rows, labellings = image_gadget_report(
        load_image(args.snapshot), opts, rows=rendered
    )
    counts = labelling_counts(labellings)
    coverage = None
    if spec is not None and (args.pretty or args.format == "json"):
        coverage = set_coverage(counts, spec)
    if rendered:
        if args.format == "csv":
            text = csv_text(REPORT_FIELDS, (row.values() for row in rows))
        else:
            payload = {"gadgets": rows}
            if coverage is not None:
                payload["coverage"] = coverage.to_dict()
            text = dumps(payload) + "\n"
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
    if args.pretty:
        totals = {t.value: c.total for t, c in counts.items()}
        print(f"gadgets mined: {sum(labellings.values())}")
        for name in sorted(totals):
            print(f"  {name:10s} {totals[name]}")
        if coverage is not None:
            print(
                f"set {spec.name}: converged={coverage.converged} "
                f"min-footprint-only={coverage.converged_min_fp}"
            )
    return 0


def _cmd_upper_bound(args) -> int:
    if args.interval is not None:
        check_interval(args.interval)
    opts = _harvest_options(args)
    report = upper_bound(load_image(args.snapshot), opts)
    payload = report.to_dict()
    if args.interval is not None:
        payload["interval_verdict"] = interval_verdict(args.interval, report)
    if args.timeline_csv:
        Path(args.timeline_csv).write_text(report.timeline_csv())
    if args.pretty:
        for key in ("set", "starts", "converged_starts", "minimum_clock",
                    "average_clock"):
            print(f"{key.replace('_', ' '):20s}{payload[key]}")
        for lo, hi in report.non_reactive_intervals:
            print(f"  non-reactive [{lo}, {hi})")
        if args.interval is not None:
            safety = payload["interval_verdict"]["safety"]
            print(f"interval {args.interval}: {safety}")
    else:
        print(dumps(payload))
    return 0


def _cmd_corrupt(args) -> int:
    types = _parse_types(args.types) if args.types is not None else None
    opts = _harvest_options(args)
    gadgets = mine_image(load_image(args.snapshot), opts)
    verdicts = assess_gadgets(gadgets, types)
    if args.format == "verdicts":
        sys.stdout.write(verdict_report_csv(verdicts))
        return 0
    summaries = summarize_by_type(verdicts)
    if args.format == "json":
        print(dumps(corruption_report(summaries)))
    else:
        sys.stdout.write(corruption_report_csv(summaries))
    return 0


_TAG_NAMES = {t.name.lower(): t for t in SegmentTag}


def _cmd_scan(args) -> int:
    tags = None
    if args.segment is not None:
        tags = []
        for name in args.segment.split(","):
            name = name.strip().lower()
            if name not in _TAG_NAMES:
                raise ValueError(f"unknown segment tag {name!r}")
            tags.append(_TAG_NAMES[name])
    lib_range = (
        _parse_range(args.lib_range) if args.lib_range is not None else None
    )
    # Pointers live in data segments, so an ELF is mapped with every PT_LOAD.
    image = load_image(args.snapshot, kind="all_load")
    report = scan_pointers(
        image,
        tags=tags,
        lib_range=lib_range,
        alignment=args.alignment,
        require_executable_target=not args.any_target,
    )
    if args.format == "csv":
        sys.stdout.write(report.to_csv())
    else:
        print(dumps(report.to_dict()))
    return 0


def _write_corpus_entry(
    out_dir: Path,
    name: str,
    image,
    truth,
    scheme: RandomizationScheme | None,
) -> dict:
    snap = out_dir / f"{name}.rsnp"
    truth_path = out_dir / f"{name}.truth.json"
    save_snapshot(image, snap)
    truth_path.write_text(dumps(truth.to_dict()) + "\n")
    return {
        "name": name,
        "scheme": None if scheme is None else scheme.to_dict(),
        "snapshot_path": snap.name,
        "ground_truth_path": truth_path.name,
    }


def _cmd_synth_generate(args) -> int:
    params = _options(GenParams, args)
    names = args.schemes.split(",") if args.schemes else []
    kinds = [SchemeKind(name.strip()) for name in names]
    program = generate(params, args.seed)
    # Every layout is made before any file is written: one that is refused
    # leaves nothing behind.
    layouts = [("baseline", *materialize(program), None)]
    for kind in kinds:
        scheme = RandomizationScheme(
            kind=kind,
            seed=args.scheme_seed,
            rename_registers=args.rename_registers
            and kind is SchemeKind.FUNCTION,
        )
        layouts.append((kind.value, *apply_scheme(program, scheme), scheme))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = [
        _write_corpus_entry(out_dir, name, image, truth, scheme)
        for name, image, truth, scheme in layouts
    ]
    manifest = {
        "seed": args.seed,
        "params": params.to_dict(),
        "entries": entries,
    }
    (out_dir / "manifest.json").write_text(dumps(manifest) + "\n")
    print(dumps({"out_dir": str(out_dir), "entries": len(entries)}))
    return 0


def _load_manifest(path: str) -> tuple[Path, dict]:
    manifest_path = Path(path)
    data = json.loads(manifest_path.read_text())
    if not isinstance(data, dict) or not {"seed", "params", "entries"} <= data.keys():
        raise ValueError("manifest needs seed, params, and entries")
    seed = data["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError(f"manifest seed must be an integer, not {seed!r}")
    entries = data["entries"]
    if not isinstance(entries, list) or not all(
        isinstance(e, dict)
        and isinstance(e.get("name"), str)
        and isinstance(e.get("snapshot_path"), str)
        for e in entries
    ):
        raise ValueError(
            "manifest entries must be objects with string name and snapshot_path"
        )
    names = set()
    for entry in entries:
        if entry["name"] in names:
            raise ValueError(f"manifest entry {entry['name']!r} is repeated")
        names.add(entry["name"])
    return manifest_path.parent, data


def _cmd_synth_transform(args) -> int:
    # compare measures every layout against the generated one.
    if args.name == "baseline":
        raise ValueError("entry name 'baseline' is the generated layout's")
    base_dir, manifest = _load_manifest(args.manifest)
    params = GenParams.from_dict(manifest["params"])
    program = generate(params, manifest["seed"])
    kind = SchemeKind(args.scheme)
    scheme = RandomizationScheme(
        kind=kind,
        seed=args.scheme_seed,
        rename_registers=args.rename_registers,
    )
    image, truth = apply_scheme(program, scheme)
    name = args.name or (
        f"{kind.value}-s{args.scheme_seed}"
        + ("-renamed" if args.rename_registers else "")
    )
    entry = _write_corpus_entry(base_dir, name, image, truth, scheme)
    manifest["entries"] = [
        e for e in manifest["entries"] if e.get("name") != name
    ] + [entry]
    Path(args.manifest).write_text(dumps(manifest) + "\n")
    print(dumps({"name": name, "snapshot_path": entry["snapshot_path"]}))
    return 0


def _cmd_compare(args) -> int:
    base_dir, manifest = _load_manifest(args.manifest)
    entries = manifest["entries"]
    if args.schemes is not None:
        wanted = {n.strip() for n in args.schemes.split(",")}
        unknown = sorted(wanted - {e["name"] for e in entries})
        if unknown:
            raise ValueError(f"unknown manifest entry {unknown[0]!r}")
        entries = [
            e for e in entries if e["name"] == "baseline" or e["name"] in wanted
        ]
    opts = _harvest_options(args)
    # One layout's image at a time: each is dropped once counted.
    results = {
        e["name"]: population_stats(image_gadget_report(
            load_snapshot(base_dir / e["snapshot_path"]), opts, rows=False
        )[1])
        for e in entries
    }
    add_min_fp_reductions(results)
    if args.pretty:
        for name, stats in results.items():
            print(
                f"{name:14s} gadgets={stats['gadgets']:5d} "
                f"min-fp={stats['min_fp_labels']:4d} "
                f"reduction={stats.get('min_fp_reduction_pct', 0.0):7.2f}% "
                f"tc={'yes' if stats['tc_preserved'] else 'no'}"
            )
    else:
        print(dumps(results))
    return 0


def _cmd_starts(args) -> int:
    opts = _harvest_options(args)
    starts = page_start_pointers(load_image(args.snapshot), opts)
    payload = {f"{base:#x}": f"{ptr:#x}" for base, ptr in sorted(starts.items())}
    print(dumps(payload))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ropscope",
        description=(
            "Measure code-reuse exposure: harvest code pages from a leaked "
            "pointer, classify gadgets, and evaluate rerandomization."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    harvest_defaults = _defaults(HarvestOptions)

    def add_max_len(p):
        p.add_argument("--max-len", dest="max_gadget_len", type=int,
                       help="max instructions per gadget window")

    def add_common(p, with_set=True):
        add_max_len(p)
        p.add_argument("--heuristic-types", dest="enable_heuristic_types",
                       action="store_true",
                       help="also match structurally fuzzy gadget types")
        if with_set:
            g = p.add_mutually_exclusive_group()
            g.add_argument("--set", dest="set_name", metavar="NAME",
                           help="built-in gadget set: tc, priority, movtc")
            g.add_argument("--set-file", metavar="PATH",
                           help="JSON file with a custom gadget set")

    def add_start_seed(p):
        p.add_argument("--start-seed", type=_parse_int, metavar="N",
                       help="draw each page's start pointer from its "
                       "candidates with this seed, not the lowest")

    p = sub.add_parser("harvest", help="recursively harvest from a pointer")
    p.add_argument("snapshot")
    p.add_argument("--start", type=_parse_int, required=True,
                   help="leaked code pointer to start from")
    p.add_argument("--no-cond", dest="follow_cond_branches",
                   action="store_false",
                   help="do not follow conditional branch targets")
    p.add_argument("--stop-on-convergence", action="store_true")
    p.add_argument("--trace", metavar="PATH",
                   help="write the event trace as JSON lines")
    p.add_argument("--pretty", action="store_true")
    add_common(p)
    p.set_defaults(func=_cmd_harvest, **harvest_defaults)

    p = sub.add_parser("gadgets", help="mine and classify a whole image")
    p.add_argument("snapshot")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", metavar="PATH", help="write report to a file")
    p.add_argument("--pretty", action="store_true")
    add_common(p)
    p.set_defaults(func=_cmd_gadgets, **harvest_defaults)

    p = sub.add_parser(
        "upper-bound",
        help="convergence time from every start; interval guidance",
    )
    p.add_argument("snapshot")
    p.add_argument("--interval", type=_parse_int, default=None,
                   help="judge this rerandomization interval (clock ticks)")
    p.add_argument("--timeline-csv", default=None, metavar="PATH",
                   help="write per-start (clock, types) timeline rows here")
    add_start_seed(p)
    p.add_argument("--pretty", action="store_true")
    add_common(p)
    p.set_defaults(func=_cmd_upper_bound, **harvest_defaults)

    p = sub.add_parser("corrupt", help="register corruption analysis")
    p.add_argument("snapshot")
    p.add_argument("--types", metavar="A,B,...",
                   help="restrict to these gadget types")
    p.add_argument("--format", choices=("csv", "json", "verdicts"),
                   default="csv")
    add_common(p, with_set=False)
    p.set_defaults(func=_cmd_corrupt, **harvest_defaults)

    p = sub.add_parser("scan", help="scan data memory for code pointers")
    p.add_argument("snapshot")
    p.add_argument("--segment", metavar="TAG,...",
                   help="segments to scan: stack, heap, data, other, code "
                   "(non-executable pages tagged code)")
    p.add_argument("--lib-range", metavar="LO:HI",
                   help="count only pointers into this address range")
    p.add_argument("--alignment", type=int, default=8)
    p.add_argument("--any-target", action="store_true",
                   help="count pointers to non-executable memory too")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("starts", help="chosen start pointer per page")
    p.add_argument("snapshot")
    add_start_seed(p)
    p.set_defaults(func=_cmd_starts, **harvest_defaults)

    p_synth = sub.add_parser("synth", help="synthetic corpus tools")
    synth_sub = p_synth.add_subparsers(dest="synth_command", required=True)

    p = synth_sub.add_parser("generate", help="generate a corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=_parse_int, default=0)
    p.add_argument("--functions", dest="n_functions", type=int)
    p.add_argument("--mean-len", dest="mean_fn_len", type=int)
    p.add_argument("--connectivity", type=float)
    p.add_argument("--max-functions-per-page", type=int)
    p.add_argument("--no-strongly-connected", dest="ensure_strongly_connected",
                   action="store_false")
    p.add_argument("--base", type=_parse_int)
    p.add_argument("--schemes", metavar="KIND,...",
                   help="also emit these layouts: coarse, function, "
                        "block, instruction")
    p.add_argument("--scheme-seed", type=_parse_int, default=1)
    p.add_argument("--rename-registers", action="store_true",
                   help="rename registers under the function scheme")
    p.set_defaults(func=_cmd_synth_generate, **_defaults(GenParams))

    p = synth_sub.add_parser(
        "transform",
        help="re-derive the program from a manifest and apply a scheme",
    )
    p.add_argument("--manifest", required=True)
    p.add_argument("--scheme", required=True,
                   choices=tuple(k.value for k in SchemeKind))
    p.add_argument("--scheme-seed", type=_parse_int, default=1)
    p.add_argument("--rename-registers", action="store_true")
    p.add_argument("--name", help="entry name (default derived)")
    p.set_defaults(func=_cmd_synth_transform)

    p = sub.add_parser("compare", help="compare schemes over a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--schemes", metavar="NAME,...",
                   help="manifest entries to include (baseline always)")
    add_max_len(p)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_compare, **harvest_defaults)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process: building it costs far more than a
    parse, and callers such as benchmarks run `main` many times."""
    return build_parser()


def run_guarded(run: Callable[[], int]) -> int:
    """The exit code of `run()`, or of the failure it raises, which is
    printed as one `error:` line on stderr: 1 for input/output and parse
    failures, 2 for domain errors."""
    try:
        return run()
    # JSON nested deeper than the parser allows raises RecursionError: it is
    # malformed input like any other.
    except (SnapshotError, OSError, json.JSONDecodeError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (StartPointerInvalid, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return run_guarded(lambda: args.func(args))
    finally:
        disasm.clear_memo()


def console_main() -> None:  # pragma: no cover - thin wrapper
    raise SystemExit(main())


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
