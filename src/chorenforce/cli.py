"""Command line entry point."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .decompose import InvalidModelError, dumps_cm, generate_all, require_valid
from .interpreter import InterpreterError, reference_traces
from .model import ModelFormatError, load_model
from .oracle import ALLOWED, RuntimeChecker, projection
from .participants import POLICIES, ScenarioFormatError, load_scenario
from .randgen import fuzz
from .runner import (
    TraceFormatError,
    read_trace,
    run_scenario,
    write_report,
    write_trace,
)
from .simulator import enactment_bootstrap
from .validate import validate_cefm


def positive_int(text: str) -> int:
    """An argparse type for a count: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _cmd_validate(args) -> int:
    model = load_model(args.model)
    report = validate_cefm(model)
    print(report)
    return 0 if report.ok else 1


def _cmd_gen_cm(args) -> int:
    model = load_model(args.model)
    cms = generate_all(model)
    # file name -> its pair; refused before anything is written where a
    # name is no plain file name or two pairs share it
    files = {}
    for pair in sorted(cms):
        name = f"cm_{pair.initiator}__{pair.receiver}.json"
        if "\0" in name or os.path.basename(name) != name:
            print(f"error: pair {pair} gives {name!r}, which is no plain file name",
                  file=sys.stderr)
            return 2
        if name in files:
            print(f"error: pairs {files[name]} and {pair} both map to {name}", file=sys.stderr)
            return 2
        files[name] = pair
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, pair in files.items():
        cm = cms[pair]
        path = out_dir / name
        path.write_text(dumps_cm(cm))
        entry = ",".join(sorted(cm.initial_wait))
        print(f"{pair}: {len(cm.tuples)} tuples, entry states {{{entry}}} -> {path}")
    return 0


def _cmd_bootstrap(args) -> int:
    scenario = load_scenario(args.scenario)
    require_valid(scenario.model)
    updates = enactment_bootstrap(scenario.model, scenario.environment)
    for pair, state in updates:
        print(f"update {state} -> {pair}")
    if not updates:
        print("no activation needed (no operations reachable before the first one)")
    return 0


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    result = run_scenario(scenario, policy=args.policy, seed=args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.scenario).stem
    tag = f"{stem}_{result.policy}_{result.seed}"
    trace_path = out_dir / f"{tag}.trace.jsonl"
    report_path = out_dir / f"{tag}.report.json"
    write_trace(result.events, trace_path)
    write_report(result, report_path)
    print(f"outcome: {result.outcome}")
    print(f"forwarded: {len(result.projection)} operations")
    print(f"conformant: {result.conformant}")
    for v in result.flagged:
        print(f"flagged: {v.kind} at seq {v.seq} ({v.detail})")
    print(f"trace: {trace_path}")
    print(f"report: {report_path}")
    return 0 if result.ok() else 1


def _cmd_check_trace(args) -> int:
    scenario = load_scenario(args.scenario)
    events = read_trace(args.trace)
    checker = RuntimeChecker(scenario.model, scenario.environment)
    verdicts = checker.run(events) + checker.stalled_joins(events)
    flagged = [v for v in verdicts if v.kind != ALLOWED]
    language = reference_traces(scenario.model, scenario.environment)
    word = projection(events)
    member = language.is_member(word)
    prefix = language.is_prefix(word)
    print(f"forwards: {len(word)}")
    print(f"verdicts: {len(verdicts)} checked, {len(flagged)} flagged")
    for v in flagged:
        print(f"  {v.kind} at seq {v.seq}: {v.detail}")
    print(f"complete run of the reference behaviour: {member}")
    print(f"prefix of the reference behaviour: {prefix}")
    return 0 if not flagged and prefix else 1


def _cmd_fuzz(args) -> int:
    return fuzz(args.models, args.seed, args.verbose)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chorenforce",
        description="Generate, run and check pairwise coordination of choreographies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a choreography's structure")
    p.add_argument("model")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("gen-cm", help="write one coordination model per pair")
    p.add_argument("model")
    p.add_argument("--out-dir", default="cm")
    p.set_defaults(func=_cmd_gen_cm)

    p = sub.add_parser("bootstrap", help="show the updates that start a scenario's run")
    p.add_argument("scenario")
    p.set_defaults(func=_cmd_bootstrap)

    p = sub.add_parser("run", help="execute a scenario and check the trace")
    p.add_argument("scenario")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--policy", choices=POLICIES, default=None)
    p.add_argument("--out-dir", default="runs")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("check-trace", help="re-check a saved trace")
    p.add_argument("scenario")
    p.add_argument("trace")
    p.set_defaults(func=_cmd_check_trace)

    p = sub.add_parser("fuzz", help="compare enforcement against the reference")
    p.add_argument("--models", type=positive_int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_fuzz)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        OSError,
        json.JSONDecodeError,
        ModelFormatError,
        ScenarioFormatError,
        InvalidModelError,
        TraceFormatError,
        InterpreterError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
