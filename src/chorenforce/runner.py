"""Glue that turns a scenario into a fully checked run."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .decompose import Pair, generate_all
from .delegate import Delegate
from .interpreter import reference_traces
from .oracle import (
    ALLOWED,
    RuntimeChecker,
    TraceFormatError,
    Verdict,
    check_conformance,
    coordination_overhead,
    post_hoc_deadlock,
    projection,
    verdict_histogram,
)
from .participants import Participant, Scenario
from .simulator import COMPLETED, DEADLOCKED, Simulator, make_policy


@dataclass
class RunResult:
    outcome: str
    events: list[dict]
    verdicts: list[Verdict]
    projection: tuple[str, ...]
    conformant: bool
    overhead: tuple[int, int]
    seed: int
    policy: str
    delegates: dict[Pair, Delegate] = field(repr=False, default_factory=dict)
    participants: dict[str, Participant] = field(repr=False, default_factory=dict)

    @property
    def flagged(self) -> list[Verdict]:
        return [v for v in self.verdicts if v.kind != ALLOWED]

    def ok(self) -> bool:
        return self.outcome == COMPLETED and not self.flagged and self.conformant

    def report(self) -> dict:
        count, bound = self.overhead
        return {
            "outcome": self.outcome,
            "policy": self.policy,
            "seed": self.seed,
            "conformant": self.conformant,
            "verdicts": verdict_histogram(self.verdicts),
            "flagged": [
                {
                    "seq": v.seq,
                    "kind": v.kind,
                    "cd": list(v.cd),
                    "task": v.task,
                    "state": v.state,
                    "detail": v.detail,
                }
                for v in self.flagged
            ],
            "events": len(self.events),
            "coordination_messages": count,
            "coordination_bound": bound,
            "projection": list(self.projection),
        }


def run_scenario(
    scenario: Scenario,
    *,
    policy: str | None = None,
    seed: int | None = None,
    max_events: int = 10000,
) -> RunResult:
    policy_name = policy if policy is not None else scenario.policy
    run_seed = seed if seed is not None else scenario.seed
    cms = generate_all(scenario.model)

    delegates = {
        pair: Delegate(pair, cms[pair], scenario.environment) for pair in sorted(cms)
    }
    participants = {
        spec.role: Participant(spec, mode=scenario.mode, seed=run_seed)
        for spec in scenario.scripts
    }

    sim = Simulator(
        scenario.model,
        cms,
        delegates,
        participants,
        make_policy(policy_name, run_seed),
        max_events=max_events,
    )
    outcome = sim.run()

    checker = RuntimeChecker(scenario.model, scenario.environment, cms)
    verdicts = checker.run(sim.events)
    if outcome == DEADLOCKED:
        verdicts.extend(post_hoc_deadlock(delegates))

    language = reference_traces(scenario.model, scenario.environment)
    conformant = check_conformance(sim.events, language, outcome == COMPLETED)

    return RunResult(
        outcome=outcome,
        events=sim.events,
        verdicts=verdicts,
        projection=projection(sim.events),
        conformant=conformant,
        overhead=coordination_overhead(sim.events, scenario.model),
        seed=run_seed,
        policy=policy_name,
        delegates=delegates,
        participants=participants,
    )


# json.dumps(event, sort_keys=True) builds this C encoder, with these
# arguments, on every call; here it is built once. Its markers dict (the
# circular-reference check) keeps the entries of a failed encode, so
# trace_lines empties it afterwards.
_MARKERS: dict = {}
_ENCODE = json.encoder.c_make_encoder(
    _MARKERS,
    json.JSONEncoder().default,
    json.encoder.encode_basestring_ascii,  # ensure_ascii
    None,  # indent
    ": ",  # key separator
    ", ",  # item separator
    True,  # sort_keys
    False,  # skipkeys
    True,  # allow_nan
)
_SCAN = json.JSONDecoder().scan_once


def trace_lines(events: list[dict]) -> str:
    """One JSON object per event and line: keys sorted, ASCII-escaped,
    the same bytes as json.dumps(event, sort_keys=True) + "\n"."""
    try:
        return "".join(["".join(_ENCODE(e, 0)) + "\n" for e in events])
    finally:
        _MARKERS.clear()


def write_trace(events: list[dict], path) -> None:
    with open(path, "w") as fh:
        fh.write(trace_lines(events))


def _decode_line(number: int, line: str) -> dict:
    try:
        event = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise TraceFormatError(f"trace line {number}: {exc}") from None
    if type(event) is not dict:
        raise TraceFormatError(
            f"trace line {number}: expected one JSON object, got {type(event).__name__}"
        )
    return event


def read_trace(path) -> list[dict]:
    """The events of a trace file. Blank lines are skipped; any other line
    must hold exactly one JSON object, else TraceFormatError names it.

    The file is split on "\n" only: str.splitlines would also split on a
    raw U+2028 inside a string. A line that json's scanner reads whole as
    one object is taken as it is, without json.loads' per-call work;
    json.loads decides every other line, so padded lines decode as before
    and a malformed one is named. Lines are decoded one by one because
    one json.loads over the joined lines cannot tell which line an object
    came from: `{"a": 1}, {"b": [1` followed by `2]}` would pass as two.
    """
    with open(path) as fh:
        try:
            lines = fh.read().split("\n")
        except UnicodeDecodeError as exc:
            raise TraceFormatError(f"trace is not text: {exc}") from None
    events = []
    for number, line in enumerate(lines, 1):
        try:
            event, end = _SCAN(line, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end != len(line) or type(event) is not dict:
            if not line.strip():
                continue
            event = _decode_line(number, line)
        events.append(event)
    return events


def write_report(result: RunResult, path) -> None:
    with open(path, "w") as fh:
        json.dump(result.report(), fh, indent=2, sort_keys=True)
        fh.write("\n")
