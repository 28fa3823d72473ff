"""Glue that turns a scenario into a fully checked run."""

from __future__ import annotations

import json
from typing import NamedTuple

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


class RunResult(NamedTuple):
    outcome: str
    events: list[dict]
    verdicts: list[Verdict]
    projection: tuple[str, ...]
    conformant: bool
    overhead: tuple[int, int]
    seed: int
    policy: str
    delegates: dict[Pair, Delegate] = {}  # run_scenario always passes its own

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
        scenario.environment,
        delegates,
        participants,
        make_policy(policy_name, run_seed),
        max_events=max_events,
    )
    outcome = sim.run()

    checker = RuntimeChecker(scenario.model, scenario.environment)
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
    )


# json.dumps(event, sort_keys=True) builds this C encoder, with these
# arguments, on every call; here it is built once. trace_lines sends it
# every event that no template below serves. Its markers dict (the
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

# One line template per event kind the simulator writes, keys in sorted
# order. A template raises TypeError for a value of another type than the
# simulator writes there, and KeyError for a missing key. Accepted are: a
# str (a subclass is written by its content, as json does), a role pair
# as a list of exactly two strs, an int or bool of exactly that type (a
# bool is not an int here, nor is an IntEnum), and None only where the
# simulator writes it.
_str = json.encoder.encode_basestring_ascii


def _pair(value) -> str:
    if type(value) is not list or len(value) != 2:
        raise TypeError("not a role pair")
    return f"[{_str(value[0])}, {_str(value[1])}]"


def _request(e: dict) -> str:
    seq, request_id, injected = e["seq"], e["request_id"], e["injected"]
    if type(seq) is not int or type(request_id) is not int or type(injected) is not bool:
        raise TypeError("not a Request")
    return (
        f'{{"cd": {_pair(e["cd"])}, "injected": {"true" if injected else "false"}, '
        f'"kind": "Request", "participant": {_str(e["participant"])}, '
        f'"request_id": {request_id}, "seq": {seq}, "task": {_str(e["task"])}}}\n'
    )


def _block(e: dict) -> str:
    seq, request_id = e["seq"], e["request_id"]
    if type(seq) is not int or type(request_id) is not int:
        raise TypeError("not a Block")
    return (
        f'{{"cd": {_pair(e["cd"])}, "kind": "Block", '
        f'"participant": {_str(e["participant"])}, '
        f'"request_id": {request_id}, "seq": {seq}, "task": {_str(e["task"])}}}\n'
    )


def _unblock(e: dict) -> str:
    seq, request_id = e["seq"], e["request_id"]
    if type(seq) is not int or type(request_id) is not int:
        raise TypeError("not an Unblock")
    return (
        f'{{"cd": {_pair(e["cd"])}, "kind": "Unblock", '
        f'"request_id": {request_id}, "seq": {seq}, "task": {_str(e["task"])}}}\n'
    )


def _forward(e: dict) -> str:
    seq, trg = e["seq"], e["trg"]
    if type(seq) is not int:
        raise TypeError("not a Forward")
    return (
        f'{{"cd": {_pair(e["cd"])}, "kind": "Forward", '
        f'"receiver": {_str(e["receiver"])}, "seq": {seq}, '
        f'"src": {_str(e["src"])}, "task": {_str(e["task"])}, '
        f'"trg": {"null" if trg is None else _str(trg)}}}\n'
    )


def _update(e: dict) -> str:
    seq, sender = e["seq"], e["from"]
    if type(seq) is not int:
        raise TypeError("not an Update")
    return (
        f'{{"from": {"null" if sender is None else _pair(sender)}, '
        f'"kind": "Update", "seq": {seq}, '
        f'"state": {_str(e["state"])}, "to": {_pair(e["to"])}}}\n'
    )


def _notify(e: dict) -> str:
    seq = e["seq"]
    if type(seq) is not int:
        raise TypeError("not a Notify")
    return (
        f'{{"from": {_pair(e["from"])}, "join": {_str(e["join"])}, '
        f'"kind": "Notify", "pred": {_str(e["pred"])}, '
        f'"seq": {seq}, "to": {_pair(e["to"])}}}\n'
    )


def _state_change(e: dict) -> str:
    seq, thread, src = e["seq"], e["thread"], e["from"]
    if type(seq) is not int or type(thread) is not int:
        raise TypeError("not a StateChange")
    return (
        f'{{"cd": {_pair(e["cd"])}, "from": {"null" if src is None else _str(src)}, '
        f'"kind": "StateChange", "seq": {seq}, '
        f'"thread": {thread}, "to": {_str(e["to"])}}}\n'
    )


# kind -> (number of keys, template)
_TEMPLATES = {
    "Request": (7, _request),
    "Block": (6, _block),
    "Unblock": (5, _unblock),
    "Forward": (7, _forward),
    "Update": (5, _update),
    "Notify": (6, _notify),
    "StateChange": (6, _state_change),
}


def trace_lines(events: list[dict]) -> str:
    """One JSON object per event and line: keys sorted, ASCII-escaped,
    the same bytes as json.dumps(event, sort_keys=True) + "\n".

    An event of the seven kinds the simulator writes is written from its
    kind's template when it is a dict with exactly that kind's keys, all
    of them exactly str (json sorts a str subclass by its own order), and
    values of the simulator's types. Every other event, and one that
    raises as json.dumps would, goes through json's C encoder."""
    lines = []
    append = lines.append
    try:
        for event in events:
            try:
                if type(event) is not dict:
                    raise TypeError("not a dict")
                kind = event["kind"]
                # a str subclass can hash and compare as another kind
                if type(kind) is not str:
                    raise TypeError("not a kind")
                size, template = _TEMPLATES[kind]
                if len(event) != size:
                    raise KeyError("not this kind's keys")
                for key in event:
                    if type(key) is not str:
                        raise TypeError("not a str key")
                append(template(event))
            except (KeyError, TypeError):
                append("".join(_ENCODE(event, 0)) + "\n")
    finally:
        _MARKERS.clear()
    return "".join(lines)


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
