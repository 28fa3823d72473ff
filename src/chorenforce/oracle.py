"""Trace-level checking: misbehaviour classes, conformance, overhead.

The checker is an observer. It reads a trace event by event and never
trusts a delegate's bookkeeping beyond the reported source state of a
forward. It reads the model, its validation report and the trace, never
the coordination models: availability at a state comes from the
choreography's operation flows, and who waits at a join from the
report's arrivals. Each forwarded operation gets one verdict:

* UndesiredTask: the operation is not available at the reported state.
* InvalidAlternative: the state sits behind a branch guard that is false.
* InvalidLoop: the state is a loop body entry whose guard is false.
* MissedLoop: the state is a loop exit although the guard says repeat.
* MissedJoin: the state follows a join, and the waiter that sorts last,
  the one that crosses, had not been delivered every other waiter's
  notification for one of its entries, or the forwarding pair, another
  waiter, had not been delivered that entry's notification from it.
* DeadlockingJoin: issued after a stalled run, for threads still holding
  unmet join waits.

Checks are applied in that order; the first match wins. The guard, loop
and join checks read the flow that enters the reported state; a
validated model has at most one there. Guard verdicts are static per
(state, environment) because the environment is fixed for a run.
Notification delivery is tracked from the trace itself, so a
delegate that skips its bookkeeping cannot hide a missed join.
"""

from __future__ import annotations

from typing import NamedTuple

# generate_all is not called here: the benchmark still wraps this name
from .decompose import InvalidModelError, Pair, generate_all  # noqa: F401
from .interpreter import Language
from .model import Choreography, Guard, Operation, StateKind
from .predicate import Value, eval_pred
from .validate import validate_cefm

ALLOWED = "Allowed"
UNDESIRED_TASK = "UndesiredTask"
INVALID_ALTERNATIVE = "InvalidAlternative"
INVALID_LOOP = "InvalidLoop"
MISSED_LOOP = "MissedLoop"
MISSED_JOIN = "MissedJoin"
DEADLOCKING_JOIN = "DeadlockingJoin"


# An Enum member read off its class costs about 0.1 us on Python 3.11;
# the per-forward checks compare with these instead.
_ALTERNATIVE, _LOOP, _JOIN = StateKind.ALTERNATIVE, StateKind.LOOP, StateKind.JOIN
_NO_TASKS: frozenset[str] = frozenset()

# the kinds of event the simulator writes
EVENT_KINDS = frozenset(
    {"Request", "Block", "Forward", "Unblock", "Update", "Notify", "StateChange"}
)


class TraceFormatError(ValueError):
    """A trace line or event is not what the trace format promises."""


class Verdict(NamedTuple):
    seq: int  # sequence number of the forward event; -1 for post-run findings
    kind: str
    cd: tuple[str, str]
    task: str | None
    state: str | None
    detail: str = ""


class RuntimeChecker:
    """Classifies a trace's forwards under one model and environment,
    which it validates; it never decomposes the model."""

    def __init__(self, model: Choreography, env: dict[str, Value]):
        self.model = model
        self.env = dict(env)
        report = validate_cefm(model)
        if not report.ok:
            raise InvalidModelError(str(report))
        # ((initiator, receiver), source state) -> the tasks of the
        # model's operation flows out of that state
        self._tasks: dict[tuple[tuple[str, str], str], set[str]] = {}
        for src, label, _ in model.flows:
            if isinstance(label, Operation):
                key = ((label.initiator, label.receiver), src)
                self._tasks.setdefault(key, set()).add(label.task)
        # join -> (the pairs that wait there, the last of them, which
        # crosses as the delegates decide, and for each entry that pair
        # arrives at, the notifications (entry, sender, receiver) it must
        # have been delivered); only joins where some pair waits
        self._crossings: dict[str, tuple] = {}
        for join, arrivals in report.arrivals.items():
            waiters = [(entry, tuple(pair)) for entry, pair in arrivals if pair is not None]
            if waiters:
                crosser = max(pair for _, pair in waiters)
                owns = [(own, [(e, q, crosser) for e, q in waiters if e != own])
                        for own, pair in waiters if pair == crosser]
                self._crossings[join] = ({pair for _, pair in waiters}, crosser, owns)

    def run(self, events: list[dict]) -> list[Verdict]:
        delivered: set[tuple[str, tuple, str, tuple]] = set()
        verdicts = []
        index = 0
        last_seq = None
        try:
            for index, event in enumerate(events):
                kind = event["kind"]
                if kind == "Notify":
                    delivered.add(
                        (
                            event["pred"],
                            _roles(event, "from"),
                            event["join"],
                            _roles(event, "to"),
                        )
                    )
                elif kind == "Forward":
                    verdicts.append(self._classify(event, delivered))
                elif kind not in EVENT_KINDS:
                    raise TraceFormatError(f"trace event {index}: unknown kind {kind!r}")
                seq = event["seq"]
                if type(seq) is not int or (last_seq is not None and seq <= last_seq):
                    raise TraceFormatError(
                        f"trace event {index}: seq must be an int above the "
                        f"previous event's, got {seq!r}"
                    )
                last_seq = seq
        except KeyError as exc:
            raise TraceFormatError(f"trace event {index}: missing field {exc}") from None
        except TypeError as exc:
            raise TraceFormatError(f"trace event {index}: {exc}") from None
        return verdicts

    def _classify(self, event: dict, delivered: set) -> Verdict:
        cd = _roles(event, "cd")
        task = event["task"]
        src = event["src"]
        seq = event["seq"]
        # for a task or state that cannot be hashed, these lookups raise
        # the TypeError that run() reports as a malformed event
        tasks = self._tasks.get((cd, src), _NO_TASKS)
        if task not in tasks:
            return Verdict(
                seq, UNDESIRED_TASK, cd, task, src,
                f"{task!r} not among {sorted(tasks)} at {src}",
            )
        # In a validated model operations leave only the initial state,
        # entered by no flow, and plain states, entered by exactly one.
        entering = self.model.in_flows(src)
        if not entering:
            return Verdict(seq, ALLOWED, cd, task, src)
        (flow,) = entering
        before = flow.src
        kind = self.model.kind(before)
        if isinstance(flow.label, Guard):
            if not eval_pred(flow.label.pred, self.env):
                if kind is _ALTERNATIVE:
                    return Verdict(
                        seq, INVALID_ALTERNATIVE, cd, task, src, f"branch guard false at {src}"
                    )
                return Verdict(
                    seq, INVALID_LOOP, cd, task, src, f"loop entry guard false at {src}"
                )
        elif kind is _LOOP:
            entry = next(f for f in self.model.out_flows(before) if isinstance(f.label, Guard))
            if eval_pred(entry.label.pred, self.env):
                return Verdict(
                    seq, MISSED_LOOP, cd, task, src, f"loop at {before} should repeat, not exit"
                )
        elif kind is _JOIN and before in self._crossings:
            # another waiter moves on by the crossing pair's update, sent
            # after that pair's notification to it on the same channel
            waiters, crosser, owns = self._crossings[before]
            missed = []
            for own, needed in owns:
                if cd != crosser and cd in waiters:
                    needed = [*needed, (own, crosser, cd)]
                missing = [n for n in needed if (n[0], n[1], before, n[2]) not in delivered]
                if not missing:
                    return Verdict(seq, ALLOWED, cd, task, src)
                missed.append(missing)
            return Verdict(
                seq, MISSED_JOIN, cd, task, src,
                f"crossed {before} without notifications {min(missed, key=len)}",
            )
        return Verdict(seq, ALLOWED, cd, task, src)


def _roles(event: dict, field: str) -> tuple[str, str]:
    """The event's role pair under `field`, which must be a list of two
    role names; TypeError otherwise."""
    value = event[field]
    roles = tuple(value)  # a value that is no sequence fails here
    if type(value) is not list or list(map(type, roles)) != [str, str]:
        raise TypeError(f"{event['kind']} {field} is not a list of two roles: {value!r}")
    return roles


def post_hoc_deadlock(delegates: dict[Pair, object]) -> list[Verdict]:
    """After a stalled run, report threads still stuck before a join."""
    findings = []
    for pair in sorted(delegates):
        delegate = delegates[pair]
        for thread in delegate.suspended_threads():
            awaited = sorted(
                (state, (p.initiator, p.receiver)) for state, p in thread.awaited
            )
            findings.append(
                Verdict(
                    -1,
                    DEADLOCKING_JOIN,
                    (pair.initiator, pair.receiver),
                    None,
                    thread.state,
                    f"thread {thread.id} awaits {awaited} before {thread.pending_tuple.trg}; "
                    f"pending requests {delegate.pending_tasks()}",
                )
            )
    return findings


def projection(events: list[dict]) -> tuple[str, ...]:
    """The run as the sequence of forwarded operation labels."""
    out = []
    for event in events:
        if event["kind"] == "Forward":
            initiator, receiver = event["cd"]
            out.append(f"{initiator}.{event['task']}.{receiver}")
    return tuple(out)


def check_conformance(events: list[dict], language: Language, completed: bool) -> bool:
    """A completed run must be a full word of the reference language; an
    interrupted one must at least be a prefix of some word."""
    word = projection(events)
    if completed:
        return language.is_member(word)
    return language.is_prefix(word)


def coordination_overhead(events: list[dict], model: Choreography) -> tuple[int, int]:
    """Delivered coordination messages versus the static bound
    |operation labels| * |roles|."""
    count = sum(1 for e in events if e["kind"] in ("Update", "Notify"))
    labels = {f.label.label for f in model.flows if isinstance(f.label, Operation)}
    bound = len(labels) * len(model.roles)
    return count, bound


def verdict_histogram(verdicts: list[Verdict]) -> dict[str, int]:
    out: dict[str, int] = {}
    for v in verdicts:
        out[v.kind] = out.get(v.kind, 0) + 1
    return dict(sorted(out.items()))
