"""Trace-level checking: misbehaviour classes, conformance, overhead.

The checker is an observer. Every verdict comes from the trace, read
event by event: it never reads a delegate, and trusts a delegate's
report only for the source state of a forward. It reads the model, its
validation report and the trace, never the coordination models:
availability at a state comes from the choreography's operation flows,
and who waits at a join from the report's arrivals. Each forwarded
operation gets one verdict:

* UndesiredTask: the operation is not available at the reported state.
* InvalidAlternative: the state sits behind a branch guard that is false.
* InvalidLoop: the state is a loop body entry whose guard is false.
* MissedLoop: the state is a loop exit although the guard says repeat.
* MissedJoin: the state follows a join, and the waiter that sorts last,
  the one that crosses, had not been delivered k notifications for the
  k-th arrival at one of its entries: k from every other waiter, or, if
  the forwarding pair is another waiter, k from the crosser to it. Each
  join a loop repeats is counted per pass.
* DeadlockingJoin: not a forward's verdict. In a trace shorter than
  `simulator.MAX_EVENTS`, which comes from a run that ended by itself,
  the last thread of a pair to reach a join entry is still there (no
  later StateChange moves it), and for another entry of that join the
  pair was delivered fewer notifications than it arrived at its own.

Checks are applied in that order; the first match wins. The guard, loop
and join checks read the flow that decides the reported state: the
flow entering it or, where that is an epsilon flow out of a plain
state, the flow that decides that state. A validated model has at most
one flow into each of these states. Guard verdicts
are static per (state, environment) because the environment is fixed
for a run. Notification delivery is tracked from the trace itself, so a
delegate that skips its bookkeeping cannot hide a missed join.
"""

from __future__ import annotations

from typing import NamedTuple

from . import simulator

# generate_all is not called here: the benchmark still wraps this name
from .decompose import generate_all, require_valid  # noqa: F401
from .interpreter import Language
from .model import (_ALTERNATIVE, _JOIN, _LOOP, _PLAIN, Choreography, Epsilon, Guard,
                    Operation, _new)
from .predicate import Value, eval_pred

ALLOWED = "Allowed"
UNDESIRED_TASK = "UndesiredTask"
INVALID_ALTERNATIVE = "InvalidAlternative"
INVALID_LOOP = "InvalidLoop"
MISSED_LOOP = "MissedLoop"
MISSED_JOIN = "MissedJoin"
DEADLOCKING_JOIN = "DeadlockingJoin"

_NO_TASKS: frozenset[str] = frozenset()

# the kinds of event the simulator writes
EVENT_KINDS = frozenset(
    {"Request", "Block", "Forward", "Unblock", "Update", "Notify", "StateChange"}
)


class TraceFormatError(ValueError):
    """A trace line or event is not what the trace format promises."""


class Verdict(NamedTuple):
    seq: int  # sequence number of the forward event; -1 for a join left waiting
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
        # the model's tables, read once per forward
        self._incoming, self._states = model.incoming, model.states
        report = require_valid(model)
        # ((initiator, receiver), source state) -> the tasks of the
        # model's operation flows out of that state
        self._tasks: dict[tuple[tuple[str, str], str], set[str]] = {}
        for src, label, _ in model.flows:
            if isinstance(label, Operation):
                key = ((label.initiator, label.receiver), src)
                self._tasks.setdefault(key, set()).add(label.task)
        # who waits at a join, read once from the report's arrivals:
        # (pair, entry) -> (join, the (entry, pair) of each other waiter);
        # entry -> [(the pair as a trace writes it, (pair, entry))] of each
        # pair that waits there; join -> (the pairs that wait there, the
        # last of them, which crosses as the delegates decide, and each
        # entry that pair arrives at with its other waiters)
        self._waits: dict[tuple, tuple[str, list]] = {}
        self._entries: dict[str, list] = {}
        self._crossings: dict[str, tuple] = {}
        for join, arrivals in report.arrivals.items():
            waiters = [(entry, tuple(pair)) for entry, pair in arrivals if pair is not None]
            for own, pair in waiters:
                key = (pair, own)
                self._waits[key] = (join, [w for w in waiters if w[0] != own])
                self._entries.setdefault(own, []).append((list(pair), key))
            if waiters:
                crosser = max(pair for _, pair in waiters)
                owns = [(own, self._waits[crosser, own][1])
                        for own, pair in waiters if pair == crosser]
                self._crossings[join] = ({pair for _, pair in waiters}, crosser, owns)

    def run(self, events: list[dict]) -> list[Verdict]:
        delivered: dict[tuple, int] = {}  # (pred, sender, join, receiver) -> count
        arrived: dict[tuple, int] = {}  # (pair, entry) -> how often the pair reached it
        entries = self._entries
        verdicts = []
        index = 0
        last_seq = None
        try:
            for index, event in enumerate(events):
                kind = event["kind"]
                if kind == "StateChange":
                    if event["to"] in entries:
                        for roles, key in entries[event["to"]]:
                            if event["cd"] == roles:
                                arrived[key] = arrived.get(key, 0) + 1
                elif kind == "Notify":
                    key = (event["pred"], _roles(event, "from"), event["join"],
                           _roles(event, "to"))
                    delivered[key] = delivered.get(key, 0) + 1
                elif kind == "Forward":
                    verdicts.append(self._classify(event, delivered, arrived))
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

    def stalled_joins(self, events: list[dict]) -> list[Verdict]:
        """The DeadlockingJoin findings of a run that ended by itself: one
        for each pair and join entry where the pair's last thread to
        reach the entry has no later StateChange, and for another entry
        the pair was delivered fewer notifications than it reached its
        own. Counted, since a join inside a loop is reached once per
        pass. A trace of `simulator.MAX_EVENTS` events or more comes from
        a run cut by the budget, which may have had notifications in
        flight: it is read for malformed events, and has no findings."""
        waits = self._waits
        arrived: dict[tuple, int] = {}  # (pair, entry) -> how often the pair reached it
        last: dict[tuple, int] = {}  # (pair, entry) -> the pair's last thread to reach it
        at: dict[tuple, object] = {}  # (pair, thread) -> the state it last changed to
        delivered: dict[tuple, int] = {}  # (pred, sender, join, receiver) -> count
        blocked: dict[tuple, bool] = {}  # (pair, request_id, task) -> not yet unblocked
        index = 0
        try:
            for index, event in enumerate(events):
                kind = event["kind"]
                if kind == "StateChange":
                    cd, thread, to = _roles(event, "cd"), event["thread"], event["to"]
                    if type(thread) is not int:
                        raise TypeError(f"StateChange thread is not an int: {thread!r}")
                    if event["from"] is not None and type(event["from"]) is not str:
                        raise TypeError("StateChange from is neither null nor a str: "
                                        f"{event['from']!r}")
                    at[cd, thread] = to
                    if (cd, to) in waits:
                        arrived[cd, to] = arrived.get((cd, to), 0) + 1
                        last[cd, to] = thread
                elif kind == "Notify":
                    pred, join = event["pred"], event["join"]
                    if type(pred) is not str or type(join) is not str:
                        raise TypeError(f"Notify needs a str pred and join, got {pred!r}, {join!r}")
                    key = (pred, _roles(event, "from"), join, _roles(event, "to"))
                    delivered[key] = delivered.get(key, 0) + 1
                elif kind == "Forward":
                    fields = (event["receiver"], event["src"], event["task"], event["trg"])
                    if list(map(type, fields)) not in ([str, str, str, str],
                                                       [str, str, str, type(None)]):
                        raise TypeError("Forward needs a str receiver, src and task and a null "
                                        f"or str trg, got {fields!r}")
                elif kind == "Block" or kind == "Unblock":
                    request = (_roles(event, "cd"), event["request_id"], event["task"])
                    if type(request[1]) is not int or type(request[2]) is not str:
                        raise TypeError(f"{kind} needs an int request_id and a str task, "
                                        f"got {request[1]!r}, {request[2]!r}")
                    if kind == "Block" and type(event["participant"]) is not str:
                        raise TypeError("Block participant is not a str: "
                                        f"{event['participant']!r}")
                    blocked[request] = kind == "Block"
                elif kind == "Request":
                    _roles(event, "cd")
                    fields = (event["participant"], event["task"], event["request_id"],
                              event["injected"])
                    if list(map(type, fields)) != [str, str, int, bool]:
                        raise TypeError("Request needs a str participant and task, an int "
                                        f"request_id and a bool injected, got {fields!r}")
                elif kind == "Update":
                    _roles(event, "to")
                    if event["from"] is not None:
                        _roles(event, "from")
                    if type(event["state"]) is not str:
                        raise TypeError(f"Update state is not a str: {event['state']!r}")
        except KeyError as exc:
            raise TraceFormatError(f"trace event {index}: missing field {exc}") from None
        except TypeError as exc:
            raise TraceFormatError(f"trace event {index}: {exc}") from None
        if len(events) >= simulator.MAX_EVENTS:
            return []
        found = {}
        for (pair, own), count in arrived.items():
            join, others = waits[pair, own]
            thread = last[pair, own]
            awaited = sorted(_owed(delivered, join, pair, others, count))
            if awaited and at[pair, thread] == own:
                pending = [task for (cd, _, task), held in blocked.items() if held and cd == pair]
                found[pair, thread] = Verdict(
                    -1, DEADLOCKING_JOIN, pair, None, own,
                    f"thread {thread} awaits {awaited} before {join}; pending requests {pending}",
                )
        return [found[key] for key in sorted(found)]

    def _classify(self, event: dict, delivered: dict, arrived: dict) -> Verdict:
        # a pair as the simulator writes it, a list of two exact strings,
        # is read without _roles' checks; anything else goes through them
        cd = event["cd"]
        if type(cd) is list and len(cd) == 2 and type(cd[0]) is str and type(cd[1]) is str:
            cd = (cd[0], cd[1])
        else:
            cd = _roles(event, "cd")
        task = event["task"]
        src = event["src"]
        seq = event["seq"]
        # for a task or state that cannot be hashed, these lookups raise
        # the TypeError that run() reports as a malformed event
        tasks = self._tasks.get((cd, src), _NO_TASKS)
        if task not in tasks:
            return _new(Verdict, (
                seq, UNDESIRED_TASK, cd, task, src,
                f"{task!r} not among {sorted(tasks)} at {src}",
            ))
        # In a validated model operations leave only the initial state,
        # entered by no flow, and plain states, entered by exactly one.
        entering = self._incoming[src]
        if not entering:
            return _new(Verdict, (seq, ALLOWED, cd, task, src, ""))
        ((before, label, entered),) = entering
        kind = self._states[before]
        # an epsilon flow out of a plain state decides nothing: walk back
        # to the flow that decides that state
        while isinstance(label, Epsilon) and kind is _PLAIN:
            ((before, label, entered),) = self._incoming[before]
            kind = self._states[before]
        if isinstance(label, Guard):
            if not eval_pred(label.pred, self.env):
                if kind is _ALTERNATIVE:
                    return _new(Verdict, (
                        seq, INVALID_ALTERNATIVE, cd, task, src, f"branch guard false at {entered}"
                    ))
                return _new(Verdict, (
                    seq, INVALID_LOOP, cd, task, src, f"loop entry guard false at {entered}"
                ))
        elif kind is _LOOP:
            entry = next(f for f in self.model.outgoing[before] if isinstance(f.label, Guard))
            if eval_pred(entry.label.pred, self.env):
                return _new(Verdict, (
                    seq, MISSED_LOOP, cd, task, src, f"loop at {before} should repeat, not exit"
                ))
        elif kind is _JOIN and before in self._crossings:
            # the crossing pair, at its k-th arrival at one of its entries,
            # is owed every other waiter's k-th notification; another
            # waiter moves on by the crossing pair's update, sent after
            # that pair's k-th notification to it on the same channel
            waiters, crosser, owns = self._crossings[before]
            missed = []
            for own, others in owns:
                k = arrived.get((crosser, own)) or 1
                missing = [(e, q, crosser) for e, q in _owed(delivered, before, crosser, others, k)]
                if cd != crosser and cd in waiters:
                    missing += [(e, q, cd)
                                for e, q in _owed(delivered, before, cd, [(own, crosser)], k)]
                if not missing:
                    return _new(Verdict, (seq, ALLOWED, cd, task, src, ""))
                missed.append((k, missing))
            k, missing = min(missed, key=lambda m: len(m[1]))
            counts = {n: delivered.get((n[0], n[1], before, n[2]), 0) for n in missing}
            return _new(Verdict, (
                seq, MISSED_JOIN, cd, task, src,
                f"crossed {before} at arrival {k} of {crosser} with notifications "
                f"delivered {counts}",
            ))
        return _new(Verdict, (seq, ALLOWED, cd, task, src, ""))


def _owed(delivered: dict, join: str, receiver: tuple, others: list, k: int) -> list:
    """What `receiver`, at an entry of `join` for the k-th time, is still
    owed of `others`: each (entry, pair) whose notification to it was
    delivered fewer than k times."""
    return [(e, q) for e, q in others if delivered.get((e, q, join, receiver), 0) < k]


def _roles(event: dict, field: str) -> tuple[str, str]:
    """The event's role pair under `field`, which must be a list of two
    role names; TypeError otherwise."""
    value = event[field]
    roles = tuple(value)  # a value that is no sequence fails here
    if type(value) is not list or list(map(type, roles)) != [str, str]:
        raise TypeError(f"{event['kind']} {field} is not a list of two roles: {value!r}")
    return roles


def projection(events: list[dict]) -> tuple[str, ...]:
    """The run as the sequence of forwarded operation labels."""
    # the one-item loop unpacks cd as an assignment would, so a cd that is
    # no pair raises the same ValueError or TypeError
    return tuple([
        f"{initiator}.{event['task']}.{receiver}"
        for event in events if event["kind"] == "Forward"
        for initiator, receiver in (event["cd"],)
    ])


def check_conformance(events: list[dict], language: Language, completed: bool) -> bool:
    """A completed run must be a full word of the reference language; an
    interrupted one must at least be a prefix of some word."""
    word = projection(events)
    if completed:
        return language.is_member(word)
    return language.is_prefix(word)


def coordination_overhead(events: list[dict], model: Choreography) -> tuple[int, int]:
    """Delivered coordination messages versus the static bound
    |operation labels| * |roles|. Validation refuses two distinct
    operations with one label text, so the distinct operations are
    counted instead of their texts."""
    kinds = [e["kind"] for e in events]
    count = kinds.count("Update") + kinds.count("Notify")
    operations = {label for _, label, _ in model.flows if isinstance(label, Operation)}
    bound = len(operations) * len(model.roles)
    return count, bound


def verdict_histogram(verdicts: list[Verdict]) -> dict[str, int]:
    out: dict[str, int] = {}
    for v in verdicts:
        out[v.kind] = out.get(v.kind, 0) + 1
    return dict(sorted(out.items()))
