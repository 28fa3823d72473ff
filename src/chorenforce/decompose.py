"""Decomposition of a choreography into per-pair coordination models.

Each pair of roles that exchanges at least one operation gets its own
coordination model: a set of seven-field tuples telling that pair's
delegate which operations it may forward from which state, how to walk
the epsilon/guard structure that follows its own operations, whom to
inform when the global state advances, and how to synchronize at joins.

Tuple fields, in order: source state, operation (None for an epsilon
step), target state, allowed services (pairs to send a state update to),
enabling condition, notifications to send when the target is a join,
notifications to wait for at that join.

Generation makes one pass over the flows, grouping the operation flows
by pair and recording which pairs' operations leave each state and which
reach it through epsilon flows, then one walk per pair. The walk goes
forward from every target of an owned operation flow, emitting one
tuple per epsilon or guard flow encountered, and stopping where another
pair's operation takes over.
The epsilon flow leaving a loop state gets the complement of the entry
guard as its condition, so exactly one of entry/exit is enabled per
evaluation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .model import Choreography, Flow, Guard, Operation, StateKind
from .predicate import Not, Pred, TRUE, to_text
from .validate import validate_cefm


class InvalidModelError(ValueError):
    """The source model failed structural validation."""


class Pair(NamedTuple):
    """A (initiator, receiver) role pair. As a tuple its hash, equality
    and ordering are those of (initiator, receiver), computed in C; it
    also compares equal to that plain tuple."""

    initiator: str
    receiver: str

    def __str__(self) -> str:
        return f"({self.initiator},{self.receiver})"


@dataclass(frozen=True)
class CoordTuple:
    src: str
    op: str | None  # task name; None for an epsilon step
    trg: str
    allowed_services: frozenset[Pair]
    cond: Pred
    to_be_notified: frozenset[tuple[str, Pair]]
    to_be_waited: frozenset[tuple[str, Pair]]

    @property
    def is_op(self) -> bool:
        return self.op is not None

    def sort_key(self) -> tuple:
        return (self.src, self.op or "", self.trg, to_text(self.cond))

    def __str__(self) -> str:
        op = f"{self.op}()" if self.op else "eps"
        allowed = "{" + ",".join(str(p) for p in sorted(self.allowed_services)) + "}"
        return f"<{self.src}, {op}, {self.trg}, {allowed}, {to_text(self.cond)}>"


class CoordModel:
    """One pair's tuples, with lookup tables that are each built on first
    use: a recheck reads only tuples_from, ops_from and waits_at."""

    def __init__(self, owner: Pair, tuples):
        self.owner = owner
        self.tuples = frozenset(tuples)

    def sorted_tuples(self) -> list[CoordTuple]:
        return sorted(self.tuples, key=CoordTuple.sort_key)

    @cached_property
    def by_src(self) -> dict[str, list[CoordTuple]]:
        """Tuples by source state, each list in sorted_tuples order."""
        out: dict[str, list[CoordTuple]] = {}
        for t in self.tuples:
            out.setdefault(t.src, []).append(t)
        for group in out.values():
            if len(group) > 1:
                group.sort(key=CoordTuple.sort_key)
        return out

    def tuples_from(self, src: str) -> list[CoordTuple]:
        return self.by_src.get(src, [])

    def ops_from(self, src: str) -> set[str]:
        return {t.op for t in self.tuples_from(src) if t.is_op}

    @cached_property
    def _op_sources(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for t in self.tuples:
            if t.is_op:
                out.setdefault(t.op, []).append(t.src)
        for sources in out.values():
            sources.sort()
        return out

    def has_op(self, task: str) -> bool:
        return task in self._op_sources

    def op_sources(self, task: str) -> list[str]:
        return self._op_sources.get(task, [])

    @cached_property
    def op_states(self) -> frozenset[str]:
        """The states with an operation tuple of this pair out of them."""
        return frozenset(t.src for t in self.tuples if t.is_op)

    @cached_property
    def initial_wait(self) -> frozenset[str]:
        return initial_wait_states(self)

    @cached_property
    def _waits(self) -> dict[str, frozenset[tuple[str, Pair]]]:
        out: dict[str, set[tuple[str, Pair]]] = {}
        for t in self.tuples:
            if t.to_be_waited:
                out.setdefault(t.trg, set()).update(t.to_be_waited)
        return {join: frozenset(entries) for join, entries in out.items()}

    def waits_at(self, join: str) -> frozenset[tuple[str, Pair]]:
        """All notifications this delegate must collect before passing `join`."""
        return self._waits.get(join, frozenset())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoordModel):
            return NotImplemented
        return self.owner == other.owner and self.tuples == other.tuples


def _join_entries(
    model: Choreography,
    owners: dict[str, set[Pair]],
    src: str,
    trg: str,
) -> tuple[frozenset, frozenset]:
    """Notify/wait sets for a tuple src -> trg; empty unless trg is a join."""
    if model.kind(trg) is not StateKind.JOIN:
        return frozenset(), frozenset()
    notified = set()
    waited = set()
    for f in model.in_flows(trg):
        sibling = f.src
        if sibling == src:
            continue
        for pair in owners[sibling]:
            notified.add((src, pair))
            waited.add((sibling, pair))
    return frozenset(notified), frozenset(waited)


def _loop_exit_cond(model: Choreography, src: str) -> Pred:
    # The exit epsilon of a loop fires exactly when the entry guard fails.
    entry = [f for f in model.out_flows(src) if isinstance(f.label, Guard)]
    if len(entry) != 1:
        return TRUE
    pred = entry[0].label.pred
    return pred.inner if isinstance(pred, Not) else Not(pred)


def _generate(
    model: Choreography,
    owner: Pair,
    op_flows: list[Flow],
    owners: dict[str, set[Pair]],
    leaving: dict[str, set[Pair]],
) -> CoordModel:
    # A tuple updates the pairs whose operation leaves its target directly;
    # the owner never updates itself.
    def tuple_to(src: str, op: str | None, trg: str, cond: Pred) -> CoordTuple:
        notified, waited = _join_entries(model, owners, src, trg)
        return CoordTuple(
            src=src, op=op, trg=trg,
            allowed_services=frozenset(leaving[trg] - {owner}),
            cond=cond, to_be_notified=notified, to_be_waited=waited,
        )

    tuples = {tuple_to(f.src, f.label.task, f.trg, TRUE) for f in op_flows}
    frontier = [f.trg for f in op_flows]
    seen: set[str] = set()
    while frontier:
        s = frontier.pop()
        if s in seen:
            continue
        seen.add(s)
        for f in model.out_flows(s):
            if isinstance(f.label, Operation):
                continue  # another pair's move; this walk stops here
            if isinstance(f.label, Guard):
                cond = f.label.pred
            elif model.kind(s) is StateKind.LOOP:
                cond = _loop_exit_cond(model, s)
            else:
                cond = TRUE
            tuples.add(tuple_to(s, None, f.trg, cond))
            frontier.append(f.trg)

    return CoordModel(owner, tuples)


def generate_all(model: Choreography) -> dict[Pair, CoordModel]:
    report = validate_cefm(model)
    if not report.ok:
        raise InvalidModelError(str(report))
    op_flows: dict[Pair, list[Flow]] = {}
    leaving: dict[str, set[Pair]] = {s: set() for s in model.states}
    # a pair owns every state in the epsilon closure of one of its
    # operations' targets: the states its operation chain reaches
    owners: dict[str, set[Pair]] = {s: set() for s in model.states}
    for f in model.flows:
        if isinstance(f.label, Operation):
            pair = Pair(f.label.initiator, f.label.receiver)
            op_flows.setdefault(pair, []).append(f)
            leaving[f.src].add(pair)
            for s in model.eps_closure(f.trg):
                owners[s].add(pair)
    return {p: _generate(model, p, op_flows[p], owners, leaving) for p in sorted(op_flows)}


def initial_wait_states(cm: CoordModel) -> frozenset[str]:
    """States at which a fresh activation of this delegate can begin.

    These are sources of operation tuples that the delegate cannot reach
    on its own: the forward walk over its tuples stops at join entries,
    because crossing a join is decided by the notify handshake and the
    pair order and continued via an update, not by this walk.
    """
    reached: set[str] = set()
    frontier = [t.trg for t in cm.tuples if t.is_op and not t.to_be_waited]
    while frontier:
        s = frontier.pop()
        if s in reached:
            continue
        reached.add(s)
        for t in cm.tuples_from(s):
            if t.to_be_waited:
                continue
            frontier.append(t.trg)
    return cm.op_states - reached


def cm_warnings(cm: CoordModel) -> list[str]:
    """Ambiguities the runtime rules cannot resolve deterministically."""
    out = []
    joins = {t.trg for t in cm.tuples if t.to_be_waited}
    for j in sorted(joins):
        exits = cm.tuples_from(j)
        if len(exits) > 1:
            out.append(f"{cm.owner}: join {j} has {len(exits)} outgoing tuples")
    return out


def _pair_to_json(p: Pair) -> list[str]:
    return [p.initiator, p.receiver]


def _entry_set_to_json(entries) -> list:
    return [[s, _pair_to_json(p)] for s, p in sorted(entries)]


def tuple_to_json(t: CoordTuple) -> dict:
    return {
        "src": t.src,
        "op": t.op,
        "trg": t.trg,
        "allowedService": [_pair_to_json(p) for p in sorted(t.allowed_services)],
        "cond": to_text(t.cond),
        "toBeNotified": _entry_set_to_json(t.to_be_notified),
        "toBeWaited": _entry_set_to_json(t.to_be_waited),
    }


def dumps_cm(cm: CoordModel) -> str:
    """Canonical dump: a JSON array of tuples ordered by (src, op, trg)."""
    body = [tuple_to_json(t) for t in cm.sorted_tuples()]
    return json.dumps(body, indent=2, sort_keys=True) + "\n"
