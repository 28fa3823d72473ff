"""Decomposition of a choreography into per-pair coordination models.

Each pair of roles that exchanges at least one operation gets its own
coordination model: a set of seven-field tuples telling that pair's
delegate which operations it may forward from which state, how to walk
the epsilon/guard structure that follows its own operations, whom to
inform when the global state advances, and how to synchronize at joins.

Tuple fields, in order: source state, operation (None for an epsilon
step), target state, allowed services (pairs to send a state update to),
enabling condition, notifications to send when the target is a join,
notifications to wait for at that join. A `CoordTuple` keeps them in
slots, which its constructor fills through the slots' own descriptors,
since the tuple's `__setattr__` and `__delattr__` refuse every field.

Generation makes one pass over the flows, grouping the operation flows
by pair and the other flows by source state, and recording which pairs'
operations leave each state; then one walk per pair. The walk goes
forward from every target of an owned operation flow, emitting one
tuple per epsilon or guard flow encountered, and stopping where another
pair's operation takes over. It fills the pair's lookup tables as it
emits the tuples. The notify/wait sets of a flow into a join come from
validation, which names the one pair that arrives at each entry of each
join (None where the run's start walk does): the tuple notifies the
pair arriving at each other entry and waits for each of them.
The epsilon flow leaving a loop state gets the complement of the entry
guard as its condition, so exactly one of entry/exit is enabled per
evaluation.
"""

from __future__ import annotations

from .model import _JOIN, _LOOP, Choreography, Flow, Guard, Operation, Pair, _new, dumps_json
from .predicate import Not, Pred, TRUE, _Frozen, to_text
from .validate import ValidationReport, validate_cefm


class InvalidModelError(ValueError):
    """The source model failed structural validation."""


class CoordTuple(_Frozen):
    """One tuple of a coordination model, immutable and equal only to
    itself. Its fields are slots, which a delegate reads faster than a
    NamedTuple's fields."""

    __slots__ = _fields = (
        "src", "op", "trg", "allowed_services", "cond", "to_be_notified", "to_be_waited",
    )
    src: str
    op: str | None  # task name; None for an epsilon step
    trg: str
    allowed_services: frozenset[Pair]
    cond: Pred
    to_be_notified: frozenset[tuple[str, Pair]]
    to_be_waited: frozenset[tuple[str, Pair]]

    def __init__(self, src, op, trg, allowed_services, cond, to_be_notified, to_be_waited):
        # the tuple's own __setattr__ refuses, so each slot is filled
        # through its descriptor
        _set_src(self, src)
        _set_op(self, op)
        _set_trg(self, trg)
        _set_allowed_services(self, allowed_services)
        _set_cond(self, cond)
        _set_to_be_notified(self, to_be_notified)
        _set_to_be_waited(self, to_be_waited)

    def sort_key(self) -> tuple:
        return (self.src, self.op or "", self.trg, to_text(self.cond))

    def __str__(self) -> str:
        op = f"{self.op}()" if self.op else "eps"
        allowed = "{" + ",".join(str(p) for p in sorted(self.allowed_services)) + "}"
        return f"<{self.src}, {op}, {self.trg}, {allowed}, {to_text(self.cond)}>"


(_set_src, _set_op, _set_trg, _set_allowed_services, _set_cond, _set_to_be_notified,
 _set_to_be_waited) = (getattr(CoordTuple, name).__set__ for name in CoordTuple._fields)

# no pairs, no notify/wait entries: one shared empty set
_NONE: frozenset = frozenset()


class CoordModel:
    """One pair's tuples and the lookup tables its delegate and the
    checker read, all filled by the decomposition's walk as it emits the
    tuples."""

    __slots__ = ("tuples", "by_src", "op_states", "initial_wait", "_op_sources")

    def __init__(self, tuples, by_src, op_sources, op_states, initial_wait):
        # in the order the walk emitted them
        self.tuples: list[CoordTuple] = tuples
        # by source state, each list in sort_key order
        self.by_src: dict[str, list[CoordTuple]] = by_src
        # by task, the sources of its operation tuples, in sorted order
        self._op_sources: dict[str, list[str]] = op_sources
        self.op_states: frozenset[str] = op_states
        # The operation sources a fresh activation of this delegate can
        # begin at: those the pair cannot reach by its own walk, which
        # stops at join entries, because crossing a join is decided by the
        # notify handshake and the pair order and continued via an update.
        self.initial_wait: frozenset[str] = initial_wait

    def sorted_tuples(self) -> list[CoordTuple]:
        # sort_key leads with the source, and each group is in sort_key order
        by_src = self.by_src
        return [t for src in sorted(by_src) for t in by_src[src]]

    def tuples_from(self, src: str) -> list[CoordTuple] | tuple[()]:
        # a miss gives the one shared empty tuple, not a new list
        return self.by_src.get(src, ())

    def has_op(self, task: str) -> bool:
        return task in self._op_sources

    def op_sources(self, task: str) -> list[str]:
        return self._op_sources.get(task, [])


def _loop_exit_cond(model: Choreography, src: str) -> Pred:
    # The exit epsilon of a loop fires exactly when the entry guard, its
    # one guard flow, fails.
    pred = next(f.label.pred for f in model.outgoing[src] if isinstance(f.label, Guard))
    return pred.inner if isinstance(pred, Not) else Not(pred)


class _Decomposition:
    """What every pair's walk reads off one model: the flows other than
    operations out of each state, the pairs whose operation leaves each
    state, and the notify/wait sets of each flow into a join, worked out
    the first time a walk crosses that flow from `arrivals`, validation's
    pair (or None) arriving at each entry of each join."""

    def __init__(self, model: Choreography, arrivals: dict[str, tuple]):
        self.model = model
        self.arrivals = arrivals
        self.op_flows: dict[Pair, list[Flow]] = {}
        self.steps: dict[str, list[Flow]] = {}
        leaving: dict[str, set[Pair]] = {}
        for f in model.flows:
            label = f.label
            if isinstance(label, Operation):
                pair = _new(Pair, (label.initiator, label.receiver))
                self.op_flows.setdefault(pair, []).append(f)
                leaving.setdefault(f.src, set()).add(pair)
            else:
                self.steps.setdefault(f.src, []).append(f)
        self.leaving = {s: frozenset(pairs) for s, pairs in leaving.items()}
        self._join_entries: dict[tuple[str, str], tuple[frozenset, frozenset]] = {}

    def join_entries(self, src: str, join: str) -> tuple[frozenset, frozenset]:
        """Notify/wait sets of a tuple from src into a join: notify the
        pair that arrives at each other entry of the join, and wait for
        each of them."""
        key = (src, join)
        entries = self._join_entries.get(key)
        if entries is None:
            waited = frozenset(
                (entry, pair) for entry, pair in self.arrivals[join]
                if entry != src and pair is not None
            )
            notified = frozenset((src, pair) for _, pair in waited)
            entries = self._join_entries[key] = (notified, waited)
        return entries

    def generate(self, owner: Pair) -> CoordModel:
        """The pair's tuples, filling its lookup tables as they are emitted.

        Operation tuples come first, one per owned operation flow, in
        flow order: an operation leaves only a plain or the initial
        state, by its one flow, so each has a source of its own, and
        sources come in sorted order. Then the walk goes forward from
        their targets over the other flows, and stops where another
        operation takes over. It emits the tuples out of one state
        together, in the order of the state's flows, which is sort_key
        order: in a valid model two flows out of one state share a target
        only when both are guards, sorted by their text. The walk first
        stops at tuples that wait at a join: the operation sources it has
        not reached by then are the pair's entry states. Then it goes on
        from the joins.
        """
        states = self.model.states
        steps = self.steps
        leaving = self.leaving
        tuples: list[CoordTuple] = []
        by_src: dict[str, list[CoordTuple]] = {}
        op_sources: dict[str, list[str]] = {}
        seen: set[str] = set()  # states the walk has reached or queued
        frontier: list[str] = []
        for src, label, trg in self.op_flows[owner]:
            allowed = leaving.get(trg, _NONE)
            if owner in allowed:
                allowed = allowed - {owner}  # the owner never updates itself
            # an operation never enters a join: its tuple notifies no one
            t = CoordTuple(src, label.task, trg, allowed, TRUE, _NONE, _NONE)
            tuples.append(t)
            by_src[src] = [t]
            op_sources.setdefault(label.task, []).append(src)
            if trg not in seen:
                seen.add(trg)
                if trg in steps:
                    frontier.append(trg)
        op_states = frozenset(by_src)

        initial_wait = None
        past_joins: list[str] = []
        while True:
            while frontier:
                s = frontier.pop()
                group: list[CoordTuple] = []
                for src, label, trg in steps[s]:
                    if isinstance(label, Guard):
                        cond = label.pred
                    elif states[src] is _LOOP:
                        cond = _loop_exit_cond(self.model, src)
                    else:
                        cond = TRUE
                    notified = waited = _NONE
                    if states[trg] is _JOIN:
                        notified, waited = self.join_entries(src, trg)
                    allowed = leaving.get(trg, _NONE)
                    if owner in allowed:
                        allowed = allowed - {owner}
                    t = CoordTuple(src, None, trg, allowed, cond, notified, waited)
                    group.append(t)
                    if waited:
                        past_joins.append(trg)
                    elif trg not in seen:
                        seen.add(trg)
                        if trg in steps:
                            frontier.append(trg)
                by_src[s] = group
                tuples += group
            if initial_wait is None:
                initial_wait = op_states - seen
            if not past_joins:
                break
            for join in past_joins:
                if join not in seen:
                    seen.add(join)
                    if join in steps:
                        frontier.append(join)
            past_joins = []
        return CoordModel(tuples, by_src, op_sources, op_states, initial_wait)


def require_valid(model: Choreography) -> ValidationReport:
    """The model's validation report; InvalidModelError, with the
    report's text, where the model breaks a rule."""
    report = validate_cefm(model)
    if not report.ok:
        raise InvalidModelError(str(report))
    return report


def generate_all(model: Choreography) -> dict[Pair, CoordModel]:
    report = require_valid(model)
    walks = _Decomposition(model, report.arrivals)
    return {pair: walks.generate(pair) for pair in sorted(walks.op_flows)}


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
    return dumps_json(body)
