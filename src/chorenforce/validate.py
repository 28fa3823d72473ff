"""Structural validation of choreography graphs.

Every rule violation is collected rather than raised, so a report lists
everything wrong with a model at once. An empty violation list means the
model is structurally sound; warnings flag suspicious but tolerated
shapes (unreachable and dead-end states) when a caller first reads them.

Each loop's body, the states its guard leads to before the walk comes
back to the loop state, is walked once. That walk decides `loop-back`
and gives the loop's entry flow, the one of its flows in that does not
come from the body, which the fork/join pass reads. It does not pass
the loop state, so a sequence of loops takes time linear in its states
and flows. `loop-without-operation` is one pass over the flows without
an operation, which reports each cycle of them through a loop once,
whether it runs through the loop's body or its exit.

A model that passes the other rules gets one backward pass over its
fork/join structure. For each join it finds the fork the join closes
and, for each entry of the join, the one pair that arrives there: the
pair of the last operation going back from the entry. A loop is passed
through the entry flow its body walk found, an inner join as the pair
that sorts last among its arrivals (the pair that crosses it), and a
branch with no operation is arrived at by whoever arrives at the fork;
None where that is the run's start walk. Who arrives at a fork is kept
once found, so the pass takes time linear in the states it walks. The
report keeps the result as `arrivals`, which the decomposition reads.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from functools import cached_property
from itertools import combinations
from operator import attrgetter
from typing import NamedTuple

from .model import (
    _ALTERNATIVE,
    _FINAL,
    _FORK,
    _INITIAL,
    _JOIN,
    _LOOP,
    _PLAIN,
    Choreography,
    Epsilon,
    Flow,
    Guard,
    Operation,
    Pair,
)
from .predicate import assignments, bool_vars, eval_pred, free_vars, to_text

_SRC, _TRG = attrgetter("src"), attrgetter("trg")


class Violation(NamedTuple):
    state: str
    rule: str
    detail: str

    def __str__(self) -> str:
        return f"{self.state}: {self.rule}: {self.detail}"


class ValidationReport:
    def __init__(self, model: Choreography):
        self.model = model
        self.violations: list[Violation] = []
        # join -> ((entry state, the pair that arrives there or None), ...),
        # entries in order; for each join the fork/join pass accepts
        self.arrivals: dict[str, tuple[tuple[str, Pair | None], ...]] = {}

    @property
    def ok(self) -> bool:
        return not self.violations

    @cached_property
    def warnings(self) -> list[Violation]:
        return _reachability_warnings(self.model)

    def add(self, state: str, rule: str, detail: str) -> None:
        self.violations.append(Violation(state, rule, detail))

    def __str__(self) -> str:
        lines = [str(v) for v in self.violations]
        lines += [f"warning: {w}" for w in self.warnings]
        return "\n".join(lines) if lines else "ok"


def _is_eps(f: Flow) -> bool:
    return isinstance(f.label, Epsilon)


def _label_name(f: Flow) -> str:
    if isinstance(f.label, Epsilon):
        return "eps"
    if isinstance(f.label, Guard):
        return f"guard {to_text(f.label.pred)}"
    return f"op {f.label.label}"


def validate_cefm(model: Choreography) -> ValidationReport:
    """The model's report, worked out once per model object."""
    report = ValidationReport(model)
    if model._validated is not None:
        violations, arrivals = model._validated
        report.violations, report.arrivals = list(violations), dict(arrivals)
        return report
    _check_duplicate_flows(model, report)
    _check_degrees(model, report)
    _check_labels(model, report)
    _check_guards(model, report)
    loops = sorted(s for s, kind in model.states.items() if kind is _LOOP)
    loop_entries = _check_loops(model, report, loops)
    _check_silent_cycles(model, report, loops)
    if report.ok and _JOIN in model.states.values():
        _check_joins(model, report, loop_entries)
    model._validated = (tuple(report.violations), dict(report.arrivals))
    return report


def _check_duplicate_flows(model: Choreography, report: ValidationReport) -> None:
    # The flows of a model are a relation: a flow is there or it is not.
    for f, n in Counter(model.flows).items():
        if n > 1:
            report.add(f.src, "duplicate-flow",
                       f"{_label_name(f)} to {f.trg} is listed {n} times")


def _check_degrees(model: Choreography, report: ValidationReport) -> None:
    for s, kind in sorted(model.states.items()):
        ins, outs = model.incoming[s], model.outgoing[s]

        if kind is _PLAIN:
            if len(ins) != 1:
                report.add(s, "plain-degree", f"{len(ins)} incoming flows, expected 1")
            if len(outs) != 1:
                report.add(s, "plain-degree", f"{len(outs)} outgoing flows, expected 1")
            elif isinstance(outs[0].label, Guard):
                report.add(s, "plain-degree", "outgoing flow carries a guard")

        elif kind is _INITIAL:
            if ins:
                report.add(s, "initial-degree", f"{len(ins)} incoming flows, expected 0")
            if len(outs) != 1:
                report.add(s, "initial-degree", f"{len(outs)} outgoing flows, expected 1")
            elif isinstance(outs[0].label, Guard):
                report.add(s, "initial-degree", "outgoing flow carries a guard")

        elif kind is _FINAL:
            if outs:
                report.add(s, "final-degree", f"{len(outs)} outgoing flows, expected 0")

        elif kind is _ALTERNATIVE:
            if len(ins) != 1 or not _is_eps(ins[0]):
                report.add(s, "alternative-degree", "expected exactly one epsilon predecessor")
            guarded = [f for f in outs if isinstance(f.label, Guard)]
            if len(outs) < 2 or len(guarded) != len(outs):
                report.add(
                    s, "alternative-degree",
                    "expected at least two successors, all guarded, got "
                    + (", ".join(_label_name(f) for f in outs) or "none"),
                )

        elif kind is _FORK:
            if len(ins) != 1 or not _is_eps(ins[0]):
                report.add(s, "fork-degree", "expected exactly one epsilon predecessor")
            if len(outs) < 2 or not all(_is_eps(f) for f in outs):
                report.add(s, "fork-degree", "expected at least two epsilon successors")

        elif kind is _JOIN:
            if len(ins) < 2 or not all(_is_eps(f) for f in ins):
                report.add(s, "join-degree", "expected at least two epsilon predecessors")
            if len(outs) != 1 or not _is_eps(outs[0]):
                report.add(s, "join-degree", "expected exactly one epsilon successor")

        elif kind is _LOOP:
            if len(ins) != 2 or not all(_is_eps(f) for f in ins):
                report.add(s, "loop-degree", "expected exactly two epsilon predecessors")
            eps_out = [f for f in outs if _is_eps(f)]
            guard_out = [f for f in outs if isinstance(f.label, Guard)]
            if len(outs) != 2 or len(eps_out) != 1 or len(guard_out) != 1:
                report.add(
                    s, "loop-degree",
                    "expected one epsilon exit and one guarded entry, got "
                    + (", ".join(_label_name(f) for f in outs) or "none"),
                )


def _check_labels(model: Choreography, report: ValidationReport) -> None:
    # Guards may only label branches of a decision: alternative or loop source.
    # Operations name declared roles: the overhead bound counts those.
    # Distinct operations have distinct label texts, which the trace's
    # projection and the overhead bound read. Two can share one only with
    # a dot in some field of each, so only those are recorded.
    states, roles = model.states, model.roles
    dotted: dict[str, Operation] = {}
    for src, label, _ in model.flows:
        if isinstance(label, Guard):
            kind = states[src]
            if kind is not _ALTERNATIVE and kind is not _LOOP:
                article = "an" if kind.value[0] in "aeiou" else "a"
                report.add(src, "guard-placement",
                           f"guard flow out of {article} {kind.value} state")
        elif isinstance(label, Operation):
            initiator, task, receiver = label
            if initiator not in roles or receiver not in roles:
                for role in sorted({initiator, receiver} - roles):
                    report.add(src, "undeclared-role", f"{label} names undeclared role {role!r}")
            if "." in initiator or "." in task or "." in receiver:
                first = dotted.setdefault(label.label, label)
                if first != label:
                    report.add(src, "ambiguous-label",
                               f"operation {tuple(label)} reads {label} as {tuple(first)} does")


def _check_guards(model: Choreography, report: ValidationReport) -> None:
    # Each guard's variables are read once: for its rules and its alternative's table.
    declared, tables = model.variables, {}
    for f in model.flows:
        if not isinstance(f.label, Guard):
            continue
        pred = f.label.pred
        names = free_vars(pred)
        missing = names - declared.keys()
        if missing:
            report.add(f.src, "guard-variables",
                       f"undeclared variables {sorted(missing)} in {to_text(pred)}")
        kind = model.states[f.src]
        if kind is not _ALTERNATIVE and kind is not _LOOP:
            continue
        typed = [n for n in sorted(bool_vars(pred) - missing)
                 if not all(isinstance(v, bool) for v in declared[n])]
        for n in typed:
            report.add(f.src, "guard-type", f"{n} is tested as a boolean in "
                       f"{to_text(pred)} but declared over {list(declared[n])}")
        if kind is _ALTERNATIVE and tables.setdefault(f.src, []) is not None:
            # a guard that cannot be evaluated leaves its alternative unchecked
            tables[f.src] = None if missing or typed else tables[f.src] + [(pred, names)]

    # One evaluation of each guard per assignment decides both rules: each
    # pair's first assignment where both hold, and the first where none does.
    for s in sorted(tables):
        table = tables[s]
        if table is None or len(table) < 2:
            continue  # the degree rule already failed
        preds = [p for p, _ in table]
        overlaps, gap = {}, None
        for env in assignments({n: declared[n] for _, names in table for n in names}):
            held = [i for i, p in enumerate(preds) if eval_pred(p, env)]
            for pair in combinations(held, 2):
                overlaps.setdefault(pair, env)
            if gap is None and not held:
                gap = env
        for (i, j), env in sorted(overlaps.items()):
            report.add(s, "guards-not-exclusive",
                       f"{to_text(preds[i])} and {to_text(preds[j])} both hold at {env}")
        if gap is not None:
            report.add(s, "guards-not-exhaustive", f"no guard holds at {gap}")


def _check_loops(model: Choreography, report: ValidationReport,
                 loops: list[str]) -> dict[str, str]:
    """Check each loop against its body and return the source of each
    loop's entry flow, for the fork/join pass."""
    entries, outgoing = {}, model.outgoing
    for s in loops:
        guard_out = [f for f in outgoing[s] if isinstance(f.label, Guard)]
        if len(guard_out) != 1:
            continue  # degree rule already failed
        entry = guard_out[0].trg
        ins = model.incoming[s]
        body = _reach(entry, lambda x: () if x == s else outgoing[x], _TRG)
        # One predecessor must close the cycle: lie in the body.
        if not any(f.src in body for f in ins):
            report.add(s, "loop-back",
                       f"no predecessor of {s} is reachable from entry {entry}")
        if ins:  # else the degree rule has failed
            entries[s] = next((f.src for f in ins if f.src not in body), ins[0].src)
    return entries


def _check_silent_cycles(model: Choreography, report: ValidationReport,
                         loops: list[str]) -> None:
    """Report each cycle of flows without an operation that passes a loop
    once, under `loop-without-operation`: a run that takes it turns
    forever without anyone acting. A cycle is one strongly connected set
    of states, found by Tarjan's algorithm on an explicit stack. It is
    reported at the first of its loops whose body it enters, else at its
    first loop, whose exit then leads back to it.

    A cycle that passes no loop is entered only through a join, whose
    walk back the fork/join pass refuses, or not at all: every other
    state has one flow in."""
    states, outgoing = model.states, model.outgoing

    def silent(s: str) -> list[str]:
        return [f.trg for f in outgoing[s] if not isinstance(f.label, Operation)]

    # index: the order states are first met in; low: the lowest index a
    # state reaches among those still on the stack
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    work: list[tuple[str, Iterator[str]]] = []
    cycles = []

    def visit(s: str) -> None:
        index[s] = low[s] = len(index)
        stack.append(s)
        on_stack.add(s)
        work.append((s, iter(silent(s))))

    for root in loops:
        if root not in index:
            visit(root)
        while work:
            s, nexts = work[-1]
            for t in nexts:
                if t not in index:
                    visit(t)
                    break
                if t in on_stack and index[t] < low[s]:
                    low[s] = index[t]
            else:
                work.pop()
                if work and low[s] < low[work[-1][0]]:
                    low[work[-1][0]] = low[s]
                if low[s] == index[s]:
                    cycle = {stack.pop()}
                    while s not in cycle:
                        cycle.add(stack.pop())
                    on_stack -= cycle
                    if len(cycle) > 1 or states[s] is _LOOP and s in silent(s):
                        cycles.append(cycle)

    found = []
    for cycle in cycles:
        # the flows out of the cycle's loops that stay on it
        back = [f for s in sorted(cycle) if states[s] is _LOOP for f in outgoing[s]
                if f.trg in cycle and not isinstance(f.label, Operation)]
        if back:
            f = next((f for f in back if isinstance(f.label, Guard)), back[0])
            way = "the body from" if isinstance(f.label, Guard) else "the exit to"
            found.append((f.src, f"{way} {f.trg} can return to {f.src} without an operation"))
    for s, detail in sorted(found):
        report.add(s, "loop-without-operation", detail)


def _check_joins(model: Choreography, report: ValidationReport,
                 loop_entries: dict[str, str]) -> None:
    """The fork/join pass. A join whose walk back passes another join
    waits until that one is settled, on an explicit stack: a long
    sequence of forks would otherwise recurse once per fork."""
    walk = _JoinWalk(model, report, loop_entries)
    for join in sorted(s for s, kind in model.states.items() if kind is _JOIN):
        stack = [join]
        while stack:
            top = stack[-1]
            if top in walk.forks:
                stack.pop()
                continue
            first = walk.settle(top)
            if first is None:
                stack.pop()
            elif first in stack:
                walk.refuse(top, "join-without-fork",
                            f"its entries lead back round a cycle through join {first}")
                stack.pop()
            else:
                stack.append(first)


# the walk back from a join entry has not yet met an operation
_UNSET = object()


class _JoinWalk:
    """The backward walks of the fork/join pass over one model.

    `forks` maps each settled join to the fork it closes, or to None when
    the join is refused; `report.arrivals` gets the arrivals of the rest.
    A loop is passed through the source of its entry flow, `loop_entries`.
    `arriving` keeps who arrives at each fork a walk has passed, so a
    later walk stops at that fork.
    """

    def __init__(self, model: Choreography, report: ValidationReport,
                 loop_entries: dict[str, str]):
        self.model = model
        self.report = report
        self.loop_entries = loop_entries
        self.forks: dict[str, str | None] = {}
        # fork -> the pair that arrives at it, None for the start walk
        self.arriving: dict[str, Pair | None] = {}

    def settle(self, join: str) -> str | None:
        """Settle `join`, refusing it where a static wait set cannot serve
        it; or return the join whose structure its walks need first."""
        walks = []
        for flow in self.model.incoming[join]:
            found = self._back(join, flow.src)
            if not isinstance(found, tuple):
                if found is None:
                    self.forks[join] = None
                return found
            walks.append((flow.src, *found))
        forks = sorted({fork for _, fork, _, _ in walks})
        if len(forks) > 1:
            self.refuse(join, "join-without-fork", f"its entries lead back to forks {forks}")
            return None
        # the start walk crosses a join only from all its entries, but a
        # pair at one entry has no one to wait for at an entry of the start
        # walk's: where a loop decides whether the start walk gets there,
        # the pair may cross when it does not
        if any(pair is not None for _, _, pair, _ in walks):
            for entry, _, pair, loop in walks:
                if pair is None and loop is not None:
                    self.refuse(join, "join-arrival", f"loop {loop} decides whether the "
                                 f"start walk arrives at entry {entry}, which the pairs "
                                 f"at the other entries cannot wait for")
                    return None
        self.forks[join] = forks[0]
        self.report.arrivals[join] = tuple((entry, pair) for entry, _, pair, _ in walks)
        return None

    def refuse(self, join: str, rule: str, detail: str) -> None:
        self.report.add(join, rule, detail)
        self.forks[join] = None

    def _back(self, join: str, entry: str):
        """Walk back from `entry` to the fork and to the last operation.

        Returns (fork, pair, loop): `pair` is None where the start walk
        arrives, and `loop` is a loop passed between the entry and the
        fork. Returns a join not yet settled that the walk passes, or
        None once the walk refused `join` or passed a refused join.
        """
        states, incoming, arriving = self.model.states, self.model.incoming, self.arriving
        fork = loop = None
        pair = _UNSET
        passed = []  # forks passed before an operation: `pair` arrives at each
        s = entry
        # a walk back that visits a state twice has gone round a cycle
        for _ in range(len(states)):
            kind = states[s]
            if kind is _FORK:
                if fork is None:
                    fork = s
                    if pair is not _UNSET:
                        return fork, pair, loop
                if s in arriving:
                    pair = arriving[s]
                    break
                passed.append(s)
                # on to whoever arrives at the fork
            elif kind is _JOIN:
                if s not in self.forks:
                    return s
                inner = self.forks[s]
                if inner is None:
                    return None
                if pair is _UNSET:
                    crossing = max((p for _, p in self.report.arrivals[s] if p is not None),
                                   default=None)
                    if crossing is not None:
                        pair = crossing
                        if fork is not None:
                            break
                    elif fork is not None:
                        # its walks went past its fork to the start walk
                        pair = arriving[inner]
                        break
                s = incoming[inner][0].src
                continue
            elif kind is _LOOP:
                if fork is None:
                    loop = s
                s = self.loop_entries[s]
                continue
            elif kind is _INITIAL:
                if fork is None:
                    self.refuse(join, "join-without-fork",
                                 f"entry {entry} reaches the initial state without a fork")
                    return None
                pair = None
                break
            (flow,) = incoming[s]
            label = flow.label
            if isinstance(label, Guard):
                if fork is None:
                    where = ("passes the alternative" if states[flow.src] is _ALTERNATIVE
                             else "lies in the body of loop")
                    self.refuse(join, "join-without-fork", f"entry {entry} {where} {flow.src}")
                    return None
                if states[flow.src] is _LOOP:
                    self.refuse(join, "join-arrival", f"loop {flow.src} decides who "
                                 f"arrives at fork {fork}, and so at entry {entry}")
                    return None
            elif isinstance(label, Operation) and pair is _UNSET:
                pair = Pair(label.initiator, label.receiver)
                if fork is not None:
                    break
            s = flow.src
        else:
            self.refuse(join, "join-without-fork", f"entry {entry} leads back round a cycle")
            return None
        for f in passed:
            arriving[f] = pair
        return fork, pair, loop


def _reach(
    start: str, flows_of: Callable[[str], Iterable[Flow]], end: Callable[[Flow], str]
) -> set[str]:
    """States reachable from start by repeatedly taking the flows_of a
    state to their end (_TRG forward, _SRC backward)."""
    seen = {start}
    stack = [start]
    while stack:
        for nxt in map(end, flows_of(stack.pop())):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _reachability_warnings(model: Choreography) -> list[Violation]:
    from_initial = _reach(model.initial, model.outgoing.__getitem__, _TRG)
    reaches_final = _reach(model.final, model.incoming.__getitem__, _SRC)
    return [Violation(s, "unreachable", "not reachable from the initial state")
            for s in sorted(model.states.keys() - from_initial)] + [
            Violation(s, "dead-end", "cannot reach the final state")
            for s in sorted(from_initial - reaches_final)]
