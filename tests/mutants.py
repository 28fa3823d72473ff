"""Faulty delegate variants used to exercise the runtime checker.

Each factory returns a Delegate subclass with exactly one fault. Most
enforce a faulty coordination model: the honest model's tuples with
the guards, the notifications or the waits of a join got wrong. The
faulty model keeps the honest model's lookup tables, entry states
included, so the delegate is activated exactly where an honest one is. The wrong priority and the
unchecked forward break a runtime rule instead, by overriding the
method that applies it, so the honest delegate carries no code for
either. The variants that misread guards take a state-kind map because
the bug being modeled is kind-specific (a delegate that mishandles
branching is a different defect from one that mishandles loops); an
honest delegate needs no such map.
"""

from __future__ import annotations

from collections.abc import Callable

from chorenforce.decompose import CoordModel, CoordTuple
from chorenforce.delegate import BLOCKED, FORWARDED, Delegate
from chorenforce.model import StateKind
from chorenforce.predicate import Not


def _faulty_model(fault: Callable[[CoordTuple], CoordTuple]) -> type[Delegate]:
    """A delegate enforcing the honest model with `fault` applied to each
    tuple."""

    class FaultyModel(Delegate):
        def __init__(self, pair, cm, env):
            # a fault changes only a condition or a notify or wait set, so
            # the honest tables keep their keys and order
            mapped = {id(t): fault(t) for t in cm.tuples}
            by_src = {s: [mapped[id(t)] for t in group] for s, group in cm.by_src.items()}
            faulty = CoordModel(list(mapped.values()), by_src, cm._op_sources,
                                cm.op_states, cm.initial_wait)
            super().__init__(pair, faulty, env)

    return FaultyModel


def forward_without_check() -> type[Delegate]:
    """Forwards a request it cannot match from the state of its first
    thread instead of blocking it. With no thread at all it blocks; once a
    thread exists, the next retry releases every blocked request, oldest
    first, through a matching tuple if one exists and unchecked if not."""

    class ForwardWithoutCheck(Delegate):
        def handle_request(self, request_id, task):
            status = super().handle_request(request_id, task)
            if status == BLOCKED and self.threads:
                self.pending.pop()
                self.out.forward(self.pair, task, self.threads[0].state, None)
                return FORWARDED
            return status

        def _retry_pendings(self):
            while self.pending and self.threads:
                request_id, task = self.pending.pop(0)
                self.out.unblock(self.pair, request_id, task)
                match = self._match_request(task)
                if match is None:
                    self.out.forward(self.pair, task, self.threads[0].state, None)
                else:
                    self._fire_op(*match)

    return ForwardWithoutCheck


def _with(t: CoordTuple, **changes) -> CoordTuple:
    """A new tuple with `t`'s fields and the named ones changed."""
    return CoordTuple(**{name: getattr(t, name) for name in CoordTuple.__slots__} | changes)


def _guard_inverter(kind: StateKind, state_kinds: dict[str, StateKind]) -> type[Delegate]:
    def invert(t: CoordTuple) -> CoordTuple:
        if state_kinds.get(t.src) is kind:
            return _with(t, cond=Not(t.cond))
        return t

    return _faulty_model(invert)


def skip_guard_check(state_kinds: dict[str, StateKind]) -> type[Delegate]:
    """Takes the wrong branch at alternative states."""
    return _guard_inverter(StateKind.ALTERNATIVE, state_kinds)


def ignore_loop_guard(state_kinds: dict[str, StateKind]) -> type[Delegate]:
    """Enters loops it should skip and exits loops it should repeat."""
    return _guard_inverter(StateKind.LOOP, state_kinds)


def skip_wait() -> type[Delegate]:
    """Walks straight through joins without collecting notifications."""
    return _faulty_model(lambda t: _with(t, to_be_waited=frozenset()))


def skip_notify() -> type[Delegate]:
    """Never tells the sibling branch that its own branch arrived."""
    return _faulty_model(lambda t: _with(t, to_be_notified=frozenset()))


def wrong_priority() -> type[Delegate]:
    """Always defers at joins, as a delegate that misreads the pair
    order would, taking a sibling pair for the one that sorts last;
    nobody crosses and the run stalls."""

    class WrongPriority(Delegate):
        def _resolve_join(self, thread):
            self._retire(thread)
            return False

    return WrongPriority


def skip_notify_on_pass(n: int) -> type[Delegate]:
    """Honest, except that the n-th time (from 1) its walk enters a join
    it tells no sibling branch that its own branch arrived."""

    class SkipNotifyOnPass(Delegate):
        def __init__(self, pair, cm, env):
            super().__init__(pair, cm, env)
            self.joins_entered = 0

        def _traverse(self, thread, t):
            if t.to_be_notified:
                self.joins_entered += 1
                if self.joins_entered == n:
                    t = _with(t, to_be_notified=frozenset())
            return super()._traverse(thread, t)

    return SkipNotifyOnPass


def skip_wait_from_pass(n: int) -> type[Delegate]:
    """Honest, except that from the n-th time (from 1) its walk enters a
    join it crosses at once, waiting for no sibling branch, though it
    still tells them that its own branch arrived."""

    class SkipWaitFromPass(Delegate):
        def __init__(self, pair, cm, env):
            super().__init__(pair, cm, env)
            self.joins_entered = 0

        def _traverse(self, thread, t):
            if t.to_be_waited:
                self.joins_entered += 1
                if self.joins_entered >= n:
                    t = _with(t, to_be_waited=frozenset())
            return super()._traverse(thread, t)

    return SkipWaitFromPass
