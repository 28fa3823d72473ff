"""Faulty delegate variants used to exercise the runtime checker.

Each factory returns a Delegate subclass with exactly one rule broken.
Most override one of the delegate's hook methods. The unchecked forward
overrides request handling and the retry of blocked requests instead, so
the honest delegate carries no code for it. The variants that misread
guards take a state-kind map because the bug being modeled is
kind-specific (a delegate that mishandles branching is a different
defect from one that mishandles loops); an honest delegate needs no
such map.
"""

from __future__ import annotations

from chorenforce.delegate import (
    BLOCKED,
    FORWARDED,
    Delegate,
    ForwardEmission,
    UnblockEmission,
)
from chorenforce.model import StateKind


def forward_without_check() -> type[Delegate]:
    """Forwards a request it cannot match from the state of its first
    thread instead of blocking it. With no thread at all it blocks; once a
    thread exists, the next retry releases every blocked request, oldest
    first, through a matching tuple if one exists and unchecked if not."""

    class ForwardWithoutCheck(Delegate):
        def handle_request(self, request_id, task):
            status, ems = super().handle_request(request_id, task)
            if status == BLOCKED and self.threads:
                self.pending.pop()
                ems.append(ForwardEmission(task, self.threads[0].state, None))
                return FORWARDED, ems
            return status, ems

        def _retry_pendings(self, ems):
            while self.pending and self.threads:
                request_id, task = self.pending.pop(0)
                ems.append(UnblockEmission(request_id=request_id, task=task))
                match = self._match_request(task)
                if match is None:
                    ems.append(ForwardEmission(task, self.threads[0].state, None))
                else:
                    self._fire_op(*match, ems)

    return ForwardWithoutCheck


def _guard_inverter(kind: StateKind, state_kinds: dict[str, StateKind]) -> type[Delegate]:
    class GuardInverter(Delegate):
        def _cond_holds(self, t):
            holds = super()._cond_holds(t)
            if state_kinds.get(t.src) is kind:
                return not holds
            return holds

    return GuardInverter


def skip_guard_check(state_kinds: dict[str, StateKind]) -> type[Delegate]:
    """Takes the wrong branch at alternative states."""
    return _guard_inverter(StateKind.ALTERNATIVE, state_kinds)


def ignore_loop_guard(state_kinds: dict[str, StateKind]) -> type[Delegate]:
    """Enters loops it should skip and exits loops it should repeat."""
    return _guard_inverter(StateKind.LOOP, state_kinds)


def skip_wait() -> type[Delegate]:
    """Walks straight through joins without collecting notifications."""

    class SkipWait(Delegate):
        def _wait_entries(self, t):
            return frozenset()

    return SkipWait


def skip_notify() -> type[Delegate]:
    """Never tells the sibling branch that its own branch arrived."""

    class SkipNotify(Delegate):
        def _notify_entries(self, t):
            return frozenset()

    return SkipNotify


def wrong_priority() -> type[Delegate]:
    """Always defers at joins, as a delegate that misreads the pair
    order would, taking a sibling pair for the one that sorts last;
    nobody crosses and the run stalls."""

    class WrongPriority(Delegate):
        def _winner(self, join, others):
            return False

    return WrongPriority
