"""Coordination delegate: the runtime standing in front of one service pair.

A delegate owns the coordination model of a single (initiator, receiver)
pair and tracks that pair's view of the global run as a set of threads,
each pinned to one state of the model. It reacts to three inputs:

* a request from the initiator to perform a task (forwarded, or blocked
  until the global state catches up),
* a state update from another delegate (activates a fresh thread, wakes
  a blocked request, or is buffered),
* a join notification from another delegate (releases a thread waiting
  at a join, after which the pair order decides whether it crosses or
  retires: of the pairs meeting at a join, the one that sorts last
  crosses).

A delegate reports what it does to its transport, `out`: each state
change, forward and unblock, and each update and notification for
another delegate, as one call of `out.state_change`, `out.forward`,
`out.unblock`, `out.update` or `out.notify`, in the order it happens.
The simulator is the transport of a run; tests attach a recorder and
drive a delegate directly.

A delegate keeps only threads that can still move. Each one either sits
at a state with an own operation tuple, waiting for the initiator, or is
suspended before a join, which is exactly when its `pending_tuple` (the
tuple into the join) is set. A thread at a state with no tuple out of it
(the final state, or a local dead end where only other pairs act next)
can never move again and is retired, as is one that loses a join.

A thread's `awaited` is one shared empty frozenset until its walk
reaches a tuple that waits at a join. It then gets a set of its own,
the tuple's wait entries, from which each delivered notification is
taken out, and goes back to the shared empty set when the join is
resolved.

A delegate reads the environment it is given and does not copy it: the
`runner.Enactment` that builds every delegate of a run holds its own
copy, made once.
"""

from __future__ import annotations

from .decompose import CoordModel, CoordTuple, Pair
from .predicate import Value, eval_pred

FORWARDED = "forwarded"
BLOCKED = "blocked"


class CoordinationError(RuntimeError):
    pass


class UnknownTaskError(CoordinationError):
    """Request for a task that appears nowhere in the coordination model."""


class NoEnabledTupleError(CoordinationError):
    """Every tuple out of a state evaluated false under the environment."""


class DivergentWalkError(CoordinationError):
    """The epsilon walk did not settle; the model cycles without operations."""


# a thread that waits at no join awaits this one shared empty set
_NOT_WAITING: frozenset = frozenset()


class Thread:
    __slots__ = ("id", "state", "awaited", "pending_tuple")

    def __init__(self, tid: int, state: str):
        self.id = tid
        self.state = state
        self.awaited: set[tuple[str, Pair]] | frozenset = _NOT_WAITING
        self.pending_tuple: CoordTuple | None = None

    def __repr__(self) -> str:
        join = None if self.pending_tuple is None else self.pending_tuple.trg
        return f"Thread(id={self.id}, state={self.state!r}, join={join!r})"


class Delegate:
    def __init__(self, pair: Pair, cm: CoordModel, env: dict[str, Value]):
        self.pair = pair
        self.cm = cm
        self.env = env
        # the epsilon walk's step budget
        self._budget = 8 * (len(cm.tuples) + 2) ** 2
        self.threads: list[Thread] = []
        self.pending: list[tuple[int, str]] = []  # (request_id, task)
        self.update_buffer: list[str] = []
        self.notify_buffer: list[tuple[str, Pair, str]] = []
        self._next_tid = 0
        self.out = None  # the transport; a simulator attaches itself

    # -- rule 1: request -----------------------------------------------------

    def handle_request(self, request_id: int, task: str) -> str:
        if not self.cm.has_op(task):
            raise UnknownTaskError(f"{self.pair}: no coordination tuple for task {task!r}")
        match = self._match_request(task)
        if match is None:
            match = self._activate_from_buffer(task)
        if match is not None:
            thread, tup = match
            self._fire_op(thread, tup)
            self._retry_pendings()
            return FORWARDED
        self.pending.append((request_id, task))
        return BLOCKED

    def _match_request(self, task: str) -> tuple[Thread, CoordTuple] | None:
        for thread in self.threads:
            if thread.pending_tuple is not None:
                continue
            for t in self.cm.tuples_from(thread.state):
                if t.op == task:
                    return thread, t
        return None

    def _activate_from_buffer(self, task: str):
        # A state update can outrun the request it enables; consume it now.
        for i, state in enumerate(self.update_buffer):
            if state in self.cm.op_sources(task):
                del self.update_buffer[i]
                thread = self._spawn(state)
                self._walk(thread)
                return self._match_request(task)
        return None

    def _fire_op(self, thread: Thread, t: CoordTuple) -> None:
        self.out.forward(self.pair, t.op, t.src, t.trg)
        if self._traverse(thread, t):
            self._walk(thread)

    # -- rule 2: state update ------------------------------------------------

    def handle_update(self, state: str) -> None:
        if state in self.cm.initial_wait or self._pending_wants(state):
            thread = self._spawn(state)
            self._walk(thread)
            self._retry_pendings()
            return
        self.update_buffer.append(state)

    def _pending_wants(self, state: str) -> bool:
        return any(state in self.cm.op_sources(task) for _, task in self.pending)

    # -- rule 3: join notification --------------------------------------------

    def handle_notify(self, pred: str, sender: Pair, join: str) -> None:
        """Give the notification to every thread waiting for it at the
        join; buffer it when none is."""
        waiting = []
        for thread in self.threads:
            t = thread.pending_tuple
            if t is not None and t.trg == join and (pred, sender) in thread.awaited:
                thread.awaited.discard((pred, sender))
                waiting.append(thread)
        if not waiting:
            self.notify_buffer.append((pred, sender, join))
            return
        ready = [thread for thread in waiting if not thread.awaited]
        for thread in ready:
            # the first to resolve retires its siblings at the join
            if thread in self.threads and self._resolve_join(thread):
                self._walk(thread)
        if ready:
            self._retry_pendings()

    # -- epsilon walk ----------------------------------------------------------

    def _walk(self, thread: Thread) -> None:
        """Advance a thread through epsilon tuples until it and every
        thread split from it settle.

        A settled thread is at an own operation state, waiting before a
        join, or retired: no tuple leaves its state, or it lost a join.
        Several true conditions out of one state mean a concurrent split:
        one thread per branch. The walk goes first in, first out over
        one list that it appends to as it reads it: a thread that
        advanced goes back on its end, then each new branch's thread.
        """
        queue = [thread]
        budget = self._budget
        for thread in queue:
            outs = self.cm.tuples_from(thread.state)
            if not outs:
                self._retire(thread)
                continue
            if thread.state in self.cm.op_states:
                continue
            live = [t for t in outs if eval_pred(t.cond, self.env)]
            if not live:
                raise NoEnabledTupleError(
                    f"{self.pair}: no enabled tuple out of {thread.state}"
                )
            budget -= len(live)
            if budget <= 0:
                raise DivergentWalkError(
                    f"{self.pair}: walk from {thread.state} does not converge"
                )
            branches = []
            for t in live[1:]:
                child = self._spawn(thread.state)
                branches.append((child, t))
            if self._traverse(thread, live[0]):
                queue.append(thread)
            for child, t in branches:
                if self._traverse(child, t):
                    queue.append(child)

    def _traverse(self, thread: Thread, t: CoordTuple) -> bool:
        """Apply one tuple to a thread; True when the thread advanced."""
        if t.to_be_notified:
            for pred, pair in sorted(t.to_be_notified):
                self.out.notify(self.pair, pair, pred, t.trg)
        if t.to_be_waited:
            thread.pending_tuple = t
            thread.awaited = set(t.to_be_waited)
            self._drain_notify_buffer(thread)
            if thread.awaited:
                return False
            return self._resolve_join(thread)
        self._advance(thread, t)
        return True

    def _advance(self, thread: Thread, t: CoordTuple) -> None:
        for pair in sorted(t.allowed_services):
            self.out.update(self.pair, pair, t.trg)
        self.out.state_change(self.pair, thread.id, thread.state, t.trg)
        thread.state = t.trg

    def _drain_notify_buffer(self, thread: Thread) -> None:
        remaining = []
        for pred, sender, join in self.notify_buffer:
            if join == thread.pending_tuple.trg and (pred, sender) in thread.awaited:
                thread.awaited.discard((pred, sender))
            else:
                remaining.append((pred, sender, join))
        self.notify_buffer = remaining

    def _resolve_join(self, thread: Thread) -> bool:
        """All awaited notifications arrived; cross the join or retire.

        The crossing thread is the one whose pair sorts after every other
        pair named in the tuple's wait entries. Entries naming this very
        pair are sibling threads of this delegate. The pair settles the
        join once: whichever thread completes first crosses or loses, and
        its siblings at the join retire either way.
        """
        t = thread.pending_tuple
        for sibling in list(self.threads):
            entering = sibling.pending_tuple
            if sibling is not thread and entering is not None and entering.trg == t.trg:
                self._retire(sibling)
        if any(p > self.pair for _, p in t.to_be_waited):
            self._retire(thread)
            return False
        thread.pending_tuple = None
        thread.awaited = _NOT_WAITING
        self._advance(thread, t)
        return True

    # -- blocked requests -------------------------------------------------------

    def _retry_pendings(self) -> None:
        progress = True
        while progress and self.pending:
            progress = False
            for i, (request_id, task) in enumerate(self.pending):
                match = self._match_request(task)
                if match is not None:
                    del self.pending[i]
                    self.out.unblock(self.pair, request_id, task)
                    self._fire_op(match[0], match[1])
                    progress = True
                    break

    # -- bookkeeping ----------------------------------------------------------

    def _spawn(self, state: str) -> Thread:
        thread = Thread(self._next_tid, state)
        self._next_tid += 1
        self.threads.append(thread)
        self.out.state_change(self.pair, thread.id, None, state)
        return thread

    def _retire(self, thread: Thread) -> None:
        self.threads.remove(thread)
