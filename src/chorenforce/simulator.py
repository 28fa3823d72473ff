"""Single-process execution of participants, delegates and channels.

The simulator owns per-(sender, receiver) FIFO channels for updates and
notifications, while requests are handled synchronously: when the
scheduler picks a participant, the request goes to the delegate and the
reply comes back in the same step. One step therefore consumes exactly
one schedulable item: a nonempty channel, a participant with a pending
action, or an armed injection.

The simulator keeps the labels of exactly those items in one ready set:
a label -> item dict plus the sorted list of its labels, both updated
where a label enters or leaves rather than rebuilt or sorted each step.
A channel's label enters when its queue goes from empty to nonempty and
leaves when the queue empties, and a role's participant and injection
labels are re-derived at bootstrap, after the role issues a request, and
when a request of its script is unblocked. Each step hands the sorted
list to the policy, so the schedule depends only on which items are
ready. The list belongs to the simulator: a policy must neither keep it
nor change it.

The simulator is every delegate's transport: a delegate reports each
state change, forward and unblock, which the simulator logs at once,
and each update and notification, which it queues on the channel to
the receiving delegate.

Every observable fact of a run becomes one trace event with a strictly
increasing sequence number. Message events are logged at delivery, so
the trace reflects what each delegate knew and when. Two runs with the
same scenario, seed and policy produce byte-identical traces.
"""

from __future__ import annotations

import random
import weakref
from bisect import bisect_left, bisect_right, insort
from collections import deque

from .decompose import Pair
from .delegate import BLOCKED, Delegate
from .model import _JOIN, _LOOP, Choreography, Guard, Operation, _new
from .participants import Participant
from .predicate import Value, eval_pred

COMPLETED = "completed"
DEADLOCKED = "deadlocked"
BUDGET = "budget"

# the events a run may log before it ends as BUDGET; a run that ends by
# itself logs fewer. Simulator.run and RuntimeChecker.stalled_joins read
# it at call time
MAX_EVENTS = 10000


class SimulationError(RuntimeError):
    pass


def enactment_bootstrap(model: Choreography, env: dict[str, Value]) -> list[tuple[Pair, str]]:
    """The updates that start a run, in sorted (pair, state) order: one for
    each pair whose operation leaves a state reached before any operation.
    The walk goes as a delegate's walk after an operation: under `env` it
    takes the guards that hold, a loop's entry while its guard holds and
    its exit otherwise, and every fork branch, crosses a join once it
    reached all the join's entries, and stops at operations."""
    start, stack = [], [model.initial]
    arrived: dict[str, int] = {}  # by state, the flows into it taken so far
    while stack:
        s = stack.pop()
        flows = [f for f in model.outgoing[s]
                 if not isinstance(f.label, Guard) or eval_pred(f.label.pred, env)]
        if model.states[s] is _LOOP and len(flows) == 2:  # its guard holds
            flows = [f for f in flows if isinstance(f.label, Guard)]
        for src, label, trg in flows:
            if isinstance(label, Operation):
                start.append((Pair(label.initiator, label.receiver), src))
                continue
            arrived[trg] = arrived.get(trg, 0) + 1
            # a state is entered by its first flow in, a join by its last
            if arrived[trg] == (len(model.incoming[trg]) if model.states[trg] is _JOIN else 1):
                stack.append(trg)
    return sorted(start)


class RoundRobin:
    """Rotates over every source label seen so far, in sorted order."""

    def __init__(self):
        self._known: list[str] = []
        self._known_set: set[str] = set()
        self._last: str | None = None

    def select(self, ready: list[str]) -> str:
        """The first ready label after the last pick in the rotation.

        `ready` is sorted, so that is the first ready label above the
        last pick, else the smallest one. `ready` is scanned for labels
        not seen before only when some label in it is new; those are
        sorted into the rotation, which then goes on from the label
        now at the last pick's index. So the index is kept, not the
        label, and each new label that sorts before the last pick moves
        the rotation back by one."""
        if not ready:
            raise SimulationError("no ready source")
        known_set = self._known_set
        last = self._last
        if not known_set.issuperset(ready):
            known = self._known
            pos = None if last is None else bisect_left(known, last)
            for label in ready:
                if label not in known_set:
                    known_set.add(label)
                    insort(known, label)
            if pos is not None:
                last = known[pos]
        i = 0 if last is None else bisect_right(ready, last)
        chosen = ready[i] if i < len(ready) else ready[0]
        self._last = chosen
        return chosen


class SeededRandom:
    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def select(self, ready: list[str]) -> str:
        return self._rng.choice(ready)


def make_policy(name: str, seed: int):
    if name == "roundrobin":
        return RoundRobin()
    if name == "random":
        return SeededRandom(seed)
    raise SimulationError(f"unknown policy {name!r}")


class Simulator:
    """One run of `model`, started by the updates in `start`, which are
    enactment_bootstrap's for the run's environment."""

    def __init__(
        self,
        model: Choreography,
        start: list[tuple[Pair, str]],
        delegates: dict[Pair, Delegate],
        participants: dict[str, Participant],
        policy,
    ):
        self.model = model
        self.start = start
        self.delegates = delegates
        self.participants = participants
        self.policy = policy
        self.events: list[dict] = []
        self.channels: dict[tuple[Pair | None, Pair], deque] = {}
        # each channel's ready label and item, built at its first send
        self._channel_items: dict[tuple[Pair | None, Pair], tuple[str, tuple]] = {}
        # the ready set: each ready label's item, and the labels sorted
        self._ready: dict[str, tuple] = {}
        self._ready_labels: list[str] = []
        # each role's participant label and item
        self._participant_items = {role: (f"pt:{role}", ("participant", role))
                                   for role in participants}
        # the role of each participant request; injected ones unblock nobody
        self._request_role: dict[int, str] = {}
        self._next_request = 0
        # a weak reference: with a strong one, the simulator and its
        # delegates would form a cycle that only the collector frees
        out = weakref.proxy(self)
        for delegate in delegates.values():
            delegate.out = out

    # -- transport --------------------------------------------------------

    def _send(self, src: Pair | None, dst: Pair, message: tuple) -> None:
        key = (src, dst)
        queue = self.channels.get(key)
        if queue is None:
            queue = self.channels[key] = deque()
            label = (f"ch:enactment->{dst[0]},{dst[1]}" if src is None
                     else f"ch:{src[0]},{src[1]}->{dst[0]},{dst[1]}")
            self._channel_items[key] = (label, ("channel", src, dst, label))
        if not queue:
            label, item = self._channel_items[key]
            self._ready[label] = item
            insort(self._ready_labels, label)
        queue.append(message)

    def _deliver(self, src: Pair | None, dst: Pair, label: str) -> None:
        queue = self.channels[(src, dst)]
        message = queue.popleft()
        if not queue:
            del self._ready[label]
            labels = self._ready_labels
            del labels[bisect_left(labels, label)]
        delegate = self.delegates[dst]
        events = self.events
        sender = None if src is None else list(src)
        if message[0] == "update":
            state = message[1]
            events.append(
                {
                    "kind": "Update",
                    "seq": len(events),
                    "from": sender,
                    "to": list(dst),
                    "state": state,
                }
            )
            delegate.handle_update(state)
        else:
            _, pred, join = message
            assert src is not None
            events.append(
                {
                    "kind": "Notify",
                    "seq": len(events),
                    "from": sender,
                    "to": list(dst),
                    "pred": pred,
                    "join": join,
                }
            )
            delegate.handle_notify(pred, src, join)

    # -- what delegates report ----------------------------------------------

    def state_change(self, origin: Pair, thread_id: int, src: str | None, trg: str) -> None:
        events = self.events
        events.append(
            {
                "kind": "StateChange",
                "seq": len(events),
                "cd": list(origin),
                "thread": thread_id,
                "from": src,
                "to": trg,
            }
        )

    def forward(self, origin: Pair, task: str, src: str, trg: str | None) -> None:
        events = self.events
        events.append(
            {
                "kind": "Forward",
                "seq": len(events),
                "cd": list(origin),
                "task": task,
                "src": src,
                "trg": trg,
                "receiver": origin.receiver,
            }
        )

    def unblock(self, origin: Pair, request_id: int, task: str) -> None:
        events = self.events
        events.append(
            {
                "kind": "Unblock",
                "seq": len(events),
                "cd": list(origin),
                "request_id": request_id,
                "task": task,
            }
        )
        role = self._request_role.get(request_id)
        if role is not None:
            self.participants[role].on_unblocked()
            self._refresh(role)

    def update(self, origin: Pair, dst: Pair, state: str) -> None:
        self._send(origin, dst, ("update", state))

    def notify(self, origin: Pair, dst: Pair, pred: str, join: str) -> None:
        self._send(origin, dst, ("notify", pred, join))

    # -- requests ----------------------------------------------------------

    def _issue(self, role: str, injection_index: int | None = None) -> None:
        participant = self.participants[role]
        if injection_index is None:
            action = participant.current_action()
        else:
            action = participant.injections[injection_index]
            participant.issued_injections.add(injection_index)
        pair = _new(Pair, (role, action.target))
        delegate = self.delegates.get(pair)
        if delegate is None:
            raise SimulationError(f"no delegate for {pair}")
        request_id = self._next_request
        self._next_request += 1
        injected = injection_index is not None
        if not injected:
            self._request_role[request_id] = role
        events = self.events
        events.append(
            {
                "kind": "Request",
                "seq": len(events),
                "participant": role,
                "cd": list(pair),
                "task": action.task,
                "request_id": request_id,
                "injected": injected,
            }
        )
        if delegate.handle_request(request_id, action.task) == BLOCKED:
            events.append(
                {
                    "kind": "Block",
                    "seq": len(events),
                    "participant": role,
                    "cd": list(pair),
                    "task": action.task,
                    "request_id": request_id,
                }
            )
            if not injected:
                participant.on_blocked(request_id)
        elif not injected:
            participant.on_forwarded()
        self._refresh(role)

    def _refresh(self, role: str) -> None:
        """Re-derive the role's participant and injection labels."""
        participant = self.participants[role]
        label, item = self._participant_items[role]
        self._set_ready(label, participant.ready(), item)
        if not participant.injections:
            return
        armed = set(participant.ready_injections())
        for idx in range(len(participant.injections)):
            self._set_ready(f"inj:{role}:{idx}", idx in armed, ("injection", role, idx))

    def _set_ready(self, label: str, is_ready: bool, item: tuple) -> None:
        """Let `label` enter the ready set with `item`, or leave it."""
        ready = self._ready
        if is_ready:
            if label not in ready:
                ready[label] = item
                insort(self._ready_labels, label)
        elif label in ready:
            del ready[label]
            labels = self._ready_labels
            del labels[bisect_left(labels, label)]

    # -- main loop ------------------------------------------------------------

    def bootstrap(self) -> None:
        for pair, state in self.start:
            self._send(None, pair, ("update", state))
        for role in self.participants:
            self._refresh(role)

    def run(self) -> str:
        self.bootstrap()
        events = self.events
        ready, labels = self._ready, self._ready_labels
        select = self.policy.select
        while True:
            if len(events) >= MAX_EVENTS:
                return BUDGET
            if not labels:
                break
            item = ready[select(labels)]
            if item[0] == "channel":
                self._deliver(item[1], item[2], item[3])
            elif item[0] == "participant":
                self._issue(item[1])
            else:
                self._issue(item[1], injection_index=item[2])
        return COMPLETED if self._completed() else DEADLOCKED

    def _completed(self) -> bool:
        """Nothing left that must still happen. Pairs that never activated
        and unconsumed buffered messages are fine; blocked participants,
        unissued injections, pending requests and any delegate thread are
        not, since a delegate keeps only threads suspended before a join
        or still owed a request."""
        for participant in self.participants.values():
            if not participant.done():
                return False
        return not any(d.pending or d.threads for d in self.delegates.values())
