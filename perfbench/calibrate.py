"""A fixed pure-Python kernel that measures how fast the host runs now.

The sandbox the benchmark runs in shares its cores: over minutes the
same code runs up to twice as slow or fast, in process CPU time as much
as in wall time. The benchmark times this kernel next to the operations
it measures and scales their times to the speed at which the kernel
takes REFERENCE_MS, so a slow spell of the host moves both and cancels.

The kernel is the benchmark's own code, never the program's, so a change
to the program cannot change it. It does the three kinds of work the
program does, in about equal parts: method calls on small objects and
dicts keyed by tuples of strings (the simulator and delegates), a
depth-first walk over interleavings that keeps every visited state in a
set (the reference interpreter), and JSON lines written and read back
(the trace and scenario files). Each part alone follows the host's speed
less closely than the three together.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from time import perf_counter_ns

# Median time of one kernel() on the machine the baseline was taken on,
# in its faster state; only the unit of the scaled times depends on it.
REFERENCE_MS = 3.5

_ROLES = tuple(f"R{i:02d}" for i in range(24))
_EVENTS = tuple(
    {
        "kind": ("Request", "Block", "Forward")[i % 3],
        "op": f"R{i % 40:02d}.t{i}.R{i * 7 % 40:02d}",
        "src": f"R{i % 40:02d}",
        "dst": f"R{i * 7 % 40:02d}",
        "step": i,
        "tokens": [i, i + 1],
    }
    for i in range(150)
)


class _Node:
    __slots__ = ("name", "edges", "seen")

    def __init__(self, name: str):
        self.name = name
        self.edges: dict[tuple[str, str], int] = {}
        self.seen: set[str] = set()

    def record(self, task: str, peer: str) -> int:
        key = (task, peer)
        count = self.edges.get(key, 0) + 1
        self.edges[key] = count
        self.seen.add(peer)
        return count


def _objects() -> int:
    nodes = {name: _Node(name) for name in _ROLES}
    total = 0
    n = len(_ROLES)
    for i in range(1500):
        src = _ROLES[i % n]
        dst = _ROLES[(i * 7 + 3) % n]
        total += nodes[src].record(f"t{i % 31}", dst)
    labels = sorted(
        ".".join((node.name, task, peer))
        for node in nodes.values()
        for (task, peer), count in node.edges.items()
        if count > 1
    )
    pairs = {frozenset((node.name, peer)) for node in nodes.values() for peer in node.seen}
    return total + len(labels) + len(pairs)


def _interleavings(width: int = 5) -> int:
    seen: set = set()
    complete: set = set()

    def walk(pending: tuple, arrived: Counter, seq: tuple) -> None:
        key = ((pending, frozenset(arrived.items())), seq)
        if key in seen:
            return
        seen.add(key)
        if not pending:
            complete.add(seq)
            return
        for i, branch in enumerate(pending):
            nxt = Counter(arrived)
            nxt[branch] += 1
            walk(pending[:i] + pending[i + 1:], nxt, seq + (branch + ".op.R",))

    walk(tuple(f"W{i:02d}" for i in range(width)), Counter(), ())
    return len(complete)


def _json_lines() -> int:
    text = "".join(json.dumps(event, sort_keys=True) + "\n" for event in _EVENTS)
    return len([json.loads(line) for line in text.splitlines()])


def kernel() -> int:
    return _objects() + _interleavings() + _json_lines()


def sample() -> int:
    """Nanoseconds one kernel() takes now."""
    start = perf_counter_ns()
    kernel()
    return perf_counter_ns() - start


def speed_factor(samples_ns: list[int]) -> float:
    """What a time measured next to these kernel samples is multiplied by
    to give the time at the reference speed."""
    return REFERENCE_MS * 1e6 / statistics.median(samples_ns)
