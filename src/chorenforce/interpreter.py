"""Reference semantics for choreography graphs: the token game.

Tokens move over the model: forks duplicate them, joins wait for a token
on every incoming flow, alternatives and loops follow the guard
valuation, and a token stops where an operation flow leaves its state.
A configuration is what remains once every silent move is done.

Membership is decided by replay: `Language.is_member` and
`Language.is_prefix` follow a word label by label and keep the set of
configurations it can reach, so the cost is linear in the word's length
and there is no length limit. Enumerating the language, every
interleaving up to `MAX_OPS` operations, is only needed to list it
(`Language.complete` and `Language.truncated`) and runs on first use.
Loop bodies make the language infinite; enumeration then reports the
prefixes it cut off instead of silently dropping them.

This module is deliberately independent from the coordination-model
machinery: it is the oracle the enforced runtime is checked against.
"""

from __future__ import annotations

from functools import cached_property

from .model import (
    _ALTERNATIVE,
    _FINAL,
    _FORK,
    _JOIN,
    _LOOP,
    Choreography,
    Epsilon,
    Guard,
    Operation,
)
from .predicate import Value, eval_pred


class InterpreterError(RuntimeError):
    pass


class NoTrueGuardError(InterpreterError):
    """No outgoing guard of an alternative state holds under the environment."""


class StuckTokenError(InterpreterError):
    """Tokens remain but nothing can move: ill-synchronized model."""


# A configuration is a frozenset of (place, count) items with count > 0. A
# place is a state name for a token at that state, or a (predecessor,
# join) pair for a token parked on that join entry edge. The configuration
# with no tokens left is the empty frozenset.
_Config = frozenset

# the length at which enumerating the language cuts a word off
MAX_OPS = 50


class Language:
    """Operation-sequence language of a model under one environment: an
    acceptor that replays words, and on demand the list of its words."""

    def __init__(self, model: Choreography, env: dict[str, Value]):
        self.model = model
        self.env = dict(env)
        self._joins = {s for s, kind in model.states.items() if kind is _JOIN}
        # state -> operation label -> places a token there can move to
        self._ops: dict[str, dict[str, list]] = {}
        for src, label, trg in model.flows:
            if isinstance(label, Operation):
                by_label = self._ops.setdefault(src, {})
                by_label.setdefault(label.label, []).append(self._place(src, trg))
        # state -> places its tokens move to silently (None: they stay);
        # filled when a token first reaches the state, so a guard is only
        # evaluated once a run gets to it
        self._silent: dict[str, tuple | None] = {}
        # join -> the entry places that must all hold a token for it to fire
        self._entries = {
            j: tuple((f.src, j) for f in model.incoming[j]) for j in self._joins
        }
        self._budget = 16 * (len(model.states) + 2) * (len(model.flows) + 2)
        self._reached: dict[tuple, frozenset] = {}
        self._start = self._normalize({model.initial: 1}, [model.initial])

    # -- the token game ---------------------------------------------------------

    def _place(self, src: str, trg: str):
        return (src, trg) if trg in self._joins else trg

    def _silent_moves(self, s: str) -> tuple | None:
        model = self.model
        kind = model.states[s]
        outs = model.outgoing[s]
        if kind is _FINAL:
            return ()
        if kind is _FORK:
            return tuple(self._place(s, f.trg) for f in outs)
        if kind is _ALTERNATIVE or kind is _LOOP:
            chosen = None
            eps_exit = None
            for f in outs:
                if isinstance(f.label, Guard):
                    if eval_pred(f.label.pred, self.env):
                        chosen = f.trg
                elif isinstance(f.label, Epsilon):
                    eps_exit = f.trg
            if chosen is None:
                chosen = eps_exit  # loop exit; alternatives have no eps flow
            if chosen is None:
                raise NoTrueGuardError(f"no guard holds at {s} under {self.env}")
            return (self._place(s, chosen),)
        # plain, initial, join: a single outgoing flow
        if outs and isinstance(outs[0].label, Epsilon):
            return (self._place(s, outs[0].trg),)
        return None

    def _normalize(self, counts: dict, work: list) -> _Config:
        """Run all silent moves to quiescence, starting from the places in
        `work` (the only ones not yet at rest); `counts` is consumed.

        Raises StuckTokenError if tokens remain but none can start an
        operation."""
        budget = self._budget * (sum(counts.values()) + 2)
        silent = self._silent
        while work:
            place = work.pop()
            n = counts.get(place)
            if not n:
                continue
            budget -= 1
            if budget < 0:
                raise InterpreterError("epsilon moves do not converge (epsilon cycle?)")
            if isinstance(place, tuple):
                join = place[1]
                entries = self._entries[join]
                fired = min(counts.get(e, 0) for e in entries)
                if not fired:
                    continue
                for e in entries:
                    if counts[e] == fired:
                        del counts[e]
                    else:
                        counts[e] -= fired
                counts[join] = counts.get(join, 0) + fired
                work.append(join)
                continue
            if place in silent:
                moves = silent[place]
            else:
                moves = silent[place] = self._silent_moves(place)
            if moves is None:
                continue
            del counts[place]
            for dst in moves:
                counts[dst] = counts.get(dst, 0) + n
                work.append(dst)
        if counts and self._ops.keys().isdisjoint(counts):
            raise StuckTokenError(f"tokens stuck at {sorted(counts.items(), key=repr)}")
        return frozenset(counts.items())

    def _fire(self, config: _Config, src: str, dst) -> _Config:
        """Move one token from `src` over an operation flow to `dst`."""
        counts = dict(config)
        if counts[src] == 1:
            del counts[src]
        else:
            counts[src] -= 1
        counts[dst] = counts.get(dst, 0) + 1
        return self._normalize(counts, [dst])

    # -- replay -----------------------------------------------------------------

    def _reach(self, word: tuple) -> frozenset:
        """The configurations `word` can lead to; empty if it leads nowhere."""
        reached = self._reached.get(word)
        if reached is not None:
            return reached
        ops, fire = self._ops, self._fire
        configs = {self._start}
        for label in word:
            following = set()
            for config in configs:
                for place, _ in config:
                    by_label = ops.get(place)
                    if by_label is not None:
                        for dst in by_label.get(label, ()):
                            following.add(fire(config, place, dst))
            configs = following
            if not configs:
                break
        reached = self._reached[word] = frozenset(configs)
        return reached

    def is_member(self, seq) -> bool:
        """Whether `seq` is the label sequence of a complete run."""
        return frozenset() in self._reach(tuple(seq))

    def is_prefix(self, seq) -> bool:
        """Whether some run, complete or not, starts with `seq`."""
        return bool(self._reach(tuple(seq)))

    # -- enumeration ------------------------------------------------------------

    @cached_property
    def _listing(self) -> tuple[frozenset, frozenset]:
        """(complete, truncated): every interleaving, depth first, cut off
        after `MAX_OPS` operations."""
        complete: set = set()
        truncated: set = set()
        seen: set = set()
        stack = [(self._start, ())]
        while stack:
            config, seq = stack.pop()
            if (config, seq) in seen:
                continue
            seen.add((config, seq))
            if not config:
                complete.add(seq)
            elif len(seq) >= MAX_OPS:
                truncated.add(seq)
            else:
                stack.extend(
                    (self._fire(config, place, dst), seq + (label,))
                    for place, _ in config
                    for label, dsts in self._ops.get(place, {}).items()
                    for dst in dsts
                )
        return frozenset(complete), frozenset(truncated)

    @cached_property
    def complete(self) -> frozenset:
        """Label sequences of complete runs of at most `MAX_OPS` operations."""
        return self._listing[0]

    @cached_property
    def truncated(self) -> frozenset:
        """Prefixes of `MAX_OPS` operations of runs that go on."""
        return self._listing[1]


def reference_traces(model: Choreography, env: dict[str, Value]) -> Language:
    """The acceptor of the model's runs under `env`; `MAX_OPS` bounds only
    the enumeration of `complete` and `truncated`."""
    return Language(model, env)
