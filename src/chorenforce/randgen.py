"""Random structured choreographies for differential testing.

Each generated model is a chain of operations over distinct role pairs,
optionally carrying one structural feature: a guarded branch to the
final state, a guarded loop around one operation, or a concurrent split
of two same-initiator operations that meet again at a join, followed by
one more operation of the first branch's pair. Sizes stay small (at
most 12 states) so the reference language is tiny and every word can be
replayed as a directed run.

Loops under a fixed environment either never run (guard false) or never
stop (guard true). A guard-false case expects language equality; a
guard-true case scripts three iterations and expects no run to complete.

`sweep` is the one loop that runs generated cases against the reference:
per model one round-robin run for each reference word, then 50
random-policy runs cycling over the words, all through the case's one
`runner.Enactment`, whose language gives the words; each word's scripts
are built once. Every run must be unflagged, conformant, within the
update+notify bound, and complete exactly when its case expects it to;
an equality case's completed projections must be the whole reference
language. `fuzz` prints a sweep, and acceptance criteria 6 and 8 read
one.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .model import EPS, Choreography, Flow, Guard, Operation, StateKind
from .participants import Action, ScriptSpec
from .predicate import Not, Value, Var
from .runner import Enactment
from .simulator import COMPLETED

ROLES = ("Ra", "Rb", "Rc", "Rd")


class GeneratedCase(NamedTuple):
    model: Choreography
    env: dict[str, Value]
    expect: str  # "equality" or "prefix"
    enactment: Enactment
    words: tuple[tuple[str, ...], ...]  # one directed run per word


def _distinct_pairs(rng: random.Random, n: int, taken=()) -> list[tuple[str, str]]:
    pool = sorted(
        (i, r) for i in ROLES for r in ROLES if i != r and (i, r) not in taken
    )
    return rng.sample(pool, n)


class _Builder:
    def __init__(self):
        self.states: dict[str, StateKind] = {
            "Initial": StateKind.INITIAL,
            "Final": StateKind.FINAL,
        }
        self.flows: list[Flow] = []
        self.variables: dict[str, tuple[Value, ...]] = {}

    def state(self, name: str, kind: StateKind = StateKind.PLAIN) -> str:
        self.states[name] = kind
        return name

    def link(self, src: str, trg: str, label=EPS) -> None:
        self.flows.append(Flow(src, label, trg))

    def build(self) -> Choreography:
        ops = [label for _, label, _ in self.flows if isinstance(label, Operation)]
        roles = {op.initiator for op in ops} | {op.receiver for op in ops}
        return Choreography(
            self.states, "Initial", "Final", roles, self.variables, self.flows
        )


def _chain(b: _Builder, ops: list[Operation], start: int, src="A", trg="B"):
    """Append one src-op-trg segment per operation, numbered from `start`
    and joined by epsilon; returns (first src, last trg) for the caller
    to link."""
    for i, operation in enumerate(ops, start):
        s, t = b.state(f"{src}{i}"), b.state(f"{trg}{i}")
        if i > start:
            b.link(f"{trg}{i - 1}", s)
        b.link(s, t, operation)
    return f"{src}{start}", t


def random_case(rng: random.Random) -> GeneratedCase:
    feature = rng.choice(["none", "none", "alt", "loop", "fork"])
    k = rng.randint(2, {"fork": 3, "none": 5}.get(feature, 4))

    b = _Builder()
    env: dict[str, Value] = {}
    expect = "equality"

    if feature == "fork":
        initiator = rng.choice(ROLES)
        receivers = rng.sample([r for r in ROLES if r != initiator], 2)
        branch_pairs = [(initiator, receivers[0]), (initiator, receivers[1])]
        other_pairs = _distinct_pairs(rng, k - 2, taken=branch_pairs)
        pairs = other_pairs[: k - 2] + branch_pairs
    else:
        pairs = _distinct_pairs(rng, k)
    ops = [Operation(i, f"t{n}", r) for n, (i, r) in enumerate(pairs)]

    if feature == "none":
        pos = k
    elif feature == "alt":
        pos = rng.randrange(1, k)
    elif feature == "loop":
        pos = rng.randrange(1, k - 1) if k > 2 else 1
    else:
        pos = k - 2
    # every operation before the feature, in one chain out of Initial
    end = "Initial"
    if pos:
        first, end = _chain(b, ops[:pos], 0)
        b.link("Initial", first)

    if feature == "none":
        b.link(end, "Final")

    elif feature == "alt":
        alt = b.state("C1", StateKind.ALTERNATIVE)
        b.link(end, alt)
        cont, last = _chain(b, ops[pos:], pos)
        b.link(alt, cont, Guard(Var("g")))
        bail = b.state("D1")
        b.link(alt, bail, Guard(Not(Var("g"))))
        b.link(bail, "Final")
        b.link(last, "Final")
        b.variables["g"] = (False, True)
        env["g"] = rng.choice([False, True])

    elif feature == "loop":
        loop = b.state("L1", StateKind.LOOP)
        b.link(end, loop)
        body_src, body_trg = _chain(b, ops[pos : pos + 1], pos)
        b.link(loop, body_src, Guard(Var("g")))
        b.link(body_trg, loop)
        if ops[pos + 1 :]:
            exit_state, last = _chain(b, ops[pos + 1 :], pos + 1)
        else:
            exit_state = last = b.state("X1")
        b.link(loop, exit_state)
        b.link(last, "Final")
        b.variables["g"] = (False, True)
        env["g"] = rng.random() < 0.3
        if env["g"]:
            expect = "prefix"

    else:  # fork
        fork = b.state("F1", StateKind.FORK)
        b.link(end, fork)
        join = b.state("J1", StateKind.JOIN)
        for n, operation in enumerate(ops[pos:]):
            src, trg = _chain(b, [operation], n, "P", "Q")
            b.link(fork, src)
            b.link(trg, join)
        # The first branch pair also owns the operation after the join, so
        # its delegate must cross the join before it may forward again.
        closing = Operation(initiator, f"t{k}", receivers[0])
        first, last = _chain(b, [closing], k)
        b.link(join, first)
        b.link(last, "Final")

    model = b.build()
    enactment = Enactment(model, env)
    if expect == "prefix":
        # the loop body runs three times, after the operations before it
        words = (tuple(op.label for op in ops[:pos] + [ops[pos]] * 3),)
    else:
        words = tuple(sorted(enactment.language.complete))
    return GeneratedCase(model, env, expect, enactment, words)


def scripts_for_word(model: Choreography, word: tuple[str, ...]) -> tuple[ScriptSpec, ...]:
    """Per-initiator projection of one reference word, kept in order."""
    by_label = {op.label: op for op in model.operations()}
    actions: dict[str, list[Action]] = {}
    for label in word:
        op = by_label[label]
        actions.setdefault(op.initiator, []).append(Action(op.task, op.receiver))
    return tuple(
        ScriptSpec(role=role, actions=tuple(acts))
        for role, acts in sorted(actions.items())
    )


RANDOM_RUNS = 50  # random-policy runs per model, at seeds 0..49


class Sweep:
    """What `sweep` saw: per model (expect, number of words, problems),
    the runs made, and the highest update+notify count against its bound."""

    def __init__(self):
        self.models: list[tuple[str, int, list[str]]] = []
        self.runs = 0
        self.worst: tuple[int, int] = (0, 1)

    @property
    def problems(self) -> list[str]:
        return [f"model {n}: {p}" for n, (_, _, ps) in enumerate(self.models) for p in ps]


def sweep(models: int, seed: int) -> Sweep:
    """Run `models` cases from `random.Random(seed)` under enforcement and
    check each run against the reference, as the module docstring says."""
    rng = random.Random(seed)
    result = Sweep()
    for _ in range(models):
        case = random_case(rng)
        should_complete = case.expect == "equality"
        scripts = {word: scripts_for_word(case.model, word) for word in case.words}
        plan = [(word, "roundrobin", 0) for word in case.words]
        plan += [(case.words[j % len(case.words)], "random", j) for j in range(RANDOM_RUNS)]
        completed: set[tuple[str, ...]] = set()
        problems = []
        for word, policy, run_seed in plan:
            run = case.enactment.run(scripts[word], mode="inorder", policy=policy, seed=run_seed)
            result.runs += 1
            count, bound = run.overhead
            result.worst = max(result.worst, run.overhead, key=lambda cb: cb[0] / cb[1])
            faults = [f"flagged {v.kind}" for v in run.flagged]
            if not run.conformant:
                faults.append("non-conformant")
            if count > bound:
                faults.append(f"overhead {count} > {bound}")
            done = run.outcome == COMPLETED
            if done:
                completed.add(run.projection)
            if faults or done != should_complete:
                run_line = f"{policy}/{run_seed} replaying {' '.join(word)} ended {run.outcome}"
                problems.append(", ".join([run_line, *faults]))
        if should_complete and completed != case.enactment.language.complete:
            problems.append(f"completed {sorted(completed)} is not the reference language")
        result.models.append((case.expect, len(case.words), problems))
    return result


def fuzz(models: int, seed: int, verbose: bool) -> int:
    """Print `sweep(models, seed)`: one line per failing model (and per
    passing one if verbose) and a summary; returns 0 when all models
    agree with the reference, else 1."""
    failures = 0
    for n, (expect, words, problems) in enumerate(sweep(models, seed).models):
        if problems:
            failures += 1
            print(f"model {n}: FAIL {problems}")
        elif verbose:
            print(f"model {n}: ok ({expect}, {words} words)")
    print(f"{models - failures}/{models} models agree with the reference")
    return 0 if failures == 0 else 1
