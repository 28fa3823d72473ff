"""Random structured choreographies for differential testing.

Each generated model is a chain of operations over distinct role pairs,
optionally carrying one structural feature: a guarded branch to the
final state, a guarded loop around one operation, or a concurrent split
of two same-initiator operations that meet again at a join, followed by
one more operation of the first branch's pair. Sizes stay
small (at most 12 states) so the reference language is tiny and every
word can be replayed as a directed run.

Loops under a fixed environment either never run (guard false) or never
stop (guard true). A guard-false case checks language equality; a
guard-true case scripts three iterations and checks that the enforced
run is a prefix of the reference behaviour. `fuzz` runs both checks over
a seeded stream of cases.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .interpreter import Language, reference_traces
from .model import EPS, Choreography, Flow, Guard, Operation, StateKind
from .participants import Action, Scenario, ScriptSpec
from .predicate import Not, Value, Var
from .runner import run_scenario
from .simulator import COMPLETED

ROLES = ("Ra", "Rb", "Rc", "Rd")


@dataclass(frozen=True)
class GeneratedCase:
    model: Choreography
    env: dict[str, Value]
    expect: str  # "equality" or "prefix"
    language: Language
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

    def eps(self, src: str, trg: str) -> None:
        self.flows.append(Flow(src, EPS, trg))

    def guard(self, src: str, pred, trg: str) -> None:
        self.flows.append(Flow(src, Guard(pred), trg))

    def op(self, src: str, operation: Operation, trg: str) -> None:
        self.flows.append(Flow(src, operation, trg))

    def build(self) -> Choreography:
        roles = set()
        for f in self.flows:
            if isinstance(f.label, Operation):
                roles.add(f.label.initiator)
                roles.add(f.label.receiver)
        return Choreography(
            self.states, "Initial", "Final", roles, self.variables, self.flows
        )


def _chain(b: _Builder, entry: str, ops: list[Operation], start: int) -> str:
    """Append src-op-trg segments; returns the last target state."""
    at = entry
    for offset, operation in enumerate(ops):
        i = start + offset
        src = b.state(f"A{i}")
        trg = b.state(f"B{i}")
        if at == "Initial" and offset == 0:
            b.eps("Initial", src)
        else:
            b.eps(at, src)
        b.op(src, operation, trg)
        at = trg
    return at


def random_case(rng: random.Random) -> GeneratedCase:
    feature = rng.choice(["none", "none", "alt", "loop", "fork"])
    if feature == "fork":
        k = rng.randint(2, 3)
    elif feature == "none":
        k = rng.randint(2, 5)
    else:
        k = rng.randint(2, 4)

    b = _Builder()
    env: dict[str, Value] = {}
    expect = "equality"
    unroll: list[Operation] = []

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
        end = _chain(b, "Initial", ops, 0)
        b.eps(end, "Final")

    elif feature == "alt":
        pos = rng.randrange(1, k)
        end = _chain(b, "Initial", ops[:pos], 0)
        alt = b.state("C1", StateKind.ALTERNATIVE)
        b.eps(end, alt)
        cont = b.state(f"A{pos}")
        b.guard(alt, Var("g"), cont)
        bail = b.state("D1")
        b.guard(alt, Not(Var("g")), bail)
        b.eps(bail, "Final")
        at = cont
        for i, operation in enumerate(ops[pos:], start=pos):
            src = b.state(f"A{i}") if i > pos else cont
            if i > pos:
                b.eps(at, src)
            trg = b.state(f"B{i}")
            b.op(src, operation, trg)
            at = trg
        b.eps(at, "Final")
        b.variables["g"] = (False, True)
        env["g"] = rng.choice([False, True])

    elif feature == "loop":
        pos = rng.randrange(1, k - 1) if k > 2 else 1
        end = _chain(b, "Initial", ops[:pos], 0)
        loop = b.state("L1", StateKind.LOOP)
        b.eps(end, loop)
        body_src = b.state(f"A{pos}")
        body_trg = b.state(f"B{pos}")
        b.guard(loop, Var("g"), body_src)
        b.op(body_src, ops[pos], body_trg)
        b.eps(body_trg, loop)
        tail = ops[pos + 1 :]
        if tail:
            exit_state = b.state(f"A{pos + 1}")
            b.eps(loop, exit_state)
            at = exit_state
            for i, operation in enumerate(tail, start=pos + 1):
                src = b.state(f"A{i}") if i > pos + 1 else exit_state
                if i > pos + 1:
                    b.eps(at, src)
                trg = b.state(f"B{i}")
                b.op(src, operation, trg)
                at = trg
            b.eps(at, "Final")
        else:
            exit_state = b.state("X1")
            b.eps(loop, exit_state)
            b.eps(exit_state, "Final")
        b.variables["g"] = (False, True)
        if rng.random() < 0.3:
            env["g"] = True
            expect = "prefix"
            unroll = ops[:pos] + [ops[pos]] * 3
        else:
            env["g"] = False

    else:  # fork
        pos = k - 2
        end = "Initial" if pos == 0 else _chain(b, "Initial", ops[:pos], 0)
        fork = b.state("F1", StateKind.FORK)
        b.eps(end, fork)
        join = b.state("J1", StateKind.JOIN)
        for n, operation in enumerate(ops[pos:]):
            src = b.state(f"P{n}")
            trg = b.state(f"Q{n}")
            b.eps(fork, src)
            b.op(src, operation, trg)
            b.eps(trg, join)
        # The first branch pair also owns the operation after the join, so
        # its delegate must cross the join before it may forward again.
        closing = Operation(initiator, f"t{k}", receivers[0])
        tail = _chain(b, join, [closing], k)
        b.eps(tail, "Final")

    model = b.build()
    language = reference_traces(model, env)
    if expect == "prefix":
        words = (tuple(op.label for op in unroll),)
    else:
        words = tuple(sorted(language.complete))
    return GeneratedCase(model, env, expect, language, words)


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


def fuzz(models: int, seed: int, verbose: bool) -> int:
    """Replay each case's words under enforcement; compare with the reference.

    A case agrees when every run is unflagged and conformant; in an
    equality case every run completes and the completed projections are
    exactly the reference language, in a prefix case no run completes.
    Prints one line per failing model (and per passing one if verbose)
    and a summary; returns 0 when all models agree, else 1.
    """
    rng = random.Random(seed)
    failures = 0
    for n in range(models):
        case = random_case(rng)
        should_complete = case.expect == "equality"
        completed: set[tuple[str, ...]] = set()
        bad = []
        for word in case.words:
            scenario = Scenario(
                model=case.model,
                environment=case.env,
                scripts=scripts_for_word(case.model, word),
            )
            result = run_scenario(scenario, policy="roundrobin", seed=0)
            done = result.outcome == COMPLETED
            if done:
                completed.add(result.projection)
            if result.flagged or not result.conformant or done != should_complete:
                bad.append((word, result.outcome, [v.kind for v in result.flagged]))
        if should_complete and completed != case.language.complete:
            bad.append(("language-mismatch", sorted(completed),
                        sorted(case.language.complete)))
        if bad:
            failures += 1
            print(f"model {n}: FAIL {bad}")
        elif verbose:
            print(f"model {n}: ok ({case.expect}, {len(case.words)} words)")
    print(f"{models - failures}/{models} models agree with the reference")
    return 0 if failures == 0 else 1
