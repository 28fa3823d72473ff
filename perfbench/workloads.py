"""Seeded benchmark inputs and the answers known from how they were built.

Every workload yields a pool of items. One item is what a single
operation works on: a list of cases, each a scenario file plus the
scheduling policy and seed to run it with. A case also carries the set
of forwarded-operation words an honest enforced run may produce, written
down from the construction of the input and never asked of the program.

Sizes are fixed and only role pairs, role names and scheduling seeds
come from the workload seed, so two seeds give inputs of the same cost
and differ only in their details.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from chorenforce.model import EPS, Choreography, Flow, Operation, StateKind
from chorenforce.participants import Action, Scenario, ScriptSpec, save_scenario


@dataclass(frozen=True)
class Expected:
    """Words of the form head + any interleaving of branches + tail.

    All labels are distinct, so one greedy pass decides membership.
    """

    head: tuple[str, ...]
    branches: tuple[tuple[str, ...], ...] = ()
    tail: tuple[str, ...] = ()

    def matches(self, word: tuple[str, ...]) -> bool:
        n_head, n_tail = len(self.head), len(self.tail)
        if len(word) != n_head + sum(map(len, self.branches)) + n_tail:
            return False
        if word[:n_head] != self.head or word[len(word) - n_tail:] != self.tail:
            return False
        pos = [0] * len(self.branches)
        for label in word[n_head:len(word) - n_tail]:
            for b, branch in enumerate(self.branches):
                if pos[b] < len(branch) and branch[pos[b]] == label:
                    pos[b] += 1
                    break
            else:
                return False
        return True


@dataclass(frozen=True)
class Case:
    scenario: Path
    policy: str
    seed: int
    expected: Expected


Item = list[Case]

# socialprox: the committed fixtures, each under both policies. The words
# follow from the social proximity graph: with both guards true the two
# notifications sit on parallel fork branches; with sharing disabled the
# run ends after the first operation. The adversarial injection is the
# second startItin, held back until its turn.
_SP_FULL = Expected(
    head=(
        "IM.getUserPref.UMS",
        "IM.matchGPS.SPS",
        "SPS.getFriends.UMS",
        "SPS.getLocations.SocialProxApp",
    ),
    branches=(("SPS.notifyFriend.NMF",), ("SPS.notifyUser.NMU",)),
    tail=("SPS.startItin.NMF", "SPS.startItin.NMU"),
)
SP_FIXTURES = {
    "scenario_inorder.json": _SP_FULL,
    "scenario_shuffled.json": _SP_FULL,
    "scenario_adversarial.json": _SP_FULL,
    "scenario_share_disabled.json": Expected(head=("IM.getUserPref.UMS",)),
}
POLICIES = ("roundrobin", "random")

# long_chain: one operation per position, so the reference behaviour is a
# single word. The length stays above 50 operations on purpose: that is
# where the truncated reference behaviour reports honest runs as
# non-conformant. One size for every item keeps the latency distribution
# narrow, so its median moves little when the host slows down for part
# of a run.
CHAIN_OPS = 160
CHAIN_ROLES = 45

FORK_WIDTH = 6


def _scripts(ops: list[Operation]) -> tuple[ScriptSpec, ...]:
    """Each initiator issues its own operations in choreography order."""
    actions: dict[str, list[Action]] = {}
    for op in ops:
        actions.setdefault(op.initiator, []).append(Action(op.task, op.receiver))
    return tuple(ScriptSpec(role, tuple(acts)) for role, acts in sorted(actions.items()))


def _choreography(states: dict[str, StateKind], flows: list[Flow]) -> Choreography:
    roles = set()
    for f in flows:
        if isinstance(f.label, Operation):
            roles.update((f.label.initiator, f.label.receiver))
    return Choreography(states, "Initial", "Final", roles, {}, flows)


def long_chain(rng: random.Random, n_ops: int, n_roles: int) -> tuple[Scenario, Expected]:
    roles = [f"R{i:02d}" for i in range(n_roles)]
    ops = []
    for i in range(n_ops):
        initiator, receiver = rng.sample(roles, 2)
        ops.append(Operation(initiator, f"t{i}", receiver))
    states = {f"S{i}": StateKind.PLAIN for i in range(n_ops + 1)}
    states.update(Initial=StateKind.INITIAL, Final=StateKind.FINAL)
    flows = [Flow("Initial", EPS, "S0"), Flow(f"S{n_ops}", EPS, "Final")]
    flows += [Flow(f"S{i}", op, f"S{i + 1}") for i, op in enumerate(ops)]
    scenario = Scenario(_choreography(states, flows), {}, _scripts(ops))
    return scenario, Expected(head=tuple(op.label for op in ops))


def wide_fork(rng: random.Random, width: int) -> tuple[Scenario, Expected]:
    """One opening operation, a fork of `width` single-operation branches
    with distinct initiators, a join, and one closing operation."""
    roles = [f"W{i:02d}" for i in range(2 * width + 2)]
    initiators = rng.sample(roles, width)
    branch_ops = [
        Operation(who, f"b{j}", rng.choice([r for r in roles if r != who]))
        for j, who in enumerate(initiators)
    ]
    opener, opened = rng.sample(roles, 2)
    first = Operation(opener, "open", opened)
    closer, closed = rng.sample(roles, 2)
    last = Operation(closer, "close", closed)

    states = {
        "Initial": StateKind.INITIAL,
        "Final": StateKind.FINAL,
        "S0": StateKind.PLAIN,
        "S1": StateKind.PLAIN,
        "F": StateKind.FORK,
        "J": StateKind.JOIN,
        "T0": StateKind.PLAIN,
        "T1": StateKind.PLAIN,
    }
    flows = [
        Flow("Initial", EPS, "S0"),
        Flow("S0", first, "S1"),
        Flow("S1", EPS, "F"),
        Flow("J", EPS, "T0"),
        Flow("T0", last, "T1"),
        Flow("T1", EPS, "Final"),
    ]
    for j, op in enumerate(branch_ops):
        states[f"P{j}"] = StateKind.PLAIN
        states[f"Q{j}"] = StateKind.PLAIN
        flows += [Flow("F", EPS, f"P{j}"), Flow(f"P{j}", op, f"Q{j}"), Flow(f"Q{j}", EPS, "J")]
    scenario = Scenario(
        _choreography(states, flows), {}, _scripts([first, *branch_ops, last]), policy="random"
    )
    expected = Expected(
        head=(first.label,),
        branches=tuple((op.label,) for op in branch_ops),
        tail=(last.label,),
    )
    return scenario, expected


def build_pool(workload: str, seed: int, root: Path, out: Path, size: int) -> list[Item]:
    """The workload's items; generated scenarios are saved under `out`."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "socialprox":
        fixtures = root / "fixtures"
        return [
            [
                Case(fixtures / name, policy, sched, expected)
                for name, expected in SP_FIXTURES.items()
                for policy in POLICIES
            ]
            for sched in (rng.randrange(2**31) for _ in range(size))
        ]
    pool = []
    for j in range(size):
        if workload == "long_chain":
            scenario, expected = long_chain(rng, CHAIN_OPS, CHAIN_ROLES)
        elif workload == "wide_fork":
            scenario, expected = wide_fork(rng, FORK_WIDTH)
        else:
            raise ValueError(f"unknown workload {workload!r}")
        path = out / f"input_{j}.json"
        save_scenario(scenario, path)
        pool.append([Case(path, scenario.policy, rng.randrange(2**31), expected)])
    return pool
