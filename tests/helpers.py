"""Shared scenario builders and run wrappers for the test suite."""

from __future__ import annotations

import random

from chorenforce import RunResult, generate_all, reference_traces, run_scenario
from chorenforce.interpreter import Language
from chorenforce.model import EPS, Choreography, Flow, Guard, Operation, StateKind
from chorenforce.participants import Action, Injection, Scenario, ScriptSpec
from chorenforce.predicate import Not, Var
from chorenforce.randgen import scripts_for_word
from chorenforce.socialprox import (
    ENV_BOTH_TRUE,
    ENV_SHARE_DISABLED,
    IM,
    IM_ACTIONS,
    NMF,
    NMU,
    SPS,
    SPS_ACTIONS,
    SPS_REORDERABLE,
    UMS,
    social_proximity,
)

APP = "SocialProxApp"

# Caches: the model and its decomposition never change between tests.
_MODEL = None
_CMS = None
_LANGS: dict = {}


def sp_model() -> Choreography:
    global _MODEL
    if _MODEL is None:
        _MODEL = social_proximity()
    return _MODEL


def sp_cms():
    global _CMS
    if _CMS is None:
        _CMS = generate_all(sp_model())
    return _CMS


def sp_language(env_key: str) -> Language:
    if env_key not in _LANGS:
        env = ENV_BOTH_TRUE if env_key == "both" else ENV_SHARE_DISABLED
        _LANGS[env_key] = reference_traces(sp_model(), env)
    return _LANGS[env_key]


def im_script() -> ScriptSpec:
    return ScriptSpec(role=IM, actions=tuple(Action(t, r) for t, r in IM_ACTIONS))


def sps_script(**kw) -> ScriptSpec:
    return ScriptSpec(
        role=SPS, actions=tuple(Action(t, r) for t, r in SPS_ACTIONS), **kw
    )


def inorder_scenario() -> Scenario:
    return Scenario(
        model=sp_model(),
        environment=dict(ENV_BOTH_TRUE),
        scripts=(im_script(), sps_script()),
        mode="inorder",
    )


def shuffled_scenario() -> Scenario:
    return Scenario(
        model=sp_model(),
        environment=dict(ENV_BOTH_TRUE),
        scripts=(
            im_script(),
            sps_script(reorder_groups=tuple(tuple(g) for g in SPS_REORDERABLE)),
        ),
        mode="shuffled",
    )


def adversarial_scenario() -> Scenario:
    main = (
        Action("getFriends", UMS),
        Action("getLocations", APP),
        Action("notifyUser", NMU),
        Action("notifyFriend", NMF),
        Action("startItin", NMF),
    )
    return Scenario(
        model=sp_model(),
        environment=dict(ENV_BOTH_TRUE),
        scripts=(
            im_script(),
            ScriptSpec(
                role=SPS,
                actions=main,
                injections=(Injection(after=2, task="startItin", target=NMU),),
            ),
        ),
        mode="inorder",
    )


def share_disabled_scenario() -> Scenario:
    return Scenario(
        model=sp_model(),
        environment=dict(ENV_SHARE_DISABLED),
        scripts=(ScriptSpec(role=IM, actions=(Action("getUserPref", UMS),)),),
        mode="inorder",
    )


def run_sp(scenario: Scenario, *, policy="roundrobin", seed=0, **kw) -> RunResult:
    """Run a social proximity scenario.

    Every call also asserts the coordination message bound, so any test
    going through here contributes to the overhead check.
    """
    result = run_scenario(scenario, policy=policy, seed=seed, **kw)
    assert_overhead(result)
    return result


def assert_overhead(result: RunResult) -> None:
    count, bound = result.overhead
    assert count <= bound, f"coordination overhead {count} exceeds bound {bound}"


def loop_model() -> Choreography:
    """A three-role choreography with one loop.

    A.init.B enters the loop head LP; while p holds the body runs
    A.work.B, otherwise the exit path runs A.finish.C.
    """
    p = Var("p")
    states = {
        "Initial": StateKind.INITIAL,
        "L1": StateKind.PLAIN,
        "L2": StateKind.PLAIN,
        "LP": StateKind.LOOP,
        "E1": StateKind.PLAIN,
        "E2": StateKind.PLAIN,
        "X1": StateKind.PLAIN,
        "X2": StateKind.PLAIN,
        "Final": StateKind.FINAL,
    }
    flows = [
        Flow("Initial", EPS, "L1"),
        Flow("L1", Operation("A", "init", "B"), "L2"),
        Flow("L2", EPS, "LP"),
        Flow("LP", Guard(p), "E1"),
        Flow("E1", Operation("A", "work", "B"), "E2"),
        Flow("E2", EPS, "LP"),
        Flow("LP", EPS, "X1"),
        Flow("X1", Operation("A", "finish", "C"), "X2"),
        Flow("X2", EPS, "Final"),
    ]
    return Choreography(
        states=states,
        initial="Initial",
        final="Final",
        roles={"A", "B", "C"},
        variables={"p": (False, True)},
        flows=flows,
    )


def loop_scenario(env: dict, actions: tuple[Action, ...]) -> Scenario:
    return Scenario(
        model=loop_model(),
        environment=dict(env),
        scripts=(ScriptSpec(role="A", actions=actions),),
        mode="inorder",
    )


LOOP_EXIT_ACTIONS = (Action("init", "B"), Action("finish", "C"))
LOOP_BODY_ACTIONS = (
    Action("init", "B"),
    Action("work", "B"),
    Action("work", "B"),
    Action("work", "B"),
)


def chain_model(ops: list[Operation]) -> Choreography:
    """The operations in sequence between Initial and Final."""
    n = len(ops)
    states = {f"S{i}": StateKind.PLAIN for i in range(n + 1)}
    states.update(Initial=StateKind.INITIAL, Final=StateKind.FINAL)
    flows = [Flow("Initial", EPS, "S0"), Flow(f"S{n}", EPS, "Final")]
    flows += [Flow(f"S{i}", op, f"S{i + 1}") for i, op in enumerate(ops)]
    roles = {r for op in ops for r in (op.initiator, op.receiver)}
    return Choreography(states, "Initial", "Final", roles, {}, flows)


def chain_model_scenario(ops: list[Operation]) -> Scenario:
    """The chain of ops; each role requests its operations in chain order."""
    model = chain_model(ops)
    word = tuple(op.label for op in ops)
    return Scenario(model=model, environment={}, scripts=scripts_for_word(model, word))


def chain_scenario(n: int) -> Scenario:
    """n operations in sequence, operation i from role R{i % 6} to the
    next role round the ring."""
    ops = [Operation(f"R{i % 6}", f"t{i}", f"R{(i + 1) % 6}") for i in range(n)]
    return chain_model_scenario(ops)


def random_chain_ops(seed: int, n_ops: int, n_roles: int) -> list[Operation]:
    """Operations that each join two roles drawn at random, so the
    operations of one pair lie scattered along the chain."""
    rng = random.Random(seed)
    roles = [f"R{i}" for i in range(n_roles)]
    ops = []
    for i in range(n_ops):
        initiator, receiver = rng.sample(roles, 2)
        ops.append(Operation(initiator, f"t{i}", receiver))
    return ops


def random_chain_model(seed: int, n_ops: int, n_roles: int) -> Choreography:
    return chain_model(random_chain_ops(seed, n_ops, n_roles))


def fork_model(k: int) -> Choreography:
    """A fork of k single-operation branches, B{j}.b{j}.C{j}, and a join."""
    states = {
        "Initial": StateKind.INITIAL,
        "F": StateKind.FORK,
        "J": StateKind.JOIN,
        "Final": StateKind.FINAL,
    }
    flows = [Flow("Initial", EPS, "F"), Flow("J", EPS, "Final")]
    for j in range(k):
        states[f"P{j}"] = states[f"Q{j}"] = StateKind.PLAIN
        flows += [
            Flow("F", EPS, f"P{j}"),
            Flow(f"P{j}", Operation(f"B{j}", f"b{j}", f"C{j}"), f"Q{j}"),
            Flow(f"Q{j}", EPS, "J"),
        ]
    roles = {f"{r}{j}" for r in "BC" for j in range(k)}
    return Choreography(states, "Initial", "Final", roles, {}, flows)
