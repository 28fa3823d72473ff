"""Shared scenario builders and run wrappers for the test suite."""

from __future__ import annotations

import random
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

from chorenforce import RunResult, generate_all, reference_traces, run_scenario, runner
from chorenforce.decompose import Pair
from chorenforce.delegate import Delegate
from chorenforce.interpreter import Language
from chorenforce.model import EPS, Choreography, Flow, Guard, Operation, StateKind
from chorenforce.oracle import (
    DEADLOCKING_JOIN,
    INVALID_ALTERNATIVE,
    INVALID_LOOP,
    MISSED_JOIN,
    MISSED_LOOP,
    UNDESIRED_TASK,
)
from chorenforce.participants import Action, Scenario, ScriptSpec, load_scenario
from chorenforce.predicate import Not, Pred, Var
from chorenforce.randgen import scripts_for_word
from chorenforce.socialprox import (
    ENV_BOTH_TRUE,
    ENV_SHARE_DISABLED,
    IM,
    NMF,
    NMU,
    SPS,
    UMS,
    social_proximity,
)
from mutants import (
    forward_without_check,
    ignore_loop_guard,
    skip_guard_check,
    skip_notify,
    skip_wait,
)

APP = "SocialProxApp"
# round-robin at seed 0 and random at seeds 1 to 3
START_RUNS = [("roundrobin", 0), ("random", 1), ("random", 2), ("random", 3)]
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

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


def fixture_scenario(name: str) -> Scenario:
    """A bundled scenario, fixtures/scenario_<name>.json, freshly loaded."""
    return load_scenario(FIXTURES / f"scenario_{name}.json")


def im_script() -> ScriptSpec:
    """IM's part in the bundled scenarios: all of its operations."""
    return fixture_scenario("inorder").scripts[0]


def inorder_scenario() -> Scenario:
    return fixture_scenario("inorder")


def shuffled_scenario() -> Scenario:
    return fixture_scenario("shuffled")


def adversarial_scenario() -> Scenario:
    return fixture_scenario("adversarial")


def share_disabled_scenario() -> Scenario:
    return fixture_scenario("share_disabled")


def defect_cases() -> list[tuple[str, str, Scenario, Pair, type[Delegate]]]:
    """One run per misbehaviour class, each with the faulty delegate that
    elicits it: (verdict kind, note, scenario, faulty pair, faulty class).
    Run each case inside faulty_delegate(pair, cls)."""
    sp = sp_model()
    # forwards a known task without consulting its coordination model
    early = Scenario(
        model=sp,
        environment=dict(ENV_BOTH_TRUE),
        scripts=(
            im_script(),
            ScriptSpec(role=SPS, actions=(
                Action("getFriends", UMS),
                Action("getLocations", APP),
                Action("startItin", NMU),
            )),
        ),
    )
    # takes the wrong branch of the shareEnabled alternative
    wrong_branch = Scenario(
        model=sp, environment=dict(ENV_SHARE_DISABLED), scripts=(im_script(),),
    )
    # crosses the join without waiting for the sibling notification
    rushed = Scenario(
        model=sp,
        environment=dict(ENV_BOTH_TRUE),
        scripts=(
            im_script(),
            ScriptSpec(role=SPS, actions=(
                Action("getFriends", UMS),
                Action("getLocations", APP),
                Action("notifyFriend", NMF),
                Action("startItin", NMF),
            )),
        ),
    )
    loop_kinds = loop_model().states
    return [
        (UNDESIRED_TASK, "unchecked forward",
         early, Pair(SPS, NMU), forward_without_check()),
        (INVALID_ALTERNATIVE, "inverted alternative guard",
         wrong_branch, Pair(IM, UMS), skip_guard_check(sp.states)),
        # enters a loop whose guard is false
        (INVALID_LOOP, "loop entered on a false guard",
         loop_scenario({"p": False}, (Action("init", "B"), Action("work", "B"))),
         Pair("A", "B"), ignore_loop_guard(loop_kinds)),
        # leaves a loop whose guard still holds; the run even completes,
        # only the verdict gives the defect away
        (MISSED_LOOP, "loop exited on a true guard",
         loop_scenario({"p": True}, LOOP_EXIT_ACTIONS),
         Pair("A", "B"), ignore_loop_guard(loop_kinds)),
        (MISSED_JOIN, "join crossed without waiting",
         rushed, Pair(SPS, NMF), skip_wait()),
        # never notifies the sibling branch: the run stalls silently, and
        # only the stalled-join pass over the trace can say why
        (DEADLOCKING_JOIN, "suppressed notification",
         inorder_scenario(), Pair(SPS, NMF), skip_notify()),
    ]


def with_silent_state(model: Choreography, state: str) -> Choreography:
    """`model` with the one flow into `state` split in two: it enters a
    new plain state SX, whose epsilon flow goes on to `state`."""
    ((before, label, _),) = model.incoming[state]
    flows = [f for f in model.flows if f.trg != state]
    flows += [Flow(before, label, "SX"), Flow("SX", EPS, state)]
    return Choreography({**model.states, "SX": StateKind.PLAIN}, model.initial,
                        model.final, model.roles, model.variables, flows)


# the verdicts that read the flow into the flagged state, and that state
# in defect_cases()' run
_DECIDED_AT = {INVALID_ALTERNATIVE: "S9", INVALID_LOOP: "E1", MISSED_LOOP: "X1",
               MISSED_JOIN: "S21"}


def silent_state_defect_cases() -> list[tuple[str, str, Scenario, Pair, type[Delegate]]]:
    """The defect runs whose verdict reads the flow into the flagged
    state, each with a silent plain state SX put before that state:
    (verdict kind, flagged state, scenario, faulty pair, faulty class)."""
    return [
        (kind, _DECIDED_AT[kind],
         scenario._replace(model=with_silent_state(scenario.model, _DECIDED_AT[kind])),
         pair, cls)
        for kind, _, scenario, pair, cls in defect_cases() if kind in _DECIDED_AT
    ]


@contextmanager
def faulty_delegate(pair: Pair | None, cls: type[Delegate], keep=lambda d: d):
    """A context in which run_scenario gives `pair` a `cls` delegate and
    every other pair an honest one. It yields a dict from each pair to
    `keep` of the delegate last built for it, so a context around one run
    yields that run's delegates; keep=weakref.ref records them without
    keeping them alive."""
    built: dict = {}

    def build(p: Pair, cm, env) -> Delegate:
        delegate = (cls if p == pair else Delegate)(p, cm, env)
        built[p] = keep(delegate)
        return delegate

    with mock.patch.object(runner, "Delegate", build):
        yield built


def recorded_delegates(keep=lambda d: d):
    """faulty_delegate with an honest delegate at every pair."""
    return faulty_delegate(None, Delegate, keep)


class Outbox:
    """A delegate's transport that records what the delegate reports: one
    tuple per call, the method's name and then its arguments after
    `origin` (the delegate's own pair)."""

    def __init__(self):
        self.calls: list[tuple] = []

    def state_change(self, origin, thread_id, src, trg):
        self.calls.append(("state_change", thread_id, src, trg))

    def forward(self, origin, task, src, trg):
        self.calls.append(("forward", task, src, trg))

    def unblock(self, origin, request_id, task):
        self.calls.append(("unblock", request_id, task))

    def update(self, origin, dst, state):
        self.calls.append(("update", dst, state))

    def notify(self, origin, dst, pred, join):
        self.calls.append(("notify", dst, pred, join))


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


def silent_loop_model() -> Choreography:
    """loop_model without the body's operation: LP --p--> E1 --eps--> LP,
    a loop that can come back to LP without anyone acting."""
    model = loop_model()
    flows = [f for f in model.flows if f.src not in ("E1", "E2")]
    flows.append(Flow("E1", EPS, "LP"))
    states = {s: k for s, k in model.states.items() if s != "E2"}
    return Choreography(
        states, model.initial, model.final, model.roles, model.variables, flows
    )


def twin_fork_model() -> Choreography:
    """A fork whose two branches are both A->B operations, so the pair
    begins at two states before any operation: P1 (A.t0.B) and Q1
    (A.t1.B)."""
    states = {
        "Initial": StateKind.INITIAL,
        "F": StateKind.FORK,
        "P1": StateKind.PLAIN,
        "P2": StateKind.PLAIN,
        "Q1": StateKind.PLAIN,
        "Q2": StateKind.PLAIN,
        "J": StateKind.JOIN,
        "Z": StateKind.PLAIN,
        "Final": StateKind.FINAL,
    }
    flows = [
        Flow("Initial", EPS, "F"),
        Flow("F", EPS, "P1"),
        Flow("F", EPS, "Q1"),
        Flow("P1", Operation("A", "t0", "B"), "P2"),
        Flow("Q1", Operation("A", "t1", "B"), "Q2"),
        Flow("P2", EPS, "J"),
        Flow("Q2", EPS, "J"),
        Flow("J", EPS, "Z"),
        Flow("Z", EPS, "Final"),
    ]
    return Choreography(states, "Initial", "Final", {"A", "B"}, {}, flows)


def guarded_start_model() -> Choreography:
    """An alternative before any operation: C -[v]-> P, where A.t.B runs,
    or C -[not v]-> Q, where C.u.D runs; both go on to Final."""
    v = Var("v")
    states = {
        "Initial": StateKind.INITIAL,
        "S1": StateKind.PLAIN,
        "C": StateKind.ALTERNATIVE,
        "P": StateKind.PLAIN,
        "P2": StateKind.PLAIN,
        "Q": StateKind.PLAIN,
        "Q2": StateKind.PLAIN,
        "Final": StateKind.FINAL,
    }
    flows = [
        Flow("Initial", EPS, "S1"),
        Flow("S1", EPS, "C"),
        Flow("C", Guard(v), "P"),
        Flow("C", Guard(Not(v)), "Q"),
        Flow("P", Operation("A", "t", "B"), "P2"),
        Flow("Q", Operation("C", "u", "D"), "Q2"),
        Flow("P2", EPS, "Final"),
        Flow("Q2", EPS, "Final"),
    ]
    return Choreography(states, "Initial", "Final", set("ABCD"), {"v": (False, True)}, flows)


def loop_first_model() -> Choreography:
    """A loop before any operation: while g holds X.work.Y runs, then
    X.go.Y. The pair's own walk comes back to both of its states, so
    neither is an entry state of its coordination model."""
    g = Var("g")
    states = {
        "Initial": StateKind.INITIAL,
        "L": StateKind.LOOP,
        "B1": StateKind.PLAIN,
        "B2": StateKind.PLAIN,
        "S": StateKind.PLAIN,
        "T": StateKind.PLAIN,
        "Final": StateKind.FINAL,
    }
    flows = [
        Flow("Initial", EPS, "L"),
        Flow("L", Guard(g), "B1"),
        Flow("B1", Operation("X", "work", "Y"), "B2"),
        Flow("B2", EPS, "L"),
        Flow("L", EPS, "S"),
        Flow("S", Operation("X", "go", "Y"), "T"),
        Flow("T", EPS, "Final"),
    ]
    return Choreography(states, "Initial", "Final", {"X", "Y"}, {"g": (False, True)}, flows)


def empty_branch_fork_model() -> Choreography:
    """A fork of an empty branch, F -eps-> J, and C.t1.D, joined at J;
    then A.t3.D."""
    states = {
        "Initial": StateKind.INITIAL,
        "F": StateKind.FORK,
        "P1": StateKind.PLAIN,
        "P2": StateKind.PLAIN,
        "J": StateKind.JOIN,
        "K": StateKind.PLAIN,
        "K2": StateKind.PLAIN,
        "Final": StateKind.FINAL,
    }
    flows = [
        Flow("Initial", EPS, "F"),
        Flow("F", EPS, "J"),
        Flow("F", EPS, "P1"),
        Flow("P1", Operation("C", "t1", "D"), "P2"),
        Flow("P2", EPS, "J"),
        Flow("J", EPS, "K"),
        Flow("K", Operation("A", "t3", "D"), "K2"),
        Flow("K2", EPS, "Final"),
    ]
    return Choreography(states, "Initial", "Final", {"A", "C", "D"}, {}, flows)


def duplicate_flow_model() -> Choreography:
    """A fork whose two branches are the same flow, F -eps-> J, listed
    twice, then A.t.B."""
    states = {
        "Initial": StateKind.INITIAL,
        "F": StateKind.FORK,
        "J": StateKind.JOIN,
        "P": StateKind.PLAIN,
        "Q": StateKind.PLAIN,
        "Final": StateKind.FINAL,
    }
    flows = [
        Flow("Initial", EPS, "F"),
        Flow("F", EPS, "J"),
        Flow("F", EPS, "J"),
        Flow("J", EPS, "P"),
        Flow("P", Operation("A", "t", "B"), "Q"),
        Flow("Q", EPS, "Final"),
    ]
    return Choreography(states, "Initial", "Final", {"A", "B"}, {}, flows)


def exclusive_join_model() -> Choreography:
    """A join whose two entries lie on the exclusive branches of an
    alternative: A.a.B, then C -[g]-> P or C -[not g]-> Q, both into
    join J, then B.b.A. Only one branch ever reaches J."""
    g = Var("g")
    states = {
        "Initial": StateKind.INITIAL,
        "S0": StateKind.PLAIN,
        "S1": StateKind.PLAIN,
        "C": StateKind.ALTERNATIVE,
        "P": StateKind.PLAIN,
        "Q": StateKind.PLAIN,
        "J": StateKind.JOIN,
        "K": StateKind.PLAIN,
        "K2": StateKind.PLAIN,
        "Final": StateKind.FINAL,
    }
    flows = [
        Flow("Initial", EPS, "S0"),
        Flow("S0", Operation("A", "a", "B"), "S1"),
        Flow("S1", EPS, "C"),
        Flow("C", Guard(g), "P"),
        Flow("C", Guard(Not(g)), "Q"),
        Flow("P", EPS, "J"),
        Flow("Q", EPS, "J"),
        Flow("J", EPS, "K"),
        Flow("K", Operation("B", "b", "A"), "K2"),
        Flow("K2", EPS, "Final"),
    ]
    return Choreography(states, "Initial", "Final", {"A", "B"}, {"g": (False, True)}, flows)


def alternative_model(guards: list[Pred], variables: dict) -> Choreography:
    """A.a.B, then the alternative C: guard j leads to B{j}, from where
    A.t{j}.B runs on to Final."""
    states = {
        "Initial": StateKind.INITIAL,
        "S0": StateKind.PLAIN,
        "S1": StateKind.PLAIN,
        "C": StateKind.ALTERNATIVE,
        "Final": StateKind.FINAL,
    }
    flows = [
        Flow("Initial", EPS, "S0"),
        Flow("S0", Operation("A", "a", "B"), "S1"),
        Flow("S1", EPS, "C"),
    ]
    for j, guard in enumerate(guards):
        states[f"B{j}"] = states[f"E{j}"] = StateKind.PLAIN
        flows += [
            Flow("C", Guard(guard), f"B{j}"),
            Flow(f"B{j}", Operation("A", f"t{j}", "B"), f"E{j}"),
            Flow(f"E{j}", EPS, "Final"),
        ]
    return Choreography(states, "Initial", "Final", {"A", "B"}, variables, flows)


def int_alternative_model() -> Choreography:
    """An alternative guarded by x / not x, with x declared over [1, 2]."""
    return alternative_model([Var("x"), Not(Var("x"))], {"x": (1, 2)})


def int_loop_model() -> Choreography:
    """loop_model with its entry guard p declared over [1, 2]."""
    model = loop_model()
    return Choreography(
        model.states, model.initial, model.final, model.roles, {"p": (1, 2)}, model.flows
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


def fork_scenario(k: int) -> Scenario:
    """fork_model(k); each branch's initiator requests its operation."""
    model = fork_model(k)
    word = tuple(op.label for op in model.operations())
    return Scenario(model=model, environment={}, scripts=scripts_for_word(model, word))


def shape_model(forks=(), joins=(), loops=(), alternatives=(), flows=(),
                variables=None) -> Choreography:
    """A model from (src, label, trg) triples: a label is "" for epsilon,
    "[g]" or "[!g]" for a guard on g or not g, and "A.t.B" for an
    operation. The states named in forks, joins, loops and alternatives
    have that kind, Initial and Final are the initial and final states,
    every other state is plain, and the roles are those of the
    operations."""
    kinds = {s: k for names, k in ((forks, StateKind.FORK), (joins, StateKind.JOIN),
                                   (loops, StateKind.LOOP),
                                   (alternatives, StateKind.ALTERNATIVE)) for s in names}
    kinds.update(Initial=StateKind.INITIAL, Final=StateKind.FINAL)
    built, roles = [], set()
    for src, text, trg in flows:
        if not text:
            label = EPS
        elif text.startswith("["):
            name = text.strip("[!]")
            label = Guard(Not(Var(name)) if text.startswith("[!") else Var(name))
        else:
            initiator, task, receiver = text.split(".")
            label = Operation(initiator, task, receiver)
            roles |= {initiator, receiver}
        built.append(Flow(src, label, trg))
        for s in (src, trg):
            kinds.setdefault(s, StateKind.PLAIN)
    return Choreography(kinds, "Initial", "Final", roles, dict(variables or {}), built)


def silent_exit_cycle_model() -> Choreography:
    """Loop L1 runs loop L3 while g1 holds; L3's body runs B.t1.A back to
    L1, and L3's exit is an epsilon flow back to L3 itself: with g3 false
    the run turns round L3 forever without anyone acting."""
    return shape_model(loops=["L1", "L3"], variables={"g1": (False, True), "g3": (False, True)},
                       flows=[
        ("Initial", "", "E2"), ("E2", "", "L1"), ("L1", "[g1]", "E4"), ("E4", "", "L3"),
        ("L3", "[g3]", "S5"), ("S5", "B.t1.A", "T6"), ("T6", "", "X7"), ("X7", "", "L1"),
        ("L3", "", "L3"), ("L1", "", "X8"), ("X8", "", "Final"),
    ])


def silent_exit_cycle_scenario() -> Scenario:
    """silent_exit_cycle_model with g1 true and g3 false; B requests t1."""
    return Scenario(model=silent_exit_cycle_model(), environment={"g1": True, "g3": False},
                    scripts=(ScriptSpec("B", (Action("t1", "A"),)),))


def initial_operation_model() -> Choreography:
    """A.t.B leaves the initial state, and its target starts A.u.B: the
    same pair's next operation, so its tuple updates no one."""
    return shape_model(flows=[
        ("Initial", "A.t.B", "S1"), ("S1", "A.u.B", "S2"), ("S2", "", "Final"),
    ])


def three_way_twin_fork_model() -> Choreography:
    """X.lead.Y, then a fork of A.t0.B, A.t1.B and C.t2.D, joined at J:
    the pair (A,B) arrives at two of the join's three entries."""
    return shape_model(forks=["F"], joins=["J"], flows=[
        ("Initial", "", "S0"), ("S0", "X.lead.Y", "S1"), ("S1", "", "F"),
        ("F", "", "P0"), ("P0", "A.t0.B", "Q0"), ("Q0", "", "J"),
        ("F", "", "P1"), ("P1", "A.t1.B", "Q1"), ("Q1", "", "J"),
        ("F", "", "P2"), ("P2", "C.t2.D", "Q2"), ("Q2", "", "J"),
        ("J", "", "Final"),
    ])


def three_way_fork_model() -> Choreography:
    """F forks into A.a.B, B.b.A and A.c.C, joined at J; then A.d.B.
    (B,A) crosses J; (A,B) loses it and moves past it on (B,A)'s update."""
    return shape_model(forks=["F"], joins=["J"], flows=[
        ("Initial", "", "F"),
        ("F", "", "A1"), ("A1", "A.a.B", "A2"), ("A2", "", "J"),
        ("F", "", "B1"), ("B1", "B.b.A", "B2"), ("B2", "", "J"),
        ("F", "", "C1"), ("C1", "A.c.C", "C2"), ("C2", "", "J"),
        ("J", "", "K"), ("K", "A.d.B", "K2"), ("K2", "", "Final"),
    ])


def three_way_fork_scenario() -> Scenario:
    """three_way_fork_model; each initiator requests its operations in the
    order of one reference word."""
    model = three_way_fork_model()
    word = ("A.a.B", "B.b.A", "A.c.C", "A.d.B")
    return Scenario(model=model, environment={}, scripts=scripts_for_word(model, word))


def same_pair_fork_model() -> Choreography:
    """A fork of three A->B branches, A.t0.B, A.t1.B and A.t2.B, joined at J."""
    flows = [("Initial", "", "F"), ("J", "", "Final")]
    for j in range(3):
        flows += [("F", "", f"P{j}"), (f"P{j}", f"A.t{j}.B", f"Q{j}"), (f"Q{j}", "", "J")]
    return shape_model(forks=["F"], joins=["J"], flows=flows)


def nested_fork_model(after=None) -> Choreography:
    """X.lead.Y, then F forks into A.a.E and an inner fork G of B.b.D and
    C.c.B, joined at H, which runs by epsilon flows into F's join J, after
    which the after operation (if any) runs. Only (C,B), the pair that
    sorts last at H, crosses H."""
    flows = [
        ("Initial", "", "S0"), ("S0", "X.lead.Y", "S1"), ("S1", "", "F"),
        ("F", "", "A1"), ("A1", "A.a.E", "A2"), ("A2", "", "J"),
        ("F", "", "G"), ("G", "", "B1"), ("B1", "B.b.D", "B2"), ("B2", "", "H"),
        ("G", "", "C1"), ("C1", "C.c.B", "C2"), ("C2", "", "H"),
        ("H", "", "H2"), ("H2", "", "J"),
    ]
    flows += [("J", "", "K"), ("K", after, "K2"), ("K2", "", "Final")] if after else [
        ("J", "", "Final")]
    return shape_model(forks=["F", "G"], joins=["H", "J"], flows=flows)


def nested_fork_scenario() -> Scenario:
    """nested_fork_model; each initiator requests its one operation."""
    model = nested_fork_model()
    word = ("X.lead.Y", "A.a.E", "B.b.D", "C.c.B")
    return Scenario(model=model, environment={}, scripts=scripts_for_word(model, word))


def loop_branch_fork_model(lead="X.lead.Y", other="A.a.B", body="P.w.Q",
                           after=None) -> Choreography:
    """The lead operation (if any), then F forks into the other operation
    and a loop L that runs the body operation while g holds; the loop's
    exit LX and the other branch meet at J, after which the after
    operation (if any) runs."""
    flows = [("L0", "", "L"), ("L", "[g]", "W1"), ("W1", body, "W2"), ("W2", "", "L"),
             ("L", "", "LX"), ("LX", "", "J"),
             ("F", "", "A1"), ("A1", other, "A2"), ("A2", "", "J"), ("F", "", "L0")]
    flows += [("Initial", "", "S0"), ("S0", lead, "S1"), ("S1", "", "F")] if lead else [
        ("Initial", "", "F")]
    flows += [("J", "", "K"), ("K", after, "K2"), ("K2", "", "Final")] if after else [
        ("J", "", "Final")]
    return shape_model(forks=["F"], joins=["J"], loops=["L"], flows=flows,
                       variables={"g": (False, True)})


def loop_fork_model() -> Choreography:
    """A loop whose body forks into an empty branch and C.t1.D, joins, and
    runs A.t2.B back to the loop: who arrives at the fork depends on the
    iteration."""
    return shape_model(forks=["F"], joins=["J"], loops=["L"], variables={"g": (False, True)},
                       flows=[
        ("Initial", "", "L0"), ("L0", "", "L"), ("L", "[g]", "B0"), ("B0", "", "F"),
        ("F", "", "J"), ("F", "", "P1"), ("P1", "C.t1.D", "P2"), ("P2", "", "J"),
        ("J", "", "K"), ("K", "A.t2.B", "K2"), ("K2", "", "L"),
        ("L", "", "Z"), ("Z", "", "Final"),
    ])


def loop_branch_stall_scenario() -> Scenario:
    """loop_branch_fork_model with g stuck true: (X,Y) never leaves the
    loop for LX, so (A,B) stays before J, waiting for (X,Y) alone. X
    requests lead, A requests a, and P requests w three times."""
    actions = (("X", [("lead", "Y")]), ("A", [("a", "B")]), ("P", [("w", "Q")] * 3))
    return Scenario(model=loop_branch_fork_model(), environment={"g": True},
                    scripts=tuple(ScriptSpec(role, tuple(Action(*a) for a in acts))
                                  for role, acts in actions))


def loop_join_model() -> Choreography:
    """A loop whose body runs X.s.Y, then forks into C.t1.D and E.t3.G,
    joined at J, and runs A.t2.B back to the loop: each pass reaches J
    again, with (C,D) arriving at P2 and (E,G), which crosses, at Q2."""
    return shape_model(forks=["F"], joins=["J"], loops=["L"], variables={"g": (False, True)},
                       flows=[
        ("Initial", "", "L0"), ("L0", "", "L"), ("L", "[g]", "B0"), ("B0", "X.s.Y", "B1"),
        ("B1", "", "F"), ("F", "", "P1"), ("P1", "C.t1.D", "P2"), ("P2", "", "J"),
        ("F", "", "Q1"), ("Q1", "E.t3.G", "Q2"), ("Q2", "", "J"),
        ("J", "", "K"), ("K", "A.t2.B", "K2"), ("K2", "", "L"),
        ("L", "", "Z"), ("Z", "", "Final"),
    ])


def loop_join_scenario() -> Scenario:
    """loop_join_model with g true: three passes, each initiator
    requesting its operation once per pass."""
    model = loop_join_model()
    word = ("X.s.Y", "C.t1.D", "E.t3.G", "A.t2.B") * 3
    return Scenario(model=model, environment={"g": True}, scripts=scripts_for_word(model, word))


def loop_sequence_model(n: int, step: str = "") -> Choreography:
    """n loops in sequence, each running A.t{i}.B while g holds:
    Initial -eps-> L0, L{i} -[g]-> B{i} -A.t{i}.B-> C{i} -eps-> L{i} and
    L{i} -eps-> X{i} -eps-> L{i+1}, the last X going to Final. A step such
    as "X.k{}.Y" is an operation that each X{i} runs first, on to Y{i}."""
    flows = [("Initial", "", "L0")]
    for i in range(n):
        after = f"L{i + 1}" if i + 1 < n else "Final"
        flows += [(f"L{i}", "[g]", f"B{i}"), (f"B{i}", f"A.t{i}.B", f"C{i}"),
                  (f"C{i}", "", f"L{i}"), (f"L{i}", "", f"X{i}")]
        flows += [(f"X{i}", step.format(i), f"Y{i}"), (f"Y{i}", "", after)] if step else [
            (f"X{i}", "", after)]
    return shape_model(loops=[f"L{i}" for i in range(n)], flows=flows,
                       variables={"g": (False, True)})


def loop_sequence_scenario(n: int) -> Scenario:
    """loop_sequence_model with the step X.k{i}.Y and g false: X requests
    k0 ... k{n-1} in order."""
    model = loop_sequence_model(n, "X.k{}.Y")
    word = tuple(f"X.k{i}.Y" for i in range(n))
    return Scenario(model=model, environment={"g": False},
                    scripts=scripts_for_word(model, word))


def fork_sequence_model(n: int) -> Choreography:
    """n forks in sequence with no operation before them, then A.t.B:
    F{i} forks into P{i} and Q{i}, which run by epsilon flows into J{i}."""
    flows, last = [], "Initial"
    for i in range(n):
        flows += [(last, "", f"F{i}"), (f"F{i}", "", f"P{i}"), (f"P{i}", "", f"J{i}"),
                  (f"F{i}", "", f"Q{i}"), (f"Q{i}", "", f"J{i}")]
        last = f"J{i}"
    flows += [(last, "", "S"), ("S", "A.t.B", "T"), ("T", "", "Final")]
    return shape_model(forks=[f"F{i}" for i in range(n)], joins=[f"J{i}" for i in range(n)],
                       flows=flows)


def fork_sequence_scenario(n: int) -> Scenario:
    """fork_sequence_model; A requests t once the start walk has passed every fork."""
    model = fork_sequence_model(n)
    return Scenario(model=model, environment={}, scripts=scripts_for_word(model, ("A.t.B",)))


def loop_fork_blocks_model(n: int) -> Choreography:
    """X.lead.Y, then n blocks in sequence: F{i} forks into
    A{i} -A.a{i}.B-> A{i}x and a loop L{i} that runs C.w{i}.D while g
    holds, exiting to LX{i}; both join at J{i}, then X.k{i}.Y runs."""
    flows = [("Initial", "", "S0"), ("S0", "X.lead.Y", "S1"), ("S1", "", "F0")]
    for i in range(n):
        after = f"F{i + 1}" if i + 1 < n else "Final"
        flows += [
            (f"F{i}", "", f"A{i}"), (f"A{i}", f"A.a{i}.B", f"A{i}x"), (f"A{i}x", "", f"J{i}"),
            (f"F{i}", "", f"L{i}"), (f"L{i}", "[g]", f"W{i}"), (f"W{i}", f"C.w{i}.D", f"W{i}x"),
            (f"W{i}x", "", f"L{i}"), (f"L{i}", "", f"LX{i}"), (f"LX{i}", "", f"J{i}"),
            (f"J{i}", "", f"K{i}"), (f"K{i}", f"X.k{i}.Y", f"K{i}x"), (f"K{i}x", "", after),
        ]
    return shape_model(forks=[f"F{i}" for i in range(n)], joins=[f"J{i}" for i in range(n)],
                       loops=[f"L{i}" for i in range(n)], flows=flows,
                       variables={"g": (False, True)})
