import gc
import weakref
from pathlib import Path

import pytest

from chorenforce import simulator
from chorenforce.decompose import Pair, generate_all
from chorenforce.interpreter import reference_traces
from chorenforce.oracle import ALLOWED, DEADLOCKING_JOIN, RuntimeChecker
from chorenforce.participants import Action, Scenario, ScriptSpec, load_scenario
from chorenforce.randgen import scripts_for_word
from chorenforce.runner import Enactment, run_scenario, trace_lines
from chorenforce.simulator import (
    BUDGET,
    COMPLETED,
    DEADLOCKED,
    RoundRobin,
    SeededRandom,
    enactment_bootstrap,
    make_policy,
)
from chorenforce.socialprox import ENV_BOTH_TRUE
from helpers import (
    adversarial_scenario,
    chain_scenario,
    empty_branch_fork_model,
    fixture_scenario,
    guarded_start_model,
    loop_branch_fork_model,
    loop_branch_stall_scenario,
    loop_first_model,
    nested_fork_model,
    nested_fork_scenario,
    same_pair_fork_model,
    sp_model,
    three_way_twin_fork_model,
    inorder_scenario,
    loop_scenario,
    recorded_delegates,
    run_sp,
    share_disabled_scenario,
    shuffled_scenario,
    twin_fork_model,
    LOOP_BODY_ACTIONS,
    LOOP_EXIT_ACTIONS,
    START_RUNS,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def scripted(model, env, *scripts) -> Scenario:
    """A scenario in which each (role, [(task, target), ...]) script runs in order."""
    specs = tuple(ScriptSpec(role, tuple(Action(*a) for a in acts)) for role, acts in scripts)
    return Scenario(model=model, environment=env, scripts=specs)


def test_bootstrap_targets():
    pairs = enactment_bootstrap(sp_model(), ENV_BOTH_TRUE)
    assert pairs == [(Pair("IM", "UMS"), "S5")]


def test_bootstrap_starts_every_branch_of_a_twin_fork():
    # the delegate of (A,B) runs one thread per branch
    ab = Pair("A", "B")
    assert enactment_bootstrap(twin_fork_model(), {}) == [(ab, "P1"), (ab, "Q1")]


def test_bootstrap_follows_the_guards_that_hold():
    model = guarded_start_model()
    assert enactment_bootstrap(model, {"v": True}) == [(Pair("A", "B"), "P")]
    assert enactment_bootstrap(model, {"v": False}) == [(Pair("C", "D"), "Q")]
    # a loop's entry while its guard holds, its exit otherwise
    model = loop_first_model()
    assert enactment_bootstrap(model, {"g": True}) == [(Pair("X", "Y"), "B1")]
    assert enactment_bootstrap(model, {"g": False}) == [(Pair("X", "Y"), "S")]


def test_bootstrap_crosses_a_join_only_from_all_its_entries():
    assert enactment_bootstrap(empty_branch_fork_model(), {}) == [(Pair("C", "D"), "P1")]


def run_ends(scenario: Scenario, policy: str, seed: int) -> tuple:
    result = run_scenario(scenario, policy=policy, seed=seed)
    return result.outcome, result.projection, result.conformant, result.flagged


@pytest.mark.parametrize("order", [("t0", "t1"), ("t1", "t0")])
@pytest.mark.parametrize("policy,seed", START_RUNS)
def test_twin_fork_completes(order, policy, seed):
    scenario = scripted(twin_fork_model(), {}, ("A", [(t, "B") for t in order]))
    assert run_ends(scenario, policy, seed) == (
        COMPLETED, tuple(f"A.{t}.B" for t in order), True, []
    )


@pytest.mark.parametrize("policy,seed", START_RUNS)
def test_a_false_guard_before_any_operation_starts_its_other_branch(policy, seed):
    scenario = scripted(guarded_start_model(), {"v": False}, ("C", [("u", "D")]))
    assert run_ends(scenario, policy, seed) == (COMPLETED, ("C.u.D",), True, [])


@pytest.mark.parametrize("policy,seed", START_RUNS)
def test_a_loop_before_any_operation_starts_its_exit(policy, seed):
    # the start update at S is no entry state of (X,Y): it is buffered
    # until X asks for go
    scenario = scripted(loop_first_model(), {"g": False}, ("X", [("go", "Y")]))
    assert run_ends(scenario, policy, seed) == (COMPLETED, ("X.go.Y",), True, [])


@pytest.mark.parametrize("policy,seed", START_RUNS)
def test_a_loop_before_any_operation_starts_its_body(policy, seed):
    # with g stuck true the script runs out inside the loop
    scenario = scripted(loop_first_model(), {"g": True}, ("X", [("work", "Y")] * 3))
    assert run_ends(scenario, policy, seed) == (
        DEADLOCKED, ("X.work.Y",) * 3, True, []
    )


@pytest.mark.parametrize("policy,seed", START_RUNS)
def test_an_empty_fork_branch_does_not_start_the_pair_after_the_join(policy, seed):
    scenario = scripted(
        empty_branch_fork_model(), {}, ("A", [("t3", "D")]), ("C", [("t1", "D")])
    )
    assert run_ends(scenario, policy, seed) == (
        COMPLETED, ("C.t1.D", "A.t3.D"), True, []
    )


# Fork/join shapes, with the environment each runs under: a pair whose
# two threads both wait for another pair's one notification
# (three_way_twin), one pair on every branch, notifying its own threads
# (same_pair), an inner join whose crossing pair alone goes on to the
# outer join (nested), and a loop on a branch that the environment skips,
# passed by whoever arrives at the fork (skipped_loop, missed_join).
JOIN_SHAPES = {
    "three_way_twin": (three_way_twin_fork_model, {}),
    "same_pair": (same_pair_fork_model, {}),
    "nested": (nested_fork_model, {}),
    "skipped_loop": (loop_branch_fork_model, {"g": False}),
    # (D,B) crosses J from A2; its tuple from the loop's exit waits for a
    # notification of its own that never comes, which the checker must
    # not count as a missed join
    "missed_join": (
        lambda: loop_branch_fork_model("A.t1.B", "D.t2.B", "D.t3.B", "D.t4.B"), {"g": False}
    ),
}


@pytest.mark.parametrize("shape", sorted(JOIN_SHAPES))
def test_every_word_of_a_fork_join_shape_completes(shape):
    build, env = JOIN_SHAPES[shape]
    model = build()
    words = sorted(reference_traces(model, env).complete)
    assert words
    for word in words:
        scenario = Scenario(model=model, environment=env, scripts=scripts_for_word(model, word))
        for policy, seed in START_RUNS:
            outcome, projection, conformant, flagged = run_ends(scenario, policy, seed)
            assert (outcome, sorted(projection), conformant, flagged) == (
                COMPLETED, sorted(word), True, []
            ), (word, policy, seed)


@pytest.mark.parametrize("policy,seed", START_RUNS)
def test_a_join_waits_for_the_pair_that_enters_a_loop_that_never_exits(policy, seed):
    result = run_scenario(loop_branch_stall_scenario(), policy=policy, seed=seed)
    assert (result.outcome, result.conformant) == (DEADLOCKED, True)
    assert sorted(result.projection) == ["A.a.B", "P.w.Q", "P.w.Q", "P.w.Q", "X.lead.Y"]
    assert [(v.kind, v.cd, v.detail) for v in result.flagged] == [(
        DEADLOCKING_JOIN, ("A", "B"),
        "thread 0 awaits [('LX', ('X', 'Y'))] before J; pending requests []",
    )]


def test_round_robin_rotates():
    rr = RoundRobin()
    assert rr.select(["a", "b", "c"]) == "a"
    assert rr.select(["a", "b", "c"]) == "b"
    assert rr.select(["a", "c"]) == "c"
    assert rr.select(["a", "c"]) == "a"
    # a late arrival joins the rotation in sorted position
    assert rr.select(["a", "aa"]) == "aa"


def test_seeded_random_is_reproducible():
    picks = [SeededRandom(5).select(list("abcdef")) for _ in range(3)]
    assert len(set(picks)) == 1


def test_make_policy_rejects_unknown():
    with pytest.raises(Exception):
        make_policy("fifo", 0)


def test_inorder_run_completes():
    result = run_sp(inorder_scenario())
    assert result.outcome == COMPLETED
    assert result.conformant
    assert len(result.projection) == 8
    assert result.projection[0] == "IM.getUserPref.UMS"
    assert result.projection[-2:] == ("SPS.startItin.NMF", "SPS.startItin.NMU")


def test_share_disabled_run_completes():
    result = run_sp(share_disabled_scenario())
    assert result.outcome == COMPLETED
    assert result.projection == ("IM.getUserPref.UMS",)


def test_random_policy_still_completes():
    for seed in range(5):
        result = run_sp(shuffled_scenario(), policy="random", seed=seed)
        assert result.outcome == COMPLETED, seed
        assert result.conformant, seed


def test_event_seq_strictly_increasing():
    result = run_sp(inorder_scenario())
    seqs = [e["seq"] for e in result.events]
    assert seqs == list(range(len(seqs)))


def test_trace_is_deterministic():
    a = run_sp(shuffled_scenario(), policy="random", seed=11)
    b = run_sp(shuffled_scenario(), policy="random", seed=11)
    assert trace_lines(a.events) == trace_lines(b.events)
    c = run_sp(shuffled_scenario(), policy="random", seed=12)
    assert trace_lines(a.events) != trace_lines(c.events)


def test_adversarial_injection_blocks_then_unblocks():
    result = run_sp(adversarial_scenario(), policy="random", seed=7)
    assert result.outcome == COMPLETED
    events = result.events
    injected = [e for e in events if e["kind"] == "Request" and e["injected"]]
    assert len(injected) == 1
    rid = injected[0]["request_id"]
    blocks = [e for e in events if e["kind"] == "Block" and e["request_id"] == rid]
    unblocks = [e for e in events if e["kind"] == "Unblock" and e["request_id"] == rid]
    assert len(blocks) == 1 and len(unblocks) == 1
    assert blocks[0]["seq"] < unblocks[0]["seq"]
    # the premature start waits for both notifications
    last_notify = max(
        e["seq"] for e in events
        if e["kind"] == "Forward" and e["task"] in ("notifyUser", "notifyFriend")
    )
    start_nmu = [
        e for e in events
        if e["kind"] == "Forward" and e["task"] == "startItin"
        and e["cd"] == ["SPS", "NMU"]
    ]
    assert len(start_nmu) == 1
    assert start_nmu[0]["seq"] > last_notify


def test_honest_loop_exit_completes():
    result = run_scenario(loop_scenario({"p": False}, LOOP_EXIT_ACTIONS))
    assert result.outcome == COMPLETED
    assert result.projection == ("A.init.B", "A.finish.C")
    assert result.conformant


def test_honest_loop_body_never_completes():
    # with p stuck true the script runs out inside the loop: the run
    # stalls but every step so far conforms
    result = run_scenario(loop_scenario({"p": True}, LOOP_BODY_ACTIONS))
    assert result.outcome == DEADLOCKED
    assert result.conformant
    assert not result.flagged
    assert result.projection == ("A.init.B", "A.work.B", "A.work.B", "A.work.B")


def test_event_budget_returns_budget_outcome(monkeypatch):
    monkeypatch.setattr(simulator, "MAX_EVENTS", 5)
    result = run_scenario(inorder_scenario())
    assert result.outcome == BUDGET
    assert len(result.events) >= 5


def test_run_and_check_trace_agree_at_every_budget(monkeypatch):
    # one patch moves the simulator's budget and the checker's rule: a
    # run cut below its length holds at least the budget's events, so
    # neither run nor check-trace looks for stalled joins in it
    cuts = 0
    for name in ("inorder", "shuffled", "adversarial", "share_disabled"):
        scenario = fixture_scenario(name)
        enactment = Enactment(scenario.model, scenario.environment)
        checker = RuntimeChecker(scenario.model, scenario.environment)
        for policy in ("roundrobin", "random"):
            length = len(run_scenario(scenario, policy=policy, seed=0).events)
            for budget in range(1, length):
                with monkeypatch.context() as patch:
                    patch.setattr(simulator, "MAX_EVENTS", budget)
                    result = enactment.run(scenario.scripts, mode=scenario.mode,
                                           policy=policy, seed=0)
                    events = result.events
                    rechecked = [v for v in checker.run(events) + checker.stalled_joins(events)
                                 if v.kind != ALLOWED]
                assert result.outcome == BUDGET
                assert result.flagged == rechecked == [], (name, policy, budget)
                cuts += 1
    assert cuts == 394


@pytest.mark.parametrize("policy", ["roundrobin", "random"])
@pytest.mark.parametrize(
    "name", ["adversarial", "inorder", "share_disabled", "shuffled", "chain_600"]
)
def test_completed_run_leaves_no_delegate_thread(name, policy):
    # a thread with no tuple out of its state is retired, so at the end of
    # a completed run no delegate holds one
    if name == "chain_600":
        scenario, seed = chain_scenario(600), 0
    else:
        scenario, seed = load_scenario(FIXTURES / f"scenario_{name}.json"), None
    with recorded_delegates() as delegates:
        result = run_scenario(scenario, policy=policy, seed=seed)
    assert result.outcome == COMPLETED
    held = {str(pair): d.threads for pair, d in delegates.items() if d.threads}
    assert held == {}
    # so run need not look for stalled joins in a completed run's trace
    checker = RuntimeChecker(scenario.model, scenario.environment)
    assert checker.stalled_joins(result.events) == []


def test_a_run_keeps_none_of_its_delegates():
    # a result is plain data: each delegate a run built is freed by
    # reference counting once run_scenario returns, also where a stalled
    # run leaves threads waiting at a join
    enabled = gc.isenabled()
    gc.disable()
    try:
        for scenario, outcome in ((inorder_scenario(), COMPLETED),
                                  (loop_branch_stall_scenario(), DEADLOCKED)):
            with recorded_delegates(keep=weakref.ref) as delegates:
                result = run_scenario(scenario)
            assert result.outcome == outcome
            assert sorted(delegates) == sorted(generate_all(scenario.model))
            assert [pair for pair, ref in delegates.items() if ref() is not None] == []
    finally:
        if enabled:
            gc.enable()


def test_a_run_leaves_no_cyclic_garbage():
    # delegates report to the simulator; a strong reference back to it
    # would keep each run's simulator and events alive until the cyclic
    # collector runs
    assert_no_cyclic_garbage(chain_scenario(20))


def test_a_run_through_joins_leaves_no_cyclic_garbage():
    # validation's fork/join pass and the join handshake run too
    assert_no_cyclic_garbage(inorder_scenario())
    assert_no_cyclic_garbage(nested_fork_scenario())


def assert_no_cyclic_garbage(scenario: Scenario) -> None:
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = run_scenario(scenario)
        assert result.outcome == COMPLETED
        del result
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
