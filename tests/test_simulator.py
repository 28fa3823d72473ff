import gc
from pathlib import Path

import pytest

from chorenforce.decompose import Pair, generate_all
from chorenforce.participants import load_scenario
from chorenforce.runner import run_scenario, trace_lines
from chorenforce.simulator import (
    COMPLETED,
    DEADLOCKED,
    AmbiguousActivationError,
    RoundRobin,
    SeededRandom,
    enactment_bootstrap,
    make_policy,
)
from helpers import (
    adversarial_scenario,
    chain_scenario,
    sp_cms,
    sp_model,
    inorder_scenario,
    loop_scenario,
    run_sp,
    share_disabled_scenario,
    shuffled_scenario,
    twin_fork_model,
    LOOP_BODY_ACTIONS,
    LOOP_EXIT_ACTIONS,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_bootstrap_targets():
    pairs = enactment_bootstrap(sp_model(), sp_cms())
    assert pairs == [(Pair("IM", "UMS"), "S5")]


def test_bootstrap_rejects_ambiguity():
    # two operations of the same pair both reachable before any move
    m = twin_fork_model()
    with pytest.raises(AmbiguousActivationError):
        enactment_bootstrap(m, generate_all(m))


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


def test_event_budget_returns_budget_outcome():
    result = run_scenario(inorder_scenario(), max_events=5)
    assert result.outcome == "budget"
    assert len(result.events) >= 5


@pytest.mark.parametrize("policy", ["roundrobin", "random"])
@pytest.mark.parametrize(
    "name", ["adversarial", "inorder", "share_disabled", "shuffled", "chain_600"]
)
def test_completed_run_leaves_no_delegate_thread(name, policy):
    # a thread with no tuple out of its state is retired, so at the end of
    # a completed run no delegate holds one
    if name == "chain_600":
        result = run_scenario(
            chain_scenario(600), policy=policy, seed=0, max_events=10**6
        )
    else:
        result = run_scenario(
            load_scenario(FIXTURES / f"scenario_{name}.json"), policy=policy
        )
    assert result.outcome == COMPLETED
    held = {str(pair): d.threads for pair, d in result.delegates.items() if d.threads}
    assert held == {}


def test_a_run_leaves_no_cyclic_garbage():
    # delegates report to the simulator; a strong reference back to it
    # would keep each run's simulator and events alive until the cyclic
    # collector runs
    scenario = chain_scenario(20)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = run_scenario(scenario)
        del result
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
