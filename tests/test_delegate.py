"""Driving single delegates by hand, checking what they report step by step."""

import pytest

from chorenforce.decompose import Pair, _Decomposition, generate_all
from chorenforce.delegate import (
    BLOCKED,
    FORWARDED,
    Delegate,
    DivergentWalkError,
    NoEnabledTupleError,
    UnknownTaskError,
)
from chorenforce.model import EPS, Choreography, Flow, Guard, Operation, StateKind
from chorenforce.predicate import Var
from chorenforce.socialprox import ENV_BOTH_TRUE
from mutants import forward_without_check
from helpers import Outbox, loop_model, shape_model, sp_cms

IM_UMS = Pair("IM", "UMS")
IM_SPS = Pair("IM", "SPS")
SPS_APP = Pair("SPS", "SocialProxApp")
SPS_NMU = Pair("SPS", "NMU")
SPS_NMF = Pair("SPS", "NMF")


def make(pair, env=None, cms=None, cls=Delegate):
    cms = cms or sp_cms()
    return attach(cls(pair, cms[pair], env or dict(ENV_BOTH_TRUE)))


def attach(d):
    d.out = Outbox()
    return d


def sent(d):
    """What the delegate reported since the last call."""
    calls, d.out.calls = d.out.calls, []
    return calls


def kinds(calls):
    return [c[0] for c in calls]


def changes(calls):
    return [(c[2], c[3]) for c in calls if c[0] == "state_change"]


def test_activation_then_forward():
    d = make(IM_UMS)
    d.handle_update("S5")
    assert sent(d) == [("state_change", 0, None, "S5")]
    # waiting at its own operation state, not before a join
    assert [(t.state, t.pending_tuple) for t in d.threads] == [("S5", None)]

    assert d.handle_request(0, "getUserPref") == FORWARDED
    calls = sent(d)
    assert calls[0] == ("forward", "getUserPref", "S5", "S6")
    # walk: S6, S7, then the true branch to S9 with its update
    assert ("update", IM_SPS, "S9") in calls
    assert changes(calls) == [
        ("S5", "S6"),
        ("S6", "S7"),
        ("S7", "S9"),
    ]
    # S9 is a local dead end: only other pairs act next, so it retires
    assert d.threads == []


def test_false_branch_under_disabled_environment():
    d = make(IM_UMS, env={"shareEnabled": False, "friendFound": False})
    d.handle_update("S5")
    sent(d)
    d.handle_request(0, "getUserPref")
    calls = sent(d)
    # walks S7 -> S20 -> Final and retires: nothing left
    assert ("S7", "S20") in changes(calls) and ("S20", "Final") in changes(calls)
    assert "update" not in kinds(calls)
    assert d.threads == []


def test_unknown_task_rejected():
    d = make(IM_UMS)
    with pytest.raises(UnknownTaskError):
        d.handle_request(0, "matchGPS")


def test_request_blocks_until_update():
    d = make(IM_UMS)
    assert d.handle_request(7, "getUserPref") == BLOCKED and sent(d) == []
    assert d.pending == [(7, "getUserPref")]

    d.handle_update("S5")
    calls = sent(d)
    assert ("unblock", 7, "getUserPref") in calls
    assert "forward" in kinds(calls)
    # the unblock precedes its forward
    assert kinds(calls).index("unblock") < kinds(calls).index("forward")
    assert d.pending == []


def test_update_for_foreign_state_is_buffered():
    d = make(IM_UMS)
    d.handle_update("S10")
    assert sent(d) == []
    assert d.update_buffer == ["S10"]


def relay_loop_model():
    """Loop whose body operation belongs to a different pair than the
    opener, so the body entry state reaches its owner only as an update."""
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
        Flow("LP", Guard(Var("p")), "E1"),
        Flow("E1", Operation("B", "work", "C"), "E2"),
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


def test_buffered_update_consumed_by_request():
    cms = generate_all(relay_loop_model())
    bc = Pair("B", "C")
    # the body entry E1 is reachable from the delegate's own walk (around
    # the loop), so it is not an activation state: a bare update parks
    d = attach(Delegate(bc, cms[bc], {"p": True}))
    assert cms[bc].initial_wait == frozenset()
    d.handle_update("E1")
    assert sent(d) == []
    assert d.update_buffer == ["E1"]
    assert d.handle_request(1, "work") == FORWARDED
    assert d.update_buffer == []
    assert changes(sent(d)) == [(None, "E1"), ("E1", "E2"), ("E2", "LP"), ("LP", "E1")]
    # after one iteration the thread waits at the body entry again
    assert [(t.state, t.pending_tuple) for t in d.threads] == [("E1", None)]


def test_pending_request_wants_buffered_state():
    cms = generate_all(relay_loop_model())
    bc = Pair("B", "C")
    d = attach(Delegate(bc, cms[bc], {"p": True}))
    assert d.handle_request(3, "work") == BLOCKED
    d.handle_update("E1")
    assert ("unblock", 3, "work") in sent(d)


def test_fork_splits_into_two_threads():
    d = make(SPS_APP)
    d.handle_update("S3")
    sent(d)
    assert d.handle_request(0, "getLocations") == FORWARDED
    calls = sent(d)
    assert ("update", SPS_NMF, "S11") in calls
    assert ("update", SPS_NMU, "S14") in calls
    # the fork state S13 splits into a second thread, one per branch
    branches = [(c[1], c[3]) for c in calls if c[0] == "state_change" and c[2] == "S13"]
    assert sorted(branches) == [(0, "S11"), (1, "S14")]
    # both branches end where other pairs act next, so both retire
    assert d.threads == []


def test_join_notify_then_win():
    d = make(SPS_NMU)
    d.handle_update("S14")
    sent(d)
    assert d.handle_request(0, "notifyUser") == FORWARDED
    assert ("notify", SPS_NMF, "S15", "S16") in sent(d)
    (thread,) = d.threads
    assert thread.state == "S15" and thread.pending_tuple.trg == "S16"
    assert thread.awaited == {("S12", SPS_NMF)}

    d.handle_notify("S12", SPS_NMF, "S16")
    calls = sent(d)
    # (SPS,NMU) outranks (SPS,NMF): crosses, updates the loser's pair
    assert ("update", SPS_NMF, "S21") in calls
    assert ("state_change", thread.id, "S16", "S21") in calls
    # S21 is a local dead end: the crossing thread retires there
    assert d.threads == []


def test_join_notify_then_lose():
    d = make(SPS_NMF)
    d.handle_update("S11")
    d.handle_request(0, "notifyFriend")
    (thread,) = d.threads
    assert thread.pending_tuple.trg == "S16"
    sent(d)
    d.handle_notify("S15", SPS_NMU, "S16")
    assert sent(d) == []
    assert d.threads == []


def test_notify_arriving_early_is_buffered_and_drained():
    d = make(SPS_NMU)
    d.handle_notify("S12", SPS_NMF, "S16")
    assert sent(d) == []
    assert d.notify_buffer == [("S12", SPS_NMF, "S16")]
    d.handle_update("S14")
    sent(d)
    assert d.handle_request(0, "notifyUser") == FORWARDED
    # the buffered notification satisfies the wait: the join resolves
    # within the same request, no suspension
    assert d.notify_buffer == []
    assert d.threads == []
    assert ("update", SPS_NMF, "S21") in sent(d)


def test_unrelated_notify_stays_buffered():
    d = make(SPS_NMU)
    d.handle_update("S14")
    d.handle_request(0, "notifyUser")
    sent(d)
    d.handle_notify("S99", SPS_NMF, "S16")
    assert sent(d) == []
    (thread,) = d.threads
    assert thread.awaited == {("S12", SPS_NMF)}
    assert d.notify_buffer == [("S99", SPS_NMF, "S16")]


def walk_cm(model, pair):
    """The pair's coordination model from the decomposition's walk, for a
    model that validation refuses, so generate_all cannot build it."""
    return _Decomposition(model, {}).generate(pair)


def test_no_enabled_tuple_raises():
    # an alternative whose one guard is false
    pair = Pair("A", "B")
    model = shape_model(alternatives=["C"], variables={"x": (False, True)}, flows=[
        ("Initial", "", "S"), ("S", "A.go.B", "C"), ("C", "[x]", "U"), ("U", "", "Final"),
    ])
    d = attach(Delegate(pair, walk_cm(model, pair), {"x": False}))
    d.handle_update("S")
    with pytest.raises(NoEnabledTupleError):
        d.handle_request(0, "go")


def test_divergent_walk_raises():
    # an epsilon cycle after the operation
    pair = Pair("A", "B")
    model = shape_model(flows=[
        ("Initial", "", "S"), ("S", "A.go.B", "T"), ("T", "", "U"), ("U", "", "T"),
    ])
    d = attach(Delegate(pair, walk_cm(model, pair), {}))
    d.handle_update("S")
    with pytest.raises(DivergentWalkError):
        d.handle_request(0, "go")


def test_thread_retires_at_final_state():
    cms = generate_all(loop_model())
    d = attach(Delegate(Pair("A", "C"), cms[Pair("A", "C")], {"p": False}))
    d.handle_update("X1")
    assert d.handle_request(0, "finish") == FORWARDED
    assert d.threads == []


def test_forward_without_check_at_request_time():
    d = make(SPS_NMU, cls=forward_without_check())
    d.handle_update("S14")
    assert sent(d) == [("state_change", 0, None, "S14")]
    # the only thread sits at S14, where startItin has no tuple
    assert d.handle_request(0, "startItin") == FORWARDED
    assert sent(d) == [("forward", "startItin", "S14", None)]
    assert d.pending == []


def test_forward_without_check_on_retry():
    d = make(SPS_NMU, cls=forward_without_check())
    assert d.handle_request(0, "startItin") == BLOCKED and sent(d) == []
    assert d.handle_request(1, "notifyUser") == BLOCKED and sent(d) == []
    d.handle_update("S14")
    calls = sent(d)
    assert kinds(calls) == [
        "state_change",
        "unblock",
        "forward",
        "unblock",
        "forward",
        "state_change",
        "notify",
    ]
    assert calls[:5] == [
        ("state_change", 0, None, "S14"),
        ("unblock", 0, "startItin"),
        ("forward", "startItin", "S14", None),
        ("unblock", 1, "notifyUser"),
        ("forward", "notifyUser", "S14", "S15"),
    ]
    assert d.pending == []
