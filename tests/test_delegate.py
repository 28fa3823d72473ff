"""Driving single delegates by hand, checking emissions step by step."""

import pytest

from chorenforce.decompose import (
    CoordModel,
    CoordTuple,
    Pair,
    generate_all,
    initial_wait_states,
)
from chorenforce.delegate import (
    BLOCKED,
    FORWARDED,
    Delegate,
    DivergentWalkError,
    ForwardEmission,
    NoEnabledTupleError,
    NotifyEmission,
    StateChangeEmission,
    UnblockEmission,
    UnknownTaskError,
    UpdateEmission,
)
from chorenforce.model import EPS, Choreography, Flow, Guard, Operation, StateKind
from chorenforce.predicate import TRUE, Var
from chorenforce.socialprox import ENV_BOTH_TRUE
from mutants import forward_without_check
from helpers import sp_cms, loop_model

IM_UMS = Pair("IM", "UMS")
IM_SPS = Pair("IM", "SPS")
SPS_APP = Pair("SPS", "SocialProxApp")
SPS_NMU = Pair("SPS", "NMU")
SPS_NMF = Pair("SPS", "NMF")


def make(pair, env=None, cms=None, cls=Delegate):
    cms = cms or sp_cms()
    return cls(pair, cms[pair], env or dict(ENV_BOTH_TRUE))


def kinds(ems):
    return [type(e).__name__ for e in ems]


def test_activation_then_forward():
    d = make(IM_UMS)
    ems = d.handle_update("S5")
    assert ems == [StateChangeEmission(0, None, "S5")]
    # waiting at its own operation state, not before a join
    assert [(t.state, t.join) for t in d.threads] == [("S5", None)]

    status, ems = d.handle_request(0, "getUserPref")
    assert status == FORWARDED
    assert ems[0] == ForwardEmission(task="getUserPref", src="S5", trg="S6")
    # walk: S6, S7, then the true branch to S9 with its update
    assert UpdateEmission(dst=IM_SPS, state="S9") in ems
    changes = [e for e in ems if isinstance(e, StateChangeEmission)]
    assert [(c.src, c.trg) for c in changes] == [
        ("S5", "S6"),
        ("S6", "S7"),
        ("S7", "S9"),
    ]
    # S9 is a local dead end: only other pairs act next, so it retires
    assert d.threads == []


def test_false_branch_under_disabled_environment():
    d = make(IM_UMS, env={"shareEnabled": False, "friendFound": False})
    d.handle_update("S5")
    _, ems = d.handle_request(0, "getUserPref")
    changes = [(e.src, e.trg) for e in ems if isinstance(e, StateChangeEmission)]
    # walks S7 -> S20 -> Final and retires: nothing left
    assert ("S7", "S20") in changes and ("S20", "Final") in changes
    assert not any(isinstance(e, UpdateEmission) for e in ems)
    assert d.threads == []


def test_unknown_task_rejected():
    d = make(IM_UMS)
    with pytest.raises(UnknownTaskError):
        d.handle_request(0, "matchGPS")


def test_request_blocks_until_update():
    d = make(IM_UMS)
    status, ems = d.handle_request(7, "getUserPref")
    assert status == BLOCKED and ems == []
    assert d.pending_tasks() == ["getUserPref"]

    ems = d.handle_update("S5")
    assert UnblockEmission(request_id=7, task="getUserPref") in ems
    assert any(isinstance(e, ForwardEmission) for e in ems)
    # the unblock precedes its forward
    assert kinds(ems).index("UnblockEmission") < kinds(ems).index("ForwardEmission")
    assert d.pending == []


def test_update_for_foreign_state_is_buffered():
    d = make(IM_UMS)
    assert d.handle_update("S10") == []
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
    d = Delegate(bc, cms[bc], {"p": True})
    assert initial_wait_states(cms[bc]) == frozenset()
    assert d.handle_update("E1") == []
    assert d.update_buffer == ["E1"]
    status, ems = d.handle_request(1, "work")
    assert status == FORWARDED
    assert d.update_buffer == []
    changes = [(e.src, e.trg) for e in ems if isinstance(e, StateChangeEmission)]
    assert changes == [(None, "E1"), ("E1", "E2"), ("E2", "LP"), ("LP", "E1")]
    # after one iteration the thread waits at the body entry again
    assert [(t.state, t.join) for t in d.threads] == [("E1", None)]


def test_pending_request_wants_buffered_state():
    cms = generate_all(relay_loop_model())
    bc = Pair("B", "C")
    d = Delegate(bc, cms[bc], {"p": True})
    status, _ = d.handle_request(3, "work")
    assert status == BLOCKED
    ems = d.handle_update("E1")
    assert UnblockEmission(request_id=3, task="work") in ems


def test_fork_splits_into_two_threads():
    d = make(SPS_APP)
    d.handle_update("S3")
    status, ems = d.handle_request(0, "getLocations")
    assert status == FORWARDED
    assert UpdateEmission(dst=SPS_NMF, state="S11") in ems
    assert UpdateEmission(dst=SPS_NMU, state="S14") in ems
    # the fork state S13 splits into a second thread, one per branch
    branches = [
        (e.thread_id, e.trg)
        for e in ems
        if isinstance(e, StateChangeEmission) and e.src == "S13"
    ]
    assert sorted(branches) == [(0, "S11"), (1, "S14")]
    # both branches end where other pairs act next, so both retire
    assert d.threads == []


def test_join_notify_then_win():
    d = make(SPS_NMU)
    d.handle_update("S14")
    status, ems = d.handle_request(0, "notifyUser")
    assert status == FORWARDED
    assert NotifyEmission(dst=SPS_NMF, pred="S15", join="S16") in ems
    (thread,) = d.suspended_threads()
    assert thread.state == "S15" and thread.join == "S16"
    assert thread.awaited == {("S12", SPS_NMF)}

    ems = d.handle_notify("S12", SPS_NMF, "S16")
    # (SPS,NMU) outranks (SPS,NMF): crosses, updates the loser's pair
    assert UpdateEmission(dst=SPS_NMF, state="S21") in ems
    assert StateChangeEmission(thread.id, "S16", "S21") in ems
    # S21 is a local dead end: the crossing thread retires there
    assert d.threads == []


def test_join_notify_then_lose():
    d = make(SPS_NMF)
    d.handle_update("S11")
    d.handle_request(0, "notifyFriend")
    assert d.suspended_threads()
    ems = d.handle_notify("S15", SPS_NMU, "S16")
    assert ems == []
    assert d.threads == []


def test_notify_arriving_early_is_buffered_and_drained():
    d = make(SPS_NMU)
    assert d.handle_notify("S12", SPS_NMF, "S16") == []
    assert d.notify_buffer == [("S12", SPS_NMF, "S16")]
    d.handle_update("S14")
    status, ems = d.handle_request(0, "notifyUser")
    assert status == FORWARDED
    # the buffered notification satisfies the wait: the join resolves
    # within the same request, no suspension
    assert d.notify_buffer == []
    assert d.suspended_threads() == []
    assert UpdateEmission(dst=SPS_NMF, state="S21") in ems


def test_unrelated_notify_stays_buffered():
    d = make(SPS_NMU)
    d.handle_update("S14")
    d.handle_request(0, "notifyUser")
    assert d.handle_notify("S99", SPS_NMF, "S16") == []
    assert d.suspended_threads()
    assert d.notify_buffer == [("S99", SPS_NMF, "S16")]


def test_no_enabled_tuple_raises():
    pair = Pair("A", "B")
    cm = CoordModel(pair, {
        CoordTuple("S", "go", "T", frozenset(), TRUE, frozenset(), frozenset()),
        CoordTuple("T", None, "U", frozenset(), Var("x"), frozenset(), frozenset()),
    })
    d = Delegate(pair, cm, {"x": False})
    d.handle_update("S")
    with pytest.raises(NoEnabledTupleError):
        d.handle_request(0, "go")


def test_divergent_walk_raises():
    pair = Pair("A", "B")
    cm = CoordModel(pair, {
        CoordTuple("S", "go", "T", frozenset(), TRUE, frozenset(), frozenset()),
        CoordTuple("T", None, "U", frozenset(), TRUE, frozenset(), frozenset()),
        CoordTuple("U", None, "T", frozenset(), TRUE, frozenset(), frozenset()),
    })
    d = Delegate(pair, cm, {})
    d.handle_update("S")
    with pytest.raises(DivergentWalkError):
        d.handle_request(0, "go")


def test_thread_retires_at_final_state():
    cms = generate_all(loop_model())
    d = Delegate(Pair("A", "C"), cms[Pair("A", "C")], {"p": False})
    d.handle_update("X1")
    status, _ = d.handle_request(0, "finish")
    assert status == FORWARDED
    assert d.threads == []


def test_forward_without_check_at_request_time():
    d = make(SPS_NMU, cls=forward_without_check())
    assert d.handle_update("S14") == [StateChangeEmission(0, None, "S14")]
    # the only thread sits at S14, where startItin has no tuple
    status, ems = d.handle_request(0, "startItin")
    assert status == FORWARDED
    assert ems == [ForwardEmission(task="startItin", src="S14", trg=None)]
    assert d.pending == []


def test_forward_without_check_on_retry():
    d = make(SPS_NMU, cls=forward_without_check())
    assert d.handle_request(0, "startItin") == (BLOCKED, [])
    assert d.handle_request(1, "notifyUser") == (BLOCKED, [])
    ems = d.handle_update("S14")
    assert kinds(ems) == [
        "StateChangeEmission",
        "UnblockEmission",
        "ForwardEmission",
        "UnblockEmission",
        "ForwardEmission",
        "StateChangeEmission",
        "NotifyEmission",
    ]
    assert ems[:5] == [
        StateChangeEmission(0, None, "S14"),
        UnblockEmission(request_id=0, task="startItin"),
        ForwardEmission(task="startItin", src="S14", trg=None),
        UnblockEmission(request_id=1, task="notifyUser"),
        ForwardEmission(task="notifyUser", src="S14", trg="S15"),
    ]
    assert d.pending == []
