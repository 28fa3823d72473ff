import random
import time

import pytest

from chorenforce import interpreter
from chorenforce.interpreter import MAX_OPS, NoTrueGuardError, StuckTokenError, reference_traces
from chorenforce.model import EPS, Choreography, Flow, Guard, Operation, StateKind
from chorenforce.predicate import Var
from chorenforce.randgen import random_case
from chorenforce.socialprox import ENV_BOTH_TRUE, ENV_SHARE_DISABLED, social_proximity
from chorenforce.validate import validate_cefm
from helpers import fork_model, loop_model

PREFIX = (
    "IM.getUserPref.UMS",
    "IM.matchGPS.SPS",
    "SPS.getFriends.UMS",
    "SPS.getLocations.SocialProxApp",
)
TAIL = ("SPS.startItin.NMF", "SPS.startItin.NMU")
NOTIFY_FU = ("SPS.notifyFriend.NMF", "SPS.notifyUser.NMU")
NOTIFY_UF = ("SPS.notifyUser.NMU", "SPS.notifyFriend.NMF")


def test_both_true_language_is_the_two_interleavings():
    lang = reference_traces(social_proximity(), ENV_BOTH_TRUE)
    assert lang.complete == frozenset(
        {PREFIX + NOTIFY_FU + TAIL, PREFIX + NOTIFY_UF + TAIL}
    )
    assert not lang.truncated


def test_share_disabled_language():
    lang = reference_traces(social_proximity(), ENV_SHARE_DISABLED)
    assert lang.complete == frozenset({("IM.getUserPref.UMS",)})


def test_membership_and_prefix():
    lang = reference_traces(social_proximity(), ENV_BOTH_TRUE)
    full = PREFIX + NOTIFY_FU + TAIL
    assert lang.is_member(full)
    assert not lang.is_member(full[:-1])
    assert lang.is_prefix(full[:-1])
    assert lang.is_prefix(())
    assert not lang.is_prefix(("SPS.startItin.NMU",))


def test_empty_choreography():
    m = Choreography(
        states={"Initial": StateKind.INITIAL, "Final": StateKind.FINAL},
        initial="Initial",
        final="Final",
        roles={"A"},
        variables={},
        flows=[Flow("Initial", EPS, "Final")],
    )
    lang = reference_traces(m, {})
    assert lang.complete == frozenset({()})


def test_loop_exit_language():
    lang = reference_traces(loop_model(), {"p": False})
    assert lang.complete == frozenset({("A.init.B", "A.finish.C")})
    assert not lang.truncated


def test_loop_repeat_language_truncates():
    lang = reference_traces(loop_model(), {"p": True})
    # the guard never releases the token, so no word ever completes
    assert lang.complete == frozenset()
    assert lang.truncated == {("A.init.B",) + ("A.work.B",) * (MAX_OPS - 1)}
    assert lang.is_prefix(("A.init.B", "A.work.B", "A.work.B"))
    assert not lang.is_prefix(("A.init.B", "A.finish.C"))


def test_eight_way_fork_word_is_checked_fast():
    # 8! interleavings: listing them takes seconds, replaying one word not
    word = tuple(f"B{j}.b{j}.C{j}" for j in (3, 0, 7, 1, 6, 2, 5, 4))
    start = time.perf_counter()
    lang = reference_traces(fork_model(8), {})
    assert lang.is_member(word)
    assert time.perf_counter() - start < 0.1
    assert not lang.is_member(word[:-1]) and lang.is_prefix(word[:-1])
    assert not lang.is_prefix(word[:3] + word[2:3])


def test_replay_agrees_with_enumeration(monkeypatch):
    """Membership and prefix answers of the replay against the listed
    language, on every listed word, its prefixes, a shuffle of it and a
    one-label extension, all within the listing's length bound, which is
    cut to 12 operations to keep the listings small."""
    max_ops = 12
    monkeypatch.setattr(interpreter, "MAX_OPS", max_ops)
    cases = random.Random(17)
    pick = random.Random(18)
    checked = 0
    for _ in range(300):
        case = random_case(cases)
        lang = reference_traces(case.model, case.env)
        listed = lang.complete | lang.truncated
        labels = sorted(op.label for op in case.model.operations())
        words = set()
        for word in listed:
            words.update(word[:i] for i in range(len(word) + 1))
            words.add(tuple(pick.sample(word, len(word))))
            words.add(word + (pick.choice(labels),))
        for word in words:
            if len(word) > max_ops:
                continue
            assert lang.is_member(word) == (word in lang.complete), word
            prefix = any(ref[: len(word)] == word for ref in listed)
            assert lang.is_prefix(word) == prefix, word
            checked += 1
    assert checked > 2000


# -- models validation refuses: an operation enters a fork or an alternative ------


def _entered_by_an_operation(kind: StateKind) -> Choreography:
    """Initial --A.go.B--> X, where X is of `kind` and also the source of
    an operation back to Initial; X moves on silently to P (over a guard
    g at an alternative) and, at a fork, to R as well (over a guard h at
    an alternative). Validation refuses an operation out of a fork or an
    alternative."""
    if kind is StateKind.FORK:
        to_p, to_r = EPS, EPS
    else:
        to_p, to_r = Guard(Var("g")), Guard(Var("h"))
    return Choreography(
        states={"Initial": StateKind.INITIAL, "X": kind, "P": StateKind.PLAIN,
                "R": StateKind.PLAIN, "Final": StateKind.FINAL},
        initial="Initial",
        final="Final",
        roles={"A", "B", "C"},
        variables={"g": (False, True), "h": (False, True)},
        flows=[
            Flow("Initial", Operation("A", "go", "B"), "X"),
            Flow("X", to_p, "P"),
            Flow("X", to_r, "R"),
            Flow("X", Operation("B", "back", "A"), "Initial"),
            Flow("P", Operation("A", "p", "C"), "Final"),
            Flow("R", Operation("C", "r", "A"), "Final"),
        ],
    )


def test_an_operation_into_a_fork_splits_the_token_on_every_entry():
    model = _entered_by_an_operation(StateKind.FORK)
    assert not validate_cefm(model).ok
    lang = reference_traces(model, {})
    # the fork's silent moves reach every target, the operation's included;
    # the second entry reads them from the table the first one filled
    assert lang._reach(("A.go.B",)) == {frozenset({("Initial", 1), ("P", 1), ("R", 1)})}
    assert lang._reach(("A.go.B", "A.go.B")) == {
        frozenset({("Initial", 1), ("P", 2), ("R", 2)})
    }
    assert lang.is_prefix(("A.go.B", "A.go.B", "A.p.C", "C.r.A"))
    assert not lang.is_member(("A.go.B", "A.p.C", "C.r.A"))


def test_an_operation_into_an_alternative_takes_the_guard_on_every_entry():
    model = _entered_by_an_operation(StateKind.ALTERNATIVE)
    assert not validate_cefm(model).ok
    lang = reference_traces(model, {"g": True, "h": False})
    assert lang._reach(("A.go.B",)) == {frozenset({("P", 1)})}
    # a second word enters the alternative again, its move already known
    assert lang.is_member(("A.go.B", "A.p.C"))
    assert not lang.is_prefix(("A.go.B", "B.back.A"))
    stuck = reference_traces(model, {"g": False, "h": False})
    for _ in range(2):
        with pytest.raises(NoTrueGuardError):
            stuck.is_prefix(("A.go.B",))


def test_an_operation_into_a_dead_end_is_stuck_on_every_entry():
    model = Choreography(
        states={"Initial": StateKind.INITIAL, "D": StateKind.PLAIN,
                "Final": StateKind.FINAL},
        initial="Initial",
        final="Final",
        roles={"A", "B"},
        variables={},
        flows=[Flow("Initial", Operation("A", "go", "B"), "D")],
    )
    assert not validate_cefm(model).ok
    lang = reference_traces(model, {})
    # the second replay finds the dead end's silent moves (none) in the
    # table, and must still refuse a token that can start no operation
    for word in (("A.go.B",), ("A.go.B",), ("A.go.B", "A.go.B")):
        with pytest.raises(StuckTokenError):
            lang.is_prefix(word)
