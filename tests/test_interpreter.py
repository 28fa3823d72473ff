import random
import time

from chorenforce.interpreter import reference_traces
from chorenforce.model import EPS, Choreography, Flow, StateKind
from chorenforce.randgen import random_case
from chorenforce.socialprox import ENV_BOTH_TRUE, ENV_SHARE_DISABLED, social_proximity
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
    lang = reference_traces(loop_model(), {"p": True}, max_ops=6)
    # the guard never releases the token, so no word ever completes
    assert lang.complete == frozenset()
    assert lang.truncated
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


def test_replay_agrees_with_enumeration():
    """Membership and prefix answers of the replay against the listed
    language, on every listed word, its prefixes, a shuffle of it and a
    one-label extension, all within the listing's length bound."""
    max_ops = 12
    cases = random.Random(17)
    pick = random.Random(18)
    checked = 0
    for _ in range(300):
        case = random_case(cases)
        lang = reference_traces(case.model, case.env, max_ops=max_ops)
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
