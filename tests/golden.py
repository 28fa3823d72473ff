"""Hand-checked decomposition of the social proximity choreography.

The tuples below were worked out on paper from the flow graph in
socialprox.py, pair by pair, and are deliberately independent of the
generator: the suite compares generate_all() output, each tuple read
as its seven fields by `fields`, against this transcription with plain
equality. Do not regenerate this file from package output; that would
turn the check into a tautology.
"""

from __future__ import annotations

from chorenforce.decompose import CoordTuple, Pair
from chorenforce.predicate import TRUE, Not, Pred, Var

SHARE = Var("shareEnabled")
FRIEND = Var("friendFound")


def t(
    src: str,
    op: str | None,
    trg: str,
    allowed=(),
    cond: Pred = TRUE,
    notified=(),
    waited=(),
) -> tuple:
    return (src, op, trg, frozenset(allowed), cond, frozenset(notified), frozenset(waited))


def fields(tup: CoordTuple) -> tuple:
    """A coordination tuple's seven fields in order, as `t` writes them."""
    return tuple(getattr(tup, name) for name in CoordTuple.__slots__)


GOLDEN_CMS: dict[Pair, frozenset[tuple]] = {
    # IM asks UMS for the user's preferences, then the shareEnabled
    # alternative either ends the choreography or hands over to (IM,SPS).
    Pair("IM", "UMS"): frozenset({
        t("S5", "getUserPref", "S6"),
        t("S6", None, "S7"),
        t("S7", None, "S20", cond=Not(SHARE)),
        t("S7", None, "S9", allowed=[Pair("IM", "SPS")], cond=SHARE),
        t("S20", None, "Final"),
    }),
    # A single operation: matchGPS immediately enables (SPS,UMS).
    Pair("IM", "SPS"): frozenset({
        t("S9", "matchGPS", "S10", allowed=[Pair("SPS", "UMS")]),
    }),
    # getFriends, then the friendFound alternative mirrors the first one.
    Pair("SPS", "UMS"): frozenset({
        t("S10", "getFriends", "S2"),
        t("S2", None, "S8"),
        t("S8", None, "S19", cond=Not(FRIEND)),
        t("S8", None, "S3", allowed=[Pair("SPS", "SocialProxApp")], cond=FRIEND),
        t("S19", None, "Final"),
    }),
    # getLocations runs into the fork: both branch pairs get updates.
    Pair("SPS", "SocialProxApp"): frozenset({
        t("S3", "getLocations", "S4"),
        t("S4", None, "S13"),
        t("S13", None, "S11", allowed=[Pair("SPS", "NMF")]),
        t("S13", None, "S14", allowed=[Pair("SPS", "NMU")]),
    }),
    # notifyUser's branch: stepping onto the join S16 notifies the sibling
    # branch owner and waits for the matching notification from S12.
    # S22/S23 belong to this pair again because startItin targets NMU there.
    Pair("SPS", "NMU"): frozenset({
        t("S14", "notifyUser", "S15"),
        t(
            "S15", None, "S16",
            notified=[("S15", Pair("SPS", "NMF"))],
            waited=[("S12", Pair("SPS", "NMF"))],
        ),
        t("S16", None, "S21", allowed=[Pair("SPS", "NMF")]),
        t("S22", "startItin", "S23"),
        t("S23", None, "Final"),
    }),
    # notifyFriend's branch, symmetric joint bookkeeping, then the first
    # startItin whose completion enables the second one over at (SPS,NMU).
    Pair("SPS", "NMF"): frozenset({
        t("S11", "notifyFriend", "S12"),
        t(
            "S12", None, "S16",
            notified=[("S12", Pair("SPS", "NMU"))],
            waited=[("S15", Pair("SPS", "NMU"))],
        ),
        t("S16", None, "S21"),
        t("S21", "startItin", "S22", allowed=[Pair("SPS", "NMU")]),
    }),
}

# States in which each delegate idles until an update (or its own
# request) arrives. S22 and S21 appear because the join at S16 cuts the
# walk: a delegate cannot reach its second operation source on its own.
GOLDEN_INITIAL_WAIT: dict[Pair, frozenset[str]] = {
    Pair("IM", "UMS"): frozenset({"S5"}),
    Pair("IM", "SPS"): frozenset({"S9"}),
    Pair("SPS", "UMS"): frozenset({"S10"}),
    Pair("SPS", "SocialProxApp"): frozenset({"S3"}),
    Pair("SPS", "NMU"): frozenset({"S14", "S22"}),
    Pair("SPS", "NMF"): frozenset({"S11", "S21"}),
}

GOLDEN_TUPLE_COUNT = 24
