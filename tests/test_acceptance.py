"""End-to-end gate for the whole toolkit.

Nine criteria, one test each, exercised against the social proximity
system plus a batch of randomly generated choreographies. Every test
records a pass/fail line through conftest.record_criterion, so the run
ends with a nine-line scoreboard no matter how it went.

Enforced-run batches are shared between criteria where the same runs
answer several questions (the ordering batch also feeds conformance and
the overhead bound). They are built lazily and cached at module level
to keep the gate inside its time budgets.
"""

from __future__ import annotations

import functools
import time

from chorenforce.decompose import generate_all
from chorenforce.oracle import (
    DEADLOCKING_JOIN,
    INVALID_ALTERNATIVE,
    INVALID_LOOP,
    MISSED_JOIN,
    MISSED_LOOP,
    UNDESIRED_TASK,
)
from chorenforce.randgen import sweep
from chorenforce.runner import run_scenario, write_trace
from chorenforce.simulator import COMPLETED, DEADLOCKED
from chorenforce.socialprox import NMF, NMU
from conftest import record_criterion
from golden import GOLDEN_CMS, GOLDEN_INITIAL_WAIT, GOLDEN_TUPLE_COUNT, fields
from helpers import (
    APP,
    adversarial_scenario,
    assert_overhead,
    defect_cases,
    faulty_delegate,
    sp_cms,
    sp_language,
    sp_model,
    inorder_scenario,
    run_sp,
    share_disabled_scenario,
    shuffled_scenario,
)

SEEDS = range(100)

_CACHE: dict[str, object] = {}

# (count, bound) for every social proximity run that feeds the overhead
# bound; the random-model sweep reports its own worst run.
_OVERHEADS: list[tuple[int, int]] = []


def gate(number: int):
    """Record the criterion verdict even when the test blows up."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                record_criterion(number, False, _first_line(exc))
                raise
            record_criterion(number, True, detail or "")

        return wrapper

    return deco


def _first_line(exc: BaseException) -> str:
    lines = str(exc).strip().splitlines()
    return lines[0][:160] if lines else type(exc).__name__


def _note(result):
    _OVERHEADS.append(result.overhead)
    return result


def _ordering_runs() -> list:
    """Both policies x 100 seeds on the shuffled both-true scenario."""
    if "ordering" not in _CACHE:
        _CACHE["ordering"] = [
            _note(run_sp(shuffled_scenario(), policy=policy, seed=seed))
            for policy in ("roundrobin", "random")
            for seed in SEEDS
        ]
    return _CACHE["ordering"]


def _prevention_runs():
    """Three scenario shapes x 100 seeds under the random policy, timed."""
    if "prevention" not in _CACHE:
        t0 = time.perf_counter()
        batch = {
            name: [
                _note(run_sp(build(), policy="random", seed=seed))
                for seed in SEEDS
            ]
            for name, build in (
                ("inorder", inorder_scenario),
                ("shuffled", shuffled_scenario),
                ("adversarial", adversarial_scenario),
            )
        }
        _CACHE["prevention"] = (batch, time.perf_counter() - t0)
    return _CACHE["prevention"]


def _share_runs() -> list:
    if "share" not in _CACHE:
        _CACHE["share"] = [
            _note(run_sp(share_disabled_scenario(), policy="random", seed=seed))
            for seed in range(10)
        ]
    return _CACHE["share"]


def _sweep():
    """The randgen sweep of 200 generated models, timed."""
    if "sweep" not in _CACHE:
        t0 = time.perf_counter()
        result = sweep(200, 198)
        _CACHE["sweep"] = (result, time.perf_counter() - t0)
    return _CACHE["sweep"]


# -- 1: decomposition ------------------------------------------------------

@gate(1)
def test_criterion_1_generated_coordination_models_match_golden():
    t0 = time.perf_counter()
    cms = generate_all(sp_model())
    elapsed = time.perf_counter() - t0
    assert set(cms) == set(GOLDEN_CMS)
    for pair, expected in GOLDEN_CMS.items():
        assert set(map(fields, cms[pair].tuples)) == expected, f"tuple mismatch for {pair}"
    total = sum(len(cm.tuples) for cm in cms.values())
    assert total == GOLDEN_TUPLE_COUNT
    assert elapsed < 1.0, f"decomposition took {elapsed:.3f}s"
    return f"6 coordination models, {total} tuples, {elapsed * 1000:.1f} ms"


# -- 2: bootstrap ----------------------------------------------------------

@gate(2)
def test_criterion_2_delegate_wait_states_match_golden():
    cms = sp_cms()
    for pair, expected in GOLDEN_INITIAL_WAIT.items():
        got = cms[pair].initial_wait
        assert got == expected, f"wait set mismatch for {pair}: {sorted(got)}"
    return "all six delegate wait sets match the hand-checked ones"


# -- 3: ordering -----------------------------------------------------------

CHAIN = (
    "IM.getUserPref.UMS",
    "IM.matchGPS.SPS",
    "SPS.getFriends.UMS",
    f"SPS.getLocations.{APP}",
)
NOTIFY_USER = "SPS.notifyUser.NMU"
NOTIFY_FRIEND = "SPS.notifyFriend.NMF"
START_NMF = "SPS.startItin.NMF"
START_NMU = "SPS.startItin.NMU"
ALL_LABELS = CHAIN + (NOTIFY_USER, NOTIFY_FRIEND, START_NMF, START_NMU)


def _assert_service_order(word: tuple[str, ...]) -> None:
    assert len(word) == 8 and set(word) == set(ALL_LABELS), word
    pos = {label: i for i, label in enumerate(word)}
    for earlier, later in zip(CHAIN, CHAIN[1:]):
        assert pos[earlier] < pos[later], word
    assert pos[CHAIN[-1]] < min(pos[NOTIFY_USER], pos[NOTIFY_FRIEND]), word
    assert max(pos[NOTIFY_USER], pos[NOTIFY_FRIEND]) < pos[START_NMF], word
    assert pos[START_NMF] < pos[START_NMU], word


@gate(3)
def test_criterion_3_every_enforced_run_respects_the_service_order():
    runs = _ordering_runs()
    notify_orders = set()
    for result in runs:
        assert result.outcome == COMPLETED, (result.policy, result.seed, result.outcome)
        _assert_service_order(result.projection)
        pos = {label: i for i, label in enumerate(result.projection)}
        notify_orders.add(pos[NOTIFY_USER] < pos[NOTIFY_FRIEND])
    assert notify_orders == {True, False}, "only one notification order ever showed up"
    return f"{len(runs)} runs ordered correctly, both notification orders witnessed"


# -- 4: prevention ---------------------------------------------------------

def _forward_seq(events: list[dict], task: str, receiver: str) -> int:
    seqs = [
        e["seq"]
        for e in events
        if e["kind"] == "Forward" and e["task"] == task and e["receiver"] == receiver
    ]
    assert len(seqs) == 1, (task, receiver, seqs)
    return seqs[0]


@gate(4)
def test_criterion_4_early_requests_are_held_back():
    batch, elapsed = _prevention_runs()
    total = 0
    for name, runs in batch.items():
        for result in runs:
            total += 1
            assert result.outcome == COMPLETED, (name, result.seed, result.outcome)
            assert not result.flagged, (name, result.seed, result.flagged[0].kind)
            assert result.conformant, (name, result.seed)

    blocked_seeds = 0
    for result in batch["adversarial"]:
        injected = [e for e in result.events if e["kind"] == "Request" and e["injected"]]
        assert len(injected) == 1, result.seed
        request_id = injected[0]["request_id"]
        start_nmu = _forward_seq(result.events, "startItin", NMU)
        last_notify = max(
            _forward_seq(result.events, "notifyUser", NMU),
            _forward_seq(result.events, "notifyFriend", NMF),
        )
        assert last_notify < start_nmu, (result.seed, last_notify, start_nmu)
        blocks = [
            e for e in result.events
            if e["kind"] == "Block" and e["request_id"] == request_id
        ]
        if blocks:
            blocked_seeds += 1
            unblocks = [
                e for e in result.events
                if e["kind"] == "Unblock" and e["request_id"] == request_id
            ]
            assert len(blocks) == 1 and len(unblocks) == 1, result.seed
            assert blocks[0]["seq"] < unblocks[0]["seq"] < start_nmu, result.seed
    # a scheduler may delay the injection until it is trivially legal,
    # but across 100 seeds the early case must actually occur
    assert blocked_seeds > 0, "the injected request was never early enough to block"
    assert elapsed < 30.0, f"prevention batch took {elapsed:.1f}s"
    return (
        f"{total} runs, zero non-Allowed verdicts; early startItin blocked in "
        f"{blocked_seeds}/100 adversarial seeds; {elapsed:.1f}s"
    )


# -- 5: conformance --------------------------------------------------------

@gate(5)
def test_criterion_5_completed_traces_are_reference_members():
    both = set(sp_language("both").complete)
    share = set(sp_language("share").complete)
    assert len(both) == 2, sorted(both)
    assert len(share) == 1, sorted(share)

    batch, _ = _prevention_runs()
    pool = list(_ordering_runs())
    for runs in batch.values():
        pool.extend(runs)

    checked = 0
    for result in pool:
        if result.outcome == COMPLETED:
            assert result.projection in both, result.projection
            checked += 1
    for result in _share_runs():
        assert result.outcome == COMPLETED, (result.seed, result.outcome)
        assert result.projection in share, result.projection
        checked += 1
    assert checked >= 500, checked
    return f"{checked} completed traces, all inside the reference sets; sizes 2 and 1"


# -- 6: random models ------------------------------------------------------

@gate(6)
def test_criterion_6_random_models_agree_with_the_reference():
    result, elapsed = _sweep()
    assert not result.problems, result.problems[:5]
    assert len(result.models) == 200
    assert elapsed < 300.0, f"sweep took {elapsed:.0f}s"
    return (
        f"{len(result.models)} models, {result.runs} enforced runs match the "
        f"reference sets; {elapsed:.1f}s"
    )


# -- 7: misbehaviour classes -----------------------------------------------

@gate(7)
def test_criterion_7_each_defect_class_has_a_mutant_that_elicits_it():
    observed: dict[str, str] = {}
    for kind, note, scenario, pair, cls in defect_cases():
        with faulty_delegate(pair, cls):
            result = run_scenario(scenario)
        found = [v for v in result.verdicts if v.kind == kind]
        assert found, f"{note}: no {kind} verdict"
        observed[kind] = note
        if kind == DEADLOCKING_JOIN:
            assert_overhead(result)
            assert result.outcome == DEADLOCKED, result.outcome
            assert found[0].seq == -1 and found[0].state == "S15"

    assert set(observed) == {
        UNDESIRED_TASK,
        INVALID_ALTERNATIVE,
        INVALID_LOOP,
        MISSED_LOOP,
        MISSED_JOIN,
        DEADLOCKING_JOIN,
    }
    return "six defect classes, each elicited by its dedicated faulty delegate"


# -- 8: overhead -----------------------------------------------------------

@gate(8)
def test_criterion_8_coordination_overhead_stays_under_the_bound():
    # build every batch first, so the check covers criteria 3 through 6
    # even when this test is selected on its own
    _ordering_runs()
    _prevention_runs()
    _share_runs()
    result, _ = _sweep()

    assert _OVERHEADS
    overheads = _OVERHEADS + [result.worst]
    over = [(c, b) for c, b in overheads if c > b]
    assert not over, over[:5]
    worst = max(overheads, key=lambda cb: cb[0] / cb[1])
    return (
        f"{len(_OVERHEADS) + result.runs} runs, worst {worst[0]}/{worst[1]} "
        "update+notify messages against the tasks x roles bound"
    )


# -- 9: determinism --------------------------------------------------------

@gate(9)
def test_criterion_9_reruns_write_byte_identical_traces(tmp_path):
    configs = (
        ("inorder", inorder_scenario, "roundrobin", 0),
        ("shuffled", shuffled_scenario, "random", 11),
        ("adversarial", adversarial_scenario, "random", 7),
        ("quiet", share_disabled_scenario, "roundrobin", 2),
    )
    for name, build, policy, seed in configs:
        paths = []
        for attempt in ("first", "second"):
            result = run_sp(build(), policy=policy, seed=seed)
            path = tmp_path / f"{name}_{policy}_{seed}_{attempt}.trace.jsonl"
            write_trace(result.events, path)
            paths.append(path)
        first, second = (p.read_bytes() for p in paths)
        assert first, f"{name} produced an empty trace"
        assert first == second, f"{name} differs between invocations"
    return f"{len(configs)} scenario/policy/seed combinations, byte-identical traces"
