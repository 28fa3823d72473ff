"""Misbehaviour classification, conformance and overhead checks.

Each faulty delegate gets the smallest scenario that makes its defect
observable; the expected class is asserted on the exact forward (or, for
the silent-deadlock case, on the post-run findings).
"""

import random

import pytest

from chorenforce import decompose, oracle, validate
from chorenforce.decompose import InvalidModelError, Pair, generate_all
from chorenforce.interpreter import reference_traces
from chorenforce.model import Operation
from chorenforce.oracle import (
    ALLOWED,
    DEADLOCKING_JOIN,
    INVALID_ALTERNATIVE,
    INVALID_LOOP,
    MISSED_JOIN,
    MISSED_LOOP,
    UNDESIRED_TASK,
    RuntimeChecker,
    TraceFormatError,
    Verdict,
    check_conformance,
    coordination_overhead,
    projection,
    verdict_histogram,
)
from chorenforce.participants import Action, Scenario, ScriptSpec
from chorenforce.randgen import random_case, scripts_for_word
from chorenforce.runner import run_scenario
from chorenforce.simulator import COMPLETED, DEADLOCKED
from chorenforce.socialprox import (
    ENV_BOTH_TRUE,
    ENV_SHARE_DISABLED,
    IM,
    NMF,
    NMU,
    SPS,
    UMS,
)
from chorenforce.validate import validate_cefm
from mutants import (
    forward_without_check,
    ignore_loop_guard,
    skip_guard_check,
    skip_notify,
    skip_wait,
    wrong_priority,
)
from helpers import (
    APP,
    defect_cases,
    faulty_delegate,
    fixture_scenario,
    fork_model,
    guarded_start_model,
    initial_operation_model,
    sp_language,
    sp_model,
    im_script,
    inorder_scenario,
    loop_branch_fork_model,
    loop_model,
    loop_scenario,
    nested_fork_model,
    run_sp,
    silent_loop_model,
    silent_state_defect_cases,
    three_way_fork_model,
    twin_fork_model,
    LOOP_EXIT_ACTIONS,
)

SPS_NMU = Pair(SPS, NMU)
SPS_NMF = Pair(SPS, NMF)
IM_UMS = Pair(IM, UMS)


def kinds_of(result):
    return [v.kind for v in result.verdicts]


def test_honest_run_all_allowed():
    result = run_sp(inorder_scenario())
    assert result.outcome == COMPLETED
    assert set(kinds_of(result)) == {ALLOWED}
    assert result.conformant
    assert verdict_histogram(result.verdicts) == {ALLOWED: 8}


def test_checker_recomputes_from_model_alone():
    result = run_sp(inorder_scenario())
    checker = RuntimeChecker(sp_model(), dict(ENV_BOTH_TRUE))
    assert checker.run(result.events) == result.verdicts


def test_verdicts_are_verdict_records_with_tuple_pairs():
    result = run_sp(inorder_scenario())
    verdicts = RuntimeChecker(sp_model(), dict(ENV_BOTH_TRUE)).run(result.events)
    assert all(type(v) is Verdict and type(v.cd) is tuple for v in verdicts)
    assert verdicts[0] == Verdict(verdicts[0].seq, ALLOWED, ("IM", "UMS"), "getUserPref",
                                  "S5")


class _Role(str):
    """A role name that is no exact string."""


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("cd", ("IM", "UMS"), "Forward cd is not a list of two roles: ('IM', 'UMS')"),
        ("cd", ["IM", "UMS", "SPS"],
         "Forward cd is not a list of two roles: ['IM', 'UMS', 'SPS']"),
        ("cd", ["IM", _Role("UMS")], "Forward cd is not a list of two roles: ['IM', 'UMS']"),
        ("cd", 5, "'int' object is not iterable"),
        ("from", ("SPS", "NMF"), "Notify from is not a list of two roles: ('SPS', 'NMF')"),
        ("to", [_Role("SPS"), "NMU"], "Notify to is not a list of two roles: ['SPS', 'NMU']"),
        ("to", None, "'NoneType' object is not iterable"),
    ],
    ids=["tuple", "three-roles", "str-subclass", "int", "notify-tuple",
         "notify-str-subclass", "notify-null"],
)
def test_a_role_pair_that_is_no_list_of_two_strings_is_named(field, value, message):
    if field == "cd":
        event = {"kind": "Forward", "seq": 1, "task": "getUserPref", "src": "S5"}
    else:
        event = {"kind": "Notify", "seq": 1, "pred": "S12", "join": "S16",
                 "from": ["SPS", "NMF"], "to": ["SPS", "NMU"]}
    event[field] = value
    checker = RuntimeChecker(sp_model(), dict(ENV_BOTH_TRUE))
    with pytest.raises(TraceFormatError) as info:
        checker.run([{"kind": "Request", "seq": 0}, event])
    assert str(info.value) == f"trace event 1: {message}"


def _recheck_traces():
    """(model, env, trace, the run's verdicts or None) for honest and
    faulty runs, joins among them, and for one forward of each operation
    flow at its source."""
    for _, _, scenario, pair, cls in defect_cases():
        with faulty_delegate(pair, cls):
            result = run_scenario(scenario)
        yield scenario.model, scenario.environment, result.events, result.verdicts
    for name in ("inorder", "shuffled", "adversarial", "share_disabled"):
        scenario = fixture_scenario(name)
        result = run_scenario(scenario, policy="random", seed=1)
        yield scenario.model, scenario.environment, result.events, result.verdicts
    for model, env in (
        (guarded_start_model(), {"v": True}),
        (guarded_start_model(), {"v": False}),
        (loop_model(), {"p": False}),
        (fork_model(6), {}),
        (twin_fork_model(), {}),
        (nested_fork_model(), {}),
    ):
        word = next(iter(reference_traces(model, env).complete))
        scenario = Scenario(model, env, scripts_for_word(model, word))
        result = run_scenario(scenario)
        yield model, env, result.events, result.verdicts
        for flow in model.flows:
            if isinstance(flow.label, Operation):
                op = flow.label
                forward = {
                    "kind": "Forward", "seq": 0, "cd": [op.initiator, op.receiver],
                    "task": op.task, "src": flow.src, "trg": flow.trg,
                    "receiver": op.receiver,
                }
                yield model, env, [forward], None
                yield model, env, [{**forward, "task": "nothing"}], None


def test_a_recheck_validates_and_does_not_decompose(monkeypatch):
    traces = list(_recheck_traces())

    def refuse(model):
        raise AssertionError("a recheck decomposed its model")

    monkeypatch.setattr(oracle, "generate_all", refuse)
    monkeypatch.setattr(decompose, "generate_all", refuse)
    kinds = set()
    for model, env, events, run_verdicts in traces:
        verdicts = RuntimeChecker(model, env).run(events)
        if run_verdicts is not None:
            # a stalled run adds its post-run findings after the trace's
            assert verdicts == run_verdicts[:len(verdicts)]
        kinds |= {v.kind for v in verdicts}
    assert kinds == {
        ALLOWED, UNDESIRED_TASK, INVALID_ALTERNATIVE, INVALID_LOOP, MISSED_LOOP, MISSED_JOIN,
    }
    # a model that breaks a rule is refused with the decomposition's text
    monkeypatch.undo()
    broken = silent_loop_model()
    with pytest.raises(InvalidModelError) as decomposed:
        generate_all(broken)
    with pytest.raises(InvalidModelError) as validated:
        RuntimeChecker(broken, {"p": True})
    assert str(validated.value) == str(decomposed.value)
    assert "loop-without-operation" in str(validated.value)


def test_a_recheck_validates_its_model_once(monkeypatch):
    calls = []

    def counted(model):
        calls.append(model)
        return validate_cefm(model)

    monkeypatch.setattr(decompose, "validate_cefm", counted)
    for model in (sp_model(), loop_model(), guarded_start_model()):
        RuntimeChecker(model, {})
        assert calls == [model]
        calls.clear()


def test_a_run_validates_its_model_once(monkeypatch):
    calls = []
    check = validate._check_degrees

    def counted(model, report):
        calls.append(model)
        check(model, report)

    monkeypatch.setattr(validate, "_check_degrees", counted)
    scenario = fixture_scenario("inorder")
    assert run_scenario(scenario).ok()
    assert calls == [scenario.model]


# Pairs that lose a join move past it on the update of the pair that
# crosses, possibly before every other waiter's notification to them has
# arrived; the checker must not flag them.
REPROS = {
    "three_way_fork": (three_way_fork_model(), {}, range(1, 21)),
    "loop_branch_fork": (
        loop_branch_fork_model("X.lead.Y", "A.a.B", "C.w.B", "C.after.B"),
        {"g": False}, range(1, 4),
    ),
    "nested_fork_after": (nested_fork_model(after="B.after.D"), {}, range(1, 4)),
}


@pytest.mark.parametrize("name", sorted(REPROS))
def test_a_pair_moved_past_a_join_it_lost_is_not_flagged(name):
    model, env, seeds = REPROS[name]
    words = sorted(reference_traces(model, env).complete)
    assert words
    for word in words:
        scenario = Scenario(model, dict(env), scripts_for_word(model, word))
        for policy, seed in [("roundrobin", 0)] + [("random", s) for s in seeds]:
            result = run_scenario(scenario, policy=policy, seed=seed)
            assert result.outcome == COMPLETED, (word, policy, seed)
            assert result.conformant, (word, policy, seed)
            assert result.flagged == [], (word, policy, seed)


@pytest.mark.parametrize("policy, seed", [("roundrobin", 0), ("random", 3)])
def test_a_forward_from_the_initial_state_is_allowed(policy, seed):
    scenario = Scenario(initial_operation_model(), {},
                        (ScriptSpec("A", (Action("t", "B"), Action("u", "B"))),))
    result = run_scenario(scenario, policy=policy, seed=seed)
    assert result.outcome == COMPLETED and result.conformant and result.flagged == []
    assert [(v.kind, v.task, v.state) for v in result.verdicts] == [
        (ALLOWED, "t", "Initial"), (ALLOWED, "u", "S1"),
    ]


def test_forward_without_check_is_undesired_task():
    scenario = Scenario(
        model=sp_model(),
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
    with faulty_delegate(SPS_NMU, forward_without_check()):
        result = run_scenario(scenario)
    bad = [v for v in result.verdicts if v.kind == UNDESIRED_TASK]
    assert len(bad) == 1
    assert bad[0].task == "startItin" and bad[0].state == "S14"
    assert result.outcome == DEADLOCKED
    assert not result.conformant


def test_skip_guard_check_is_invalid_alternative():
    scenario = Scenario(
        model=sp_model(),
        environment=dict(ENV_SHARE_DISABLED),
        scripts=(im_script(),),
    )
    with faulty_delegate(IM_UMS, skip_guard_check(sp_model().states)):
        result = run_scenario(scenario)
    bad = [v for v in result.verdicts if v.kind == INVALID_ALTERNATIVE]
    assert len(bad) == 1
    assert bad[0].task == "matchGPS" and bad[0].state == "S9"
    assert not result.conformant


def test_ignore_loop_guard_is_invalid_loop():
    scenario = loop_scenario(
        {"p": False}, (Action("init", "B"), Action("work", "B"))
    )
    with faulty_delegate(Pair("A", "B"), ignore_loop_guard(loop_model().states)):
        result = run_scenario(scenario)
    bad = [v for v in result.verdicts if v.kind == INVALID_LOOP]
    assert len(bad) == 1
    assert bad[0].task == "work" and bad[0].state == "E1"


def test_ignore_loop_guard_is_missed_loop_when_it_should_repeat():
    scenario = loop_scenario({"p": True}, LOOP_EXIT_ACTIONS)
    with faulty_delegate(Pair("A", "B"), ignore_loop_guard(loop_model().states)):
        result = run_scenario(scenario)
    bad = [v for v in result.verdicts if v.kind == MISSED_LOOP]
    assert len(bad) == 1
    assert bad[0].task == "finish" and bad[0].state == "X1"
    # the run even completes: only the verdict reveals the defect
    assert result.outcome == COMPLETED
    assert not result.conformant


def test_skip_wait_is_missed_join():
    scenario = Scenario(
        model=sp_model(),
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
    with faulty_delegate(SPS_NMF, skip_wait()):
        result = run_scenario(scenario)
    bad = [v for v in result.verdicts if v.kind == MISSED_JOIN]
    assert len(bad) == 1
    assert bad[0].task == "startItin" and bad[0].state == "S21"
    assert result.outcome == DEADLOCKED


@pytest.mark.parametrize("kind, state, scenario, pair, cls",
                         [pytest.param(*case, id=case[0]) for case in silent_state_defect_cases()])
def test_a_silent_state_before_the_flagged_state_hides_no_defect(kind, state, scenario,
                                                                  pair, cls):
    # the checker walks back over SX's epsilon flow to the flow that decides
    assert validate_cefm(scenario.model).ok
    with faulty_delegate(pair, cls):
        result = run_scenario(scenario)
    assert [(v.kind, v.state) for v in result.flagged] == [(kind, state)]
    assert not result.conformant
    if kind in (INVALID_ALTERNATIVE, INVALID_LOOP):
        assert result.flagged[0].detail.endswith("guard false at SX")


def test_skip_notify_deadlocks_the_join():
    with faulty_delegate(SPS_NMF, skip_notify()):
        result = run_sp(inorder_scenario())
    assert result.outcome == DEADLOCKED
    findings = [v for v in result.verdicts if v.kind == DEADLOCKING_JOIN]
    assert len(findings) == 1
    assert findings[0].cd == (SPS, NMU)
    assert findings[0].state == "S15"
    assert findings[0].seq == -1
    # every forwarded operation was individually fine
    forwards = [v for v in result.verdicts if v.seq >= 0]
    assert set(v.kind for v in forwards) == {ALLOWED}
    assert result.conformant  # a prefix: the run was cut short, not corrupted


def test_wrong_priority_stalls_without_a_finding():
    with faulty_delegate(SPS_NMU, wrong_priority()):
        result = run_sp(inorder_scenario())
    assert result.outcome == DEADLOCKED
    # both sides retire their join threads, so nothing is left suspended:
    # the defect shows up as the outcome, not as a classified forward
    assert not result.flagged
    assert result.conformant


def test_projection_matches_forward_events():
    result = run_sp(inorder_scenario())
    assert projection(result.events) == result.projection
    assert result.projection[0] == "IM.getUserPref.UMS"


@pytest.mark.parametrize("cd, error, text", [
    (["A", "B", "C"], ValueError, "too many values to unpack (expected 2)"),
    (["A"], ValueError, "not enough values to unpack (expected 2, got 1)"),
    (5, TypeError, "cannot unpack non-iterable int object"),
    (None, TypeError, "cannot unpack non-iterable NoneType object"),
])
def test_projection_of_a_forward_whose_cd_is_no_pair_raises_as_unpacking_does(cd, error, text):
    events = [{"kind": "Forward", "cd": ["A", "B"], "task": "t", "seq": 0},
              {"kind": "Forward", "cd": cd, "task": "u", "seq": 1}]
    with pytest.raises(error) as info:
        projection(events)
    assert type(info.value) is error
    assert str(info.value) == text


def test_conformance_prefix_vs_member():
    result = run_sp(inorder_scenario())
    lang = sp_language("both")
    assert check_conformance(result.events, lang, completed=True)
    # the same trace as an interrupted run is still a prefix
    assert check_conformance(result.events, lang, completed=False)
    # chopping the trace breaks membership but not prefixhood
    without_last = [
        e for e in result.events
        if not (e["kind"] == "Forward" and e["task"] == "startItin"
                and e["cd"] == [SPS, NMU])
    ]
    assert not check_conformance(without_last, lang, completed=True)
    assert check_conformance(without_last, lang, completed=False)


def test_overhead_within_bound():
    result = run_sp(inorder_scenario())
    count, bound = coordination_overhead(result.events, sp_model())
    assert (count, bound) == result.overhead
    assert count == 10
    assert bound == 48  # 8 operation labels, 6 roles
    assert count <= bound


def test_the_bound_counts_as_many_operations_as_label_texts():
    # ambiguous-label refuses two operations with one text, so the bound
    # may count operations; here on the fixtures and criterion 6's sweep
    models = [fixture_scenario(name).model
              for name in ("inorder", "shuffled", "adversarial", "share_disabled")]
    rng = random.Random(198)
    models += [random_case(rng).model for _ in range(200)]
    for model in models:
        operations = {f.label for f in model.flows if isinstance(f.label, Operation)}
        assert len(operations) == len({op.label for op in operations})
