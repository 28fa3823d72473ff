"""Structural validation against hand-built broken graphs.

Each helper constructs the smallest model that violates exactly one
rule; the test asserts the rule id shows up (and nothing passes that
should fail).
"""

import pytest

from chorenforce.model import EPS, Choreography, Flow, Guard, Operation, StateKind
from chorenforce.predicate import Not, Var
from chorenforce.socialprox import social_proximity
from chorenforce.validate import validate_cefm
from helpers import duplicate_flow_model, loop_model, silent_loop_model

A_B = Operation("A", "t", "B")


def build(states, flows, variables=None):
    return Choreography(
        states={"Initial": StateKind.INITIAL, "Final": StateKind.FINAL, **states},
        initial="Initial",
        final="Final",
        roles={"A", "B"},
        variables=variables or {},
        flows=flows,
    )


def rules_of(report):
    return {v.rule for v in report.violations}


def warnings_of(report):
    return {w.rule for w in report.warnings}


def test_reference_models_are_clean():
    for model in (social_proximity(), loop_model()):
        report = validate_cefm(model)
        assert report.ok, str(report)
        assert report.warnings == []


def test_initial_degree():
    # two outgoing flows from Initial
    m = build(
        {"P": StateKind.PLAIN, "Q": StateKind.PLAIN},
        [
            Flow("Initial", EPS, "P"),
            Flow("Initial", EPS, "Q"),
            Flow("P", A_B, "Final"),
            Flow("Q", EPS, "Final"),
        ],
    )
    assert "initial-degree" in rules_of(validate_cefm(m))


def test_initial_no_incoming():
    m = build(
        {"P": StateKind.PLAIN},
        [
            Flow("Initial", EPS, "P"),
            Flow("P", EPS, "Initial"),
        ],
    )
    assert "initial-degree" in rules_of(validate_cefm(m))


def test_final_degree():
    m = build(
        {"P": StateKind.PLAIN},
        [
            Flow("Initial", EPS, "P"),
            Flow("P", EPS, "Final"),
            Flow("Final", EPS, "P"),
        ],
    )
    assert "final-degree" in rules_of(validate_cefm(m))


def test_plain_degree():
    m = build(
        {"P": StateKind.PLAIN, "Q": StateKind.PLAIN},
        [
            Flow("Initial", EPS, "P"),
            Flow("P", EPS, "Final"),
            Flow("P", EPS, "Q"),
            Flow("Q", EPS, "Final"),
        ],
    )
    assert "plain-degree" in rules_of(validate_cefm(m))


def test_alternative_degree():
    # one successor is unguarded
    m = build(
        {"ALT": StateKind.ALTERNATIVE, "P": StateKind.PLAIN, "Q": StateKind.PLAIN},
        [
            Flow("Initial", EPS, "ALT"),
            Flow("ALT", Guard(Var("x")), "P"),
            Flow("ALT", EPS, "Q"),
            Flow("P", EPS, "Final"),
            Flow("Q", EPS, "Final"),
        ],
        variables={"x": (False, True)},
    )
    assert "alternative-degree" in rules_of(validate_cefm(m))


def test_fork_degree():
    m = build(
        {"F": StateKind.FORK, "P": StateKind.PLAIN},
        [
            Flow("Initial", EPS, "F"),
            Flow("F", EPS, "P"),
            Flow("P", EPS, "Final"),
        ],
    )
    assert "fork-degree" in rules_of(validate_cefm(m))


def test_join_degree():
    m = build(
        {"J": StateKind.JOIN, "P": StateKind.PLAIN},
        [
            Flow("Initial", EPS, "P"),
            Flow("P", EPS, "J"),
            Flow("J", EPS, "Final"),
        ],
    )
    assert "join-degree" in rules_of(validate_cefm(m))


def test_loop_degree():
    # loop state with two guarded exits and no epsilon exit
    m = build(
        {"L": StateKind.LOOP, "P": StateKind.PLAIN, "Q": StateKind.PLAIN},
        [
            Flow("Initial", EPS, "L"),
            Flow("L", Guard(Var("x")), "P"),
            Flow("L", Guard(Not(Var("x"))), "Q"),
            Flow("P", EPS, "L"),
            Flow("Q", EPS, "Final"),
        ],
        variables={"x": (False, True)},
    )
    assert "loop-degree" in rules_of(validate_cefm(m))


def test_duplicate_flow():
    # flows form a relation: F -eps-> J listed twice is one flow, so the
    # fork has one branch and the join one entry
    report = validate_cefm(duplicate_flow_model())
    assert [(v.state, v.rule) for v in report.violations] == [("F", "duplicate-flow")]


def test_guard_placement():
    m = build(
        {"P": StateKind.PLAIN, "Q": StateKind.PLAIN},
        [
            Flow("Initial", EPS, "P"),
            Flow("P", Guard(Var("x")), "Q"),
            Flow("Q", EPS, "Final"),
        ],
        variables={"x": (False, True)},
    )
    assert "guard-placement" in rules_of(validate_cefm(m))


def test_guard_variables():
    m = build(
        {"ALT": StateKind.ALTERNATIVE, "P": StateKind.PLAIN, "Q": StateKind.PLAIN},
        [
            Flow("Initial", EPS, "ALT"),
            Flow("ALT", Guard(Var("undeclared")), "P"),
            Flow("ALT", Guard(Not(Var("undeclared"))), "Q"),
            Flow("P", EPS, "Final"),
            Flow("Q", EPS, "Final"),
        ],
    )
    assert "guard-variables" in rules_of(validate_cefm(m))


def test_guards_not_exclusive_and_not_exhaustive():
    # x and x: overlap at x=True, gap at x=False
    m = build(
        {"ALT": StateKind.ALTERNATIVE, "P": StateKind.PLAIN, "Q": StateKind.PLAIN},
        [
            Flow("Initial", EPS, "ALT"),
            Flow("ALT", Guard(Var("x")), "P"),
            Flow("ALT", Guard(Var("x")), "Q"),
            Flow("P", EPS, "Final"),
            Flow("Q", EPS, "Final"),
        ],
        variables={"x": (False, True)},
    )
    rules = rules_of(validate_cefm(m))
    assert "guards-not-exclusive" in rules
    assert "guards-not-exhaustive" in rules


def test_loop_back():
    # the "body" never returns to the loop state
    m = build(
        {
            "P0": StateKind.PLAIN,
            "L": StateKind.LOOP,
            "B": StateKind.PLAIN,
            "X": StateKind.PLAIN,
        },
        [
            Flow("Initial", EPS, "P0"),
            Flow("P0", EPS, "L"),
            Flow("X", EPS, "L"),
            Flow("L", Guard(Var("x")), "B"),
            Flow("L", EPS, "X"),
            Flow("B", EPS, "Final"),
        ],
        variables={"x": (False, True)},
    )
    assert "loop-back" in rules_of(validate_cefm(m))


def test_loop_without_operation():
    # LP --p--> E1 --eps--> LP: the body comes back with no operation
    report = validate_cefm(silent_loop_model())
    assert rules_of(report) == {"loop-without-operation"}
    assert str(report).startswith("LP: loop-without-operation: ")


def test_loop_whose_body_is_a_loop_that_may_not_run():
    # the outer body is an inner loop around A.t.B; when y is false the
    # inner loop exits at once and the outer one comes back silently
    m = build(
        {
            "P0": StateKind.PLAIN,
            "L": StateKind.LOOP,
            "M": StateKind.PLAIN,
            "L2": StateKind.LOOP,
            "B1": StateKind.PLAIN,
            "B2": StateKind.PLAIN,
            "X2": StateKind.PLAIN,
            "X": StateKind.PLAIN,
        },
        [
            Flow("Initial", EPS, "P0"),
            Flow("P0", EPS, "L"),
            Flow("L", Guard(Var("x")), "M"),
            Flow("M", EPS, "L2"),
            Flow("L2", Guard(Var("y")), "B1"),
            Flow("B1", A_B, "B2"),
            Flow("B2", EPS, "L2"),
            Flow("L2", EPS, "X2"),
            Flow("X2", EPS, "L"),
            Flow("L", EPS, "X"),
            Flow("X", EPS, "Final"),
        ],
        variables={"x": (False, True), "y": (False, True)},
    )
    report = validate_cefm(m)
    assert rules_of(report) == {"loop-without-operation"}
    assert [v.state for v in report.violations] == ["L"]


def test_unreachable_warning():
    m = build(
        {"P": StateKind.PLAIN, "Orphan": StateKind.PLAIN},
        [
            Flow("Initial", EPS, "P"),
            Flow("P", EPS, "Final"),
            Flow("Orphan", EPS, "Final"),
        ],
    )
    report = validate_cefm(m)
    assert "unreachable" in warnings_of(report)


def test_dead_end_warning():
    m = build(
        {"ALT": StateKind.ALTERNATIVE, "P": StateKind.PLAIN, "Q": StateKind.PLAIN},
        [
            Flow("Initial", EPS, "ALT"),
            Flow("ALT", Guard(Var("x")), "P"),
            Flow("ALT", Guard(Not(Var("x"))), "Q"),
            Flow("P", EPS, "Final"),
        ],
        variables={"x": (False, True)},
    )
    report = validate_cefm(m)
    assert "dead-end" in warnings_of(report)


def test_report_string_lists_everything():
    m = build(
        {"P": StateKind.PLAIN},
        [
            Flow("Initial", EPS, "P"),
            Flow("P", EPS, "Final"),
            Flow("Final", EPS, "P"),
        ],
    )
    text = str(validate_cefm(m))
    assert "final-degree" in text
