"""Structural validation against hand-built broken graphs.

Each helper constructs the smallest model that violates exactly one
rule; the test asserts the rule id shows up (and nothing passes that
should fail).
"""

import gc
import json
import re
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chorenforce import validate
from chorenforce.decompose import InvalidModelError, Pair, generate_all
from chorenforce.model import (
    EPS,
    Choreography,
    Flow,
    Guard,
    Operation,
    StateKind,
    model_from_json,
)
from chorenforce.participants import load_scenario
from chorenforce.predicate import (
    TRUE,
    And,
    Eq,
    Not,
    Or,
    Var,
    assignments,
    eval_pred,
    free_vars,
    to_text,
)
from chorenforce.socialprox import social_proximity
from chorenforce.validate import Violation, validate_cefm
from helpers import (
    alternative_model,
    chain_model,
    chain_scenario,
    duplicate_flow_model,
    empty_branch_fork_model,
    exclusive_join_model,
    fork_model,
    fork_sequence_model,
    int_alternative_model,
    int_loop_model,
    loop_branch_fork_model,
    loop_fork_blocks_model,
    loop_fork_model,
    loop_model,
    loop_sequence_model,
    nested_fork_model,
    shape_model,
    silent_loop_model,
    sp_model,
    twin_fork_model,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

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
    # a loop with no flow in, beside the run
    m = shape_model(loops=["L"], variables={"x": (False, True)}, flows=[
        ("Initial", "A.t.B", "Final"),
        ("L", "[x]", "P"), ("P", "A.u.B", "Q"), ("L", "", "Q"), ("Q", "", "Final"),
    ])
    assert [str(v) for v in validate_cefm(m).violations] == [
        "L: loop-degree: expected exactly two epsilon predecessors",
        "Q: plain-degree: 2 incoming flows, expected 1",
        "L: loop-back: no predecessor of L is reachable from entry P",
    ]


def test_duplicate_flow():
    # flows form a relation: F -eps-> J listed twice is one flow, so the
    # fork has one branch and the join one entry
    report = validate_cefm(duplicate_flow_model())
    assert [(v.state, v.rule) for v in report.violations] == [("F", "duplicate-flow")]


def test_undeclared_role():
    # one violation per operation and role it names but the model does not
    # declare; a role named twice by one operation is reported once
    m = build(
        {k: StateKind.PLAIN for k in "PQRST"},
        [
            Flow("Initial", EPS, "P"),
            Flow("P", Operation("A", "t", "C"), "Q"),
            Flow("Q", Operation("D", "u", "E"), "R"),
            Flow("R", Operation("C", "v", "A"), "S"),
            Flow("S", Operation("D", "w", "D"), "T"),
            Flow("T", EPS, "Final"),
        ],
    )
    assert [str(v) for v in validate_cefm(m).violations] == [
        "P: undeclared-role: A.t.C names undeclared role 'C'",
        "Q: undeclared-role: D.u.E names undeclared role 'D'",
        "Q: undeclared-role: D.u.E names undeclared role 'E'",
        "R: undeclared-role: C.v.A names undeclared role 'C'",
        "S: undeclared-role: D.w.D names undeclared role 'D'",
    ]


def test_ambiguous_label():
    # both operations read a.b.c.d: the later flow's source is reported
    m = chain_model([Operation("a.b", "c", "d"), Operation("a", "b.c", "d")])
    assert [str(v) for v in validate_cefm(m).violations] == [
        "S1: ambiguous-label: operation ('a', 'b.c', 'd') reads a.b.c.d as ('a.b', 'c', 'd') does",
    ]
    # one operation twice, and dotted operations that read apart, are fine
    m = chain_model([Operation("a.b", "c", "d"), Operation("a.b", "c", "d"),
                     Operation("a", "b.c", "e")])
    assert validate_cefm(m).ok


def test_roles_given_as_a_string_declare_its_letters():
    # "IMX" declares I, M and X, so every role of the model is undeclared
    data = json.loads((FIXTURES / "social_proximity.json").read_text())
    data["roles"] = "IMX"
    report = validate_cefm(model_from_json(data))
    assert rules_of(report) == {"undeclared-role"}
    named = {v.detail.rsplit(" ", 1)[1] for v in report.violations}
    assert named == {repr(role) for role in social_proximity().roles}


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


def test_guard_type_alternative():
    # x / not x over [1, 2]: evaluating a guard would raise, so the guard
    # table skips the alternative and reports each guard instead
    report = validate_cefm(int_alternative_model())
    assert [str(v) for v in report.violations] == [
        "C: guard-type: x is tested as a boolean in x but declared over [1, 2]",
        "C: guard-type: x is tested as a boolean in not x but declared over [1, 2]",
    ]


def test_guard_type_loop():
    report = validate_cefm(int_loop_model())
    assert [str(v) for v in report.violations] == [
        "LP: guard-type: p is tested as a boolean in p but declared over [1, 2]",
    ]


def test_a_variable_compared_with_a_value_may_hold_ints():
    report = validate_cefm(alternative_model([Eq("n", 1), Not(Eq("n", 1))], {"n": (1, 2)}))
    assert report.violations == []


def _alternative_violations(guards, variables):
    report = validate_cefm(alternative_model(guards, variables))
    return [str(v) for v in report.violations]


def test_overlapping_guards_name_their_first_common_assignment():
    domains = {"x": (False, True), "y": (False, True)}
    assert _alternative_violations([Var("x"), Var("y")], domains) == [
        "C: guards-not-exclusive: x and y both hold at {'x': True, 'y': True}",
        "C: guards-not-exhaustive: no guard holds at {'x': False, 'y': False}",
    ]


def test_a_guard_and_its_negation_are_exclusive_and_exhaustive():
    domains = {"x": (False, True), "y": (False, True)}
    assert _alternative_violations([Var("x"), Not(Var("x"))], domains) == []


def test_a_gap_is_the_first_assignment_no_guard_covers():
    # x alone and x-and-y together leave x=False uncovered
    domains = {"x": (False, True), "y": (False, True)}
    assert _alternative_violations([Var("x"), And(Var("x"), Var("y"))], domains) == [
        "C: guards-not-exclusive: x and x and y both hold at {'x': True, 'y': True}",
        "C: guards-not-exhaustive: no guard holds at {'x': False, 'y': False}",
    ]


def _pairwise_guard_violations(model, state):
    """The guard rules as checked one guard pair at a time, then once
    more for coverage, each by its own enumeration."""
    preds = [f.label.pred for f in model.outgoing[state] if isinstance(f.label, Guard)]
    domains = {n: model.variables[n] for p in preds for n in free_vars(p)}

    def satisfiable_together(ps):
        for env in assignments(domains):
            if all(eval_pred(p, env) for p in ps):
                return env
        return None

    def covers_all(ps):
        for env in assignments(domains):
            if not any(eval_pred(p, env) for p in ps):
                return env
        return None

    found = []
    for i in range(len(preds)):
        for j in range(i + 1, len(preds)):
            witness = satisfiable_together([preds[i], preds[j]])
            if witness is not None:
                found.append(Violation(
                    state, "guards-not-exclusive",
                    f"{to_text(preds[i])} and {to_text(preds[j])} both hold at {witness}",
                ))
    uncovered = covers_all(preds)
    if uncovered is not None:
        found.append(Violation(state, "guards-not-exhaustive", f"no guard holds at {uncovered}"))
    return found


_DOMAINS = [(False, True), (True, False), (0, 1), (1, 2, 3), (0,)]


@st.composite
def typed_alternatives(draw):
    """2-4 guards over 1-3 declared variables; only variables declared
    over booleans are tested bare, so guard-type never fires."""
    names = ["u", "v", "w"][: draw(st.integers(1, 3))]
    variables = {n: draw(st.sampled_from(_DOMAINS)) for n in names}
    # a literal may lie outside the domain, or be a bool against ints
    values = [False, True, 0, 1, 2, 3, 4]
    leaves = [st.just(TRUE), st.builds(Eq, st.sampled_from(names), st.sampled_from(values))]
    booleans = [n for n in names if all(isinstance(v, bool) for v in variables[n])]
    if booleans:
        leaves.append(st.builds(Var, st.sampled_from(booleans)))
    guard = st.recursive(
        st.one_of(leaves),
        lambda kids: st.one_of(
            st.builds(Not, kids), st.builds(And, kids, kids), st.builds(Or, kids, kids)
        ),
        max_leaves=5,
    )
    return alternative_model(draw(st.lists(guard, min_size=2, max_size=4)), variables)


@given(typed_alternatives())
@settings(max_examples=100, deadline=None)
def test_guard_table_reports_what_the_pairwise_checks_report(model):
    report = validate_cefm(model)
    assert report.violations == _pairwise_guard_violations(model, "C")
    assert report.warnings == []


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


def test_decomposition_never_computes_warnings(monkeypatch):
    def refuse(model):
        raise AssertionError("reachability warnings computed")

    monkeypatch.setattr(validate, "_reachability_warnings", refuse)
    models = [load_scenario(p).model for p in sorted(FIXTURES.glob("scenario_*.json"))]
    assert len(models) == 4
    for model in models + [chain_scenario(160).model]:
        generate_all(model)
    report = validate_cefm(models[0])
    with pytest.raises(AssertionError, match="warnings computed"):
        report.warnings


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


# -- the fork/join structure ------------------------------------------------------

def test_arrivals_name_the_pair_that_arrives_at_each_join_entry():
    ab = Pair("A", "B")
    assert validate_cefm(sp_model()).arrivals == {
        "S16": (("S12", Pair("SPS", "NMF")), ("S15", Pair("SPS", "NMU"))),
    }
    assert validate_cefm(fork_model(6)).arrivals == {
        "J": tuple((f"Q{j}", Pair(f"B{j}", f"C{j}")) for j in range(6)),
    }
    assert validate_cefm(twin_fork_model()).arrivals == {"J": (("P2", ab), ("Q2", ab))}
    # the empty branch is arrived at by whoever arrives at the fork: here
    # the run's start walk
    assert validate_cefm(empty_branch_fork_model()).arrivals == {
        "J": (("F", None), ("P2", Pair("C", "D"))),
    }
    # an inner join is passed as the pair that crosses it, the one that
    # sorts last among its arrivals
    assert validate_cefm(nested_fork_model()).arrivals == {
        "H": (("B2", Pair("B", "D")), ("C2", Pair("C", "B"))),
        "J": (("A2", Pair("A", "E")), ("H2", Pair("C", "B"))),
    }
    # a loop is passed through its entry flow, back to whoever arrives at F
    assert validate_cefm(loop_branch_fork_model()).arrivals == {
        "J": (("A2", ab), ("LX", Pair("X", "Y"))),
    }


def test_a_model_without_a_join_gets_no_fork_join_pass(monkeypatch):
    def refuse(model, report):
        raise AssertionError("fork/join pass run")

    monkeypatch.setattr(validate, "_check_joins", refuse)
    report = validate_cefm(chain_scenario(160).model)
    assert report.ok and report.arrivals == {}


def _staggered_join_model():
    # F forks three ways; J1 joins two branches, J2 joins J1 and the third
    return shape_model(forks=["F"], joins=["J1", "J2"], flows=[
        ("Initial", "", "F"),
        ("F", "", "P1"), ("P1", "A.a.B", "P2"), ("P2", "", "J1"),
        ("F", "", "Q1"), ("Q1", "A.b.B", "Q2"), ("Q2", "", "J1"),
        ("F", "", "R1"), ("R1", "A.c.B", "R2"), ("R2", "", "J2"),
        ("J1", "", "X"), ("X", "", "J2"), ("J2", "", "Final"),
    ])


def _join_in_a_loop_body_model():
    # F forks into A.a.B and a loop whose body B1 runs into the join
    return shape_model(forks=["F"], joins=["J"], loops=["L"], variables={"g": (False, True)},
                       flows=[
        ("Initial", "", "F"), ("F", "", "P1"), ("P1", "A.a.B", "P2"), ("P2", "", "J"),
        ("F", "", "L0"), ("L0", "", "L"), ("L", "[g]", "B1"), ("B1", "A.w.B", "B2"),
        ("B2", "", "J"), ("J", "", "K"), ("K", "", "L"), ("L", "", "E"), ("E", "", "Final"),
    ])


def _two_forks_one_join_model():
    # J joins a branch of F and a branch of the inner fork G, whose other
    # branch H joins with what follows J
    return shape_model(forks=["F", "G"], joins=["J", "H"], flows=[
        ("Initial", "", "F"), ("F", "", "P1"), ("P1", "A.a.B", "P2"), ("P2", "", "J"),
        ("F", "", "G"), ("G", "", "Q1"), ("Q1", "A.b.B", "Q2"), ("Q2", "", "J"),
        ("G", "", "R1"), ("R1", "A.c.B", "R2"), ("R2", "", "H"),
        ("J", "", "X"), ("X", "", "H"), ("H", "", "Final"),
    ])


def _fork_after_its_join_model():
    # J leads on to the fork F whose branches it joins, one of them
    # empty: an unreachable cycle beside the run's one operation
    return shape_model(forks=["F"], joins=["J"], flows=[
        ("Initial", "", "S0"), ("S0", "A.t.B", "S1"), ("S1", "", "Final"),
        ("J", "", "X"), ("X", "", "F"),
        ("F", "", "J"), ("F", "", "Q1"), ("Q1", "A.b.B", "Q2"), ("Q2", "", "J"),
    ])


def _fork_after_an_alternative_cycle_model():
    # F is entered from alternative C, which comes back to itself along
    # its other branch: an unreachable cycle with no operation
    return shape_model(forks=["F"], joins=["J"], alternatives=["C"],
                       variables={"g": (False, True)}, flows=[
        ("Initial", "", "S0"), ("S0", "A.t.B", "S1"), ("S1", "", "Final"),
        ("C", "[g]", "P"), ("P", "", "F"), ("C", "[!g]", "Z"), ("Z", "", "Y"), ("Y", "", "C"),
        ("F", "", "J"), ("F", "", "Q1"), ("Q1", "A.b.B", "Q2"), ("Q2", "", "J"),
        ("J", "", "Final"),
    ])


REFUSED_JOINS = {
    "alternative": (exclusive_join_model, "J: join-without-fork: entry P passes the alternative C"),
    "initial": (_staggered_join_model,
                "J2: join-without-fork: entry X reaches the initial state without a fork"),
    "loop_body": (_join_in_a_loop_body_model,
                  "J: join-without-fork: entry B2 lies in the body of loop L"),
    "two_forks": (_two_forks_one_join_model,
                  "J: join-without-fork: its entries lead back to forks ['F', 'G']"),
    "cycle": (_fork_after_its_join_model,
              "J: join-without-fork: its entries lead back round a cycle through join J"),
    "alternative_cycle": (_fork_after_an_alternative_cycle_model,
                          "J: join-without-fork: entry F leads back round a cycle"),
    # a fork at the start into A.a.B and a loop of P.w.Q, then A.b.B: the
    # start walk reaches the loop's exit only while g is false
    "start_loop": (lambda: loop_branch_fork_model(lead=None, after="A.b.B"),
                   "J: join-arrival: loop L decides whether the start walk arrives at entry LX, "
                   "which the pairs at the other entries cannot wait for"),
    # the first round arrives at F from the start walk, every later one
    # from A.t2.B
    "loop_fork": (loop_fork_model,
                  "J: join-arrival: loop L decides who arrives at fork F, and so at entry F"),
}


@pytest.mark.parametrize("shape", sorted(REFUSED_JOINS))
def test_a_join_that_no_static_wait_set_serves_is_refused(shape):
    build_model, violation = REFUSED_JOINS[shape]
    report = validate_cefm(build_model())
    assert [str(v) for v in report.violations] == [violation]
    assert report.violations[0].state not in report.arrivals
    with pytest.raises(InvalidModelError, match=re.escape(violation)):
        generate_all(build_model())


def test_a_long_sequence_of_forks_is_validated_without_recursion():
    # each fork's arrival is read off the join before it
    flows, last = [("Initial", "", "S")], "S"
    n = 1500
    for i in range(n):
        flows += [(last, "", f"F{i}"), (f"F{i}", "", f"J{i}"),
                  (f"F{i}", "", f"P{i}"), (f"P{i}", f"A.t{i}.B", f"Q{i}"), (f"Q{i}", "", f"J{i}")]
        last = f"J{i}"
    flows.append((last, "", "Final"))
    model = shape_model(forks=[f"F{i}" for i in range(n)], joins=[f"J{i}" for i in range(n)],
                        flows=flows)
    arrivals = validate_cefm(model).arrivals
    assert arrivals["J0"] == (("F0", None), ("Q0", Pair("A", "B")))
    assert arrivals[f"J{n - 1}"] == ((f"F{n - 1}", Pair("A", "B")), (f"Q{n - 1}", Pair("A", "B")))


def _best_of_3(call) -> float:
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return min(times)


def test_each_loop_body_is_walked_once():
    # a loop walk that went on past the loop state would make validation
    # quadratic in the number of loops
    model = loop_sequence_model(2000)
    assert validate_cefm(model).ok
    elapsed = _best_of_3(lambda: validate_cefm(model))
    assert elapsed < 0.5, f"validate_cefm took {elapsed:.3f}s"


def _nested_empty_forks_model(n: int) -> Choreography:
    # F{i} forks into an empty branch E{i} and on to F{i+1}; the innermost
    # branch runs A.t.B, and each join J{i} runs on into J{i-1}
    flows = [("Initial", "", "F0"), ("S", "A.t.B", "T"), ("K0", "", "Final")]
    for i in range(n):
        inner, back = (f"F{i + 1}", f"K{i + 1}") if i + 1 < n else ("S", "T")
        flows += [(f"F{i}", "", f"E{i}"), (f"E{i}", "", f"J{i}"), (f"F{i}", "", inner),
                  (back, "", f"J{i}"), (f"J{i}", "", f"K{i}")]
    return shape_model(forks=[f"F{i}" for i in range(n)], joins=[f"J{i}" for i in range(n)],
                       flows=flows)


def test_forks_with_no_operation_before_them_are_validated_in_linear_time():
    # who arrives at a fork is kept once found, so a walk back that
    # reaches a fork found before stops there, not at the initial state
    n = 2000
    model = fork_sequence_model(n)
    report = validate_cefm(model)
    assert report.ok
    assert report.arrivals == {f"J{i}": ((f"P{i}", None), (f"Q{i}", None)) for i in range(n)}
    elapsed = _best_of_3(lambda: validate_cefm(model))
    assert elapsed < 1.0, f"validate_cefm took {elapsed:.3f}s"

    n = 1000
    model = _nested_empty_forks_model(n)
    after = [f"K{i + 1}" for i in range(n - 1)] + ["T"]
    assert validate_cefm(model).arrivals == {
        f"J{i}": ((f"E{i}", None), (after[i], Pair("A", "B"))) for i in range(n)}
    elapsed = _best_of_3(lambda: validate_cefm(model))
    assert elapsed < 1.0, f"validate_cefm took {elapsed:.3f}s"


def test_fork_blocks_with_a_loop_branch_decompose_in_linear_time():
    # each join's walk back passes a loop through its entry flow, to the
    # pair that arrives at the block's fork
    n = 800
    model = loop_fork_blocks_model(n)
    arrivals = validate_cefm(model).arrivals
    assert arrivals["J0"] == (("A0x", Pair("A", "B")), ("LX0", Pair("X", "Y")))
    assert arrivals[f"J{n - 1}"] == ((f"A{n - 1}x", Pair("A", "B")),
                                     (f"LX{n - 1}", Pair("X", "Y")))
    elapsed = _best_of_3(lambda: generate_all(model))
    assert elapsed < 0.5, f"generate_all took {elapsed:.3f}s"


# -- one validation per model ----------------------------------------------------

@pytest.mark.parametrize("build", [nested_fork_model, silent_loop_model, sp_model])
def test_a_second_validation_gives_the_same_report(build):
    model = build()
    first = validate_cefm(model)
    second = validate_cefm(model)
    assert second is not first
    assert second.violations == first.violations
    assert second.arrivals == first.arrivals
    assert str(second) == str(first)
    # a report's lists are its own: changing one changes no later report
    first.violations.append(Violation("X", "rule", "detail"))
    first.arrivals.clear()
    third = validate_cefm(model)
    assert (third.violations, third.arrivals) == (second.violations, second.arrivals)


def test_a_validated_model_and_its_report_form_no_cycle():
    enabled = gc.isenabled()
    gc.disable()
    try:
        model = nested_fork_model()
        report = validate_cefm(model)
        assert report.ok
        ref = weakref.ref(model)
        del model, report
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
