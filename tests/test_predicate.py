import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chorenforce.predicate import (
    MAX_DEPTH,
    TRUE,
    And,
    Eq,
    Not,
    Or,
    PredicateError,
    TrueLit,
    UnboundVariableError,
    Var,
    assignments,
    bool_vars,
    eval_pred,
    free_vars,
    parse_predicate,
    to_text,
)

names = st.sampled_from(["a", "b", "longer_name"])
values = st.one_of(st.booleans(), st.integers(min_value=-3, max_value=3))

leaves = st.one_of(
    st.just(TRUE),
    st.builds(Var, names),
    st.builds(Eq, names, values),
)
preds = st.recursive(
    leaves,
    lambda kids: st.one_of(
        st.builds(Not, kids),
        st.builds(And, kids, kids),
        st.builds(Or, kids, kids),
    ),
    max_leaves=16,
)

bool_envs = st.fixed_dictionaries(
    {"a": st.booleans(), "b": st.booleans(), "longer_name": st.booleans()}
)


@given(preds)
@settings(max_examples=300)
def test_text_round_trip(p):
    assert parse_predicate(to_text(p)) == p


@given(preds, bool_envs)
def test_not_negates(p, env):
    assert eval_pred(Not(p), env) == (not eval_pred(p, env))


@given(preds, preds, bool_envs)
def test_connectives(p, q, env):
    assert eval_pred(And(p, q), env) == (eval_pred(p, env) and eval_pred(q, env))
    assert eval_pred(Or(p, q), env) == (eval_pred(p, env) or eval_pred(q, env))


def test_parse_samples():
    assert parse_predicate("true") == TRUE
    assert parse_predicate("shareEnabled") == Var("shareEnabled")
    assert parse_predicate("not x") == Not(Var("x"))
    assert parse_predicate("x == 3") == Eq("x", 3)
    assert parse_predicate("x == true") == Eq("x", True)
    # precedence: not binds tightest, then and, then or
    assert parse_predicate("a or b and not c") == Or(
        Var("a"), And(Var("b"), Not(Var("c")))
    )
    assert parse_predicate("(a or b) and c") == And(Or(Var("a"), Var("b")), Var("c"))


@pytest.mark.parametrize(
    "text", ["", "x ==", "not", "(a", "a b", "x == yy zz", "true == 1", "1"]
)
def test_parse_rejects(text):
    with pytest.raises(PredicateError):
        parse_predicate(text)


@pytest.mark.parametrize(
    "nest",
    [
        lambda n: "not " * (n - 1) + "a",
        lambda n: "a" + " and a" * (n - 1),
        lambda n: "(" * (n - 1) + "a" + ")" * (n - 1),
    ],
    ids=["not", "and", "parentheses"],
)
def test_parse_refuses_nesting_past_the_limit(nest):
    # each form is n levels deep; the parser and every walk over a
    # predicate recurse once or more per level
    p = parse_predicate(nest(MAX_DEPTH))
    assert free_vars(p) == {"a"}
    assert eval_pred(p, {"a": True}) in (True, False)
    assert parse_predicate(to_text(p)) == p
    with pytest.raises(PredicateError, match=f"deeper than {MAX_DEPTH} levels"):
        parse_predicate(nest(MAX_DEPTH + 1))


def test_eval_bool_int_distinct():
    # a boolean binding never satisfies an integer comparison
    assert eval_pred(Eq("x", 1), {"x": True}) is False
    assert eval_pred(Eq("x", 1), {"x": 1}) is True
    assert eval_pred(Eq("x", True), {"x": 1}) is False


def test_eval_unbound():
    with pytest.raises(UnboundVariableError):
        eval_pred(Var("missing"), {})
    with pytest.raises(UnboundVariableError):
        eval_pred(Eq("missing", 1), {})


def test_eval_var_needs_bool():
    with pytest.raises(PredicateError):
        eval_pred(Var("x"), {"x": 3})


def test_free_vars():
    p = And(Var("a"), Or(Not(Eq("b", 2)), TRUE))
    assert free_vars(p) == frozenset({"a", "b"})
    assert free_vars(TRUE) == frozenset()


def test_bool_vars():
    # b is only compared, never tested bare
    p = And(Var("a"), Or(Not(Eq("b", 2)), Not(Var("c"))))
    assert bool_vars(p) == frozenset({"a", "c"})
    assert bool_vars(Eq("a", True)) == frozenset()


def test_assignments_enumerates_product():
    envs = list(assignments({"x": (False, True), "y": (1, 2, 3)}))
    assert len(envs) == 6
    assert {tuple(sorted(e.items())) for e in envs} == {
        (("x", xv), ("y", yv)) for xv in (False, True) for yv in (1, 2, 3)
    }


def _rebuilt(p):
    """An equal tree of new nodes."""
    if isinstance(p, Var):
        return Var(p.name)
    if isinstance(p, Eq):
        return Eq(p.name, p.value)
    if isinstance(p, Not):
        return Not(_rebuilt(p.inner))
    if isinstance(p, (And, Or)):
        return type(p)(_rebuilt(p.left), _rebuilt(p.right))
    return TrueLit()


@settings(max_examples=200, deadline=None)
@given(preds)
def test_nodes_are_values(p):
    q = _rebuilt(p)
    assert p == q and not p != q
    assert hash(p) == hash(q)
    assert repr(p) == repr(q)
    assert p
    assert p in {q} and {p: 1}[q] == 1
    assert copy.deepcopy(p) == p and pickle.loads(pickle.dumps(p)) == p


def test_nodes_equal_only_nodes_of_their_class():
    a, b = Var("a"), Eq("b", 1)
    assert And(a, b) != Or(a, b) and Or(a, b) != And(a, b)
    assert Var("x") != ("x",) and ("x",) != Var("x")
    assert Eq("x", 1) != ("x", 1) and Not(a) != (a,) and And(a, b) != (a, b)
    assert Var("x") != Not(Var("x")) and Var("x") != Eq("x", True)
    assert TrueLit() == TRUE and TRUE != () and TRUE != Var("true")
    assert len({And(a, b), Or(a, b), And(a, b)}) == 2


def test_a_node_hashes_as_the_tuple_of_its_fields():
    x = Var("x")
    assert hash(TRUE) == hash(()) and hash(x) == hash(("x",))
    assert hash(Eq("y", -2)) == hash(("y", -2)) and hash(Not(x)) == hash((x,))
    assert hash(And(x, TRUE)) == hash(Or(x, TRUE)) == hash((x, TRUE))


def test_nodes_keep_their_repr():
    assert repr(TRUE) == "TrueLit()"
    assert repr(parse_predicate("not (x or y == -2) and true")) == (
        "And(left=Not(inner=Or(left=Var(name='x'), right=Eq(name='y', value=-2))), "
        "right=TrueLit())"
    )


@pytest.mark.parametrize("node", [TRUE, Var("x"), Eq("x", 1), Not(Var("x")),
                                  And(Var("x"), TRUE), Or(Var("x"), TRUE)],
                         ids=lambda node: type(node).__name__)
def test_nodes_are_immutable(node):
    for name in ("name", "value", "inner", "left", "right", "other"):
        with pytest.raises(AttributeError):
            setattr(node, name, Var("y"))
        with pytest.raises(AttributeError):
            delattr(node, name)
