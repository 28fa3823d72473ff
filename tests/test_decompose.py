import hashlib
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chorenforce.decompose import (
    CoordModel,
    CoordTuple,
    InvalidModelError,
    Pair,
    dumps_cm,
    generate_all,
)
from chorenforce.model import (
    EPS,
    Choreography,
    Flow,
    Operation,
    StateKind,
    model_from_json,
    model_to_json,
)
from chorenforce.predicate import Not, Var, eval_pred, free_vars
from chorenforce.randgen import random_case
from golden import GOLDEN_CMS, GOLDEN_INITIAL_WAIT, GOLDEN_TUPLE_COUNT, fields
from helpers import (
    fork_model,
    initial_operation_model,
    loop_model,
    nested_fork_model,
    random_chain_model,
    sp_cms,
    sp_model,
)


def test_pairs_discovered():
    assert set(sp_cms()) == set(GOLDEN_CMS)


@pytest.mark.parametrize("pair", sorted(GOLDEN_CMS))
def test_tuples_match_hand_transcription(pair):
    got = set(map(fields, sp_cms()[pair].tuples))
    want = GOLDEN_CMS[pair]
    assert got == want, (
        f"{pair}: unexpected {sorted(map(str, got - want))}, "
        f"missing {sorted(map(str, want - got))}"
    )


def test_total_tuple_count():
    assert sum(len(cm.tuples) for cm in sp_cms().values()) == GOLDEN_TUPLE_COUNT


@pytest.mark.parametrize("pair", sorted(GOLDEN_INITIAL_WAIT))
def test_initial_wait_sets(pair):
    assert sp_cms()[pair].initial_wait == GOLDEN_INITIAL_WAIT[pair]


def test_waits_at_join():
    cms = sp_cms()

    def waits(pair, join):
        return {(t.src, w) for t in cms[pair].tuples if t.trg == join for w in t.to_be_waited}

    assert waits(Pair("SPS", "NMU"), "S16") == {("S15", ("S12", Pair("SPS", "NMF")))}
    assert waits(Pair("SPS", "NMF"), "S16") == {("S12", ("S15", Pair("SPS", "NMU")))}
    assert waits(Pair("IM", "UMS"), "S16") == set()


def test_a_join_waits_for_the_pair_that_crosses_an_inner_join():
    # only (C,B), the pair that sorts last at the inner join H, goes on to
    # H2; (A,E) and (C,B) wait for each other at J
    cms = generate_all(nested_fork_model())
    into_j = {(pair, t.src): (t.to_be_notified, t.to_be_waited)
              for pair, cm in cms.items() for t in cm.tuples if t.trg == "J"}
    ae, bd, cb = Pair("A", "E"), Pair("B", "D"), Pair("C", "B")
    assert into_j == {
        (ae, "A2"): ({("A2", cb)}, {("H2", cb)}),
        # (B,D)'s walk goes on past H too, but it never crosses H
        (bd, "H2"): ({("H2", ae)}, {("A2", ae)}),
        (cb, "H2"): ({("H2", ae)}, {("A2", ae)}),
    }


def test_loop_decomposition():
    cms = generate_all(loop_model())
    ab, ac = Pair("A", "B"), Pair("A", "C")
    assert set(cms) == {ab, ac}

    p = Var("p")
    by_key = {(t.src, t.op, t.trg): t for t in cms[ab].tuples}
    assert set(by_key) == {
        ("L1", "init", "L2"),
        ("E1", "work", "E2"),
        ("L2", None, "LP"),
        ("LP", None, "E1"),
        ("LP", None, "X1"),
        ("E2", None, "LP"),
    }
    # entering the body requires p; the epsilon exit gets the complement
    assert by_key[("LP", None, "E1")].cond == p
    assert by_key[("LP", None, "X1")].cond == Not(p)
    assert by_key[("LP", None, "X1")].allowed_services == frozenset({ac})

    assert {(t.src, t.op, t.trg) for t in cms[ac].tuples} == {
        ("X1", "finish", "X2"),
        ("X2", None, "Final"),
    }

    assert cms[ab].initial_wait == frozenset({"L1"})
    assert cms[ac].initial_wait == frozenset({"X1"})


def test_an_operation_into_the_start_of_the_pairs_next_one_updates_no_one():
    cm = generate_all(initial_operation_model())[Pair("A", "B")]
    assert [str(t) for t in cm.sorted_tuples()] == [
        "<Initial, t(), S1, {}, true>",
        "<S1, u(), S2, {}, true>",
        "<S2, eps, Final, {}, true>",
    ]
    assert cm.initial_wait == frozenset({"Initial"})


def test_loop_exit_complement_of_negated_guard():
    # when the entry guard is already a negation, the exit must unwrap it
    base = loop_model()
    flows = []
    for f in base.flows:
        if f.src == "LP" and not isinstance(f.label, type(EPS)):
            flows.append(Flow("LP", type(f.label)(Not(Var("p"))), f.trg))
        else:
            flows.append(f)
    model = Choreography(
        states=base.states,
        initial=base.initial,
        final=base.final,
        roles=base.roles,
        variables=base.variables,
        flows=flows,
    )
    cms = generate_all(model)
    exit_tuple = next(
        t for t in cms[Pair("A", "B")].tuples if t.src == "LP" and t.trg == "X1"
    )
    assert exit_tuple.cond == Var("p")


def test_invalid_model_rejected():
    broken = Choreography(
        states={"Initial": StateKind.INITIAL, "Final": StateKind.FINAL},
        initial="Initial",
        final="Final",
        roles={"A", "B"},
        variables={},
        flows=[],
    )
    with pytest.raises(InvalidModelError):
        generate_all(broken)


def test_generate_all_is_fast_on_a_long_chain_over_many_roles():
    model = random_chain_model(seed=3, n_ops=800, n_roles=400)
    t0 = time.perf_counter()
    cms = generate_all(model)
    elapsed = time.perf_counter() - t0
    assert sum(len(cm.tuples) for cm in cms.values()) == 801
    assert elapsed < 0.2, f"generate_all took {elapsed:.3f}s"


def assert_decomposition_invariants(model: Choreography) -> None:
    cms = generate_all(model)
    op_flows = {
        (f.src, f.label.task, f.trg, f.label.initiator, f.label.receiver)
        for f in model.flows
        if hasattr(f.label, "task")
    }
    seen_ops = set()
    for pair, cm in cms.items():
        for t in cm.tuples:
            assert t.src in model.states and t.trg in model.states
            leaving = {
                Pair(f.label.initiator, f.label.receiver)
                for f in model.outgoing[t.trg]
                if isinstance(f.label, Operation)
            }
            assert t.allowed_services == leaving - {pair}
            assert free_vars(t.cond) <= set(model.variables)
            if t.op is not None:
                key = (t.src, t.op, t.trg, pair.initiator, pair.receiver)
                assert key in op_flows
                seen_ops.add(key)
                assert t.to_be_waited == frozenset()
            if t.to_be_waited:
                assert model.states[t.trg] is StateKind.JOIN
    # every operation flow of the model shows up in exactly its pair's model
    assert seen_ops == op_flows
    # walking a coordination model alone never leaves the owner's view:
    # non-op tuples start where some tuple ends or at an activation state
    for pair, cm in cms.items():
        starts = {t.src for t in cm.tuples}
        ends = {t.trg for t in cm.tuples}
        entry = cm.initial_wait
        assert entry <= starts
        for s in starts:
            assert s in ends or s in entry or any(
                t.src == s and t.op is not None for t in cm.tuples
            )


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_decomposition_invariants_on_random_models(seed):
    assert_decomposition_invariants(random_case(random.Random(seed)).model)


def test_decomposition_invariants_on_scattered_chain():
    assert_decomposition_invariants(random_chain_model(seed=7, n_ops=160, n_roles=45))


# -- Pair and the coordination model's lookup tables ----------------------------

def test_pair_orders_hashes_and_prints_as_its_two_roles():
    roles = ["A", "B", "AB", "IM", "SPS", "b", "R10", "R2"]
    pairs = [Pair(a, b) for a in roles for b in roles if a != b]
    shuffled = list(pairs)
    random.Random(4).shuffle(shuffled)
    assert [(p.initiator, p.receiver) for p in sorted(shuffled)] == sorted(
        (p.initiator, p.receiver) for p in pairs
    )
    for p in pairs:
        assert hash(p) == hash((p.initiator, p.receiver))
        assert str(p) == f"({p.initiator},{p.receiver})"
    pair = Pair(*["a", "b"])
    assert (pair.initiator, pair.receiver) == ("a", "b") and pair == Pair("a", "b")


def test_a_coordination_tuple_is_an_immutable_value():
    ab = Pair("A", "B")
    t = CoordTuple("S", None, "J", frozenset({ab}), Var("p"), frozenset(),
                   frozenset({("S", ab)}))
    same = CoordTuple(src="S", op=None, trg="J", allowed_services=frozenset({ab}),
                      cond=Var("p"), to_be_notified=frozenset(),
                      to_be_waited=frozenset({("S", ab)}))
    assert fields(t) == fields(same)
    assert repr(t) == repr(same) == (
        "CoordTuple(src='S', op=None, trg='J', allowed_services=frozenset({Pair("
        "initiator='A', receiver='B')}), cond=Var(name='p'), to_be_notified=frozenset(), "
        "to_be_waited=frozenset({('S', Pair(initiator='A', receiver='B'))}))"
    )
    with pytest.raises(AttributeError):
        t.op = "go"
    with pytest.raises(AttributeError):
        t.extra = 1
    with pytest.raises(AttributeError):
        del t.src
    assert t.op is None and t.src == "S"
    # no value equality: a tuple is equal only to itself, and hashes so
    assert t == t and t != same and len({t, same, t}) == 2


def test_a_generated_coordination_tuple_refuses_assignment_and_deletion():
    for cm in sp_cms().values():
        for t in cm.tuples:
            before = fields(t)
            for name in CoordTuple.__slots__:
                with pytest.raises(AttributeError):
                    setattr(t, name, None)
                with pytest.raises(AttributeError):
                    delattr(t, name)
            with pytest.raises(AttributeError):
                t.extra = 1
            assert fields(t) == before


def assert_tables_match_scans(cm: CoordModel) -> None:
    """Each lookup of the model equals its definition as a scan of the tuples."""
    tuples = cm.tuples
    in_order = sorted(tuples, key=CoordTuple.sort_key)
    assert cm.sorted_tuples() == in_order
    states = {t.src for t in tuples} | {t.trg for t in tuples} | {"no-such-state"}
    for s in states:
        # a miss gives one shared empty tuple, so contents are compared
        assert list(cm.tuples_from(s)) == [t for t in in_order if t.src == s]
    for task in {t.op for t in tuples if t.op is not None} | {"no-such-task"}:
        assert cm.has_op(task) == any(t.op == task for t in tuples)
        assert cm.op_sources(task) == sorted(t.src for t in tuples if t.op == task)
    op_states = {t.src for t in tuples if t.op is not None}
    assert cm.op_states == op_states
    reached = set()
    frontier = [t.trg for t in tuples if t.op is not None and not t.to_be_waited]
    while frontier:
        s = frontier.pop()
        if s not in reached:
            reached.add(s)
            frontier += [t.trg for t in tuples if t.src == s and not t.to_be_waited]
    assert cm.initial_wait == op_states - reached


def table_models():
    yield sp_model()
    yield loop_model()
    yield initial_operation_model()
    yield random_chain_model(seed=7, n_ops=160, n_roles=45)
    rng = random.Random(0)
    for _ in range(200):
        yield random_case(rng).model


def test_lookup_tables_agree_with_the_scans_they_replace():
    checked = 0
    for model in table_models():
        for cm in generate_all(model).values():
            assert_tables_match_scans(cm)
            checked += 1
    assert checked > 400


# -- pinned decomposition bytes --------------------------------------------------

# sha256 over each model's pairs in sorted order, each as its name, a
# newline and dumps_cm; recorded while the lookup tables were still built
# on first use, before the decomposition filled them as it emits tuples
CM_SHA256 = {
    "chain160": "2748890d1674e40f299955e1bbcf41c99f38c6986218e309048f99d4857ffd12",
    "fork6": "6454f82e4bf0b35c70e224b121f2c621c58da718caad83242636a0295d894773",
    "random_case": "2c5919fc5a825e5cf6b86ada058a1872f324aaad7ed27505569fe1dfbe9263c8",
    "socialprox": "c05beaa00985a1a261521cc0a7f1c45aeacfef164885a83fd22c8844a62648d1",
}


def pinned_models(name: str) -> list[Choreography]:
    if name == "socialprox":
        return [sp_model()]
    if name == "random_case":
        rng = random.Random(0)
        return [random_case(rng).model for _ in range(200)]
    if name == "chain160":
        return [random_chain_model(seed=3, n_ops=160, n_roles=45)]
    return [fork_model(6)]


@pytest.mark.parametrize("name", sorted(CM_SHA256))
def test_decomposition_bytes_are_pinned(name):
    digest = hashlib.sha256()
    for model in pinned_models(name):
        cms = generate_all(model)
        for pair in sorted(cms):
            digest.update(f"{pair}\n{dumps_cm(cms[pair])}".encode())
        # a reloaded model has the same document, so the same flow list
        assert model_to_json(model_from_json(model_to_json(model))) == model_to_json(model)
    assert digest.hexdigest() == CM_SHA256[name]
