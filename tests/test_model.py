import copy
import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from chorenforce.decompose import CoordTuple
from chorenforce.model import (
    EPS,
    Choreography,
    Epsilon,
    Flow,
    Guard,
    ModelFormatError,
    Operation,
    StateKind,
    dumps_model,
    flow_sort_key,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
)
from chorenforce.participants import Action, ScriptSpec, load_scenario
from chorenforce.predicate import And, Eq, Not, Or, TrueLit, Var
from chorenforce.socialprox import IM, IM_ACTIONS, SPS, SPS_ACTIONS, UMS, social_proximity
from helpers import FIXTURES, loop_model


def test_json_round_trip_fig():
    m = social_proximity()
    assert model_to_json(model_from_json(model_to_json(m))) == model_to_json(m)
    assert dumps_model(model_from_json(json.loads(dumps_model(m)))) == dumps_model(m)


def test_json_round_trip_loop():
    m = loop_model()
    assert model_to_json(model_from_json(model_to_json(m))) == model_to_json(m)


def test_file_round_trip(tmp_path):
    m = social_proximity()
    path = tmp_path / "model.json"
    save_model(m, path)
    assert model_to_json(load_model(path)) == model_to_json(m)


def test_operation_label():
    op = Operation(IM, "getUserPref", UMS)
    assert op.label == "IM.getUserPref.UMS"
    assert str(op) == op.label


def test_operations_and_pairs():
    m = social_proximity()
    ops = m.operations()
    # startItin appears twice, but with distinct receivers: 8 distinct labels
    assert len(ops) == 8
    assert len({op.label for op in ops}) == 8


def test_flow_sort_key_total_order():
    m = social_proximity()
    ordered = sorted(m.flows, key=flow_sort_key)
    assert ordered == sorted(reversed(ordered), key=flow_sort_key)


def test_kind_lookup():
    m = social_proximity()
    assert m.states["S7"] is StateKind.ALTERNATIVE
    assert m.states["S13"] is StateKind.FORK
    assert m.states["S16"] is StateKind.JOIN
    assert m.states["Initial"] is StateKind.INITIAL


def test_flows_reference_declared_states():
    with pytest.raises(ModelFormatError):
        Choreography(
            states={"Initial": StateKind.INITIAL, "Final": StateKind.FINAL},
            initial="Initial",
            final="Final",
            roles={"A", "B"},
            variables={},
            flows=[Flow("Initial", EPS, "Ghost")],
        )


def test_malformed_json_rejected():
    with pytest.raises(ModelFormatError):
        model_from_json({})
    m = social_proximity()
    data = model_to_json(m)
    data["states"]["S5"] = "banana"
    with pytest.raises(ModelFormatError):
        model_from_json(data)


def _first_op(data: dict) -> dict:
    return next(f["label"]["op"] for f in data["flows"] if "op" in f["label"])


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda d: d.update(flows=5),
        lambda d: d.update(roles=5),
        lambda d: d.update(states=["S5"]),
        lambda d: d["flows"].append({"from": "LP", "to": "E1", "label": {"guard": 5}}),
        lambda d: _first_op(d).update(task=None),
        lambda d: _first_op(d).update({"from": ["A"]}),
        lambda d: _first_op(d).update(to=["B"]),
        lambda d: _first_op(d).update(task=["init"]),
        lambda d: d["roles"].append(5),
        lambda d: d["roles"].append(["A"]),
    ],
    ids=[
        "flows-number", "roles-number", "states-list", "guard-not-string",
        "null-task", "list-initiator", "list-receiver", "list-task", "int-role",
        "list-role",
    ],
)
def test_wrongly_typed_json_raises_format_error(corrupt):
    data = model_to_json(loop_model())
    corrupt(data)
    with pytest.raises(ModelFormatError):
        model_from_json(data)


def test_a_non_string_operation_field_is_refused_naming_its_flow():
    data = model_to_json(loop_model())
    _first_op(data).update(task=None)
    with pytest.raises(ModelFormatError, match=r"^flow E1->E2: operation .* no string$"):
        model_from_json(data)


def test_a_loaded_model_is_made_of_the_record_classes():
    # the loader builds its records without their constructors
    built = social_proximity()
    loaded = load_model(FIXTURES / "social_proximity.json")
    assert model_to_json(loaded) == model_to_json(built)
    assert loaded.flows == built.flows
    assert [type(f.label) for f in loaded.flows] == [type(f.label) for f in built.flows]
    assert all(type(f) is Flow for f in loaded.flows)
    assert sum(type(f.label) is Operation for f in loaded.flows) == 8
    scenario = load_scenario(FIXTURES / "scenario_shuffled.json")
    assert scenario.scripts == (
        ScriptSpec(IM, tuple(Action(t, r) for t, r in IM_ACTIONS)),
        ScriptSpec(SPS, tuple(Action(t, r) for t, r in SPS_ACTIONS), ((2, 3),)),
    )
    assert all(type(spec) is ScriptSpec for spec in scenario.scripts)
    assert all(type(a) is Action for spec in scenario.scripts for a in spec.actions)


def test_guard_label_round_trip():
    m = loop_model()
    data = model_to_json(m)
    again = model_from_json(data)
    guards = [f for f in again.flows if isinstance(f.label, Guard)]
    assert guards == [Flow("LP", Guard(Var("p")), "E1")]


def test_epsilon_is_a_value():
    assert Epsilon() == EPS and not Epsilon() != EPS and hash(Epsilon()) == hash(EPS)
    assert repr(Epsilon()) == "EPS" and EPS
    assert EPS != () and () != EPS and EPS != Guard(Var("x"))
    assert Flow("A", Epsilon(), "B") == Flow("A", EPS, "B")
    assert hash(EPS) == hash(())
    assert copy.deepcopy(EPS) == EPS and pickle.loads(pickle.dumps(EPS)) == EPS
    with pytest.raises(AttributeError):
        EPS.label = "eps"
    with pytest.raises(AttributeError):
        del EPS.label


@pytest.mark.parametrize("cls", [TrueLit, Var, Eq, Not, And, Or, Epsilon, CoordTuple],
                         ids=lambda cls: cls.__name__)
def test_a_record_class_inherits_its_immutability_and_equality(cls):
    # one base refuses assignment and deletion; one layer over it makes a value
    own = {"__setattr__", "__delattr__", "__eq__", "__hash__", "__reduce__"} & vars(cls).keys()
    assert not own


def test_the_package_imports_without_dataclasses():
    # the command line tool imports the package in every process it starts
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, chorenforce, chorenforce.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                         text=True, check=True).stdout
    assert out == "False\n"
