"""The one document writer: dumps_json(obj) is json.dumps(obj, indent=2,
sort_keys=True) plus a newline, in its text and in its errors."""

import enum
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chorenforce import model as model_module
from chorenforce.decompose import dumps_cm, generate_all, tuple_to_json
from chorenforce.model import dumps_json
from chorenforce.participants import Scenario, dumps_scenario, scenario_to_json
from chorenforce.randgen import random_case, scripts_for_word
from chorenforce.runner import run_scenario, write_report
from helpers import FIXTURES, fixture_scenario
from test_decompose import CM_SHA256, pinned_models
from test_trace import Backwards, Text


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def outcome(write, obj):
    """The text a writer returns, or the type and message of its error."""
    try:
        return write(obj)
    except Exception as exc:
        return (type(exc), str(exc))


def test_every_fixture_document_is_written_as_json_writes_it():
    paths = sorted(FIXTURES.rglob("*.json"))
    assert len(paths) > 10
    for path in paths:
        text = path.read_text()
        doc = json.loads(text)
        assert dumps_json(doc) == reference(doc) == text, path


@pytest.mark.parametrize("name", sorted(CM_SHA256))
def test_every_pinned_coordination_model_is_written_as_json_writes_it(name):
    for model in pinned_models(name):
        for cm in generate_all(model).values():
            assert dumps_cm(cm) == reference([tuple_to_json(t) for t in cm.sorted_tuples()])


def test_sweep_scenarios_and_reports_are_written_as_json_writes_them(tmp_path):
    # sweep's cases at seed 0: every word under round-robin, one random run
    rng = random.Random(0)
    path = tmp_path / "report.json"
    reports = 0
    for _ in range(200):
        case = random_case(rng)
        plan = [(word, "roundrobin", 0) for word in case.words] + [(case.words[0], "random", 1)]
        for word, policy, seed in plan:
            scenario = Scenario(case.model, case.env, scripts_for_word(case.model, word))
            assert dumps_scenario(scenario) == reference(scenario_to_json(scenario))
            result = run_scenario(scenario, policy=policy, seed=seed)
            report = result.report()
            assert dumps_json(report) == reference(report)
            reports += 1
    # flagged verdicts and deadlocks, which honest sweep runs never report
    for name in ("inorder", "shuffled", "adversarial", "share_disabled"):
        for policy in ("roundrobin", "random"):
            result = run_scenario(fixture_scenario(name), policy=policy, seed=3)
            write_report(result, path)
            assert path.read_text() == reference(result.report())
    assert reports > 400


NASTY_FLOATS = st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e-300, 1e300])
TEXT = st.text() | st.text(st.characters(max_codepoint=0x1F)) | st.text(st.characters(min_codepoint=0x7F))
STRINGS = TEXT | st.builds(Text, TEXT) | st.builds(Backwards, TEXT)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.integers(min_value=-(2**200), max_value=-(2**64))
    | st.floats()
    | NASTY_FLOATS
    | STRINGS
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(STRINGS, children, max_size=5)
    ),
    max_leaves=30,
)


@given(JSON_VALUES)
@settings(max_examples=150, deadline=None)
def test_any_json_value_is_written_as_json_writes_it(doc):
    assert dumps_json(doc) == reference(doc)


class Level(enum.IntEnum):
    HIGH = 2


class Ratio(float):
    """A float subclass: json writes it as a float."""


def test_empty_and_nested_containers_and_scalar_subclasses():
    for doc in (
        {}, [], (), [[]], [{}], {"a": {}}, {"a": [[], {"b": ()}]}, [[[[1]]]],
        "top", Text("top"), 7, None, float("nan"),
        [Level.HIGH, Ratio(0.5), Ratio("inf"), True, False, None, 2**70],
    ):
        assert dumps_json(doc) == reference(doc)


def cyclic_list() -> list:
    doc: list = [1]
    doc.append(doc)
    return doc


def cyclic_dict() -> dict:
    doc: dict = {"a": 1}
    doc["b"] = [doc]
    return doc


@pytest.mark.parametrize(
    "doc",
    [
        {1: "a", 2: "b"},
        {None: 1, True: 2},
        {1.5: "x"},
        {"a": {2: "b"}},
        {1: "a", "b": 2},
        ["a", {"x": object()}],
        {"a": {1, 2}},
        object(),
        cyclic_list(),
        cyclic_dict(),
    ],
    ids=[
        "int-keys",
        "none-and-bool-keys",
        "float-key",
        "nested-int-key",
        "mixed-keys",
        "object-value",
        "set-value",
        "object",
        "cyclic-list",
        "cyclic-dict",
    ],
)
def test_what_the_walk_does_not_serve_behaves_as_json(doc):
    assert outcome(dumps_json, doc) == outcome(reference, doc)
    assert model_module._MARKERS == {}


def test_a_failed_write_leaves_no_marker_behind():
    doc = {"a": [object()]}
    with pytest.raises(TypeError):
        dumps_json(doc)
    assert model_module._MARKERS == {}
    doc["a"] = ["t"]
    assert dumps_json(doc) == reference(doc)


def test_nesting_too_deep_raises_as_json():
    doc: list = []
    for _ in range(100_000):
        doc = [doc]
    with pytest.raises(RecursionError):
        reference(doc)
    with pytest.raises(RecursionError):
        dumps_json(doc)
