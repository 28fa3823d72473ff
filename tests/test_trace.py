"""The trace codec: trace_lines writes json.dumps(event, sort_keys=True)
bytes, and read_trace reads them back the way the per-line reader did,
with a typed error for a line that is not exactly one JSON object."""

import enum
import json
import random
from collections import UserDict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chorenforce import runner
from chorenforce.participants import Scenario, load_scenario
from chorenforce.randgen import random_case, scripts_for_word
from chorenforce.runner import (
    TraceFormatError,
    read_trace,
    run_scenario,
    trace_lines,
    write_trace,
)
from helpers import chain_scenario, defect_cases, faulty_delegate, fork_model

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE_NAMES = ("inorder", "shuffled", "adversarial", "share_disabled")
POLICIES = ("roundrobin", "random")


def dumps_lines(events: list) -> str:
    return "".join(json.dumps(e, sort_keys=True) + "\n" for e in events)


def per_line_read_trace(path) -> list:
    # the reader before the codec was rewritten, kept as the reference
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


@pytest.fixture(scope="module")
def runs() -> list[list[dict]]:
    return list(_run_events())


def _run_events():
    for name in FIXTURE_NAMES:
        scenario = load_scenario(FIXTURES / f"scenario_{name}.json")
        for policy in POLICIES:
            yield run_scenario(scenario, policy=policy, seed=3).events
    rng = random.Random(5)
    for _ in range(12):
        case = random_case(rng)
        for word in case.words[:2]:
            scenario = Scenario(
                model=case.model,
                environment=case.env,
                scripts=scripts_for_word(case.model, word),
            )
            yield run_scenario(scenario, policy="random", seed=1).events
    for policy in POLICIES:
        yield run_scenario(chain_scenario(160), policy=policy, seed=0).events


HAND_BUILT = [
    {"kind": "Forward", "task": "caf\u00e9 \u2603 \U0001f600", "seq": 0},
    {"quote": 'say "hi"', "backslash": "a\\b\\\\c", "slash": "a/b"},
    {"control": "\x00\x01\t\n\r\x1f\x7f", "separators": "\u2028\u2029\x85"},
    {"nested": [[1, [2, [3, []]]], {"z": 1, "a": {"y": None, "b": [True]}}]},
    {"none": None, "yes": True, "no": False, "zero": 0, "big": 10**30, "neg": -7},
    {"float": 1.5, "tiny": 1e-300, "huge": 1e300},
    {2: "int keys", 10: "sort", 1: "numerically"},
    {},
]


def test_trace_lines_matches_json_dumps_on_runs(runs):
    assert len(runs) > 20
    for events in runs:
        assert trace_lines(events) == dumps_lines(events)


def test_trace_lines_matches_json_dumps_on_hand_built_events():
    for event in HAND_BUILT:
        assert trace_lines([event]) == json.dumps(event, sort_keys=True) + "\n"
    assert trace_lines(HAND_BUILT) == dumps_lines(HAND_BUILT)
    assert trace_lines([]) == ""


def test_a_failed_encode_leaves_no_circular_marker():
    event = {"task": [object()]}
    with pytest.raises(TypeError):
        trace_lines([event])
    event["task"] = ["t"]
    assert trace_lines([event]) == dumps_lines([event])


def test_written_trace_reads_back(runs, tmp_path):
    path = tmp_path / "trace.jsonl"
    for events in runs:
        write_trace(events, path)
        assert read_trace(path) == events
    string_keyed = [e for e in HAND_BUILT if all(type(k) is str for k in e)]
    write_trace(string_keyed, path)
    assert read_trace(path) == string_keyed


LINE_1 = '{"kind": "Request", "seq": 0}'
# raw U+2028 and U+0085 inside a string: str.splitlines would split on both
LINE_2 = '{"kind": "Forward", "seq": 1, "task": "a\u2028b\u0085c"}'


@pytest.mark.parametrize(
    "text",
    [
        f"{LINE_1}\n\n{LINE_2}\n\n",
        f"{LINE_1}\n   \n\t\n{LINE_2}\n",
        f"\u2028\n{LINE_1}\n\x0c\n{LINE_2}\n",
        f"{LINE_1}\r\n{LINE_2}\r\n",
        f"{LINE_1}\r{LINE_2}\r",
        f"{LINE_1}\n{LINE_2}",
        f"  {LINE_1}\t\n{LINE_2}  \n",
        f"{LINE_2}\n",
        "",
        "\n\n",
    ],
    ids=[
        "blank-lines",
        "whitespace-lines",
        "unicode-whitespace-lines",
        "crlf",
        "cr",
        "no-final-newline",
        "padded-lines",
        "raw-u2028-in-string",
        "empty-file",
        "only-newlines",
    ],
)
def test_reader_agrees_with_the_per_line_reader(tmp_path, text):
    path = tmp_path / "trace.jsonl"
    path.write_bytes(text.encode())
    assert read_trace(path) == per_line_read_trace(path)
    assert len(read_trace(path)) == text.count("{")


@pytest.mark.parametrize(
    "text,line",
    [
        (f"{LINE_1}\n{LINE_1}, {LINE_2}\n", 2),
        (f'{LINE_1}\n{{"kind": "Forward", "cd": [\n"a", "b"]}}\n', 2),
        (f"{LINE_1}\n\n5\n", 3),
        (f"[{LINE_1}]\n", 1),
        (f'"text"\n{LINE_1}\n', 1),
        (f"{LINE_1}\nnull\n", 2),
        (f"{LINE_1}\n{LINE_1[:-1]}\n", 2),
        # both lines are malformed, yet joined they make two objects
        ('{"a": 1}, {"b": [1\n2]}\n', 1),
        ("[" * 100000 + "\n", 1),
    ],
    ids=[
        "two-objects-on-one-line",
        "array-split-over-two-lines",
        "bare-number",
        "array-of-one-object",
        "string",
        "null",
        "truncated-object",
        "split-objects-that-rejoin",
        "too-deep",
    ],
)
def test_reader_names_the_malformed_line(tmp_path, text, line):
    path = tmp_path / "trace.jsonl"
    path.write_text(text)
    with pytest.raises(TraceFormatError, match=f"^trace line {line}: "):
        read_trace(path)


def test_reader_refuses_a_file_that_is_not_text(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_bytes(b'\xff\xfe{"kind": "Request"}\n')
    with pytest.raises(TraceFormatError, match="^trace is not text: "):
        read_trace(path)


# -- the per-kind line templates ------------------------------------------------

# each kind's fields (besides "kind") and the type the simulator writes there
FIELDS = {
    "Request": {
        "seq": "int", "participant": "str", "cd": "pair", "task": "str",
        "request_id": "int", "injected": "bool",
    },
    "Block": {
        "seq": "int", "participant": "str", "cd": "pair", "task": "str",
        "request_id": "int",
    },
    "Unblock": {"seq": "int", "cd": "pair", "request_id": "int", "task": "str"},
    "Forward": {
        "seq": "int", "cd": "pair", "task": "str", "src": "str",
        "trg": "str?", "receiver": "str",
    },
    "Update": {"seq": "int", "from": "pair?", "to": "pair", "state": "str"},
    "Notify": {
        "seq": "int", "from": "pair", "to": "pair", "pred": "str", "join": "str",
    },
    "StateChange": {
        "seq": "int", "cd": "pair", "thread": "int", "from": "str?", "to": "str",
    },
}


class Text(str):
    """A str subclass: json writes its content."""


class Backwards(str):
    """A str subclass that sorts backwards, so json.dumps(sort_keys=True)
    orders keys of this type differently."""

    def __lt__(self, other):
        return str.__gt__(self, other)

    def __gt__(self, other):
        return str.__lt__(self, other)


class Posing(str):
    """A str that hashes and compares as "Request", whatever it holds."""

    def __hash__(self):
        return hash("Request")

    def __eq__(self, other):
        return other == "Request"


class Number(enum.IntEnum):
    THREE = 3


TEXT = st.text(
    st.characters() | st.sampled_from('\x00\x1f\x7f\x85\u2028\u2029"\\/\u00e9\U0001f600'),
    max_size=6,
)
TEXT = TEXT | st.builds(Text, TEXT)
PAIR = st.lists(TEXT, min_size=2, max_size=2)
BAD_PAIR = st.tuples(TEXT, TEXT) | st.lists(TEXT, min_size=3, max_size=3) | st.just([1, "b"])
GOOD = {
    "int": st.integers(),
    "str": TEXT,
    "str?": st.none() | TEXT,
    "pair": PAIR,
    "pair?": st.none() | PAIR,
    "bool": st.booleans(),
}
NEAR_MISS = {
    "int": st.sampled_from([True, False, 1.0, "3", Number.THREE]),
    "str": st.none() | PAIR,
    "str?": PAIR | st.integers(),
    "pair": BAD_PAIR | st.none(),
    "pair?": BAD_PAIR,
    "bool": st.sampled_from([0, 1, None, "true"]),
    "kind": st.sampled_from(
        ["Unknown", "request", Text("Request"), Posing("Forward"), None, 1]
    ),
}


@st.composite
def events_and_near_misses(draw) -> tuple[dict, dict, tuple]:
    """An event of one of the seven kinds with values of the simulator's
    types, a near miss for each of its keys, and a key and value to add."""
    kind = draw(st.sampled_from(sorted(FIELDS)))
    event = {"kind": kind}
    misses = {"kind": draw(NEAR_MISS["kind"])}
    for key, type_name in FIELDS[kind].items():
        event[key] = draw(GOOD[type_name])
        misses[key] = draw(NEAR_MISS[type_name])
    extra = (draw(TEXT | st.integers()), draw(st.integers() | TEXT | st.builds(object)))
    return event, misses, extra


def variants(event: dict, misses: dict, extra: tuple):
    """The event, then each change of one thing: a mapping that is not a
    dict, a key added, and for each key its value's near miss, the key
    dropped, or the key swapped for a Backwards one."""
    yield event
    yield UserDict(event)
    yield {**event, extra[0]: extra[1]}
    for key in event:
        yield {**event, key: misses[key]}
        yield {k: v for k, v in event.items() if k != key}
        yield {(Backwards(k) if k == key else k): v for k, v in event.items()}


@given(events_and_near_misses())
@settings(max_examples=100, deadline=None)
def test_trace_lines_matches_json_dumps_on_near_miss_events(drawn):
    for event in variants(*drawn):
        try:
            expected = json.dumps(event, sort_keys=True) + "\n"
        except Exception as exc:
            with pytest.raises(type(exc)):
                trace_lines([event])
        else:
            assert trace_lines([event]) == expected


def _more_run_events():
    model = fork_model(6)
    word = tuple(op.label for op in model.operations())
    fork = Scenario(model=model, environment={}, scripts=scripts_for_word(model, word))
    yield run_scenario(fork, policy="random", seed=0).events
    for _, _, scenario, pair, cls in defect_cases():
        with faulty_delegate(pair, cls):
            yield run_scenario(scenario, policy="roundrobin", seed=0).events


def test_simulator_events_never_reach_the_generic_encoder(runs, monkeypatch):
    # an event field the templates do not know would make every run slower
    every_run = runs + list(_more_run_events())

    def refuse(event, level):
        raise AssertionError(f"no template for {event!r}")

    monkeypatch.setattr(runner, "_ENCODE", refuse)
    kinds = set()
    for events in every_run:
        assert trace_lines(events) == dumps_lines(events)
        kinds.update(e["kind"] for e in events)
    assert kinds == set(FIELDS)
