"""The trace codec: trace_lines writes json.dumps(event, sort_keys=True)
bytes, and read_trace reads them back the way the per-line reader did,
with a typed error for a line that is not exactly one JSON object."""

import json
import random
from pathlib import Path

import pytest

from chorenforce.participants import Scenario, load_scenario
from chorenforce.randgen import random_case, scripts_for_word
from chorenforce.runner import (
    TraceFormatError,
    read_trace,
    run_scenario,
    trace_lines,
    write_trace,
)
from helpers import chain_scenario

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
