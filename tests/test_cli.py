"""End-to-end checks of the command line interface."""

import json
from pathlib import Path

import pytest

from chorenforce import simulator
from chorenforce.cli import main
from chorenforce.decompose import InvalidModelError, Pair, generate_all
from chorenforce.interpreter import Language
from chorenforce.model import EPS, Choreography, Flow, Guard, Operation, StateKind, save_model
from chorenforce.oracle import ALLOWED, DEADLOCKING_JOIN, MISSED_JOIN, RuntimeChecker
from chorenforce.participants import Action, Scenario, ScriptSpec, save_scenario
from chorenforce.predicate import Not, Var
from chorenforce.runner import read_trace, run_scenario, write_trace
from helpers import (
    START_RUNS,
    chain_model,
    chain_scenario,
    defect_cases,
    duplicate_flow_model,
    exclusive_join_model,
    faulty_delegate,
    guarded_start_model,
    inorder_scenario,
    int_alternative_model,
    int_loop_model,
    loop_join_scenario,
    share_disabled_scenario,
    silent_exit_cycle_model,
    silent_exit_cycle_scenario,
    silent_loop_model,
    silent_state_defect_cases,
    sp_model,
    twin_fork_model,
)
from mutants import skip_wait_from_pass

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture()
def model_path(tmp_path):
    path = tmp_path / "model.json"
    save_model(sp_model(), path)
    return path


@pytest.fixture()
def scenario_path(tmp_path):
    path = tmp_path / "scenario.json"
    save_scenario(inorder_scenario(), path)
    return path


def test_validate_ok(model_path, capsys):
    assert main(["validate", str(model_path)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_broken(tmp_path, capsys):
    path = tmp_path / "broken.json"
    data = json.loads((FIXTURES / "social_proximity.json").read_text())
    data["flows"] = [f for f in data["flows"] if f["to"] != "S16"]
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == 1
    assert "join-degree" in capsys.readouterr().out


def test_validate_prints_violations_then_warnings(tmp_path, capsys):
    # Q leads nowhere and nothing leads to Orphan: each breaks a degree rule
    # and draws a reachability warning
    states = {
        "Initial": StateKind.INITIAL, "Final": StateKind.FINAL,
        "ALT": StateKind.ALTERNATIVE, "P": StateKind.PLAIN,
        "Q": StateKind.PLAIN, "Orphan": StateKind.PLAIN,
    }
    flows = [
        Flow("Initial", EPS, "ALT"),
        Flow("ALT", Guard(Var("x")), "P"),
        Flow("ALT", Guard(Not(Var("x"))), "Q"),
        Flow("P", EPS, "Final"),
        Flow("Orphan", EPS, "Final"),
    ]
    path = tmp_path / "model.json"
    save_model(Choreography(states, "Initial", "Final", {"A", "B"}, {"x": (False, True)}, flows), path)
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out == (
        "Orphan: plain-degree: 0 incoming flows, expected 1\n"
        "Q: plain-degree: 0 outgoing flows, expected 1\n"
        "warning: Orphan: unreachable: not reachable from the initial state\n"
        "warning: Q: dead-end: cannot reach the final state\n"
    )


def test_gen_cm_writes_files(tmp_path, capsys):
    # the committed coordination models are gen-cm output, byte for byte
    out = tmp_path / "cms"
    model = FIXTURES / "social_proximity.json"
    assert main(["gen-cm", str(model), "--out-dir", str(out)]) == 0
    expected = FIXTURES / "coordination_models"
    files = sorted(p.name for p in out.glob("*.json"))
    assert len(files) == 6
    assert files == sorted(p.name for p in expected.glob("*.json"))
    for name in files:
        assert (out / name).read_bytes() == (expected / name).read_bytes(), name
    assert "entry states" in capsys.readouterr().out


@pytest.mark.parametrize("ops, error", [
    # (a__b, c) and (a, b__c) both name cm_a__b__c.json
    ([Operation("a__b", "t", "c"), Operation("a", "u", "b__c")],
     "pairs (a,b__c) and (a__b,c) both map to cm_a__b__c.json"),
    # the first pair's file would be written before the second one failed
    ([Operation("A", "t", "B"), Operation("B", "u", "x/y")],
     "pair (B,x/y) gives 'cm_B__x/y.json', which is no plain file name"),
], ids=["shared-name", "slash-in-role"])
def test_gen_cm_refuses_file_names_before_writing_any(tmp_path, capsys, ops, error):
    model = tmp_path / "model.json"
    save_model(chain_model(ops), model)
    out = tmp_path / "cms"
    assert main(["gen-cm", str(model), "--out-dir", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert not out.exists()


def test_bootstrap_prints_updates(scenario_path, capsys):
    assert main(["bootstrap", str(scenario_path)]) == 0
    assert "update S5 -> (IM,UMS)" in capsys.readouterr().out


def twin_fork_scenario() -> Scenario:
    return Scenario(
        model=twin_fork_model(),
        environment={},
        scripts=(ScriptSpec("A", (Action("t0", "B"), Action("t1", "B"))),),
    )


def test_bootstrap_starts_both_branches_of_a_twin_fork(tmp_path, capsys):
    path = tmp_path / "twin_fork.json"
    save_scenario(twin_fork_scenario(), path)
    assert main(["bootstrap", str(path)]) == 0
    assert capsys.readouterr().out == "update P1 -> (A,B)\nupdate Q1 -> (A,B)\n"


def test_run_twin_fork_completes(tmp_path, capsys):
    path = tmp_path / "twin_fork.json"
    save_scenario(twin_fork_scenario(), path)
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 0
    assert "outcome: completed" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["bootstrap", "run"])
def test_undeclared_role_is_a_clean_error(tmp_path, capsys, command):
    # the bundled scenario with IM the only role declared
    data = json.loads((FIXTURES / "scenario_inorder.json").read_text())
    data["cefm"]["roles"] = ["IM"]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    args = [command, str(path)]
    if command == "run":
        args += ["--out-dir", str(tmp_path / "out")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "undeclared-role" in err


def test_run_loop_without_operation_is_a_clean_error(tmp_path, capsys):
    # with p true the loop would come back to itself forever, no one acting
    path = tmp_path / "silent_loop.json"
    scenario = Scenario(
        model=silent_loop_model(),
        environment={"p": True},
        scripts=(ScriptSpec("A", (Action("init", "B"),)),),
    )
    save_scenario(scenario, path)
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "loop-without-operation" in err


def test_run_duplicate_flow_is_a_clean_error(tmp_path, capsys):
    path = tmp_path / "duplicate_flow.json"
    scenario = Scenario(
        model=duplicate_flow_model(),
        environment={},
        scripts=(ScriptSpec("A", (Action("t", "B"),)),),
    )
    save_scenario(scenario, path)
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "F: duplicate-flow" in err


def _exclusive_join_scenario(tmp_path) -> Path:
    path = tmp_path / "exclusive_join.json"
    scenario = Scenario(
        model=exclusive_join_model(),
        environment={"g": True},
        scripts=(
            ScriptSpec("A", (Action("a", "B"),)),
            ScriptSpec("B", (Action("b", "A"),)),
        ),
    )
    save_scenario(scenario, path)
    return path


_EXCLUSIVE_JOIN = "J: join-without-fork: entry P passes the alternative C"


def test_validate_refuses_a_join_that_closes_no_fork(tmp_path, capsys):
    # only one branch of the alternative ever reaches the join, whose
    # token the reference token game would strand
    path = tmp_path / "model.json"
    save_model(exclusive_join_model(), path)
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [_EXCLUSIVE_JOIN]


def test_run_stuck_tokens_is_a_clean_error(tmp_path, capsys):
    path = _exclusive_join_scenario(tmp_path)
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and _EXCLUSIVE_JOIN in err


def test_check_trace_stuck_tokens_is_a_clean_error(tmp_path, capsys):
    path = _exclusive_join_scenario(tmp_path)
    trace = tmp_path / "trace.jsonl"
    forward = {
        "kind": "Forward", "seq": 0, "cd": ["A", "B"], "task": "a",
        "src": "S0", "trg": "S1", "receiver": "B",
    }
    trace.write_text(json.dumps(forward, sort_keys=True) + "\n")
    assert main(["check-trace", str(path), str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and _EXCLUSIVE_JOIN in err


_SILENT_EXIT = "L3: loop-without-operation: the exit to L3 can return to L3 without an operation"


def test_a_loop_whose_exit_comes_back_without_an_operation_is_refused(tmp_path, capsys):
    # with g1 true and g3 false the run would turn round L3 forever
    model = tmp_path / "model.json"
    save_model(silent_exit_cycle_model(), model)
    assert main(["validate", str(model)]) == 1
    assert capsys.readouterr().out.splitlines() == [_SILENT_EXIT]
    path = tmp_path / "scenario.json"
    save_scenario(silent_exit_cycle_scenario(), path)
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and _SILENT_EXIT in err
    trace = tmp_path / "trace.jsonl"
    forward = {
        "kind": "Forward", "seq": 0, "cd": ["B", "A"], "task": "t1",
        "src": "S5", "trg": "T6", "receiver": "A",
    }
    trace.write_text(json.dumps(forward, sort_keys=True) + "\n")
    assert main(["check-trace", str(path), str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and _SILENT_EXIT in err


_AMBIGUOUS = "S1: ambiguous-label: operation ('a', 'b.c', 'd') reads a.b.c.d as ('a.b', 'c', 'd') does"


def test_two_operations_with_one_label_text_are_refused(tmp_path, capsys):
    ops = [Operation("a.b", "c", "d"), Operation("a", "b.c", "d")]
    model = tmp_path / "model.json"
    save_model(chain_model(ops), model)
    assert main(["validate", str(model)]) == 1
    assert capsys.readouterr().out.splitlines() == [_AMBIGUOUS]
    path = tmp_path / "scenario.json"
    scripts = (ScriptSpec("a.b", (Action("c", "d"),)), ScriptSpec("a", (Action("b.c", "d"),)))
    save_scenario(Scenario(model=chain_model(ops), environment={}, scripts=scripts), path)
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and _AMBIGUOUS in err


# A guard tests a variable declared over [1, 2] as a boolean: in an
# alternative, and as a loop's entry guard. A requests its first operation
# to B, which the trace forwards.
_MISTYPED_GUARDS = {
    "alternative": (int_alternative_model, {"x": 1}, "a", ("S0", "S1"),
                    "C: guard-type: x is tested as a boolean in x but declared over [1, 2]"),
    "loop": (int_loop_model, {"p": 1}, "init", ("L1", "L2"),
             "LP: guard-type: p is tested as a boolean in p but declared over [1, 2]"),
}


@pytest.mark.parametrize("shape", sorted(_MISTYPED_GUARDS))
def test_a_guard_testing_a_non_boolean_is_refused(tmp_path, capsys, shape):
    build, env, task, (src, trg), violation = _MISTYPED_GUARDS[shape]
    model_file = tmp_path / "model.json"
    save_model(build(), model_file)
    assert main(["validate", str(model_file)]) == 1
    assert violation in capsys.readouterr().out.splitlines()

    scenario_file = tmp_path / "scenario.json"
    save_scenario(Scenario(build(), env, (ScriptSpec("A", (Action(task, "B"),)),)), scenario_file)
    trace = tmp_path / "trace.jsonl"
    forward = {
        "kind": "Forward", "seq": 0, "cd": ["A", "B"], "task": task,
        "src": src, "trg": trg, "receiver": "B",
    }
    trace.write_text(json.dumps(forward, sort_keys=True) + "\n")
    for argv in (
        ["gen-cm", str(model_file), "--out-dir", str(tmp_path / "cms")],
        ["run", str(scenario_file), "--out-dir", str(tmp_path / "runs")],
        ["check-trace", str(scenario_file), str(trace)],
    ):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and violation in err


def test_run_writes_trace_and_report(scenario_path, tmp_path, capsys):
    out = tmp_path / "runs"
    assert main([
        "run", str(scenario_path), "--out-dir", str(out),
        "--policy", "roundrobin", "--seed", "0",
    ]) == 0
    trace = out / "scenario_roundrobin_0.trace.jsonl"
    report = out / "scenario_roundrobin_0.report.json"
    assert trace.exists() and report.exists()
    data = json.loads(report.read_text())
    assert data["outcome"] == "completed"
    assert data["conformant"] is True
    assert data["verdicts"] == {"Allowed": 8}
    assert data["coordination_messages"] <= data["coordination_bound"]
    lines = trace.read_text().splitlines()
    assert json.loads(lines[0])["seq"] == 0


def test_run_is_byte_deterministic(scenario_path, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        main([
            "run", str(scenario_path), "--out-dir", str(out),
            "--policy", "random", "--seed", "9",
        ])
    name = "scenario_random_9.trace.jsonl"
    assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def _check_trace_lines(forwards: int, flagged: int, member: bool) -> list[str]:
    return [
        f"forwards: {forwards}",
        f"verdicts: {forwards} checked, {flagged} flagged",
        f"complete run of the reference behaviour: {member}",
        "prefix of the reference behaviour: True",
    ]


def test_check_trace_accepts_honest_run(scenario_path, tmp_path, capsys):
    out = tmp_path / "runs"
    main(["run", str(scenario_path), "--out-dir", str(out)])
    capsys.readouterr()
    trace = out / "scenario_roundrobin_0.trace.jsonl"
    assert main(["check-trace", str(scenario_path), str(trace)]) == 0
    assert capsys.readouterr().out.splitlines() == _check_trace_lines(8, 0, True)
    # cut before the last forward, the run is a prefix but not a complete run
    lines = trace.read_text().splitlines(keepends=True)
    last = max(n for n, line in enumerate(lines) if json.loads(line)["kind"] == "Forward")
    cut = tmp_path / "cut.jsonl"
    cut.write_text("".join(lines[:last]))
    assert main(["check-trace", str(scenario_path), str(cut)]) == 0
    assert capsys.readouterr().out.splitlines() == _check_trace_lines(7, 0, False)


def test_check_trace_rejects_corrupted_trace(scenario_path, tmp_path, capsys):
    out = tmp_path / "runs"
    main(["run", str(scenario_path), "--out-dir", str(out)])
    capsys.readouterr()
    trace = out / "scenario_roundrobin_0.trace.jsonl"
    events = [json.loads(line) for line in trace.read_text().splitlines()]
    for e in events:
        if e["kind"] == "Forward" and e["task"] == "startItin":
            e["src"] = "S5"  # claim it fired from the opening state
    doctored = tmp_path / "doctored.jsonl"
    doctored.write_text("".join(json.dumps(e) + "\n" for e in events))
    assert main(["check-trace", str(scenario_path), str(doctored)]) == 1
    printed = capsys.readouterr().out.splitlines()
    assert printed[:2] + printed[-2:] == _check_trace_lines(8, 2, True)
    assert [line.split(" at ")[0] for line in printed[2:-2]] == ["  UndesiredTask"] * 2


def _defect_run(tmp_path, name, scenario, pair, cls) -> tuple[Path, Path, dict]:
    """The defect run through `chorenforce run`: its scenario file, its
    trace file and its report."""
    path = tmp_path / f"{name}.json"
    save_scenario(scenario, path)
    with faulty_delegate(pair, cls):
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 1
    stem = f"{name}_{scenario.policy}_{scenario.seed}"
    report = json.loads((tmp_path / f"{stem}.report.json").read_text())
    return path, tmp_path / f"{stem}.trace.jsonl", report


def test_check_trace_flags_what_run_flagged(tmp_path, capsys):
    cases = [(f"defect_{kind}", *rest) for kind, _, *rest in defect_cases()]
    cases += [(f"silent_{kind}", *rest) for kind, _, *rest in silent_state_defect_cases()]
    assert len(cases) == 10
    for name, scenario, pair, cls in cases:
        path, trace, report = _defect_run(tmp_path, name, scenario, pair, cls)
        flagged = [(f["kind"], f["seq"], tuple(f["cd"]), f["state"], f["detail"])
                   for f in report["flagged"]]
        assert flagged, name
        capsys.readouterr()
        assert main(["check-trace", str(path), str(trace)]) == 1, name
        printed = capsys.readouterr().out.splitlines()
        assert printed[1] == (
            f"verdicts: {sum(report['verdicts'].values())} checked, {len(flagged)} flagged")
        assert printed[2:-2] == [f"  {kind} at seq {seq}: {detail}"
                                 for kind, seq, _, _, detail in flagged], name
        # check-trace prints no pair or state: its checker's verdicts hold them
        events = read_trace(trace)
        checker = RuntimeChecker(scenario.model, scenario.environment)
        verdicts = checker.run(events) + checker.stalled_joins(events)
        assert [(v.kind, v.seq, v.cd, v.state, v.detail) for v in verdicts
                if v.kind != ALLOWED] == flagged, name


def test_a_join_inside_a_loop_is_judged_on_every_pass(tmp_path, capsys):
    # from its n-th pass at J the crossing pair (E,G) crosses without
    # waiting for (C,D); A.t2.B then follows J, and it missed the join
    # where (E,G) had fewer notifications from (C,D) than arrivals at Q2
    scenario = loop_join_scenario()
    path = tmp_path / "loop_join.json"
    save_scenario(scenario, path)
    notified = ("P2", ["C", "D"], "J", ["E", "G"])
    short = []  # (n, policy, seed, arrivals, deliveries) of each such forward
    for policy, seed in [*START_RUNS, ("random", 0), ("random", 4), ("random", 5)]:
        assert run_scenario(scenario, policy=policy, seed=seed).flagged == []
        for n in (1, 2, 3):
            with faulty_delegate(Pair("E", "G"), skip_wait_from_pass(n)):
                result = run_scenario(scenario, policy=policy, seed=seed)
            arrived = delivered = 0
            missed = []
            for e in result.events:
                if e["kind"] == "Notify" and (e["pred"], e["from"], e["join"], e["to"]) == notified:
                    delivered += 1
                elif e["kind"] == "StateChange" and (e["cd"], e["to"]) == (["E", "G"], "Q2"):
                    arrived += 1
                elif e["kind"] == "Forward" and e["task"] == "t2" and delivered < arrived:
                    missed.append(e["seq"])
                    short.append((n, policy, seed, arrived, delivered))
            assert [(v.kind, v.seq) for v in result.flagged] == [(MISSED_JOIN, s) for s in missed]
            trace = tmp_path / f"loop_join_{n}_{policy}_{seed}.trace.jsonl"
            write_trace(result.events, trace)
            capsys.readouterr()
            status = main(["check-trace", str(path), str(trace)])
            assert status == (0 if not missed and result.conformant else 1)
            printed = capsys.readouterr().out.splitlines()
            assert [line.split(":")[0] for line in printed[2:-2]] == [
                f"  {MISSED_JOIN} at seq {s}" for s in missed]
    # 18 of 63 passes forward A.t2.B short of a notification, 12 of them
    # on a pass after the first, where an earlier pass's notification
    # came; at random seed 1, pass 2 of n=2 has one of two
    assert len(short) == 18
    assert sum(arrived > 1 for *_, arrived, _ in short) == 12
    assert (2, "random", 1, 2, 1) in short


def test_check_trace_looks_for_stalled_joins_below_the_event_budget(tmp_path, capsys,
                                                                   monkeypatch):
    ((name, scenario, pair, cls),) = [(f"defect_{kind}", *rest)
                                      for kind, _, *rest in defect_cases()
                                      if kind == DEADLOCKING_JOIN]
    path, trace, _ = _defect_run(tmp_path, name, scenario, pair, cls)
    capsys.readouterr()
    assert main(["check-trace", str(path), str(trace)]) == 1
    assert capsys.readouterr().out.splitlines()[1:3] == [
        "verdicts: 7 checked, 1 flagged",
        "  DeadlockingJoin at seq -1: thread 0 awaits [('S12', ('SPS', 'NMF'))] before S16;"
        " pending requests []",
    ]
    # a trace that holds the budget's events may come from a run cut
    # with a notification still in flight
    monkeypatch.setattr(simulator, "MAX_EVENTS", len(read_trace(trace)))
    assert main(["check-trace", str(path), str(trace)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "verdicts: 6 checked, 0 flagged"


def test_run_share_disabled(tmp_path):
    path = tmp_path / "scenario.json"
    save_scenario(share_disabled_scenario(), path)
    assert main(["run", str(path), "--out-dir", str(tmp_path / "runs")]) == 0


def test_fuzz_small(capsys):
    assert main(["fuzz", "--models", "8", "--seed", "1", "--verbose"]) == 0
    printed = capsys.readouterr().out
    assert "8/8" in printed
    assert "ok (equality" in printed and "ok (prefix" in printed


@pytest.mark.parametrize("count", ["-3", "-1", "0"])
@pytest.mark.parametrize("option", ["--models"])
def test_a_count_below_one_is_a_usage_error(capsys, option, count):
    with pytest.raises(SystemExit) as exit_info:
        main(["fuzz", option, count])
    assert exit_info.value.code == 2
    assert f"{option}: must be at least 1, got {count}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [None, json.dumps({"participants": 5}), "[" * 100_000],
    ids=["missing", "malformed", "deeply-nested-json"],
)
def test_run_missing_or_malformed_scenario_is_a_clean_error(tmp_path, capsys, text):
    path = tmp_path / "scenario.json"
    if text is not None:
        path.write_text(text)
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_check_trace_missing_trace_is_a_clean_error(scenario_path, tmp_path, capsys):
    missing = tmp_path / "missing.trace.jsonl"
    assert main(["check-trace", str(scenario_path), str(missing)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _wrap_first_guard(cefm: dict, wrap) -> dict:
    """The model JSON with its first guard's text passed through wrap."""
    label = next(
        f["label"] for f in cefm["flows"]
        if isinstance(f["label"], dict) and "guard" in f["label"]
    )
    label["guard"] = wrap(label["guard"])
    return cefm


# a guard nested 5,000 levels deep, three ways
def _deep_not(guard: str) -> str:
    return "not " * 5000 + guard


def _first_op(model: dict) -> dict:
    return next(f["label"]["op"] for f in model["flows"] if "op" in f["label"])


def _edited(data: dict, edit) -> dict:
    edit(data)
    return data


def _deep_and(guard: str) -> str:
    return guard + " and true" * 5000


def _deep_parentheses(guard: str) -> str:
    return "(" * 5000 + guard + ")" * 5000


def _corrupt_json(edit):
    return lambda text: json.dumps(_edited(json.loads(text), edit))


@pytest.mark.parametrize(
    "corrupt, named",
    [
        (lambda text: text[: len(text) // 2], "Unterminated string"),
        (lambda text: json.dumps({**json.loads(text), "flows": 5}),
         "'int' object is not iterable"),
        (lambda text: "[" * 100_000, "model nests too deeply to read"),
        *(
            (lambda text, wrap=wrap: json.dumps(_wrap_first_guard(json.loads(text), wrap)),
             "predicate nests deeper than 100 levels")
            for wrap in (_deep_not, _deep_and, _deep_parentheses)
        ),
        (_corrupt_json(lambda data: _first_op(data).update(task=None)),
         "flow S10->S2: operation {'from': 'SPS', 'task': None, 'to': 'UMS'} has a field "
         "that is no string"),
        (_corrupt_json(lambda data: _first_op(data).update({"from": ["SPS"]})),
         "operation {'from': ['SPS'], 'task': 'getFriends', 'to': 'UMS'} has a field"),
        (_corrupt_json(lambda data: _first_op(data).update(to=["UMS"])),
         "operation {'from': 'SPS', 'task': 'getFriends', 'to': ['UMS']} has a field"),
        (_corrupt_json(lambda data: data["roles"].append(None)),
         "declared role None is no string"),
        (_corrupt_json(lambda data: _first_op(data).pop("to")),
         "bad operation label: {'op': {'from': 'SPS', 'task': 'getFriends'}}"),
        (_corrupt_json(lambda data: data["flows"][0].update(label="epsilon")),
         "unrecognized flow label: 'epsilon'"),
        (_corrupt_json(lambda data: data.update(initial="Nowhere")),
         "initial/final state 'Nowhere' not declared"),
        (_corrupt_json(lambda data: _wrap_first_guard(data, lambda guard: guard + " & x")),
         "bad character in predicate at ' & x'"),
        (_corrupt_json(lambda data: _wrap_first_guard(data, lambda guard: f"({guard} {guard})")),
         "unbalanced parenthesis"),
    ],
    ids=[
        "truncated-json",
        "flows-number",
        "deeply-nested-json",
        "deep-not-guard",
        "deep-and-guard",
        "deep-parenthesised-guard",
        "null-task",
        "list-initiator",
        "list-receiver",
        "null-role",
        "operation-without-receiver",
        "unknown-label",
        "undeclared-initial-state",
        "bad-character-in-guard",
        "unbalanced-guard",
    ],
)
def test_validate_corrupted_model_is_a_clean_error(tmp_path, capsys, corrupt, named):
    path = tmp_path / "corrupted.json"
    path.write_text(corrupt((FIXTURES / "social_proximity.json").read_text()))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize(
    "edit, line",
    [
        (lambda data: next(f for f in data["flows"] if f["from"] == "Initial").update(
            label={"guard": "true"}),
         "Initial: initial-degree: outgoing flow carries a guard"),
        (lambda data: data["flows"].append({"from": "S16", "label": "eps", "to": "Final"}),
         "S16: join-degree: expected exactly one epsilon successor"),
        (lambda data: next(f for f in data["flows"] if f["from"] == "Initial").update(
            label={"guard": "true"}),
         "Initial: guard-placement: guard flow out of an initial state"),
        (lambda data: next(f for f in data["flows"] if f["from"] == "S13").update(
            label={"guard": "true"}),
         "S13: guard-placement: guard flow out of a fork state"),
    ],
    ids=["guarded-initial-flow", "join-with-two-successors", "guard-out-of-the-initial-state",
         "guard-out-of-a-fork"],
)
def test_validate_prints_the_rule_a_model_breaks(tmp_path, capsys, edit, line):
    data = json.loads((FIXTURES / "social_proximity.json").read_text())
    edit(data)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == 1
    assert line in capsys.readouterr().out.splitlines()


def test_bundled_fixture_scenarios_run(tmp_path):
    for name in (
        "scenario_inorder.json",
        "scenario_shuffled.json",
        "scenario_adversarial.json",
        "scenario_share_disabled.json",
    ):
        code = main([
            "run", str(FIXTURES / name), "--out-dir", str(tmp_path / "runs"),
        ])
        assert code == 0, name


def _unknown_action(data):
    data["participants"][1]["actions"][4] = ["startItin", "UMS"]


def _unknown_injection(data):
    data["participants"][1]["injections"] = [
        {"after": 1, "task": "noSuchTask", "target": "NMU"}
    ]


def _unbound_guard_variable(data):
    del data["environment"]["friendFound"]


def _int_for_bool_variable(data):
    data["environment"]["shareEnabled"] = 1


def _value_outside_int_domain(data):
    # the shareEnabled alternative decided by n == 0 / n == 1 instead
    guards = {"shareEnabled": "n == 1", "not shareEnabled": "n == 0"}
    for flow in data["cefm"]["flows"]:
        label = flow["label"]
        if isinstance(label, dict) and label.get("guard") in guards:
            label["guard"] = guards[label["guard"]]
    data["cefm"]["variables"]["n"] = [0, 1]
    data["environment"]["n"] = 5


def _injection_after(after):
    def edit(data):
        data["participants"][1]["injections"] = [
            {"after": after, "task": "startItin", "target": "NMU"}
        ]
    return edit


def _shuffled_group(group):
    def edit(data):
        data["mode"] = "shuffled"
        data["participants"][1]["reorderable"] = [group]
    return edit


def _second_participant_for_role(data):
    data["participants"].append(json.loads(json.dumps(data["participants"][0])))


def _list_for_task(data):
    data["participants"][0]["actions"][0] = [["getUserPref"], "UMS"]


@pytest.mark.parametrize(
    "edit, named",
    [
        (_unknown_action, "SPS.startItin.UMS"),
        (_unknown_injection, "SPS.noSuchTask.NMU"),
        (_unbound_guard_variable, "friendFound"),
        (_int_for_bool_variable, "shareEnabled"),
        (_value_outside_int_domain, "n to 5"),
        (lambda data: data.update(policy="bogus"), "unknown policy 'bogus'"),
        (lambda data: data.update(mode="bogus"), "unknown mode 'bogus'"),
        (lambda data: data.update(seed=[1], policy="random"), "seed [1] is no integer"),
        (lambda data: data.update(seed=None), "seed None is no integer"),
        (
            lambda data: data["participants"][0].update(role=["IM"]),
            "participant role ['IM'] is no string",
        ),
        (_list_for_task, "task ['getUserPref'] of 'UMS'"),
        (_injection_after("0"), "after '0' names no index of its 6 actions"),
        (_injection_after(6), "after 6 names no index of its 6 actions"),
        (_injection_after(-1), "after -1 names no index of its 6 actions"),
        (_shuffled_group([0, 99]), "reorder group [0, 99] names 99"),
        (_shuffled_group(["0", "1"]), "reorder group ['0', '1'] names '0'"),
        (_second_participant_for_role, "two participants play role IM"),
        (
            lambda data: _wrap_first_guard(data["cefm"], _deep_not),
            "predicate nests deeper than 100 levels",
        ),
        (
            lambda data: _first_op(data["cefm"]).update({"from": ["SPS"]}),
            "operation {'from': ['SPS'],",
        ),
    ],
    ids=[
        "unknown-action",
        "unknown-injection",
        "unbound-guard-variable",
        "int-for-bool-variable",
        "value-outside-domain",
        "unknown-policy",
        "unknown-mode",
        "list-seed",
        "null-seed",
        "list-role",
        "list-task",
        "string-injection-index",
        "injection-index-past-the-actions",
        "negative-injection-index",
        "reorder-index-past-the-actions",
        "string-reorder-index",
        "role-played-twice",
        "deep-not-guard",
        "list-operation-initiator",
    ],
)
def test_run_unrunnable_scenario_is_a_clean_error(tmp_path, capsys, edit, named):
    data = json.loads((FIXTURES / "scenario_inorder.json").read_text())
    edit(data)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


def _structurally_invalid(cefm, state="S5"):
    # a second way out of a plain state
    cefm["flows"].append({"from": state, "label": "eps", "to": "Final"})


def test_every_door_refuses_a_model_with_one_text(tmp_path, capsys):
    # decomposition, the checker and bootstrap all ask require_valid
    model = silent_loop_model()
    with pytest.raises(InvalidModelError) as decomposed:
        generate_all(model)
    with pytest.raises(InvalidModelError) as checked:
        RuntimeChecker(model, {"p": True})
    path = tmp_path / "silent_loop.json"
    scenario = Scenario(
        model=model,
        environment={"p": True},
        scripts=(ScriptSpec("A", (Action("init", "B"),)),),
    )
    save_scenario(scenario, path)
    assert main(["bootstrap", str(path)]) == 2
    text = str(decomposed.value)
    assert "loop-without-operation" in text
    assert str(checked.value) == text
    assert capsys.readouterr().err == f"error: {text}\n"


def test_run_structurally_invalid_model_is_a_clean_error(tmp_path, capsys):
    data = json.loads((FIXTURES / "scenario_inorder.json").read_text())
    _structurally_invalid(data["cefm"])
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "S5: plain-degree" in err


def test_gen_cm_structurally_invalid_model_is_a_clean_error(tmp_path, capsys):
    data = json.loads((FIXTURES / "social_proximity.json").read_text())
    _structurally_invalid(data)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    assert main(["gen-cm", str(path), "--out-dir", str(tmp_path / "cms")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "S5: plain-degree" in err


def test_long_chain_run_and_check_trace_conform(tmp_path, capsys):
    # longer than the 50 operations the reference enumeration lists
    path = tmp_path / "chain.json"
    save_scenario(chain_scenario(60), path)
    runs = tmp_path / "runs"
    assert main(["run", str(path), "--out-dir", str(runs)]) == 0
    assert "conformant: True" in capsys.readouterr().out
    trace = next(runs.glob("*.trace.jsonl"))
    assert main(["check-trace", str(path), str(trace)]) == 0
    assert "complete run of the reference behaviour: True" in capsys.readouterr().out


def test_run_and_check_trace_never_enumerate(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("the reference language was enumerated")

    monkeypatch.setattr(Language, "_listing", property(refuse))
    scenario = FIXTURES / "scenario_adversarial.json"
    runs = tmp_path / "runs"
    assert main(["run", str(scenario), "--out-dir", str(runs)]) == 0
    trace = next(runs.glob("*.trace.jsonl"))
    assert main(["check-trace", str(scenario), str(trace)]) == 0


def test_check_trace_structurally_invalid_model_is_a_clean_error(tmp_path, capsys):
    # check-trace validates the model and never decomposes it, so the
    # bundled model, which has a join, and a model without one are both
    # refused by validation alone
    join_free = tmp_path / "guarded_start.json"
    save_scenario(
        Scenario(
            model=guarded_start_model(),
            environment={"v": True},
            scripts=(ScriptSpec("A", (Action("t", "B"),)),),
        ),
        join_free,
    )
    for scenario, state in ((FIXTURES / "scenario_inorder.json", "S5"), (join_free, "S1")):
        runs = tmp_path / scenario.stem
        assert main(["run", str(scenario), "--out-dir", str(runs)]) == 0
        trace = next(runs.glob("*.trace.jsonl"))
        data = json.loads(scenario.read_text())
        _structurally_invalid(data["cefm"], state)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["check-trace", str(path), str(trace)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{state}: plain-degree" in err


@pytest.mark.parametrize(
    "extra,named",
    [
        ("[1, 2]", "line 64: expected one JSON object"),
        ('{"kind": "Forward", "seq": 99}', "event 63: missing field 'cd'"),
        ('{"seq": 99}', "event 63: missing field 'kind'"),
        ('{"kind": "Notify", "seq": 99, "pred": "S1"}', "event 63: missing field 'from'"),
        (
            '{"kind": "Forward", "seq": 99, "cd": 5, "task": "t", "src": "S1"}',
            "event 63: 'int' object is not iterable",
        ),
        ('{"kind": "Bogus"}', "event 63: unknown kind 'Bogus'"),
        (
            '{"kind": "Forward", "cd": "IS", "task": "x", "src": "S1", "seq": 5}',
            "event 63: Forward cd is not a list of two roles: 'IS'",
        ),
        (
            '{"kind": "Notify", "from": "IS", "to": "UM", "pred": "S1", "join": "S2",'
            ' "seq": 99}',
            "event 63: Notify from is not a list of two roles: 'IS'",
        ),
        ('{"kind": "Request", "seq": "x"}', "event 63: seq must be an int"),
        ('{"kind": "Request", "seq": true}', "event 63: seq must be an int"),
        ('{"kind": "Request", "seq": 62}', "previous event's, got 62"),
        # fields the stalled-join pass reads, which check-trace runs on
        # every trace
        (
            '{"kind": "StateChange", "seq": 99, "cd": ["IM", "UMS"], "from": null, "to": "S5"}',
            "event 63: missing field 'thread'",
        ),
        (
            '{"kind": "StateChange", "seq": 99, "cd": ["IM", "UMS"], "from": null,'
            ' "to": "S5", "thread": "0"}',
            "event 63: StateChange thread is not an int: '0'",
        ),
        (
            '{"kind": "Block", "seq": 99, "cd": "IS", "participant": "IM",'
            ' "request_id": 9, "task": "getUserPref"}',
            "event 63: Block cd is not a list of two roles: 'IS'",
        ),
        (
            '{"kind": "Unblock", "seq": 99, "cd": ["IM", "UMS"], "request_id": [9],'
            ' "task": "getUserPref"}',
            "event 63: Unblock needs an int request_id and a str task, got [9], 'getUserPref'",
        ),
        ('{"kind": "Request", "seq": 99}', "event 63: missing field 'cd'"),
        (
            '{"kind": "Request", "seq": 99, "cd": ["IM", "UMS"], "participant": "IM",'
            ' "task": "getUserPref", "request_id": 9, "injected": 0}',
            "event 63: Request needs a str participant and task, an int request_id and a bool"
            " injected, got ('IM', 'getUserPref', 9, 0)",
        ),
        (
            '{"kind": "Update", "seq": 99, "from": null, "to": ["IM", "UMS"], "state": null}',
            "event 63: Update state is not a str: None",
        ),
        (
            '{"kind": "Update", "seq": 99, "from": ["SPS", "NMU"], "state": "S5"}',
            "event 63: missing field 'to'",
        ),
        (
            '{"kind": "Block", "seq": 99, "cd": ["IM", "UMS"], "request_id": 9,'
            ' "task": "getUserPref"}',
            "event 63: missing field 'participant'",
        ),
        (
            '{"kind": "Block", "seq": 99, "cd": ["IM", "UMS"], "participant": 3,'
            ' "request_id": 9, "task": "getUserPref"}',
            "event 63: Block participant is not a str: 3",
        ),
        (
            '{"kind": "Forward", "seq": 99, "cd": ["IM", "UMS"], "task": "getUserPref",'
            ' "src": "S1"}',
            "event 63: missing field 'receiver'",
        ),
        (
            '{"kind": "Forward", "seq": 99, "cd": ["IM", "UMS"], "receiver": "UMS",'
            ' "task": "getUserPref", "src": "S1", "trg": 5}',
            "event 63: Forward needs a str receiver, src and task and a null or str trg,"
            " got ('UMS', 'S1', 'getUserPref', 5)",
        ),
        (
            '{"kind": "StateChange", "seq": 99, "cd": ["IM", "UMS"], "from": 7, "to": "S5",'
            ' "thread": 0}',
            "event 63: StateChange from is neither null nor a str: 7",
        ),
        (
            '{"kind": "Notify", "seq": 99, "from": ["SPS", "NMF"], "to": ["SPS", "NMU"],'
            ' "pred": "S12", "join": 3}',
            "event 63: Notify needs a str pred and join, got 'S12', 3",
        ),
    ],
    ids=[
        "array",
        "forward-without-cd",
        "no-kind",
        "notify-without-from",
        "int-cd",
        "unknown-kind",
        "string-cd",
        "notify-string-roles",
        "string-seq",
        "bool-seq",
        "repeated-seq",
        "state-change-without-thread",
        "string-thread",
        "block-string-cd",
        "list-request-id",
        "bare-request",
        "request-int-injected",
        "update-null-state",
        "update-without-to",
        "block-without-participant",
        "block-int-participant",
        "forward-without-receiver",
        "forward-int-trg",
        "state-change-int-from",
        "notify-int-join",
    ],
)
def test_check_trace_malformed_trace_is_a_clean_error(tmp_path, capsys, monkeypatch,
                                                      extra, named):
    scenario = FIXTURES / "scenario_inorder.json"
    runs = tmp_path / "runs"
    main(["run", str(scenario), "--out-dir", str(runs)])
    trace = next(runs.glob("*.trace.jsonl"))
    assert len(trace.read_text().splitlines()) == 63
    with trace.open("a") as fh:
        fh.write(extra + "\n")
    capsys.readouterr()
    # under the event budget, then as a trace the budget cut
    for budget in (simulator.MAX_EVENTS, 63):
        monkeypatch.setattr(simulator, "MAX_EVENTS", budget)
        assert main(["check-trace", str(scenario), str(trace)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: trace ") and named in err


@pytest.mark.parametrize(
    "command", ["validate", "gen-cm", "bootstrap", "run", "check-trace"]
)
def test_a_non_string_operation_field_is_a_clean_error(tmp_path, capsys, command):
    if command in ("bootstrap", "run", "check-trace"):
        data = json.loads((FIXTURES / "scenario_inorder.json").read_text())
        _first_op(data["cefm"]).update(task=None)
    else:
        data = json.loads((FIXTURES / "social_proximity.json").read_text())
        _first_op(data).update(task=None)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    args = [command, str(path)]
    if command == "check-trace":
        trace = tmp_path / "empty.trace.jsonl"
        trace.write_text("")
        args.append(str(trace))
    elif command in ("gen-cm", "run"):
        args += ["--out-dir", str(tmp_path / "out")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'task': None" in err and "no string" in err


@pytest.mark.parametrize(
    "command", ["validate", "gen-cm", "bootstrap", "run", "check-trace"]
)
def test_input_that_is_not_utf8_is_a_clean_error(tmp_path, capsys, command):
    # a UTF-16 byte order mark in front of an otherwise valid file
    if command in ("bootstrap", "run", "check-trace"):
        source = "scenario_inorder.json"
    else:
        source = "social_proximity.json"
    path = tmp_path / source
    path.write_bytes(b"\xff\xfe" + (FIXTURES / source).read_bytes())
    args = [command, str(path)]
    if command == "check-trace":
        trace = tmp_path / "empty.trace.jsonl"
        trace.write_text("")
        args.append(str(trace))
    elif command in ("gen-cm", "run"):
        args += ["--out-dir", str(tmp_path / "out")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "is not text" in err
