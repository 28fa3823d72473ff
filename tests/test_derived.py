"""What the package reads off the model agrees with the tables it replaced.

The checker used to keep five tables beside the model, filled by one
pass over every flow, and the delegates used to share a rank table that
numbered the pairs in sorted order. Both are kept here as references:
the checker must give the same verdicts as the five-table classifier on
every trace below, and a delegate must win a join exactly when its rank
is higher. So is the scan that found stalled joins in the delegates a
run left behind, before the checker found them in the trace: both must
name the same threads, except where a join inside a loop shows that
counting the trace's notifications finds more.
"""

from __future__ import annotations

import random

from chorenforce.decompose import CoordTuple, Pair, generate_all
from chorenforce.delegate import Delegate
from chorenforce.model import Epsilon, Guard, Operation, StateKind
from chorenforce.oracle import (
    ALLOWED,
    DEADLOCKING_JOIN,
    INVALID_ALTERNATIVE,
    INVALID_LOOP,
    MISSED_JOIN,
    MISSED_LOOP,
    UNDESIRED_TASK,
    RuntimeChecker,
    Verdict,
    _roles,
)
from chorenforce.interpreter import reference_traces
from chorenforce.predicate import TRUE, eval_pred
from chorenforce.randgen import random_case, scripts_for_word
from chorenforce.participants import Scenario
from chorenforce.runner import RunResult, run_scenario
from chorenforce.simulator import DEADLOCKED
from chorenforce.validate import validate_cefm
from helpers import (
    START_RUNS,
    Outbox,
    defect_cases,
    faulty_delegate,
    fixture_scenario,
    inorder_scenario,
    loop_branch_stall_scenario,
    loop_join_scenario,
    recorded_delegates,
    sp_model,
)
from mutants import (
    forward_without_check,
    ignore_loop_guard,
    skip_guard_check,
    skip_notify,
    skip_notify_on_pass,
    skip_wait,
)

FIXTURE_NAMES = ("inorder", "shuffled", "adversarial", "share_disabled")


class FiveTableChecker(RuntimeChecker):
    """The classifier as it was before it read the flow entering a
    forward's source state: five tables built from every flow. It reads
    the tasks available at a state, and who waits at a join, off the
    coordination models; the checker reads them off the model and its
    validation report."""

    def __init__(self, model, env, cms):
        super().__init__(model, env)
        self.cms = cms
        self._alt_guard_in = {}
        self._loop_guard_in = {}
        self._loop_exit_in = {}
        self._join_exit_in = {}
        self._loop_entry_guard = {}
        for flow in model.flows:
            kind = model.states[flow.src]
            if isinstance(flow.label, Guard):
                if kind is StateKind.ALTERNATIVE:
                    self._alt_guard_in[flow.trg] = flow.label.pred
                elif kind is StateKind.LOOP:
                    self._loop_guard_in[flow.trg] = flow.label.pred
                    self._loop_entry_guard[flow.src] = flow.label.pred
            elif isinstance(flow.label, Epsilon):
                if kind is StateKind.LOOP:
                    self._loop_exit_in[flow.trg] = flow.src
                elif kind is StateKind.JOIN:
                    self._join_exit_in[flow.trg] = flow.src

    def _classify(self, event, delivered, arrived):
        cd = _roles(event, "cd")
        task = event["task"]
        src = event["src"]

        def verdict(kind, detail=""):
            return Verdict(event["seq"], kind, cd, task, src, detail)

        cm = self.cms.get(cd)
        tuples = cm.tuples_from(src) if cm is not None else []
        allowed_ops = {t.op for t in tuples if t.op is not None}
        if task not in allowed_ops:
            return verdict(
                UNDESIRED_TASK,
                f"{task!r} not among {sorted(allowed_ops)} at {src}",
            )
        if src in self._alt_guard_in:
            pred = self._alt_guard_in[src]
            if not eval_pred(pred, self.env):
                return verdict(INVALID_ALTERNATIVE, f"branch guard false at {src}")
        if src in self._loop_guard_in:
            pred = self._loop_guard_in[src]
            if not eval_pred(pred, self.env):
                return verdict(INVALID_LOOP, f"loop entry guard false at {src}")
        if src in self._loop_exit_in:
            loop_state = self._loop_exit_in[src]
            pred = self._loop_entry_guard.get(loop_state)
            if pred is not None and eval_pred(pred, self.env):
                return verdict(
                    MISSED_LOOP, f"loop at {loop_state} should repeat, not exit"
                )
        if src in self._join_exit_in:
            join = self._join_exit_in[src]
            # the waiters are every wait entry of a tuple into the join;
            # the pair that sorts last crosses, from one of its tuples
            # with every wait delivered, and another waiter that forwards
            # here must have had that tuple's notification
            into = [t for m in self.cms.values() for t in m.tuples if t.trg == join]
            waiters = frozenset().union(*(t.to_be_waited for t in into))
            pairs = {tuple(p) for _, p in waiters}
            if pairs:
                crosser = max(pairs)
                missed = []
                ends = [t for t in self.cms[crosser].tuples if t.trg == join]
                for t in sorted(ends, key=CoordTuple.sort_key):
                    needed = [(e, tuple(p), crosser) for e, p in sorted(t.to_be_waited)]
                    if cd != crosser and cd in pairs:
                        needed.append((t.src, crosser, cd))
                    missing = [n for n in needed if (n[0], n[1], join, n[2]) not in delivered]
                    if not missing:
                        return verdict(ALLOWED)
                    missed.append((arrived.get((crosser, t.src)) or 1, missing))
                k, missing = min(missed, key=lambda m: len(m[1]))
                counts = {n: delivered.get((n[0], n[1], join, n[2]), 0) for n in missing}
                return verdict(
                    MISSED_JOIN,
                    f"crossed {join} at arrival {k} of {crosser} with notifications "
                    f"delivered {counts}",
                )
        return verdict(ALLOWED)


def _variants(events, model):
    """The trace, then for each forward and each operation flow of the
    model the trace with that forward replaced by one of the flow."""
    yield events
    ops = [f for f in model.flows if isinstance(f.label, Operation)]
    for i, event in enumerate(events):
        if event["kind"] != "Forward":
            continue
        for f in ops:
            moved = {
                **event,
                "cd": [f.label.initiator, f.label.receiver],
                "task": f.label.task,
                "src": f.src,
            }
            yield [*events[:i], moved, *events[i + 1:]]


def _compare(scenario, events, kinds):
    """Assert that both checkers agree on the trace and its variants;
    count the verdict kinds seen."""
    model, env = scenario.model, scenario.environment
    derived = RuntimeChecker(model, env)
    reference = FiveTableChecker(model, env, generate_all(model))
    for variant in _variants(events, model):
        verdicts = derived.run(variant)
        assert verdicts == reference.run(variant)
        for v in verdicts:
            kinds[v.kind] = kinds.get(v.kind, 0) + 1


def test_classify_matches_the_five_tables_on_the_fixtures():
    kinds: dict[str, int] = {}
    for name in FIXTURE_NAMES:
        for policy in ("roundrobin", "random"):
            for seed in range(5):
                scenario = fixture_scenario(name)
                result = run_scenario(scenario, policy=policy, seed=seed)
                _compare(scenario, result.events, kinds)
    # the social proximity model has no loop
    assert set(kinds) == {ALLOWED, INVALID_ALTERNATIVE, MISSED_JOIN}


def test_classify_matches_the_five_tables_on_the_defect_runs():
    kinds: dict[str, int] = {}
    for _, _, scenario, pair, cls in defect_cases():
        with faulty_delegate(pair, cls):
            result = run_scenario(scenario)
        _compare(scenario, result.events, kinds)
    # DeadlockingJoin is no forward's verdict: the stalled-join pass finds it
    assert set(kinds) == {
        ALLOWED,
        UNDESIRED_TASK,
        INVALID_ALTERNATIVE,
        INVALID_LOOP,
        MISSED_LOOP,
        MISSED_JOIN,
    }


def _random_model_runs():
    """For 60 random models (seed 9), each reference word's run under the
    random policy, then its runs with one faulty delegate of each kind in
    turn at a random pair, as (scenario, mutant, result, delegates); the
    mutant is the faulty delegate's factory name, or None for the honest
    run, and the delegates are the run's by pair."""
    rng = random.Random(9)
    for _ in range(60):
        case = random_case(rng)
        pairs = sorted(generate_all(case.model))
        for word in case.words:
            scenario = Scenario(
                model=case.model,
                environment=dict(case.env),
                scripts=scripts_for_word(case.model, word),
            )
            with recorded_delegates() as delegates:
                result = run_scenario(scenario, policy="random", seed=rng.randrange(100))
            yield scenario, None, result, delegates
            for mutant, cls in (
                ("forward_without_check", forward_without_check()),
                ("skip_guard_check", skip_guard_check(case.model.states)),
                ("ignore_loop_guard", ignore_loop_guard(case.model.states)),
                ("skip_wait", skip_wait()),
                ("skip_notify", skip_notify()),
            ):
                with faulty_delegate(rng.choice(pairs), cls) as delegates:
                    result = run_scenario(scenario)
                yield scenario, mutant, result, delegates


def test_classify_matches_the_five_tables_on_random_models():
    kinds: dict[str, int] = {}
    for scenario, _, result, _ in _random_model_runs():
        _compare(scenario, result.events, kinds)
    assert set(kinds) == {
        ALLOWED,
        UNDESIRED_TASK,
        INVALID_ALTERNATIVE,
        INVALID_LOOP,
        MISSED_LOOP,
        MISSED_JOIN,
    }


def delegate_scan(delegates: dict[Pair, Delegate]) -> list[Verdict]:
    """The DeadlockingJoin findings as the runner made them before it
    read the trace: one for each thread that a run's delegates still
    held with a tuple into a join, pair by pair in sorted order."""
    findings = []
    for pair in sorted(delegates):
        delegate = delegates[pair]
        pending = [task for _, task in delegate.pending]
        for thread in delegate.threads:
            if thread.pending_tuple is None:
                continue
            awaited = sorted((state, tuple(p)) for state, p in thread.awaited)
            findings.append(Verdict(
                -1, DEADLOCKING_JOIN, tuple(pair), None, thread.state,
                f"thread {thread.id} awaits {awaited} before {thread.pending_tuple.trg}; "
                f"pending requests {pending}",
            ))
    return findings


def stalls(result: RunResult) -> list[Verdict]:
    """The run's DeadlockingJoin verdicts, which the checker found in its trace."""
    return [v for v in result.verdicts if v.kind == DEADLOCKING_JOIN]


def test_the_trace_finds_the_stalled_joins_the_delegates_held():
    ((_, _, scenario, pair, cls),) = [c for c in defect_cases() if c[0] == DEADLOCKING_JOIN]
    runs = [(scenario, pair, None, None), (inorder_scenario(), pair, "roundrobin", 0)]
    runs += [(loop_branch_stall_scenario(), None, policy, seed) for policy, seed in START_RUNS]
    for stalling, faulty, policy, seed in runs:
        with faulty_delegate(faulty, cls) as delegates:
            result = run_scenario(stalling, policy=policy, seed=seed)
        assert result.outcome == DEADLOCKED
        assert len(stalls(result)) == 1
        assert stalls(result) == delegate_scan(delegates)


def test_the_trace_finds_the_stalled_joins_the_delegates_held_on_random_models():
    stalled = found = complete = 0
    for scenario, mutant, result, delegates in _random_model_runs():
        if result.outcome != DEADLOCKED:
            # the pass is asked only after a stalled run; it finds
            # nothing in any other run of these
            checker = RuntimeChecker(scenario.model, scenario.environment)
            assert checker.stalled_joins(result.events) == delegate_scan(delegates) == []
            continue
        stalled += 1
        assert stalls(result) == delegate_scan(delegates)
        if stalls(result):
            assert mutant == "skip_notify"
            found += 1
            complete += _is_complete(scenario, result)
    # a third of the findings come after a complete word: the pass
    # cannot take a complete word for a run that did not stall
    assert (stalled, found, complete) == (66, 19, 10)


def _is_complete(scenario: Scenario, result: RunResult) -> bool:
    language = reference_traces(scenario.model, scenario.environment)
    return language.is_member(result.projection)


def test_a_join_inside_a_loop_counts_each_pass():
    # with g true the loop never exits: every run stalls after three
    # passes, (X,Y) waiting at B0 for a fourth request
    scenario = loop_join_scenario()
    loser, crosser = Pair("C", "D"), Pair("E", "G")
    assert validate_cefm(scenario.model).arrivals == {"J": (("P2", loser), ("Q2", crosser))}
    owed_by_the_loser = (
        "thread {} awaits [('P2', ('C', 'D'))] before J; pending requests {}")
    owed_by_the_crosser = (
        "thread 2 awaits [('Q2', ('E', 'G'))] before J; pending requests []")
    scan_missed = []
    for policy, seed in START_RUNS:
        with recorded_delegates() as delegates:
            honest = run_scenario(scenario, policy=policy, seed=seed)
        assert (honest.outcome, honest.flagged, delegate_scan(delegates)) == (DEADLOCKED, [], [])
        for n in (1, 2, 3):
            # the crosser's thread of pass n waits for ever, and the
            # crosser's next request with it
            with faulty_delegate(loser, skip_notify_on_pass(n)) as delegates:
                result = run_scenario(scenario, policy=policy, seed=seed)
            detail = owed_by_the_loser.format(n - 1, ["t3"] if n < 3 else [])
            assert [(v.cd, v.state, v.detail) for v in stalls(result)] == [
                (crosser, "Q2", detail)]
            assert stalls(result) == delegate_scan(delegates)

            with faulty_delegate(crosser, skip_notify_on_pass(n)) as delegates:
                result = run_scenario(scenario, policy=policy, seed=seed)
            assert [(v.cd, v.state, v.detail) for v in stalls(result)] == [
                (loser, "P2", owed_by_the_crosser)]
            if n == 3:
                assert stalls(result) == delegate_scan(delegates)
            elif not delegate_scan(delegates):
                scan_missed.append((n, policy, seed))
            else:
                assert stalls(result) == delegate_scan(delegates)
    # Where the crosser suppresses pass 1's or pass 2's notification, the
    # loser's thread of that pass waits on. The next pass's notification
    # releases it, and with it the loser's thread of that pass if that
    # one waits already; the last notification then releases the last
    # thread. No delegate is left holding a waiting thread, so the scan
    # names nothing, while the trace shows the loser at P2 three times
    # and notified twice. Where the next thread arrives only after that
    # notification, the last thread is left waiting and both name it.
    assert sorted(scan_missed) == [(1, "random", 1), (1, "random", 2), (1, "random", 3),
                                   (1, "roundrobin", 0), (2, "random", 3), (2, "roundrobin", 0)]


def _crosses(pair, cm, waited) -> bool:
    """Whether a thread of the pair's delegate, waiting before join J on
    a notification from each pair in `waited`, crosses J once they all
    arrived."""
    delegate = Delegate(pair, cm, {})
    delegate.out = Outbox()
    thread = delegate._spawn("W")
    thread.pending_tuple = CoordTuple(
        "W", None, "J", frozenset(), TRUE, frozenset(),
        frozenset(("W", p) for p in waited),
    )
    return delegate._resolve_join(thread)


def test_join_winner_is_the_pair_the_rank_table_put_highest():
    # the old rank table numbered a run's pairs in sorted order; a wait
    # entry naming the thread's own pair is a sibling thread of its own
    # delegate, which does not outrank it
    rng = random.Random(198)
    models = [sp_model()] + [random_case(rng).model for _ in range(200)]
    for model in models:
        cms = generate_all(model)
        rank = {pair: r for r, pair in enumerate(sorted(cms))}
        for pair, cm in cms.items():
            for other in cms:
                assert _crosses(pair, cm, [other]) == (rank[pair] >= rank[other])
            others = sorted(p for p in cms if p != pair)
            assert _crosses(pair, cm, others) == all(
                rank[pair] > rank[p] for p in others
            )
