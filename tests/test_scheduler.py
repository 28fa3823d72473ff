"""The simulator's scheduler: which sources are ready and which one runs.

The trace digests pin the schedule itself, so a change that picks a
different (still deterministic) order fails here even though two runs of
the same code would agree. The other tests compare the simulator's ready
set and the round-robin rotation against straightforward references.
"""

import hashlib
import json
import random
import time
from pathlib import Path

import pytest

from chorenforce import runner
from chorenforce.decompose import generate_all
from chorenforce.delegate import Delegate
from chorenforce.participants import Scenario, load_scenario
from chorenforce.randgen import random_case, scripts_for_word
from chorenforce.runner import run_scenario, trace_lines
from chorenforce.simulator import COMPLETED, RoundRobin, SimulationError, Simulator
from helpers import (
    chain_model_scenario,
    chain_scenario,
    defect_cases,
    faulty_delegate,
    fork_model,
    random_chain_ops,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE_NAMES = ("inorder", "shuffled", "adversarial", "share_disabled")
POLICIES = ("roundrobin", "random")


def fork_scenario(k: int) -> Scenario:
    model = fork_model(k)
    word = tuple(op.label for op in model.operations())
    return Scenario(model=model, environment={}, scripts=scripts_for_word(model, word))


def fixture(name: str) -> Scenario:
    return load_scenario(FIXTURES / f"scenario_{name}.json")


def sha256_of_trace(scenario: Scenario, policy: str, seed: int) -> str:
    result = run_scenario(scenario, policy=policy, seed=seed)
    return hashlib.sha256(trace_lines(result.events).encode()).hexdigest()


# -- pinned trace bytes ------------------------------------------------------

# sha256 of trace_lines, recorded before the ready set was kept incrementally
TRACE_SHA256 = {
    ("inorder", "roundrobin", 0): "6c97e5e4365f6cb5043303c7a6c72355c629c65f1d99d990ae889ca5a6acdf09",
    ("inorder", "roundrobin", 7): "6c97e5e4365f6cb5043303c7a6c72355c629c65f1d99d990ae889ca5a6acdf09",
    ("inorder", "random", 0): "5196106921d69919038a391ae2d937dadb47c25441e03a1f62453e74496dc997",
    ("inorder", "random", 7): "e18853c1c8f1fd17c0bd1a7212c341da2caa3da84031924144b5f000e7e04bdd",
    ("shuffled", "roundrobin", 0): "6c97e5e4365f6cb5043303c7a6c72355c629c65f1d99d990ae889ca5a6acdf09",
    ("shuffled", "roundrobin", 7): "4508671dd3a52650c663f6754ea8ef7c19805a2098df9f9cf65c21591afd5ab1",
    ("shuffled", "random", 0): "5196106921d69919038a391ae2d937dadb47c25441e03a1f62453e74496dc997",
    ("shuffled", "random", 7): "d7aebea8276fafdff7ca3ac7a333a59e1a008cee05e9f062fff9ddbd6e9cec41",
    ("adversarial", "roundrobin", 0): "59352617da470c9b4f745b54901081f3be07a128671b8ca5b060c45f917fd2ee",
    ("adversarial", "roundrobin", 7): "59352617da470c9b4f745b54901081f3be07a128671b8ca5b060c45f917fd2ee",
    ("adversarial", "random", 0): "2bb6b963df0e858770122badb01cfa1794eccf05d72381edbce3481fb0978c73",
    ("adversarial", "random", 7): "1f3fd7b6ec37b1caae5808163e29bb52f57863c92fd5cc0c89c330c405e12abe",
    ("share_disabled", "roundrobin", 0): "d5d2549a4cc49cc92292ff0761359d27af43dcf705420d4ddc683ff5690168e5",
    ("share_disabled", "roundrobin", 7): "d5d2549a4cc49cc92292ff0761359d27af43dcf705420d4ddc683ff5690168e5",
    ("share_disabled", "random", 0): "c242a30de6d7b2f3611773bce8d9a4263e51ae08b16624b2016a4f0c0b0c8460",
    ("share_disabled", "random", 7): "c242a30de6d7b2f3611773bce8d9a4263e51ae08b16624b2016a4f0c0b0c8460",
    ("chain60", "roundrobin", 0): "ab219416679bfc9b4908cbee872cceb5105781115fde42c76b415c47a42faad2",
    ("chain60", "random", 0): "a927e7b8039d8c0ef0359c8ebbbe9860cc01bda082f1d586b601e8fe6922f8da",
    ("fork4", "random", 0): "b8df0b8573c788cc094794de471dff27143c216a40abdbfa65298ef3c34a95de",
    ("fork4", "random", 7): "7672363a3f7a6b5d7220937dbea28f458ab72a1718d84bf30b92aa01e5643b99",
}


def pinned_scenario(name: str) -> Scenario:
    if name == "chain60":
        return chain_scenario(60)
    if name == "fork4":
        return fork_scenario(4)
    return fixture(name)


@pytest.mark.parametrize(
    "name,policy,seed", sorted(TRACE_SHA256), ids=lambda v: str(v)
)
def test_trace_bytes_are_pinned(name, policy, seed):
    digest = sha256_of_trace(pinned_scenario(name), policy, seed)
    assert digest == TRACE_SHA256[(name, policy, seed)]


# sha256 over each defect case's runs inside faulty_delegate, at seeds 0
# and 1 under both policies: the trace bytes, then report() as sorted JSON
FAULTY_TRACE_SHA256 = {
    "unchecked forward": "1b827526c1aba01adeacf42531c41cc8fbc78f7fceb3041f8dd01823bc8e25fe",
    "inverted alternative guard": "894355ee78b13ad24dd088c160052262bed61e7a04d21a45729936e18819d769",
    "loop entered on a false guard": "9016bcb25c4601e408a091f8831e553c0fc8dafa69bd85cb6ff142dafef10020",
    "loop exited on a true guard": "7002464dd3b3e4c7b0746abe6e4d183f52bdcc65bd6ba21a980426a70684aed7",
    "join crossed without waiting": "94956ddf199c662bceabcf778731a5b4967144cd42169a3beb1f00538dab7112",
    "suppressed notification": "0887cf1746bc50e7861213947d0de75aa2b5132a4b5656894bf7f8a1aad473e6",
}


@pytest.mark.parametrize("case", defect_cases(), ids=lambda case: case[1])
def test_faulty_trace_bytes_are_pinned(case):
    _, note, scenario, pair, cls = case
    digest = hashlib.sha256()
    for policy in POLICIES:
        for seed in (0, 1):
            with faulty_delegate(pair, cls):
                result = run_scenario(scenario, policy=policy, seed=seed)
            digest.update(trace_lines(result.events).encode())
            digest.update(json.dumps(result.report(), sort_keys=True).encode())
    assert digest.hexdigest() == FAULTY_TRACE_SHA256[note]


# -- the ready set against a from-scratch rebuild ------------------------------

def _label(pair) -> str:
    return "enactment" if pair is None else f"{pair.initiator},{pair.receiver}"


class RebuildingPolicy:
    """Wraps a policy; on every pick it rebuilds the ready labels from the
    simulator's channels and participants and compares them with the list
    the simulator passed."""

    def __init__(self, sim: Simulator, inner):
        self.sim = sim
        self.inner = inner
        self.picks = 0

    def select(self, ready: list[str]) -> str:
        expected = [
            f"ch:{_label(src)}->{_label(dst)}"
            for (src, dst), queue in self.sim.channels.items()
            if queue
        ]
        for role, participant in self.sim.participants.items():
            if participant.ready():
                expected.append(f"pt:{role}")
            expected += [f"inj:{role}:{i}" for i in participant.ready_injections()]
        assert ready == sorted(expected), (ready, sorted(expected))
        self.picks += 1
        return self.inner.select(ready)


class RebuildingSimulator(Simulator):
    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.policy = RebuildingPolicy(self, self.policy)

    def run(self) -> str:
        outcome = super().run()
        assert self.policy.picks > 0
        return outcome


def differential_scenarios():
    for name in FIXTURE_NAMES:
        yield name, fixture(name)
    rng = random.Random(5)
    for n in range(40):
        case = random_case(rng)
        for k, word in enumerate(case.words[:3]):
            scripts = scripts_for_word(case.model, word)
            yield f"randgen-{n}-{k}", Scenario(case.model, case.env, scripts)
    yield "random-chain", chain_model_scenario(random_chain_ops(seed=4, n_ops=120, n_roles=20))


def test_ready_set_matches_a_rebuild(monkeypatch):
    monkeypatch.setattr(runner, "Simulator", RebuildingSimulator)
    runs = 0
    for name, scenario in differential_scenarios():
        for policy in POLICIES:
            for seed in (0, 3):
                result = run_scenario(scenario, policy=policy, seed=seed)
                assert not result.flagged, (name, policy, seed)
                runs += 1
    assert runs > 200


# -- round-robin against the linear rotation -------------------------------------

class LinearRoundRobin:
    """The rotation as first written: walk the known labels from the
    last position until one is ready."""

    def __init__(self):
        self._known: list[str] = []
        self._known_set: set[str] = set()
        self._pos = -1

    def select(self, ready: list[str]) -> str:
        fresh = [k for k in ready if k not in self._known_set]
        if fresh:
            self._known.extend(fresh)
            self._known_set.update(fresh)
            self._known.sort()
        ready_set = set(ready)
        n = len(self._known)
        for offset in range(1, n + 1):
            idx = (self._pos + offset) % n
            if self._known[idx] in ready_set:
                self._pos = idx
                return self._known[idx]
        raise SimulationError("no ready source")


@pytest.mark.parametrize("seed", range(20))
def test_round_robin_matches_the_linear_rotation(seed):
    rng = random.Random(seed)
    universe = [f"{a}{b}" for a in "abcdefgh" for b in "xyz"]
    rng.shuffle(universe)
    introduced = rng.randint(1, 4)
    reference, bisecting = LinearRoundRobin(), RoundRobin()
    for step in range(300):
        # labels become eligible in shuffled order, so a fresh one sorts
        # before or after the current position alike
        if introduced < len(universe) and rng.random() < 0.15:
            introduced += 1
        pool = universe[:introduced]
        ready = sorted(rng.sample(pool, rng.randint(1, min(len(pool), 5))))
        expected = reference.select(ready)
        assert bisecting.select(ready) == expected, (seed, step, ready)
    for policy in (reference, bisecting):
        with pytest.raises(SimulationError):
            policy.select([])


# -- scaling ---------------------------------------------------------------------

@pytest.mark.parametrize("policy", POLICIES)
def test_simulator_is_fast_on_a_long_chain_over_many_roles(monkeypatch, policy):
    elapsed = []
    run = Simulator.run

    def timed_run(self):
        t0 = time.perf_counter()
        outcome = run(self)
        elapsed.append(time.perf_counter() - t0)
        return outcome

    monkeypatch.setattr(Simulator, "run", timed_run)
    scenario = chain_model_scenario(random_chain_ops(seed=3, n_ops=800, n_roles=400))
    result = run_scenario(scenario, policy=policy, seed=0)
    assert result.outcome == COMPLETED and len(result.projection) == 800
    assert elapsed[0] < 0.25, f"Simulator.run took {elapsed[0]:.3f}s"


def test_delegates_are_cheap_to_build_on_a_long_chain_over_many_roles():
    # 796 pairs: a delegate whose set-up grew with the number of pairs
    # would make building them all O(pairs^2) and every build slow. The
    # best of five builds is timed, so that one build slowed by the host
    # does not fail the check.
    scenario = chain_model_scenario(random_chain_ops(seed=3, n_ops=800, n_roles=400))
    model = scenario.model
    cms = generate_all(model)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        delegates = {
            pair: Delegate(pair, cms[pair], scenario.environment)
            for pair in sorted(cms)
        }
        best = min(best, time.perf_counter() - t0)
    assert len(delegates) == 796
    assert best < 0.01, f"the fastest of five builds of the delegates took {best * 1000:.1f} ms"
