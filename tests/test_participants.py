from chorenforce.model import model_to_json
from chorenforce.participants import (
    Action,
    Injection,
    Participant,
    Scenario,
    ScriptSpec,
    dumps_scenario,
    load_scenario,
    ordered_actions,
    save_scenario,
    scenario_from_json,
    scenario_to_json,
)
from chorenforce.runner import run_scenario
from helpers import adversarial_scenario, inorder_scenario, shuffled_scenario

ACTIONS = tuple(Action(f"t{i}", "B") for i in range(5))
SPEC = ScriptSpec(role="A", actions=ACTIONS, reorder_groups=((1, 2, 3),))


def test_inorder_keeps_script_order():
    assert ordered_actions(SPEC, "inorder", 42) == list(ACTIONS)


def test_shuffle_only_touches_declared_groups():
    for seed in range(30):
        order = ordered_actions(SPEC, "shuffled", seed)
        assert order[0] == ACTIONS[0]
        assert order[4] == ACTIONS[4]
        assert sorted(a.task for a in order[1:4]) == ["t1", "t2", "t3"]


def test_shuffle_is_seed_deterministic_and_varies():
    orders = {tuple(a.task for a in ordered_actions(SPEC, "shuffled", s))
              for s in range(30)}
    assert len(orders) > 1
    assert ordered_actions(SPEC, "shuffled", 7) == ordered_actions(SPEC, "shuffled", 7)


def test_shuffle_derives_rng_per_role():
    a = ScriptSpec(role="A", actions=ACTIONS, reorder_groups=((0, 1, 2, 3, 4),))
    b = ScriptSpec(role="B", actions=ACTIONS, reorder_groups=((0, 1, 2, 3, 4),))
    diverged = any(
        ordered_actions(a, "shuffled", s) != ordered_actions(b, "shuffled", s)
        for s in range(20)
    )
    assert diverged


def test_participant_progress():
    p = Participant(ScriptSpec(role="A", actions=ACTIONS[:2]))
    assert p.ready() and p.current_action() == ACTIONS[0]
    p.on_forwarded()
    assert p.current_action() == ACTIONS[1]
    p.on_blocked(9)
    assert not p.ready() and not p.done()
    p.on_unblocked()
    assert not p.ready() and p.done()


def test_injection_arming():
    spec = ScriptSpec(
        role="A",
        actions=ACTIONS[:3],
        injections=(Injection(after=1, task="rogue", target="B"),),
    )
    p = Participant(spec)
    assert p.ready_injections() == []
    p.on_forwarded()
    assert p.ready_injections() == []  # ptr == 1 == after: not yet
    p.on_forwarded()
    assert p.ready_injections() == [0]
    p.issued_injections.add(0)
    assert p.ready_injections() == []
    assert not p.done()
    p.on_forwarded()
    assert p.done()


def test_scenario_json_round_trip():
    for scenario in (shuffled_scenario(), adversarial_scenario()):
        again = scenario_from_json(scenario_to_json(scenario))
        assert model_to_json(again.model) == model_to_json(scenario.model)
        assert again.environment == scenario.environment
        assert again.scripts == scenario.scripts
        assert (again.mode, again.seed, again.policy) == (
            scenario.mode, scenario.seed, scenario.policy,
        )


def test_scenario_file_round_trip(tmp_path):
    scenario = adversarial_scenario()
    path = tmp_path / "scenario.json"
    save_scenario(scenario, path)
    again = load_scenario(path)
    assert dumps_scenario(again) == dumps_scenario(scenario)


def test_a_priorities_key_is_ignored():
    # join ranks follow from the pair order; a document that still names
    # some ranks, here fewer than the model has pairs, loads and runs as
    # if it named none
    data = scenario_to_json(inorder_scenario())
    data["priorities"] = [["SPS", "NMU", 1]]
    scenario = scenario_from_json(data)
    assert run_scenario(scenario).ok()
    assert dumps_scenario(scenario) == dumps_scenario(inorder_scenario())
