"""Scripted services and the scenario container that bundles a run.

A participant plays one role: it issues its actions in order, one at a
time, and does not move on until the delegate answered. A forwarded
action completes immediately; a blocked one completes when the delegate
later unblocks it. Declared reorder groups allow a seeded shuffle of
actions whose order the service genuinely does not care about.

Injections model a rogue concurrent activity inside the service: once
the main action at index `after` has completed, the injected request is
fired without waiting for an answer, while the main script carries on.
"""

from __future__ import annotations

import json
import random
from typing import NamedTuple

from .model import (
    Choreography,
    Guard,
    Operation,
    _new,
    dumps_json,
    model_from_json,
    model_to_json,
    read_json,
)
from .predicate import Value, free_vars, strict_eq, to_text


class ScenarioFormatError(ValueError):
    pass


# the orders a scenario's actions run in, and the scheduling policies
MODES = ("inorder", "shuffled")
POLICIES = ("roundrobin", "random")


class Action(NamedTuple):
    task: str
    target: str  # receiver role; the pair is (own role, target)


class Injection(NamedTuple):
    after: int  # index into the main action list, by completion order
    task: str
    target: str


class ScriptSpec(NamedTuple):
    role: str
    actions: tuple[Action, ...]
    reorder_groups: tuple[tuple[int, ...], ...] = ()
    injections: tuple[Injection, ...] = ()


def ordered_actions(spec: ScriptSpec, mode: str, seed: int) -> list[Action]:
    """Main action order for a run; 'shuffled' permutes each declared
    reorder group with a seed- and role-derived generator."""
    actions = list(spec.actions)
    if mode != "shuffled":
        return actions
    rng = random.Random(f"{seed}:{spec.role}")
    for group in spec.reorder_groups:
        picked = [actions[i] for i in group]
        shuffled = rng.sample(picked, len(picked))
        for i, action in zip(group, shuffled):
            actions[i] = action
    return actions


class Participant:
    def __init__(self, spec: ScriptSpec, mode: str = "inorder", seed: int = 0):
        self.actions = ordered_actions(spec, mode, seed)
        self.injections = list(spec.injections)
        self.ptr = 0
        self.blocked_request: int | None = None
        self.issued_injections: set[int] = set()

    def ready(self) -> bool:
        return self.blocked_request is None and self.ptr < len(self.actions)

    def ready_injections(self) -> list[int]:
        return [
            i
            for i, inj in enumerate(self.injections)
            if i not in self.issued_injections and self.ptr > inj.after
        ]

    def current_action(self) -> Action:
        return self.actions[self.ptr]

    def on_forwarded(self) -> None:
        self.ptr += 1

    def on_blocked(self, request_id: int) -> None:
        self.blocked_request = request_id

    def on_unblocked(self) -> None:
        self.blocked_request = None
        self.ptr += 1

    def done(self) -> bool:
        return (
            self.blocked_request is None
            and self.ptr >= len(self.actions)
            and len(self.issued_injections) == len(self.injections)
        )


class Scenario(NamedTuple):
    model: Choreography
    environment: dict[str, Value]
    scripts: tuple[ScriptSpec, ...]
    mode: str = "inorder"  # or "shuffled"
    seed: int = 0
    policy: str = "roundrobin"  # or "random"


def scenario_to_json(scenario: Scenario) -> dict:
    return {
        "cefm": model_to_json(scenario.model),
        "environment": dict(sorted(scenario.environment.items())),
        "participants": [
            {
                "role": s.role,
                "actions": [[a.task, a.target] for a in s.actions],
                "reorderable": [list(g) for g in s.reorder_groups],
                "injections": [
                    {"after": inj.after, "task": inj.task, "target": inj.target}
                    for inj in s.injections
                ],
            }
            for s in scenario.scripts
        ],
        "mode": scenario.mode,
        "seed": scenario.seed,
        "policy": scenario.policy,
    }


def scenario_from_json(data: dict) -> Scenario:
    try:
        scripts = tuple([
            _new(ScriptSpec, (
                s["role"],
                tuple([_new(Action, (task, target)) for task, target in s["actions"]]),
                tuple([tuple(g) for g in s.get("reorderable", [])]),
                tuple([
                    Injection(inj["after"], inj["task"], inj["target"])
                    for inj in s.get("injections", [])
                ]),
            ))
            for s in data["participants"]
        ])
        scenario = Scenario(
            model=model_from_json(data["cefm"]),
            environment=dict(data["environment"]),
            scripts=scripts,
            mode=data.get("mode", "inorder"),
            seed=data.get("seed", 0),
            policy=data.get("policy", "roundrobin"),
        )
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ScenarioFormatError(f"bad scenario document: {exc}") from exc
    _check_fields(scenario)
    _check_runnable(scenario)
    return scenario


def _is_index(value, length: int) -> bool:
    return type(value) is int and 0 <= value < length


def _check_fields(scenario: Scenario) -> None:
    """Reject run and participant fields a run would misread: an unknown
    mode or policy, a seed that is no integer, a role, task or target
    that is no string, a role played twice, and a reorder group or
    injection that names no index of its participant's actions."""
    if scenario.mode not in MODES:
        raise ScenarioFormatError(
            f"unknown mode {scenario.mode!r}, expected {' or '.join(MODES)}"
        )
    if scenario.policy not in POLICIES:
        raise ScenarioFormatError(
            f"unknown policy {scenario.policy!r}, expected {' or '.join(POLICIES)}"
        )
    if type(scenario.seed) is not int:
        raise ScenarioFormatError(f"seed {scenario.seed!r} is no integer")
    roles: set[str] = set()
    for spec in scenario.scripts:
        role = spec.role
        if type(role) is not str:
            raise ScenarioFormatError(f"participant role {role!r} is no string")
        if role in roles:
            raise ScenarioFormatError(f"two participants play role {role}")
        roles.add(role)
        for request in (*spec.actions, *spec.injections):
            if type(request.task) is not str or type(request.target) is not str:
                raise ScenarioFormatError(
                    f"participant {role} requests task {request.task!r} of "
                    f"{request.target!r}; both must be strings"
                )
        count = len(spec.actions)
        for group in spec.reorder_groups:
            for index in group:
                if not _is_index(index, count):
                    raise ScenarioFormatError(
                        f"participant {role}: reorder group {list(group)} names "
                        f"{index!r}, no index of its {count} actions"
                    )
        for inj in spec.injections:
            if not _is_index(inj.after, count):
                raise ScenarioFormatError(
                    f"participant {role}: injection {inj.task} after {inj.after!r} "
                    f"names no index of its {count} actions"
                )


def _check_runnable(scenario: Scenario) -> None:
    """Reject what a run would crash on: a request for an operation the
    model lacks, or a guard over a variable the environment leaves unset
    or binds to a value outside the variable's declared domain."""
    model = scenario.model
    # an Operation is the tuple (initiator, task, receiver)
    operations = {f.label for f in model.flows if isinstance(f.label, Operation)}
    for spec in scenario.scripts:
        for request in (*spec.actions, *spec.injections):
            if (spec.role, request.task, request.target) not in operations:
                raise ScenarioFormatError(
                    f"participant {spec.role} requests "
                    f"{spec.role}.{request.task}.{request.target}, "
                    "which is no operation of the model"
                )
    for flow in model.flows:
        if isinstance(flow.label, Guard):
            read = free_vars(flow.label.pred)
            unbound = read - scenario.environment.keys()
            if unbound:
                raise ScenarioFormatError(
                    f"guard {to_text(flow.label.pred)!r} at {flow.src} reads "
                    f"{', '.join(sorted(unbound))}, unbound in the environment"
                )
            for name in sorted(read & model.variables.keys()):
                value = scenario.environment[name]
                domain = model.variables[name]
                # type-strict: 1 is no member of the domain (False, True)
                if not any(strict_eq(value, d) for d in domain):
                    raise ScenarioFormatError(
                        f"environment binds {name} to {json.dumps(value)}, "
                        f"outside its domain {json.dumps(list(domain))}"
                    )


def dumps_scenario(scenario: Scenario) -> str:
    return dumps_json(scenario_to_json(scenario))


def load_scenario(path) -> Scenario:
    return scenario_from_json(read_json(path, ScenarioFormatError, "scenario"))


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_scenario(scenario))
