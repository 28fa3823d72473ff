"""Choreography graphs: states, labeled flows, and their JSON form.

A choreography is a rooted graph. States are classified (plain,
alternative, loop, fork, join, plus one initial and one final state) and
flows carry one of three label kinds:

  * an operation  r_i.task.r_j   (initiator role, task, receiver role)
  * a guard predicate            (branch of an alternative or loop)
  * epsilon                      (pure control flow)

The JSON encoding is stable: serializing, parsing and serializing again
yields identical bytes.
"""

from __future__ import annotations

import json
from enum import Enum
from typing import NamedTuple

from .predicate import Pred, Value, parse_predicate, to_text


class ModelFormatError(ValueError):
    """Raised when a choreography JSON document is structurally broken."""


class StateKind(str, Enum):
    PLAIN = "plain"
    ALTERNATIVE = "alternative"
    LOOP = "loop"
    FORK = "fork"
    JOIN = "join"
    INITIAL = "initial"
    FINAL = "final"


class Operation(NamedTuple):
    initiator: str
    task: str
    receiver: str

    @property
    def label(self) -> str:
        return f"{self.initiator}.{self.task}.{self.receiver}"

    def __str__(self) -> str:
        return self.label


class Pair(NamedTuple):
    """A (initiator, receiver) role pair. As a tuple its hash, equality
    and ordering are those of (initiator, receiver), computed in C; it
    also compares equal to that plain tuple."""

    initiator: str
    receiver: str

    def __str__(self) -> str:
        return f"({self.initiator},{self.receiver})"


class Guard(NamedTuple):
    pred: Pred


class Epsilon:
    """The label of a flow that neither acts nor tests: every instance is
    equal to every other."""

    __slots__ = ()

    def __eq__(self, other):
        return True if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(())

    def __repr__(self) -> str:
        return "EPS"


EPS = Epsilon()

Label = Operation | Guard | Epsilon


class Flow(NamedTuple):
    src: str
    label: Label
    trg: str


def flow_sort_key(f: Flow) -> tuple:
    """Flows sort by source, target, then label: epsilon before guards
    (by their text) before operations (by their label)."""
    label = f.label
    if isinstance(label, Operation):
        return (f.src, f.trg, 2, label.label)
    if isinstance(label, Guard):
        return (f.src, f.trg, 1, to_text(label.pred))
    return (f.src, f.trg, 0, "")


class Choreography:
    """A choreography graph plus role and variable declarations.

    Treated as immutable after construction; flow indexes are built once.
    """

    def __init__(
        self,
        states: dict[str, StateKind],
        initial: str,
        final: str,
        roles: set[str],
        variables: dict[str, tuple[Value, ...]],
        flows: list[Flow],
    ):
        self.states = dict(states)
        self.initial = initial
        self.final = final
        self.roles = set(roles)
        self.variables = {k: tuple(v) for k, v in variables.items()}
        self.flows = sorted(flows, key=flow_sort_key)
        # validate_cefm's finished result, (violations, arrivals): it holds
        # no report, so the model and its reports form no cycle
        self._validated: tuple[tuple, dict] | None = None
        self._out: dict[str, list[Flow]] = {s: [] for s in self.states}
        self._in: dict[str, list[Flow]] = {s: [] for s in self.states}
        out, into = self._out, self._in
        for f in self.flows:
            src, _, trg = f
            if src not in out or trg not in out:
                raise ModelFormatError(f"flow endpoint missing from states: {src}->{trg}")
            out[src].append(f)
            into[trg].append(f)

    def out_flows(self, s: str) -> list[Flow]:
        return self._out[s]

    def in_flows(self, s: str) -> list[Flow]:
        return self._in[s]

    def kind(self, s: str) -> StateKind:
        return self.states[s]

    def operations(self) -> list[Operation]:
        seen: dict[str, Operation] = {}
        for f in self.flows:
            if isinstance(f.label, Operation):
                seen.setdefault(f.label.label, f.label)
        return [seen[k] for k in sorted(seen)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Choreography):
            return NotImplemented
        return (
            self.states == other.states
            and self.initial == other.initial
            and self.final == other.final
            and self.roles == other.roles
            and self.variables == other.variables
            and self.flows == other.flows
        )


def _label_to_json(label: Label):
    if isinstance(label, Epsilon):
        return "eps"
    if isinstance(label, Guard):
        return {"guard": to_text(label.pred)}
    return {"op": {"from": label.initiator, "task": label.task, "to": label.receiver}}


_OP_KEYS = frozenset({"from", "task", "to"})


def _label_from_json(data) -> Label:
    if data == "eps":
        return EPS
    if isinstance(data, dict) and len(data) == 1:
        if "op" in data:
            op = data["op"]
            if (op.keys() if type(op) is dict else set(op)) != _OP_KEYS:
                raise ModelFormatError(f"bad operation label: {data!r}")
            return Operation(op["from"], op["task"], op["to"])
        if "guard" in data:
            return Guard(parse_predicate(data["guard"]))
    raise ModelFormatError(f"unrecognized flow label: {data!r}")


def _domain_sort_key(v: Value) -> tuple[int, int]:
    return (1, int(v)) if isinstance(v, bool) else (0, v)


def model_to_json(model: Choreography) -> dict:
    return {
        "states": {s: model.states[s].value for s in sorted(model.states)},
        "initial": model.initial,
        "final": model.final,
        "roles": sorted(model.roles),
        "variables": {
            name: sorted(model.variables[name], key=_domain_sort_key)
            for name in sorted(model.variables)
        },
        "flows": [
            {"from": f.src, "to": f.trg, "label": _label_to_json(f.label)}
            for f in sorted(model.flows, key=flow_sort_key)
        ],
    }


_KINDS = {kind.value: kind for kind in StateKind}


def model_from_json(data: dict) -> Choreography:
    try:
        raw_states = data["states"]
        try:
            states = {s: _KINDS[k] for s, k in raw_states.items()}
        except (KeyError, TypeError):
            # StateKind(k) names the value that is no kind
            states = {s: StateKind(k) for s, k in raw_states.items()}
        flows = [
            Flow(f["from"], _label_from_json(f["label"]), f["to"])
            for f in data["flows"]
        ]
        model = Choreography(
            states=states,
            initial=data["initial"],
            final=data["final"],
            roles=set(data["roles"]),
            variables={k: tuple(v) for k, v in data["variables"].items()},
            flows=flows,
        )
    except KeyError as exc:
        raise ModelFormatError(f"missing field: {exc}") from exc
    except (TypeError, AttributeError, ValueError) as exc:
        raise ModelFormatError(str(exc)) from exc
    for name in (model.initial, model.final):
        if name not in model.states:
            raise ModelFormatError(f"initial/final state {name!r} not declared")
    return model


def dumps_model(model: Choreography) -> str:
    return json.dumps(model_to_json(model), indent=2, sort_keys=True) + "\n"


def loads_model(text: str) -> Choreography:
    return model_from_json(json.loads(text))


def save_model(model: Choreography, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_model(model))


def read_json(path, error: type[ValueError], what: str):
    """The JSON document in a file. A file that is not text, or nests too
    deeply for json to read, raises `error`, naming the file as `what`."""
    with open(path) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise error(f"{what} is not text: {exc}") from None
    try:
        return json.loads(text)
    except RecursionError:
        raise error(f"{what} nests too deeply to read") from None


def load_model(path) -> Choreography:
    return model_from_json(read_json(path, ModelFormatError, "model"))
