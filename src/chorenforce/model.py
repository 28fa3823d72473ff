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
import sys
from enum import Enum
from typing import NamedTuple

from .predicate import Pred, Value, _FrozenValue, parse_predicate, to_text


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


# An Enum member read off its class costs about 0.1 us on Python 3.11;
# the per-state loops compare with these module constants instead.
_PLAIN, _INITIAL, _FINAL = StateKind.PLAIN, StateKind.INITIAL, StateKind.FINAL
_ALTERNATIVE, _LOOP = StateKind.ALTERNATIVE, StateKind.LOOP
_FORK, _JOIN = StateKind.FORK, StateKind.JOIN

# Builds a NamedTuple from a tuple of all its fields in C, without the
# generated Python-level __new__: 0.36 us against 0.59 us for a Pair.
_new = tuple.__new__


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


class Epsilon(_FrozenValue):
    """The label of a flow that neither acts nor tests: a value with no
    fields, so every instance is equal to every other."""

    __slots__ = ()

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
    src, label, trg = f
    if isinstance(label, Operation):
        # the text of Operation.label, without the property call
        return (src, trg, 2, "%s.%s.%s" % label)
    if isinstance(label, Guard):
        return (src, trg, 1, to_text(label.pred))
    return (src, trg, 0, "")


class Choreography:
    """A choreography graph plus role and variable declarations.

    Treated as immutable after construction; its flow indexes are built
    once. A model equals only itself: compare two by model_to_json.
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
        # by state, the flows out of it and the flows into it, in flow order
        self.outgoing: dict[str, list[Flow]] = {s: [] for s in self.states}
        self.incoming: dict[str, list[Flow]] = {s: [] for s in self.states}
        out, into = self.outgoing, self.incoming
        for f in self.flows:
            src, _, trg = f
            if src not in out or trg not in out:
                raise ModelFormatError(f"flow endpoint missing from states: {src}->{trg}")
            out[src].append(f)
            into[trg].append(f)

    def operations(self) -> list[Operation]:
        seen: dict[str, Operation] = {}
        for f in self.flows:
            if isinstance(f.label, Operation):
                seen.setdefault(f.label.label, f.label)
        return [seen[k] for k in sorted(seen)]


def _label_to_json(label: Label):
    if isinstance(label, Epsilon):
        return "eps"
    if isinstance(label, Guard):
        return {"guard": to_text(label.pred)}
    return {"op": {"from": label.initiator, "task": label.task, "to": label.receiver}}


_OP_KEYS = frozenset({"from", "task", "to"})


def _label_from_json(flow: dict) -> Label:
    """The label of a flow document, read after its "from". An operation
    whose initiator, task or receiver is no string is refused, naming the
    flow."""
    data = flow["label"]
    if data == "eps":
        return EPS
    if isinstance(data, dict) and len(data) == 1:
        if "op" in data:
            op = data["op"]
            if (op.keys() if type(op) is dict else set(op)) != _OP_KEYS:
                raise ModelFormatError(f"bad operation label: {data!r}")
            initiator, task, receiver = fields = (op["from"], op["task"], op["to"])
            if type(initiator) is not str or type(task) is not str or type(receiver) is not str:
                raise ModelFormatError(
                    f"flow {flow['from']}->{flow.get('to')}: operation {op!r} "
                    "has a field that is no string"
                )
            return _new(Operation, fields)
        if "guard" in data:
            return Guard(parse_predicate(data["guard"]))
    raise ModelFormatError(f"unrecognized flow label: {data!r}")


def _roles_from_json(data) -> set[str]:
    """The declared roles, each of which must be a string."""
    roles = set()
    for role in data:
        if type(role) is not str:
            raise ModelFormatError(f"declared role {role!r} is no string")
        roles.add(role)
    return roles


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
            # Choreography keeps its flows in flow_sort_key order
            for f in model.flows
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
        flows = [_new(Flow, (f["from"], _label_from_json(f), f["to"])) for f in data["flows"]]
        model = Choreography(
            states=states,
            initial=data["initial"],
            final=data["final"],
            roles=_roles_from_json(data["roles"]),
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
    return dumps_json(model_to_json(model))


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


# json.dumps(obj, sort_keys=True) builds this C encoder, with these
# arguments, on every call; here it is built once. It encodes the scalars
# of dumps_json's walk and the trace events that runner.trace_lines has no
# template for. Its markers dict (the circular-reference check) keeps the
# entries of a failed encode, so each user empties it afterwards.
_MARKERS: dict = {}
_ENCODE = json.encoder.c_make_encoder(
    _MARKERS,
    json.JSONEncoder().default,
    json.encoder.encode_basestring_ascii,  # ensure_ascii
    None,  # indent
    ": ",  # key separator
    ", ",  # item separator
    True,  # sort_keys
    False,  # skipkeys
    True,  # allow_nan
)
_str = json.encoder.encode_basestring_ascii

if sys.version_info >= (3, 13):

    def dumps_json(obj) -> str:
        """The one document writer: json.dumps(obj, indent=2,
        sort_keys=True) plus a newline."""
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"

else:
    # A backport of Python 3.13's C-backed indent: before 3.13, json.dumps
    # with indent runs its pure-Python encoder, about twice as slow as this
    # walk. Delete the walk when pyproject.toml's floor reaches 3.13.

    def _write(obj, newline: str, append) -> None:
        """Append the text of obj, a dict, list or tuple that starts on a
        line indented as `newline` (a newline and that line's indent).
        Types are matched with isinstance and keys sorted as json does."""
        inner = newline + "  "
        comma = "," + inner
        if isinstance(obj, dict):
            if not obj:
                append("{}")
                return
            head = "{" + inner
            for key, value in sorted(obj.items()):
                # _str raises TypeError for a key that is no str
                append(head + _str(key) + ": ")
                head = comma
                if isinstance(value, str):
                    append(_str(value))
                elif isinstance(value, (dict, list, tuple)):
                    _write(value, inner, append)
                else:
                    append("".join(_ENCODE(value, 0)))
            append(newline + "}")
        else:
            if not obj:
                append("[]")
                return
            head = "[" + inner
            for value in obj:
                append(head)
                head = comma
                if isinstance(value, str):
                    append(_str(value))
                elif isinstance(value, (dict, list, tuple)):
                    _write(value, inner, append)
                else:
                    append("".join(_ENCODE(value, 0)))
            append(newline + "]")

    def dumps_json(obj) -> str:
        """The one document writer: json.dumps(obj, indent=2,
        sort_keys=True) plus a newline. A document the walk does not serve
        (a key that is no str, a value json cannot encode, a cycle or a
        nesting too deep for the walk) goes to json.dumps whole, so both
        the text and the error are json's. The walk takes a frame or two
        fewer than json, so it writes a document whose nesting is within
        two levels of the recursion limit, where json.dumps raises."""
        chunks: list[str] = []
        try:
            if isinstance(obj, (dict, list, tuple)):
                _write(obj, "\n", chunks.append)
            else:
                chunks.extend(_ENCODE(obj, 0))
        except (TypeError, ValueError, RecursionError):
            return json.dumps(obj, indent=2, sort_keys=True) + "\n"
        finally:
            _MARKERS.clear()
        chunks.append("\n")
        return "".join(chunks)


def load_model(path) -> Choreography:
    return model_from_json(read_json(path, ModelFormatError, "model"))
