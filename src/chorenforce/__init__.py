"""Decentralized choreography enforcement toolkit.

Builds per-service-pair coordination models from a global choreography
graph, runs them as message-passing delegates on a simulated network,
and checks every enforced execution against an independent reference
interpreter plus an undesired-operation classifier.
"""

from .decompose import CoordModel, CoordTuple, Pair, generate_all
from .delegate import Delegate
from .interpreter import Language, reference_traces
from .model import EPS, Choreography, Flow, Guard, Operation, StateKind, load_model, save_model
from .oracle import RuntimeChecker, Verdict, check_conformance, coordination_overhead
from .participants import (
    Action,
    Injection,
    Scenario,
    ScriptSpec,
    load_scenario,
    save_scenario,
)
from .runner import RunResult, run_scenario, write_trace
from .simulator import Simulator, enactment_bootstrap
from .validate import validate_cefm

__all__ = [
    "Action",
    "Choreography",
    "CoordModel",
    "CoordTuple",
    "Delegate",
    "EPS",
    "Flow",
    "Guard",
    "Injection",
    "Language",
    "Operation",
    "Pair",
    "RunResult",
    "RuntimeChecker",
    "Scenario",
    "ScriptSpec",
    "Simulator",
    "StateKind",
    "Verdict",
    "check_conformance",
    "coordination_overhead",
    "enactment_bootstrap",
    "generate_all",
    "load_model",
    "load_scenario",
    "reference_traces",
    "run_scenario",
    "save_model",
    "save_scenario",
    "validate_cefm",
    "write_trace",
]
