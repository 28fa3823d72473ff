"""In-memory spans around the public entry points of the chorenforce layers.

The traced run swaps each entry point for a wrapper at the name its
callers look up (a module global or a class attribute), so the program
itself is unchanged. A span records its id, its parent's id, the
operation it belongs to, the layer name and its start and end. Counts
are taken from the wrapped call's arguments and result right after the
call, inside a span of their own (`bench.count`), so counting adds to
no layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns


def _tuples(args, result) -> dict:
    return {"tuples": sum(len(cm.tuples) for cm in result.values())}


def _words(args, result) -> dict:
    return {
        "words": len(result.complete) + len(result.truncated),
        "truncated": len(result.truncated),
    }


def _simulation(args, result) -> dict:
    from chorenforce.oracle import coordination_overhead

    sim = args[0]
    kinds = defaultdict(int)
    for event in sim.events:
        kinds[event["kind"]] += 1
    count, bound = coordination_overhead(sim.events, sim.model)
    return {
        "events": len(sim.events),
        "coordination": count,
        "bound": bound,
        "requests": kinds["Request"],
        "blocks": kinds["Block"],
    }


# (module, attribute path, layer, counter). Each caller's own binding is
# listed: runner and oracle import generate_all by name, so both are
# wrapped; the benchmark itself calls interpreter, oracle and participants.
ENTRY_POINTS = (
    ("chorenforce.participants", "load_scenario", "model.load", None),
    ("chorenforce.runner", "run_scenario", "runner", None),
    ("chorenforce.runner", "RunResult.report", "runner", None),
    ("chorenforce.runner", "read_trace", "runner.trace_read", None),
    ("chorenforce.runner", "generate_all", "decompose", _tuples),
    ("chorenforce.oracle", "generate_all", "decompose", _tuples),
    ("chorenforce.decompose", "validate_cefm", "validate", None),
    ("chorenforce.runner", "reference_traces", "interpreter", _words),
    ("chorenforce.interpreter", "reference_traces", "interpreter", _words),
    ("chorenforce.simulator", "Simulator.run", "simulator", _simulation),
    ("chorenforce.delegate", "Delegate.handle_request", "delegate", None),
    ("chorenforce.delegate", "Delegate.handle_update", "delegate", None),
    ("chorenforce.delegate", "Delegate.handle_notify", "delegate", None),
    ("chorenforce.oracle", "RuntimeChecker.run", "oracle.classify", None),
    ("chorenforce.runner", "check_conformance", "oracle.conformance", None),
    ("chorenforce.oracle", "check_conformance", "oracle.conformance", None),
)


class MissingEntryPoint(RuntimeError):
    """A wrapped name is gone: the benchmark no longer matches the program."""


class NullTracer:
    """Stands in for Tracer when the run is not traced."""

    op_id = -1

    @contextmanager
    def span(self, name: str):
        yield


class Tracer:
    def __init__(self):
        # [span_id, parent_id, op_id, name, start_ns, end_ns, counts]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.op_id = -1

    def _begin(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [len(self.spans), parent, self.op_id, name, 0, 0, None]
        self.spans.append(span)
        self._stack.append(span[0])
        span[4] = perf_counter_ns()
        return span

    def _end(self, span: list) -> None:
        span[5] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._begin(name)
        try:
            yield
        finally:
            self._end(span)

    def install(self) -> None:
        for module_name, path, layer, counter in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.uninstall()
                raise MissingEntryPoint(f"{module_name}.{path} no longer exists")
            setattr(owner, attr, self._wrap(original, layer, counter))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, layer: str, counter):
        begin, end = self._begin, self._end

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = begin(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                end(span)
            if counter is not None:
                counting = begin("bench.count")
                span[6] = counter(args, result)
                end(counting)
            return result

        return wrapper

    def layers(self) -> dict[str, dict]:
        """Per layer: calls, self time in ns and summed counts.

        Self time is a span's duration minus the durations of its direct
        children; calls are nested and single-threaded, so children never
        overlap.
        """
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[1] >= 0:
                child_ns[span[1]] += span[5] - span[4]
        out: dict[str, dict] = defaultdict(lambda: defaultdict(int))
        for span in self.spans:
            layer = out[span[3]]
            layer["calls"] += 1
            layer["self_ns"] += span[5] - span[4] - child_ns[span[0]]
            for key, value in (span[6] or {}).items():
                layer[key] += value
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, op, name, start, end, counts in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "op": op, "name": name,
                    "start_ns": start, "end_ns": end, "counts": counts or {},
                }) + "\n")
