"""The benchmark wraps named entry points of the program; keep them."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_benchmark_entry_point_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    tracer.install()  # raises MissingEntryPoint for a name that is gone
    tracer.uninstall()
