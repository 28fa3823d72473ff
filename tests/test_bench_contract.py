"""The benchmark wraps named entry points of the program; keep them."""

import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_benchmark_entry_point_exists(monkeypatch):
    # neither the benchmark nor the package needs to be on the caller's path
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    tracer.install()  # raises MissingEntryPoint for a name that is gone
    tracer.uninstall()
