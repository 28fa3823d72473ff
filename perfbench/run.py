#!/usr/bin/env python3
"""Benchmark of the chorenforce run and check-trace paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
its `src/` directory, nothing needs installing. One closed-loop client
in a single process alternates two operations on each item of the
workload's pool:

* run: load_scenario from a file, run_scenario with the default
  decomposition and reference behaviour, trace_lines, RunResult.report()
  (the `chorenforce run` path);
* recheck: load_scenario, read_trace, RuntimeChecker.run,
  reference_traces and check_conformance (the `chorenforce check-trace`
  path).

The first pass over the pool is an untimed warm-up that also writes
each item's trace file, which later rechecks read. With --trace 0 the
run is then timed for --seconds and the end-to-end metrics are printed.
Their times are scaled to a reference host speed measured by a fixed
kernel timed between the operations (see calibrate.py). With --trace 1
whole passes over the pool are run once untraced and once with spans
around every layer, and the per-layer metrics are printed. The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.

An operation fails when it raises or its trace leaves the behaviour
known from the input's construction; any failure, or two runs of the
same item writing different trace bytes, makes the result incorrect.
Verdicts that differ from the known answer are counted in
wrong_verdict_share instead (see perfbench/README.md).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

import calibrate
from spans import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

# Items per pool. A socialprox item is one scheduling seed's sweep of the
# four fixtures under both policies; the others are one generated scenario.
POOL = {"socialprox": 16, "long_chain": 8, "wide_fork": 6}
# Fresh processes whose set-up time is measured; setup_s is their median.
SETUP_PROBES = 5
# Calibration kernels whose median scales an operation: this many timed
# just before it and as many just after. One each way tracks the host's
# speed most closely: on socialprox, 20-second stretches of one run gave
# p90s that spread 0.03 with one, 0.04 with four and 0.07 with eight.
CALIBRATION_WINDOW = 1
# Calibration kernels timed before each set-up probe, and as many after.
SETUP_KERNELS = 4


class Bench:
    """One workload's pool, the operations on it and their bookkeeping."""

    def __init__(self, workload: str, seed: int, pool_size: int):
        import workloads
        from chorenforce import interpreter, oracle, participants, runner
        from chorenforce.simulator import COMPLETED

        self.interpreter, self.oracle = interpreter, oracle
        self.participants, self.runner = participants, runner
        self.completed = COMPLETED
        self.tracer = NullTracer()
        self.out = OUT / workload
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.pool = workloads.build_pool(workload, seed, ROOT, self.out, pool_size)
        self.digests: dict[int, tuple] = {}
        self.deterministic = True
        # Totals of the current loop; see loop().
        self.run_events = 0
        self.trace_bytes = 0
        self.errors: list[str] = []

    def _trace_path(self, j: int, c: int) -> Path:
        return self.out / f"item_{j}_{c}.trace.jsonl"

    def run_op(self, j: int) -> tuple[bool, bool]:
        """Run every case of item j; returns (behaved, verdicts right)."""
        behaved = right = True
        digest = hashlib.sha256()
        counts = []
        for c, case in enumerate(self.pool[j]):
            scenario = self.participants.load_scenario(case.scenario)
            result = self.runner.run_scenario(scenario, policy=case.policy, seed=case.seed)
            with self.tracer.span("runner.trace_write"):
                text = self.runner.trace_lines(result.events)
            if j not in self.digests:
                # Later runs must give the same bytes (checked below), so
                # the file is written once and the disk stays out of timing.
                self._trace_path(j, c).write_text(text)
            report = result.report()
            behaved &= result.outcome == self.completed and case.expected.matches(
                result.projection
            )
            right &= not result.flagged and result.conformant
            data = text.encode()
            digest.update(data)
            self.trace_bytes += len(data)
            self.run_events += report["events"]
            counts.append((report["events"], len(result.projection),
                           report["coordination_messages"]))
        seen = (digest.hexdigest(), tuple(counts))
        if self.digests.setdefault(j, seen) != seen:
            self.deterministic = False
        return behaved, right

    def recheck_op(self, j: int) -> tuple[bool, bool]:
        """Re-check the traces item j's first run wrote."""
        behaved = right = True
        for c, case in enumerate(self.pool[j]):
            scenario = self.participants.load_scenario(case.scenario)
            events = self.runner.read_trace(self._trace_path(j, c))
            checker = self.oracle.RuntimeChecker(scenario.model, scenario.environment)
            verdicts = checker.run(events)
            language = self.interpreter.reference_traces(scenario.model, scenario.environment)
            member = self.oracle.check_conformance(events, language, completed=True)
            prefix = self.oracle.check_conformance(events, language, completed=False)
            behaved &= case.expected.matches(self.oracle.projection(events))
            right &= member and prefix and all(v.kind == self.oracle.ALLOWED for v in verdicts)
        return behaved, right

    def timed(self, op, j: int) -> tuple[int, bool, bool]:
        """(nanoseconds, behaved, verdicts right); an exception counts as
        misbehaviour and a wrong verdict."""
        start = perf_counter_ns()
        try:
            behaved, right = op(j)
        except Exception:  # the benchmark reports the failure and carries on
            if len(self.errors) < 3:
                self.errors.append(traceback.format_exc())
            behaved = right = False
        return perf_counter_ns() - start, behaved, right

    def digest(self) -> str:
        whole = hashlib.sha256()
        for j in sorted(self.digests):
            whole.update(self.digests[j][0].encode())
        return whole.hexdigest()


class Tally:
    """Latencies, per-pass rates and outcomes of the operations."""

    def __init__(self):
        # Operation times as measured and scaled to the reference speed.
        self.run_ns: list[int] = []
        self.recheck_ns: list[int] = []
        self.run_ref_ns: list[float] = []
        self.recheck_ref_ns: list[float] = []
        # Per pass over the pool, at the reference speed: operations per
        # second spent in them and simulated events per second spent in
        # runs. Their medians are the reported rates, so a slow spell of
        # the host in part of a run moves them less.
        self.ops_rates: list[float] = []
        self.event_rates: list[float] = []
        self.speed_factors: list[float] = []
        self.failed = 0
        self.wrong = 0

    def add(self, samples: list[int], outcome: tuple[int, bool, bool]) -> None:
        ns, behaved, right = outcome
        samples.append(ns)
        self.failed += not behaved
        self.wrong += not (behaved and right)

    @property
    def attempted(self) -> int:
        return len(self.run_ns) + len(self.recheck_ns)


def loop(bench: Bench, tally: Tally, seconds: float, min_passes: int) -> None:
    """Alternate run and recheck over the pool for at least `seconds` and
    `min_passes` passes, stopping only at the end of a pass so that every
    item weighs the same in the medians.

    A calibration kernel is timed before every operation and once after
    the last. Each operation's time is scaled by the speed factor of the
    CALIBRATION_WINDOW kernels timed just before it and as many just
    after, so a slow spell of the host longer than an operation moves the
    operation and its kernels alike."""
    gc.collect()
    bench.run_events = bench.trace_bytes = 0
    size = len(bench.pool)
    kernels: list[int] = []
    times: list[int] = []  # every operation's, in order: run, recheck, run, ...
    passes: list[tuple[int, int]] = []  # (first operation, simulated events)
    start = perf_counter()
    while len(passes) < min_passes or perf_counter() - start < seconds:
        events = bench.run_events
        for j in range(size):
            for op, samples in ((bench.run_op, tally.run_ns), (bench.recheck_op, tally.recheck_ns)):
                kernels.append(calibrate.sample())
                bench.tracer.op_id = tally.attempted
                with bench.tracer.span("op.run" if op == bench.run_op else "op.recheck"):
                    tally.add(samples, bench.timed(op, j))
                times.append(samples[-1])
        passes.append((len(times) - 2 * size, bench.run_events - events))
    kernels.append(calibrate.sample())

    scaled = [
        ns * calibrate.speed_factor(
            kernels[max(0, i + 1 - CALIBRATION_WINDOW):i + 1 + CALIBRATION_WINDOW])
        for i, ns in enumerate(times)
    ]
    for first, events in passes:
        run_ns = scaled[first:first + 2 * size:2]
        recheck_ns = scaled[first + 1:first + 2 * size:2]
        tally.run_ref_ns += run_ns
        tally.recheck_ref_ns += recheck_ns
        tally.ops_rates.append(2 * size / ((sum(run_ns) + sum(recheck_ns)) / 1e9))
        tally.event_rates.append(events / (sum(run_ns) / 1e9))
    tally.speed_factors.append(calibrate.speed_factor(kernels))


def percentile(samples_ns: list[float], q: float) -> float:
    """Nearest-rank percentile, in milliseconds."""
    ordered = sorted(samples_ns)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] / 1e6


def p90(samples_ns: list[float]) -> float:
    """The median, over consecutive blocks of at least 100 operations, of
    each block's p90 (which keeps ten samples beyond it), in milliseconds.
    A slow spell of the host that spans under half of the blocks moves it
    little; the p90 of a whole run follows any spell over a tenth of it."""
    blocks = max(1, len(samples_ns) // 100)
    size = len(samples_ns) // blocks
    cuts = [k * size for k in range(blocks)] + [len(samples_ns)]
    return statistics.median(
        percentile(samples_ns[lo:hi], 0.9) for lo, hi in zip(cuts, cuts[1:])
    )


def setup(args) -> tuple[Bench, float]:
    """Import the package, build the inputs and run one untimed warm-up
    of each operation; returns the bench and the seconds that took."""
    start = perf_counter()
    import chorenforce  # noqa: F401  (the package import is part of set-up)

    bench = Bench(args.workload, args.seed, args.pool)
    bench.timed(bench.run_op, 0)
    bench.timed(bench.recheck_op, 0)
    return bench, perf_counter() - start


def probe_setup(args) -> float:
    """Median set-up time of fresh processes, at the reference speed."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--pool", str(args.pool), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def setup_probe(args) -> float:
    """One set-up, scaled by the speed factor of kernels timed around it."""
    calibrate.sample()  # the first call in a fresh process is not timed
    kernels = [calibrate.sample() for _ in range(SETUP_KERNELS)]
    _, seconds = setup(args)
    kernels += [calibrate.sample() for _ in range(SETUP_KERNELS)]
    return seconds * calibrate.speed_factor(kernels)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(args) -> tuple[dict, Tally, Bench]:
    setup_s = probe_setup(args)
    bench, _ = setup(args)
    loop(bench, Tally(), 0, 1)  # warm-up pass; writes the trace files
    tally = Tally()
    loop(bench, tally, args.seconds, 2)
    metrics = {
        "ops_per_s": (statistics.median(tally.ops_rates), "1/s"),
        "run_p50_ms": (percentile(tally.run_ref_ns, 0.5), "ms"),
        "run_p90_ms": (p90(tally.run_ref_ns), "ms"),
        "recheck_p50_ms": (percentile(tally.recheck_ref_ns, 0.5), "ms"),
        "recheck_p90_ms": (p90(tally.recheck_ref_ns), "ms"),
        "events_per_s": (statistics.median(tally.event_rates), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, tally, bench


def per_layer(args) -> tuple[dict, Tally, Bench]:
    bench, _ = setup(args)
    loop(bench, Tally(), 0, 1)  # warm-up pass; writes the trace files
    tally = Tally()
    loop(bench, tally, args.seconds / 2, 1)
    plain_ops = tally.attempted
    plain_ns = sum(tally.run_ref_ns) + sum(tally.recheck_ref_ns)

    tracer = Tracer()
    bench.tracer = tracer
    tracer.install()
    try:
        loop(bench, tally, args.seconds / 2, 1)
    finally:
        tracer.uninstall()
    tracer.write(OUT / f"spans_{args.workload}_{args.seed}.jsonl")
    traced_ns = sum(tally.run_ref_ns) + sum(tally.recheck_ref_ns) - plain_ns

    layers = tracer.layers()
    n = tally.attempted - plain_ops

    def ms(layer: str) -> float:
        return layers[layer]["self_ns"] / 1e6 / n

    def calls(layer: str) -> float:
        return layers[layer]["calls"] / n

    sim, interp, dec = layers["simulator"], layers["interpreter"], layers["decompose"]
    metrics = {
        "validate.calls_per_op": (calls("validate"), "count"),
        "validate.ms_per_op": (ms("validate"), "ms"),
        "decompose.calls_per_op": (calls("decompose"), "count"),
        "decompose.ms_per_op": (ms("decompose"), "ms"),
        "decompose.tuples_per_call": (_ratio(dec["tuples"], dec["calls"]), "count"),
        "interpreter.calls_per_op": (calls("interpreter"), "count"),
        "interpreter.ms_per_op": (ms("interpreter"), "ms"),
        "interpreter.words_per_call": (_ratio(interp["words"], interp["calls"]), "count"),
        "interpreter.truncated_share": (_ratio(interp["truncated"], interp["words"]), "share"),
        "simulator.self_ms_per_op": (ms("simulator"), "ms"),
        "simulator.us_per_event": (_ratio(sim["self_ns"] / 1e3, sim["events"]), "us"),
        "simulator.events_per_op": (sim["events"] / n, "count"),
        "simulator.coordination_msgs_per_op": (sim["coordination"] / n, "count"),
        "simulator.coordination_bound_ratio": (
            _ratio(sim["coordination"], sim["bound"]), "ratio"),
        "delegate.ms_per_op": (ms("delegate"), "ms"),
        "delegate.handler_calls_per_op": (calls("delegate"), "count"),
        "delegate.block_ratio": (_ratio(sim["blocks"], sim["requests"]), "ratio"),
        "oracle.classify_ms_per_op": (ms("oracle.classify"), "ms"),
        "oracle.conformance_ms_per_op": (ms("oracle.conformance"), "ms"),
        "runner.self_ms_per_op": (ms("runner"), "ms"),
        "runner.trace_write_ms_per_op": (ms("runner.trace_write"), "ms"),
        "runner.trace_read_ms_per_op": (ms("runner.trace_read"), "ms"),
        "runner.trace_kb_per_op": (bench.trace_bytes / (1024 * n), "KiB"),
        "model.load_ms_per_op": (ms("model.load"), "ms"),
        "trace.overhead_share": ((traced_ns / n) / (plain_ns / plain_ops) - 1, "share"),
        "wrong_verdict_share": (tally.wrong / tally.attempted, "share"),
    }
    # op.run, op.recheck and bench.count are the benchmark's own glue.
    total_ns = sum(layer["self_ns"] for layer in layers.values())
    print("share of traced self time per layer:")
    for name, layer in sorted(layers.items(), key=lambda kv: -kv[1]["self_ns"]):
        print(f"  {name:22s} {layer['self_ns'] / total_ns:6.1%}")
    return metrics, tally, bench


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=POOL)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pool", type=int, default=None,
                        help="items in the workload's pool (default: the benchmark's size)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.pool is None:
        args.pool = POOL[args.workload]
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "chorenforce" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"error: {ROOT} is not a chorenforce checkout (no src/chorenforce or fixtures/)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    if args.setup_probe:
        print(setup_probe(args))
        return 0

    metrics, tally, bench = (per_layer if args.trace else end_to_end)(args)
    info = {
        "wrong_verdict_share": (tally.wrong / tally.attempted, "share"),
        "measured_run_p50_ms": (percentile(tally.run_ns, 0.5), "ms"),
        "measured_recheck_p50_ms": (percentile(tally.recheck_ns, 0.5), "ms"),
        "speed_factor": (statistics.median(tally.speed_factors), "x"),
        "run_samples": (len(tally.run_ns), "count"),
        "recheck_samples": (len(tally.recheck_ns), "count"),
    }
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"{name:38s} {value:14.6g} {unit}")
    print(f"trace sha256 {bench.digest()} (deterministic: {bench.deterministic})")
    for error in bench.errors:
        print(error, file=sys.stderr)
    result = {
        "correct": tally.failed == 0 and bench.deterministic,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
