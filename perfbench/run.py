#!/usr/bin/env python3
"""The wordtree benchmark: three workloads, one caller in a closed loop.

Run from the root of a checkout:

    python3 perfbench/run.py --workload check-corpus --seed 1 --seconds 20 --trace 0

Workloads: check-corpus, increment-run, schema-grow (see README.md).

A run takes a fixed number of input rounds from the seed, sized as
rounds per second of ``--seconds``, so it lasts about ``--seconds`` at
reference machine speed, and ``attempted`` and ``failed`` depend on the
seed and ``--seconds`` alone. With ``--trace 0`` the run times those
operations once with no instrumentation and reports the end-to-end
metrics. With ``--trace 1`` it runs a smaller fixed set once untraced
and once with spans and counters around every layer boundary, and
reports the per-layer metrics. Either way the
human-readable report comes first and the last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

Operation times, rates and set-up time are reported at reference
machine speed: a fixed calibration kernel, timed between operations and
in each set-up process, scales wall time to what it would have been on
the machine the benchmark was tuned on. The report
prints the wall-clock figures beside them.

The library is imported from ``src/`` of the checkout this file sits
in; the run stops with an error, printing no result, when it is absent.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import workloads as w
from tracing import LAYERS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
SETUP_REPEATS = 15
WARMUP_OPS = 3
MIN_COVERAGE = 0.9  # layer self times must account for this share of traced op time
REFERENCE_KERNEL_S = 0.0016  # the calibration kernel's median time on the reference machine
CALIBRATE_EVERY_S = 0.05  # operation time between two runs of the calibration kernel
CALIBRATION_WINDOW = 10  # kernel times, half before and half after, that set an operation's speed


def import_library():
    """Import wordtree from this checkout's ``src/``, or exit with an error."""
    sys.path.insert(0, str(SRC))
    try:
        import wordtree
        import wordtree.executor  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import wordtree from {SRC}: {exc}")
    if not Path(wordtree.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: wordtree was imported from {wordtree.__file__}, not {SRC}")
    return wordtree


@dataclass(frozen=True)
class Workload:
    name: str
    setup_code: str  # one-time program state, run after ``import wordtree``
    prepare: Callable  # wordtree -> the same state, in this process
    rounds: Callable[[int], Iterator[list]]  # seed -> endless batches of cases
    op: Callable  # (wordtree, state, case, timed) -> workloads.Outcome
    length: Callable  # case -> tape length, 0 where no tape is run
    rounds_per_s: float  # untraced-run size: rounds per second of --seconds
    trace_rounds_per_s: float  # traced-run size: rounds per second of --seconds


def workloads_table():
    increment_path = ROOT / "programs" / "increment.tgl"
    return {
        wl.name: wl
        for wl in (
            Workload(
                "check-corpus",
                "",
                lambda wordtree: None,
                w.check_corpus_rounds,
                lambda wordtree, state, case, timed: w.check_corpus_op(wordtree, case, timed),
                lambda case: 0,
                0.85,
                0.25,
            ),
            Workload(
                "increment-run",
                f"open({str(increment_path)!r}).read()",
                lambda wordtree: increment_path.read_text(),
                w.increment_rounds,
                w.increment_op,
                lambda case: case.length,
                0.1,
                0.04,
            ),
            Workload(
                "schema-grow",
                "wordtree.turingol_schema()",
                lambda wordtree: wordtree.turingol_schema(),
                w.schema_rounds,
                w.schema_op,
                lambda case: len(case.tape_choices),
                9.0,
                3.3,
            ),
        )
    }


class Timed:
    """Times the library calls of one operation and opens the trace around them."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.op = 0
        self.elapsed = 0.0
        self._start = 0.0

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.begin_op(self.op)
        self._start = time.perf_counter()

    def __exit__(self, *exc_info):
        self.elapsed = time.perf_counter() - self._start
        if self.tracer is not None:
            self.tracer.end_op()
        return False


def setup_seconds(workload: Workload) -> tuple[float, float]:
    """Median time, over fresh processes, to import wordtree and build the workload's state.

    Returns it at reference machine speed and in wall clock. Each
    process times the calibration kernel after the set-up, and its
    set-up time is scaled by the median of three kernel times.
    """
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import wordtree\n"
        f"{workload.setup_code}\n"
        "setup = time.perf_counter() - t0\n"
        "sys.path.insert(0, sys.argv[2])\n"
        "from run import kernel_seconds\n"
        "print(setup, sorted(kernel_seconds() for _ in range(3))[1])\n"
    )
    scaled, wall = [], []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", code, str(SRC), str(BENCH)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        setup, kernel = map(float, child.stdout.split()[-2:])
        scaled.append(setup * REFERENCE_KERNEL_S / kernel)
        wall.append(setup)
    return statistics.median(scaled), statistics.median(wall)


class _Node:
    __slots__ = ("name", "out")

    def __init__(self, name: str):
        self.name, self.out = name, []


def calibration_kernel() -> int:
    """Fixed work like the library's: slotted nodes with labeled arrow lists, walked depth first.

    It runs no wordtree code, so its time follows the machine alone.
    """
    nodes = [_Node(f"n{i}") for i in range(400)]
    for i, node in enumerate(nodes):
        node.out.append((("next", i % 3), nodes[(i * 7 + 1) % 400]))
        node.out.append((("yes", i % 5), nodes[(i * 13 + 5) % 400]))
    total = 0
    for _ in range(6):
        stack, seen = [nodes[0]], set()
        while stack:
            node = stack.pop()
            if node.name in seen:
                continue
            seen.add(node.name)
            total += len(node.name)
            stack.extend(target for label, target in node.out if label[0] != "skip")
    return total


def kernel_seconds() -> float:
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


@dataclass
class Pass:
    """What one pass over a list of operations produced."""

    latencies: list[float]  # wall-clock seconds
    outcomes: list
    lengths: list[int]
    rounds: int = 0
    calibrations: list[tuple[int, float]] = field(default_factory=list)  # (operations before it, kernel s)

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    def count(self, failure: str) -> int:
        return sum(1 for o in self.outcomes if o.failure == failure)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.failure is not None)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    def speeds(self) -> list[float]:
        """Per operation, the machine speed around it: above 1 on a faster machine.

        It is the kernel's reference time ÷ the median of the
        ``CALIBRATION_WINDOW`` kernel times taken nearest before and
        after the operation.
        """
        taken_after = [at for at, _ in self.calibrations]
        seconds = [s for _, s in self.calibrations]
        half = CALIBRATION_WINDOW // 2
        speeds = []
        for index in range(len(self.latencies)):
            nearest = bisect.bisect_right(taken_after, index)
            window = seconds[max(0, nearest - half) : nearest + half]
            speeds.append(REFERENCE_KERNEL_S / statistics.median(window))
        return speeds

    def scaled_latencies(self) -> list[float]:
        """Each operation's time at the reference machine's speed: wall time × its speed."""
        return [t * speed for t, speed in zip(self.latencies, self.speeds())]


def corpus(workload, seed: int, seconds: float, rounds_per_s: float) -> Iterator[list]:
    """The seed's first ``seconds`` × ``rounds_per_s`` rounds, at least one, made as they are taken."""
    return itertools.islice(workload.rounds(seed), max(1, round(seconds * rounds_per_s)))


def run_cases(wordtree, workload, state, cases, timed: Timed) -> Pass:
    """Run ``cases`` (an iterable of batches) in order.

    The calibration kernel runs first, last, and after every operation
    that ends ``CALIBRATE_EVERY_S`` of operation time since it last ran.
    """
    result = Pass([], [], [])
    result.calibrations.append((0, kernel_seconds()))
    since = 0.0
    for batch in cases:
        for case in batch:
            timed.op = len(result.outcomes)
            outcome = workload.op(wordtree, state, case, timed)
            result.latencies.append(timed.elapsed)
            result.outcomes.append(outcome)
            result.lengths.append(workload.length(case))
            since += timed.elapsed
            if since >= CALIBRATE_EVERY_S:
                result.calibrations.append((len(result.outcomes), kernel_seconds()))
                since = 0.0
        result.rounds += 1
    result.calibrations.append((len(result.outcomes), kernel_seconds()))
    return result


def tail(latencies: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples beyond it, and its value.

    Nearest-rank percentiles; capped at 99. With fewer than 11
    samples the maximum is reported as percentile 100.
    """
    n = len(latencies)
    ordered = sorted(latencies)
    percentile = min(99, math.floor(100 * (n - 10) / n)) if n > 10 else 100
    rank = max(1, math.ceil(percentile / 100 * n))
    return percentile, ordered[rank - 1]


def end_to_end(p: Pass, latencies: list[float]) -> dict[str, float]:
    """The end-to-end figures of a pass, from its wall or its scaled ``latencies``.

    Rates divide a sum over all operations by their summed ``latencies``.
    """
    percentile, tail_s = tail(latencies)
    busy = sum(latencies)
    return {
        "ops_per_s": sum(1 for o in p.outcomes if o.failure is None) / busy,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "tail_percentile": percentile,
        "steps_per_s": sum(o.steps for o in p.outcomes) / busy,
        "failed_ratio": p.failed / p.attempted,
    }


E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "steps_per_s": "1/s",
    "failed_ratio": "ratio",
    "peak_rss_mib": "MiB",
}
REPORTED_E2E = ("setup_s", "ops_per_s", "latency_p50_ms", "latency_tail_ms", "peak_rss_mib")


def failures_line(p: Pass) -> str:
    parts = ", ".join(f"{cls} {p.count(cls)}" for cls in w.FAILURE_CLASSES)
    return f"{p.failed} of {p.attempted} failed ({parts})"


def warmed_state(wordtree, workload, seed):
    """The workload's state, after a few untimed operations from a separate input stream."""
    state = workload.prepare(wordtree)
    warmup = next(workload.rounds(seed + 1_000_003))[:WARMUP_OPS]
    run_cases(wordtree, workload, state, [warmup], Timed())
    return state


def untraced(wordtree, workload, seed, seconds) -> dict:
    setup_s, setup_wall_s = setup_seconds(workload)
    state = warmed_state(wordtree, workload, seed)
    cases = corpus(workload, seed, seconds, workload.rounds_per_s)
    p = run_cases(wordtree, workload, state, cases, Timed())
    values = end_to_end(p, p.scaled_latencies())
    wall = end_to_end(p, p.latencies)
    values["setup_s"] = setup_s
    values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"end-to-end, untraced, one caller in a closed loop; {failures_line(p)}")
    print(f"  {p.rounds} rounds from seed {seed}, {p.busy_s:.2f} s of timed wall clock")
    print(
        f"  times and rates at reference machine speed; this machine ran at "
        f"{statistics.median(p.speeds()):.3f} of it (median over {len(p.calibrations)} calibrations)"
    )
    for name in E2E_UNITS:
        note = ""
        if name in ("ops_per_s", "latency_p50_ms", "latency_tail_ms", "steps_per_s"):
            note = f"  (wall clock {wall[name]:.6g})"
        if name == "latency_tail_ms":
            note += f"  (p{values['tail_percentile']} of {p.attempted} samples)"
        elif name == "setup_s":
            note = f"  (wall clock {setup_wall_s:.6g})  (median of {SETUP_REPEATS} fresh processes)"
        print(f"  {name:<18} {values[name]:>14.6g} {E2E_UNITS[name]}{note}")
    return {
        "correct": p.count(w.WRONG_OUTPUT) == 0,
        "attempted": p.attempted,
        "failed": p.failed,
        "metrics": {name: {"value": values[name], "unit": E2E_UNITS[name]} for name in REPORTED_E2E},
    }


def traced(wordtree, workload, seed, seconds, spans_path) -> dict:
    cases = list(corpus(workload, seed, seconds, workload.trace_rounds_per_s))
    state = warmed_state(wordtree, workload, seed)
    plain = run_cases(wordtree, workload, state, cases, Timed())
    tracer = Tracer()
    tracer.install()
    try:
        traced_pass = run_cases(wordtree, workload, state, cases, Timed(tracer))
    finally:
        tracer.uninstall()

    lengths = dict(enumerate(traced_pass.lengths))
    metrics = tracer.layer_metrics(lengths, traced_pass.busy_s)
    metrics["trace.overhead_ratio"] = sum(traced_pass.scaled_latencies()) / sum(plain.scaled_latencies())
    runnable = sum(1 for o in traced_pass.outcomes if o.runnable)
    metrics["schema.clean_ratio"] = runnable / traced_pass.attempted if workload.name == "schema-grow" else 0.0
    e2e = end_to_end(plain, plain.scaled_latencies())
    metrics["steps_per_s"] = e2e["steps_per_s"]
    metrics["failed_ratio"] = e2e["failed_ratio"]
    for cls in w.FAILURE_CLASSES:
        metrics[f"failed.{cls}"] = plain.count(cls)
    if spans_path:
        tracer.write_spans(spans_path)

    print(
        f"untraced pass over the same {plain.attempted} operations, at reference machine speed; "
        f"{failures_line(plain)}"
    )
    for name in ("ops_per_s", "latency_p50_ms", "latency_tail_ms", "steps_per_s"):
        print(f"  {name:<18} {e2e[name]:>14.6g} {E2E_UNITS[name]}")
    print("per-layer self time, traced pass:")
    for layer in LAYERS:
        share = metrics[f"{layer}.self_ms"] / (traced_pass.busy_s * 1e3)
        print(f"  {layer:<18} {metrics[f'{layer}.self_ms']:>14.6g} ms  {share:6.1%}")
    coverage = metrics["trace.self_coverage"]
    print(
        f"  layers together cover {coverage:.1%} of the traced "
        f"operation time; tracing overhead {metrics['trace.overhead_ratio']:.2f}x"
    )
    if not MIN_COVERAGE <= coverage <= 1.0001:
        print(f"perfbench: layer self times cover {coverage:.1%} of operation time", file=sys.stderr)
    print("per-layer metrics:")
    units = per_layer_units()
    for name in sorted(units):
        print(f"  {name:<34} {metrics[name]:>14.6g} {units[name]}")
    return {
        "correct": plain.count(w.WRONG_OUTPUT) == 0,
        "attempted": plain.attempted,
        "failed": plain.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def per_layer_units() -> dict[str, str]:
    """Per-layer metric names and units, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="with --trace 1, write every span to this JSON-lines file")
    args = parser.parse_args(argv)

    wordtree = import_library()
    table = workloads_table()
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(table)}")
    workload = table[args.workload]

    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    if args.trace:
        result = traced(wordtree, workload, args.seed, args.seconds, args.spans)
    else:
        result = untraced(wordtree, workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
