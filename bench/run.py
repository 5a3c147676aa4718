#!/usr/bin/env python3
"""Benchmark of irrstrength: closed-loop batch workloads in one process and one thread.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run it from the root of a source checkout: the package is imported from
the checkout's ``src`` directory, never from an installed copy, and the
run exits with code 2 when that directory is missing.

A run repeats the workload's fixed set of operations in passes until the
next pass would end after ``--seconds``. Each operation is timed from
outside and its output checked after its timed region; a failed check is
counted, not fatal. The run prints ``context`` lines (source size, machine),
one ``metric <name> <value> <unit>`` line per metric, one ``FAIL`` line
per distinct failing operation, and last a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced passes with traced ones, keeps a span around every call into the
package, writes the spans to ``.bench_out/`` when the run ends and reports
the per-layer metrics. ``--workload all`` runs every workload in both
modes, each in a process of its own.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_tmp"
TRACE_OUT = ROOT / ".bench_out"

WORKLOADS = ("sweep", "solve-books", "solve-random", "cli")
SETUP_PROBES = 2  # fresh child processes; with the run's own set-up, a median of three
PROBE_TIMEOUT_S = 150

# The speed of interpreted code on a shared machine drifts by a third
# within minutes. On a 2-vCPU KVM guest, single solve-random passes varied
# with IQR/median 0.32 over 2.5 minutes, while their ratio to the loop in
# Speed, run between operations, varied 0.09 (cli: 0.29 and 0.09). So the
# end-to-end times are scaled to reference seconds: raw seconds times
# REFERENCE_S over the run's median loop time. Set-up times, whose raw
# medians moved by up to 46% between two sets of ten runs while the scaled
# times moved by at most 6%, are scaled by the loop timed right after each
# set-up. Raw values are printed too.
REFERENCE_S = 0.002
REFERENCE_EVERY_S = 0.2

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

# every public function the workloads call, as <module>.<function>
TRACED_CALLS = (
    "graphs.make_triangular_book",
    "graphs.parse_edge_list",
    "graphs.format_edge_list",
    "books.irregular_labeling",
    "books.modular_labeling",
    "books.predicted_weights",
    "labelings.vertex_weights",
    "labelings.verify_irregular",
    "labelings.verify_modular",
    "labelings.make_certificate",
    "labelings.certificate_to_json",
    "labelings.certificate_from_json",
    "labelings.certificate_to_dot",
    "bounds.lower_bound_s",
    "bounds.bound_report",
    "solver.solve",
    "solver.count_labelings",
    "cli.run.book",
    "cli.run.label",
    "cli.run.verify",
    "cli.run.bound",
    "cli.run.export",
)
MODULES = ("graphs", "books", "labelings", "bounds", "solver", "cli")


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in TRACED_CALLS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
    units.update(
        {
            "solver.nodes": "count",
            "solver.witness_nodes": "count",
            "solver.refute_nodes": "count",
            "solver.witness_share": "1",
            "solver.nodes_per_s": "1/s",
            "solver.count_labelings.assignments_per_s": "1/s",
        }
    )
    units.update({f"{m}.failed": "count" for m in MODULES})
    units["trace.overhead"] = "1"
    return units


PER_LAYER = per_layer_units()


class Passthrough:
    """Untraced calls. Remembers the last call's name, to blame an exception on its module."""

    def __init__(self) -> None:
        self.current = ""

    def call(self, name, fn, *args):
        self.current = name
        return fn(*args)

    @contextlib.contextmanager
    def span(self, op_id: str, name: str):
        yield


class Tracer(Passthrough):
    """Spans kept in memory as (name, start, end, parent, op id) tuples.

    An operation opens a parent span named "op" (or "split", for the
    library calls that mirror a CLI verb); every call into the package
    inside it is a child span whose parent is that name and whose op id
    is the operation's.
    """

    def __init__(self) -> None:
        super().__init__()
        self.spans: list[tuple] = []
        self._parent: str | None = None
        self._op_id: str | None = None

    def call(self, name, fn, *args):
        self.current = name
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((name, start, time.perf_counter(), self._parent, self._op_id))

    @contextlib.contextmanager
    def span(self, op_id: str, name: str):
        self._parent, self._op_id = name, op_id
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, start, time.perf_counter(), None, op_id))
            self._parent = self._op_id = None

    def busy(self, first: int, last: int) -> tuple[Counter, Counter]:
        """Calls and busy seconds per traced function over spans[first:last]."""
        calls, busy = Counter(), Counter()
        for name, start, end, parent, _ in self.spans[first:last]:
            if parent is not None:
                calls[name] += 1
                busy[name] += end - start
        return calls, busy


class Speed:
    """Samples of a fixed reference loop, taken between operations.

    Each sample is weighted by the time since the one before it, so a long
    operation counts for as long as it ran.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (loop seconds, weight)
        self._last = time.perf_counter()

    def tick(self) -> None:
        now = time.perf_counter()
        if self.samples and now - self._last < REFERENCE_EVERY_S:
            return
        counts: dict[int, int] = {}
        start = time.perf_counter()
        for i in range(8000):
            counts[i & 1023] = counts.get(i & 1023, 0) + i
        self.samples.append((time.perf_counter() - start, now - self._last))
        self._last = time.perf_counter()

    def loop_s(self) -> float:
        """Time-weighted median of the loop's duration."""
        rest = sum(weight for _, weight in self.samples) / 2
        for loop, weight in sorted(self.samples):
            rest -= weight
            if rest <= 0:
                return loop
        return self.samples[-1][0]

    def scale(self) -> float:
        """Reference seconds per raw second."""
        return REFERENCE_S / self.loop_s()

    def sample_now(self, count: int = 9) -> "Speed":
        """Time the loop ``count`` times back to back."""
        for _ in range(count):
            self._last = time.perf_counter() - REFERENCE_EVERY_S  # due now, equal weights
            self.tick()
        return self


@dataclass
class Pass:
    traced: bool
    wall: float = 0.0  # sum of operation latencies; checks are outside it
    latency: dict[str, float] = field(default_factory=dict)
    failures: dict[str, list[tuple[str, str]]] = field(default_factory=dict)
    nodes: int = 0
    assignments: int = 0
    spans: tuple[int, int] = (0, 0)


def run_pass(ops, tracer: Passthrough, index: int, last: dict, speed: Speed) -> Pass:
    traced = isinstance(tracer, Tracer)
    p = Pass(traced=traced)
    first = len(tracer.spans) if traced else 0
    for op in ops:
        speed.tick()
        op_id = f"{index}/{op.key}"
        error = None
        start = time.perf_counter()
        with tracer.span(op_id, "op"):
            try:
                out = op.run(tracer.call)
            except Exception as exc:
                out, error = None, exc
        latency = time.perf_counter() - start
        p.latency[op.key] = latency
        p.wall += latency
        try:
            if error is not None:
                raise error
            bad = op.check(out)
            if op.nodes:
                p.nodes += op.nodes(out)
            if op.assignments:
                p.assignments += op.assignments(out)
            if op.refute:
                last[op.key] = out
            if traced and op.split:
                with tracer.span(op_id, "split"):
                    op.split(tracer.call)
        except Exception as exc:
            bad = [(tracer.current.partition(".")[0], f"{type(exc).__name__}: {exc}")]
        if bad:
            p.failures[op.key] = bad
    if traced:
        p.spans = (first, len(tracer.spans))
    return p


def measure(ops, seconds: float, trace: bool) -> tuple[list[Pass], Tracer, dict, Speed]:
    """Run passes until the next one would end after ``seconds``.

    With ``trace``, untraced and traced passes alternate, starting
    untraced, and at least one of each runs. A pass is expected to take
    as long as the fastest earlier pass of its kind; the first pass also
    computes the expected results the checks keep.
    """
    plain, tracer, speed = Passthrough(), Tracer(), Speed()
    passes: list[Pass] = []
    took = {False: math.inf, True: math.inf}
    last: dict = {}
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(passes) % 2 == 1
        started = time.perf_counter()
        passes.append(run_pass(ops, tracer if traced else plain, len(passes), last, speed))
        took[traced] = min(took[traced], time.perf_counter() - started)
        following = trace and len(passes) % 2 == 1
        expect = took[following] if took[following] < math.inf else took[traced]
        if len(passes) >= (2 if trace else 1) and time.perf_counter() + expect > deadline:
            speed.tick()
            return passes, tracer, last, speed


def end_to_end(passes: list[Pass], setup_times: list[float], scale: float = 1.0) -> dict[str, float]:
    """The end-to-end metrics; wall_s and the latencies times ``scale``."""
    plain = [p for p in passes if not p.traced]
    # one latency per operation, its median over the passes, so the
    # percentiles fall on the same operations whatever the pass count
    per_op = [statistics.median(p.latency[key] for p in plain) for key in plain[0].latency]
    deciles = statistics.quantiles(per_op, n=10, method="inclusive")
    return {
        "wall_s": statistics.median(p.wall for p in plain) * scale,
        "setup_s": statistics.median(setup_times),
        "op_ms_p50": deciles[4] * 1e3 * scale,
        "op_ms_p90": deciles[8] * 1e3 * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(passes: list[Pass], tracer: Tracer, refute_nodes: int) -> dict[str, float]:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    counts = [tracer.busy(*p.spans) for p in traced]
    metrics: dict[str, float] = {}
    for name in TRACED_CALLS:
        metrics[f"{name}.calls"] = statistics.median_low(c[name] for c, _ in counts)
        metrics[f"{name}.busy_s"] = statistics.median(b[name] for _, b in counts)
    nodes = traced[0].nodes
    solve_s = metrics["solver.solve.busy_s"]
    count_s = metrics["solver.count_labelings.busy_s"]
    metrics["solver.nodes"] = nodes
    metrics["solver.witness_nodes"] = nodes - refute_nodes
    metrics["solver.refute_nodes"] = refute_nodes
    metrics["solver.witness_share"] = (nodes - refute_nodes) / nodes if nodes else 0.0
    metrics["solver.nodes_per_s"] = nodes / solve_s if solve_s else 0.0
    metrics["solver.count_labelings.assignments_per_s"] = traced[0].assignments / count_s if count_s else 0.0
    for module in MODULES:
        metrics[f"{module}.failed"] = statistics.median_low(
            sum(1 for bad in p.failures.values() for m, _ in bad if m == module) for p in traced
        )
    metrics["trace.overhead"] = (
        statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in plain) - 1
    )
    return metrics


def src_lines() -> int:
    """Non-blank, non-comment lines under src/."""
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                total += 1
    return total


def write_spans(tracer: Tracer, workload: str, seed: int) -> Path:
    TRACE_OUT.mkdir(exist_ok=True)
    path = TRACE_OUT / f"spans-{workload}-seed{seed}.json"
    fields = ["name", "start", "end", "parent", "op"]
    path.write_text(json.dumps({"workload": workload, "seed": seed, "fields": fields, "spans": tracer.spans}))
    return path


def set_up(workload: str, seed: int, tiny: bool):
    """Fresh-process import of the package plus the workload's inputs.

    Returns (workloads module, operations, working directory, seconds).
    Must run before anything else in this process imports numpy or
    irrstrength.
    """
    if not (SRC / "irrstrength" / "__init__.py").is_file():
        raise FileNotFoundError(f"no irrstrength package under {SRC}")
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    workloads = importlib.import_module("workloads")
    package = Path(sys.modules["irrstrength"].__file__).resolve()
    if SRC.resolve() not in package.parents:
        raise ImportError(f"irrstrength imported from {package}, not from {SRC}")
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    ops = workloads.build(workload, seed, workdir, tiny)
    return workloads, ops, workdir, time.perf_counter() - started


def probe_setup(args) -> list[float]:
    """Set-up times of fresh child processes."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def run_workload(args) -> int:
    try:
        workloads, ops, workdir, own_setup = set_up(args.workload, args.seed, args.tiny)
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        setup_raw = own_setup
        own_setup *= Speed().sample_now().scale()
        if args.setup_probe:
            print(own_setup)
            return 0
        setup_times = [own_setup] + probe_setup(args)
        passes, tracer, last, speed = measure(ops, args.seconds, bool(args.trace))
        refute_nodes = sum(op.refute(last[op.key]) for op in ops if op.refute and op.key in last) if args.trace else 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failing = {}
    for p in passes:
        for key, bad in p.failures.items():
            failing.setdefault(key, [bad, 0])[1] += 1
    if len({p.nodes for p in passes}) > 1:
        failing["solver-nodes-repeat"] = [[("solver", f"nodes differ between passes: {[p.nodes for p in passes]}")], 1]
    attempted = sum(len(p.latency) for p in passes)
    failed = sum(len(p.failures) for p in passes)

    if args.trace:
        metrics, units = per_layer(passes, tracer, refute_nodes), PER_LAYER
    else:
        metrics, units = end_to_end(passes, setup_times, speed.scale()), END_TO_END
    numpy = sys.modules["numpy"]
    plain = sum(1 for p in passes if not p.traced)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} passes {len(passes)} "
          f"({plain} untraced) operations/pass {len(ops)}")
    print(f"context src_lines {src_lines()}")
    print(f"context machine {platform.platform()} {platform.machine()} cpus {os.cpu_count()} "
          f"python {platform.python_version()} numpy {numpy.__version__}")
    print(f"context reference_loop_ms {speed.loop_s() * 1e3} ({len(speed.samples)} samples); "
          f"reference seconds per raw second {speed.scale()}")
    if not args.trace:
        for name, value in end_to_end(passes, [setup_raw]).items():
            print(f"raw {name} {value} {units[name]}")
    for name, value in metrics.items():
        print(f"metric {name} {value} {units[name]}")
    print(f"metric failed_ratio {failed / attempted} 1 ({failed} of {attempted} operations)")
    if not args.trace:
        print(f"note op_ms_p50/op_ms_p90 over {len(ops)} operations, each the median of {plain} passes; "
              f"setup_s is the median of {len(setup_times)} set-ups")
    else:
        print(f"note spans written to {write_spans(tracer, args.workload, args.seed).relative_to(ROOT)}")
    for key, (bad, times) in sorted(failing.items()):
        known = " (known defect)" if key in workloads.KNOWN_DEFECTS else ""
        for module, reason in bad:
            print(f"FAIL {args.workload} {key} [{module}] {reason}; in {times} of {len(passes)} passes{known}")
    result = {
        "correct": all(key in workloads.KNOWN_DEFECTS for key in failing),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload with tracing off, then on, each in its own process."""
    status = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", trace]
            if args.tiny:
                cmd.append("--tiny")
            sys.stdout.flush()
            status |= subprocess.run(cmd, cwd=ROOT, check=False).returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every workload (tests of the benchmark)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
