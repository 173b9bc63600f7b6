#!/usr/bin/env python3
"""Benchmark of latspi: end-to-end metrics per workload, per-layer metrics
from a separate traced run.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

A run makes its set-up, then runs whole rounds of operations on one thread
until ``--seconds`` have passed, checks every operation's output, and
prints one ``name value unit`` line per metric followed, as its last line,
by a JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones and writes the kept spans under ``perfbench/out/``.
``--workload all`` runs every workload untraced and then traced, one run
after the other, each in its own process so that peak memory is the
workload's own, and prints the tracing overhead.

Exit codes: 0 when the run completed (failed operations are reported, not
fatal), 2 when the benchmark cannot run, for instance without the package
source under ``src/latspi``.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # every start compiles the package, as set-up measures

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("corpus-empty", "corpus-dy", "spectrum", "diamonds")
PROBE_GROUPS = 5
PROBES_PER_GROUP = 4


class BenchError(Exception):
    pass


def import_package():
    """Import the package from this checkout's source tree, never another copy."""
    if not (SRC / "latspi" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'latspi'}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import latspi

    if Path(latspi.__file__).resolve().parent != (SRC / "latspi").resolve():
        raise BenchError(f"imported latspi from {latspi.__file__}, not from {SRC}")
    import workloads

    return workloads


class SetupProbes:
    """Times whole set-ups, each in a fresh interpreter, so that interpreter
    start-up and compiling the package count.  The machine's speed drifts
    over seconds, so the probes run in groups spread from the start to the
    end of the timed phase, between rounds and off the clock, and
    ``setup_s`` is their median."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.cmd = [sys.executable, "-B", str(HERE / "setup_probe.py"), workload, str(seed)]
        self.due = [seconds * i / (PROBE_GROUPS - 1) for i in range(PROBE_GROUPS)]
        self.times: list[float] = []

    def run_due(self, elapsed: float) -> None:
        while self.due and self.due[0] <= elapsed:
            self.due.pop(0)
            for _ in range(PROBES_PER_GROUP):
                t0 = perf_counter()
                # no timeout: with one, the wait polls and rounds times up to 50 ms steps
                subprocess.run(self.cmd, check=True, cwd=ROOT, stdin=subprocess.DEVNULL)
                self.times.append(perf_counter() - t0)

    def median(self) -> float:
        self.run_due(float("inf"))
        return statistics.median(self.times)


def run_op(op) -> bool:
    try:
        return bool(op())
    except Exception:  # a crashing operation is a failed one; the run goes on
        traceback.print_exc(file=sys.stderr)
        return False


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def measure(workload, ops, seconds: float, tracer=None, probes=None) -> dict:
    """Run whole rounds until ``seconds`` have passed on the clock, which
    stops while set-up probes run."""
    latencies = []
    attempted = failed = rounds = 0
    peak = None
    off_clock = 0.0
    start = perf_counter()
    while True:
        if probes is not None:
            t0 = perf_counter()
            probes.run_due(t0 - start - off_clock)
            off_clock += perf_counter() - t0
        oks = []
        for op in ops:
            if tracer is not None:
                tracer.begin_op()
            t0 = perf_counter()
            oks.append(run_op(op))
            latencies.append(perf_counter() - t0)
        oks = workload.check_round(oks)
        attempted += len(oks)
        failed += oks.count(False)
        rounds += 1
        if rounds == workload.memory_rounds:
            peak = peak_rss_mib()
        if perf_counter() - start - off_clock >= seconds:
            break
        ops = workload.round()
    return {
        "elapsed": perf_counter() - start - off_clock,
        "latencies": latencies,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mib": peak_rss_mib() if peak is None else peak,
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workloads = import_package()
    workload, ops = workloads.setup(name, seed)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    probes = None if trace else SetupProbes(name, seed, seconds)
    with tracer.installed() if tracer is not None else nullcontext():
        m = measure(workload, ops, seconds, tracer, probes)
    failed = m["failed"] + workload.post_check()
    if tracer is not None:
        metrics = tracer.metrics(m["attempted"], m["elapsed"])
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{name}-seed{seed}.json"
        kept = tracer.write_spans(path)
        print(f"# {kept} spans written to {path.relative_to(ROOT)}, {tracer.dropped()} over the cap")
    else:
        metrics = {
            "ops_per_s": (m["attempted"] / m["elapsed"], "1/s"),
            "op_p50_ms": (statistics.median(m["latencies"]) * 1000.0, "ms"),
            "setup_s": (probes.median(), "s"),
            "peak_rss_mib": (m["peak_rss_mib"], "MiB"),
        }
    return {
        "correct": failed == 0,
        "attempted": m["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def print_result(result: dict, prefix: str = "") -> None:
    for key, metric in result["metrics"].items():
        print(f"{prefix}{key} {metric['value']:.6g} {metric['unit']}")
    print(f"{prefix}attempted {result['attempted']} failed {result['failed']}")


def run_all(seed: int, seconds: float) -> dict:
    """Every workload untraced, then traced, one child run after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    ops_per_s = {}
    for trace in (0, 1):
        for name in WORKLOADS:
            cmd = [sys.executable, "-B", str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                raise BenchError(f"{name} (trace {trace}) exited with {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print_result(result, prefix=f"{name}/")
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, metric in result["metrics"].items():
                combined["metrics"][f"{name}/{key}"] = metric
            ops_per_s[name, trace] = result["metrics"]["trace.ops_per_s" if trace else "ops_per_s"]["value"]
    for name in WORKLOADS:
        plain, traced = ops_per_s[name, 0], ops_per_s[name, 1]
        print(f"{name}/tracing_overhead {100.0 * (plain / traced - 1.0):.1f} % "
              f"({plain:.4g} ops/s untraced, {traced:.4g} ops/s traced)")
    return combined


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds)
        else:
            result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
            print_result(result)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
