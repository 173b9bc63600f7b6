#!/usr/bin/env python3
"""Run the benchmark several times with different seeds and report, for each
metric, the median and the spread: the distance between the first and the
third quartile as a share of the median.

Usage: python3 perfbench/spread.py WORKLOAD [--runs 10] [--first-seed 1]
       [--seconds 20] [--trace 0]

Runs are sequential, one process at a time.  The runs' result lines are
appended to ``perfbench/out/spread-WORKLOAD.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    (HERE / "out").mkdir(exist_ok=True)
    log = HERE / "out" / f"spread-{args.workload}.jsonl"
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        with open(log, "a") as f:
            f.write(json.dumps({"seed": seed, **result}) + "\n")
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} {values}", flush=True)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        line = f"{name}: median {statistics.median(values):.6g}"
        if len(values) >= 2:
            line += f" spread {spread(values):.4f}"
        if bounds.get(name) is not None:
            line += f" (bound {bounds[name]})"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
