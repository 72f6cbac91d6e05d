#!/usr/bin/env python3
"""Steadiness report: runs each workload N times and prints, per metric,
the median, the quartiles and the spread (Q3 - Q1) / median, next to the
bound BENCHMARK.json fixes for it.

    python3 curbench/steadiness.py --runs 10 [--workloads ingest spread]
                                   [--first-seed 1] [--trace 0]

Each run gets its own seed (first-seed, first-seed + 1, ...), as the
acceptance check does. A spread marked "!" is at or above a third of the
bound; one marked "FAIL" is above the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in
              bench["end_to_end"] + bench["per_layer"]}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    worst = 0.0
    for workload in args.workloads:
        results = []
        for i in range(args.runs):
            res = run_once(workload, args.first_seed + i, args.seconds,
                           args.trace)
            if not res["correct"] or res["failed"] != 0:
                print(f"{workload} seed {args.first_seed + i}: "
                      f"correct={res['correct']} failed={res['failed']}")
                return 1
            results.append(res)
        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}")
        print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(name)
            mark = ""
            if bound is not None:
                worst = max(worst, spread / bound)
                mark = "FAIL" if spread > bound else (
                    "!" if spread >= bound / 3 else "")
            print(f"{name:34} {med:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{spread:8.4f} {bound if bound is not None else '':>6} "
                  f"{mark}")
    print(f"\nworst spread / bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
