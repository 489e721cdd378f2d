#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads train,evaluate,serve]
        [--seeds 1-10] [--seconds S] [--trace 0|1] [--out FILE]

For every workload and end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread,
(Q3 - Q1) / median, next to the metric's bound from BENCHMARK.json. A
spread above a third of the bound is marked, as is one above the bound.
``--out`` writes the per-run values, the summary and the environment as
JSON. Run from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import environment, pin_blas_threads

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:"
                           f" {proc.stderr[-500:]}")
    return json.loads(lines[-1])


def summarize(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="train,evaluate,serve")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    pin_blas_threads()
    report = {"seconds": seconds, "trace": args.trace,
              "environment": environment(), "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            result = run_once(workload, seed, seconds, args.trace)
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
        summary = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            summary[m["name"]] = summarize(values) if len(values) > 1 else {}
            if not args.trace and len(values) > 1:
                s = summary[m["name"]]
                flag = ("  OVER BOUND" if s["spread"] > m["bound"] else
                        "  over 1/3 bound" if s["spread"] > m["bound"] / 3
                        else "")
                print(f"  {m['name']:<30} median {s['median']:<12.6g} "
                      f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread "
                      f"{s['spread']:.4f} (bound {m['bound']}){flag}")
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
