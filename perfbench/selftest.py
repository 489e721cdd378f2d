#!/usr/bin/env python3
"""Self-test: two traced runs with the same seed count the same work.

    python3 perfbench/selftest.py [--seed N] [--seconds S]

Runs ``run.py --trace 1`` twice per workload, in separate processes, and
compares every per-layer count (calls, rows, items, bytes, NFE, per-item
and waste ratios; not times). Claims about work counts, such as STFTs per
ablate item, rest on these repeating exactly. Also checks that each run was
correct, which includes byte-identical outputs of traced and untraced
rounds. Exits 1 on any difference. Run from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from spans import is_count
from spread import run_once

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=1)
    args = parser.parse_args()
    ok = True
    for workload in ("train", "evaluate", "serve"):
        first, second = (run_once(workload, args.seed, args.seconds, 1)
                         for _ in range(2))
        ok &= first["correct"] and second["correct"]
        diffs = {name: (m["value"], second["metrics"][name]["value"])
                 for name, m in first["metrics"].items()
                 if is_count(name) and m["value"]
                 != second["metrics"][name]["value"]}
        ok &= not diffs
        counts = {name: m["value"] for name, m in first["metrics"].items()
                  if is_count(name)}
        print(f"{workload}: correct={first['correct']},{second['correct']} "
              f"differing counts={json.dumps(diffs)}")
        for name in ("signal.stft.per_item.ablate",
                     "signal.stft.per_item.nfe_sweep",
                     "signal.stft.per_item.extract",
                     "mrnet.mr_predict.per_item.ablate",
                     "mrnet.mr_predict.per_item.nfe_sweep",
                     "sampler.nfe_total", "velnet.loss_and_grad.rows",
                     "velnet.velocity_signal.rows"):
            print(f"  {name} = {counts[name]}")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
