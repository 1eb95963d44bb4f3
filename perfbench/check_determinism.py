#!/usr/bin/env python3
"""Determinism check for the traced run.

For each workload, runs the traced benchmark twice with one seed and once
with another. The count metrics must repeat exactly for the same seed; the
other seed changes the inputs but must keep the workload's character (its
plan-cache and buffer-pool bands). Exits non-zero on any violation.

Run from the repository root:

    python3 perfbench/check_determinism.py [--seed N] [--seconds S]
"""

import argparse
import json
import subprocess
import sys

COMMAND = ["cargo", "run", "--release", "--offline", "--quiet",
           "--manifest-path", "perfbench/Cargo.toml", "--"]

# Counts that a single-threaded traced run must reproduce exactly.
EXACT = ["core.exprs_created", "core.goals_optimized", "core.est_cost_ms",
         "store.pages_per_op", "store.misses_per_op"]

# Each workload's character: (metric, low, high) bands any seed must meet.
BANDS = {
    "oltp_mixed": [("plan_cache.hit_ratio", 0.95, 1.0),
                   ("store.misses_per_op", 0.0, 0.0),
                   ("store.hit_ratio", 1.0, 1.0)],
    "adhoc_join": [("plan_cache.hit_ratio", 0.0, 0.2),
                   ("store.misses_per_op", 0.0, 0.0)],
    "report_scan": [("plan_cache.hit_ratio", 0.95, 1.0),
                    ("store.hit_ratio", 0.0, 0.1),
                    ("store.misses_per_op", 2000.0, 4000.0)],
}


def traced(workload, seed, seconds):
    out = subprocess.run(
        COMMAND + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run reported wrong answers")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=2)
    args = ap.parse_args()
    problems = []
    for workload, bands in BANDS.items():
        a = traced(workload, args.seed, args.seconds)
        b = traced(workload, args.seed, args.seconds)
        c = traced(workload, args.seed + 1, args.seconds)
        for k in EXACT:
            same = a[k] == b[k]
            print(f"{workload:12s} {k:22s} seed {args.seed}: {a[k]} / {b[k]}"
                  f"  seed {args.seed + 1}: {c[k]}  {'ok' if same else 'DIFFERS'}")
            if not same:
                problems.append(f"{workload} {k}: {a[k]} != {b[k]}")
        for k, lo, hi in bands:
            for seed, m in ((args.seed, a), (args.seed + 1, c)):
                if not lo <= m[k] <= hi:
                    problems.append(f"{workload} seed {seed} {k}={m[k]} outside [{lo}, {hi}]")
    for p in problems:
        print("FAIL:", p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
