#!/usr/bin/env python3
"""Run one workload over several seeds and print each metric's spread.

    python3 perfbench/steadiness.py --workload paper-512 --seeds 1-10

The spread is (Q3 - Q1) / median over the seeds' values, with quartiles as
statistics.quantiles(values, n=4) gives them; compare it with the metric's
bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    a = ap.parse_args()
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    values = {}
    for seed in parse_seeds(a.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             a.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            cwd=root, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            print("seed %d: run.py exited %d" % (seed, out.returncode))
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print("seed %d: correct=%s %s" % (seed, result["correct"], json.dumps(
            {k: v["value"] for k, v in result["metrics"].items()})),
            flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for k, v in values.items():
        if len(v) < 2:
            continue
        spread = stats.quartile_spread(v) if statistics.median(v) else 0.0
        print("%-16s median %-12.6g spread %.4f  bound %s"
              % (k, statistics.median(v), spread, bounds.get(k)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
