#!/usr/bin/env python3
"""Steadiness report: repeats workloads and prints each metric's spread.

Runs every (seed, workload) pair through run.py, interleaving the
workloads so slow drifts of the host hit all of them alike, then prints,
per workload and end-to-end metric, the median, the first and third
quartiles (statistics.quantiles(values, n=4)), the spread (Q3 - Q1) / median
and the metric's bound from BENCHMARK.json.  Bounds are set from these
spreads, not guessed.

    python3 m3dbench/steadiness.py --workloads diag-cold,stream-feed \\
        --seeds 1-10 [--seconds 10] [--trace 0] [--json out.json]

A spread at or above a third of its bound is flagged "WIDE"; at or above
the bound, "OVER".  setup_s is reported but never flagged (its bound limits
drift between builds, not spread).  The exit code is 1 when any run failed
or printed no result.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    wall = time.monotonic() - t0
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, wall, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="also write every run's result here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)

    values = {w: {} for w in workloads}
    walls = {w: [] for w in workloads}
    runs = []
    bad = 0
    for seed in seeds:
        for w in workloads:
            code, wall, result = run_once(w, seed, seconds, args.trace)
            walls[w].append(wall)
            runs.append({"workload": w, "seed": seed, "exit": code,
                         "wall_s": wall, "result": result})
            ok = code == 0 and result is not None and result.get("correct")
            bad += 0 if ok else 1
            print(f"{w:14s} seed {seed:3d}  exit {code}  {wall:6.1f} s"
                  + ("" if ok else "  FAILED"), flush=True)
            if result is None:
                continue
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])

    for w in workloads:
        print(f"\n== {w}: {len(walls[w])} runs, wall median "
              f"{statistics.median(walls[w]):.1f} s, max {max(walls[w]):.1f} s")
        print(f"{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, vals in values[w].items():
            if len(vals) >= 2:
                q1, med, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = med = q3 = vals[0]
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound and name != "setup_s":
                flag = ("OVER" if spread >= bound else
                        "WIDE" if spread >= bound / 3 else "")
            print(f"{name:28s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound if bound else '-':>6} {flag}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
