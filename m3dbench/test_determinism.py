#!/usr/bin/env python3
"""Fixed-work determinism check for the benchmark.

Every workload does a fixed, seeded amount of work per pass, so for one
seed the quality metrics (accuracy, resolution, fhi, tier_acc) and every
work count (dies, records, atpg.patterns, gnn.epochs_run,
diag.candidates_mean, journal.appends, ...) must repeat bit for bit, no
matter how many passes fit in --seconds or whether the run is traced.  A
different seed must generate different inputs.  Per workload this runs:

  A: untraced, seed S        B, C: traced, seed S        D: untraced, seed S+1

and requires B == C on every exact value, A == B on the values both
report, D's inputs digest != A's, and correct/failed == true/0 everywhere.
For the workloads BENCHMARK.json lists, the untraced run must report
exactly the listed end-to-end metrics, each with its listed unit and none
of them 0, and the traced run every listed per-layer metric.

    python3 m3dbench/test_determinism.py [--workloads w1,w2] [--seed 7]

Exits 0 when every check holds, 1 otherwise.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["diag-cold", "diag-retest", "stream-feed", "offline-train"]


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    exact = next((json.loads(l[len("exact: "):]) for l in lines
                  if l.startswith("exact: ")), None)
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, exact, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    gated = {w["name"] for w in bench["workloads"]}
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in args.workloads.split(","):
        runs = {"A": run(w, args.seed, 0), "B": run(w, args.seed, 1),
                "C": run(w, args.seed, 1), "D": run(w, args.seed + 1, 0)}
        for name, (code, exact, result) in runs.items():
            expect(code == 0 and exact is not None and result is not None
                   and result["correct"] and result["failed"] == 0
                   and result["attempted"] > 0,
                   f"{w} run {name}: exit 0, correct, no failed operation")
        if failures:
            continue
        a, b, c, d = (runs[k][1] for k in "ABCD")
        expect(b == c, f"{w}: traced runs repeat every exact value")
        diff = sorted(k for k in a if a[k] != b.get(k))
        expect(not diff, f"{w}: untraced and traced runs agree"
               + (f" (differ: {', '.join(diff)})" if diff else ""))
        expect(d["inputs_digest"] != a["inputs_digest"],
               f"{w}: another seed generates other inputs")
        if w not in gated:
            continue
        reported = {k: v["unit"] for k, v in runs["A"][2]["metrics"].items()}
        expect(reported == e2e,
               f"{w}: untraced run reports every listed end-to-end metric "
               "in its unit, and no other")
        zero = sorted(k for k, v in runs["A"][2]["metrics"].items()
                      if v["value"] == 0)
        expect(not zero, f"{w}: no end-to-end metric is 0"
               + (f" (0: {', '.join(zero)})" if zero else ""))
        traced = {k: v["unit"] for k, v in runs["B"][2]["metrics"].items()}
        expect(traced == layers,
               f"{w}: traced run reports every listed per-layer metric "
               "in its unit, and no other")
    print(f"\n{len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
