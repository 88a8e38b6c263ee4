#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly on one commit and print
every metric's median, quartiles and spread against its bound.

    python3 e2ebench/steady.py                      # 10 seeds x every workload
    python3 e2ebench/steady.py --runs 5 --workloads tune

The spread is (Q3 - Q1) / median over the runs, quartiles as Python's
statistics.quantiles(values, n=4) gives them.  An end-to-end metric is
"steady" when its spread is within a third of its bound.  The share of
failed operations must be the same in every run.  Use it to set the bounds
in BENCHMARK.json and to re-check them on a new host.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("run failed (exit %d): %s" % (done.returncode,
                                                       " ".join(cmd)))
    return json.loads(lines[-1])


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workloads:
        results = [run_once(workload, args.seed_base + i, args.seconds)
                   for i in range(args.runs)]
        shares = {(r["failed"] / r["attempted"]) for r in results}
        correct = all(r["correct"] for r in results)
        print("%s: %d runs, correct=%s, failed shares=%s" %
              (workload, len(results), correct, sorted(shares)))
        steady &= correct and len(shares) == 1
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else 0.0
            ok = spread <= bounds[name] / 3
            steady &= ok
            print("  %-14s median %-14.6g q1 %-12.6g q3 %-12.6g spread %6.2f%% %s"
                  " (bound %.2f)" % (name, med, q1, q3, 100 * spread,
                                     "ok" if ok else "TOO NOISY", bounds[name]))
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
