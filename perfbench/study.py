#!/usr/bin/env python3
"""Steadiness study for the host-time benchmark.

Runs several sets of the same code back to back, each on its own N
seeds (set s uses seeds first + s*N .. first + s*N + N - 1). Inside a
set, every seed runs every workload, workloads interleaved (the order
rotates with the seed), so slow drift of the machine touches all
workloads alike.
For each set, workload and end-to-end metric it reports the median and
the quartile spread (Q3 - Q1) / median over the seeds, computed with
statistics.quantiles(values, n=4); across sets it reports how far each
later set's median moved from the first set's, in the metric's worse
direction. Those two figures are what BENCHMARK.json's bounds must
cover.

    python3 perfbench/study.py --sets 2 --seeds 10 \\
        --out .bench_build/steadiness.json

Run from the root of the repository; perfbench/run.py builds first.
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


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit("run failed:\n" + proc.stdout + proc.stderr)
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=10,
                        help="seeds per set")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: BENCHMARK.json)")
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--out", default=None, help="write raw runs here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    runs = []
    for s in range(args.sets):
        first = args.first_seed + s * args.seeds
        for seed in range(first, first + args.seeds):
            k = seed % len(workloads)
            for workload in workloads[k:] + workloads[:k]:
                r = run_once(workload, seed, seconds)
                runs.append({"set": s, "seed": seed, "workload": workload,
                             "at": time.time(), "correct": r["correct"],
                             "attempted": r["attempted"],
                             "failed": r["failed"],
                             "metrics": {n: m["value"] for n, m in
                                         r["metrics"].items()}})
                print("set %d seed %d %-14s %s" % (
                    s, seed, workload, " ".join(
                        "%s=%.4g" % (n, v)
                        for n, v in runs[-1]["metrics"].items())),
                    flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seconds": seconds, "runs": runs}, f, indent=1)

    print("\n| workload | metric | bound | " + " | ".join(
        "set %d median | set %d spread" % (s, s) for s in range(args.sets))
        + " | worst drift |")
    print("|---|---|---|" + "---|---|" * args.sets + "---|")
    ok = all(r["correct"] and r["failed"] == 0 for r in runs)
    for workload in workloads:
        for m in metrics:
            sign = 1.0 if m["better"] == "lower" else -1.0
            cells, medians = [], []
            for s in range(args.sets):
                values = [r["metrics"][m["name"]] for r in runs
                          if r["set"] == s and r["workload"] == workload]
                med = statistics.median(values)
                medians.append(med)
                sp = spread(values) if len(values) > 1 else 0.0
                cells.append("%.4g | %.1f%%" % (med, 100 * sp))
                if m["name"] != "setup_s" and sp > m["bound"]:
                    ok = False
            drift = max([0.0] + [sign * (med / medians[0] - 1.0)
                                 for med in medians[1:]])
            if drift > m["bound"]:
                ok = False
            print("| %s | %s | %.2f | %s | %.1f%% |" % (
                workload, m["name"], m["bound"], " | ".join(cells),
                100 * drift))
    print("\nevery run correct, every spread and drift within its bound: %s"
          % ("yes" if ok else "NO"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
