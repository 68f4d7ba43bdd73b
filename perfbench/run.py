#!/usr/bin/env python3
"""Build dtusim from source and run one workload of its host-time benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload fleet_oneshot --seed 1 \\
        --seconds 30 --trace 0

The first run configures and builds perfbench/ (which compiles ../src)
into $CARGO_TARGET_DIR, or .bench_build when that is unset; later runs
only rebuild what changed. The perfbench binary's output is relayed, and
its last line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits non-zero without printing a result when the build or the run
fails (for example when the simulator sources are missing).
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
FINGERPRINTS = os.path.join(HERE, "fingerprints.txt")
WORKLOADS = ("fleet_oneshot", "llm_tp2", "zoo_chip")

# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def run_logged(cmd, log_path):
    with open(log_path, "w") as log:
        return subprocess.run(cmd, stdout=log,
                              stderr=subprocess.STDOUT).returncode


def build(out_dir):
    """Configure (once) and build the benchmark; return the binary's path."""
    os.makedirs(out_dir, exist_ok=True)
    log = os.path.join(out_dir, "perfbench_build.log")
    steps = []
    if not os.path.exists(os.path.join(out_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if run_logged(cmd, log) != 0:
            with open(log) as f:
                sys.stderr.write(f.read()[-4000:])
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(1)
    return os.path.join(out_dir, "perfbench")


def parse_result(line):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected result keys %s" % sorted(result))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs the workloads at test size")
    parser.add_argument("--perturb", action="store_true",
                        help="alter the first iteration's simulated output "
                             "before it is checked (tests the check)")
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    scratch = os.path.join(out_dir, "run")
    os.makedirs(scratch, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--fingerprints", FINGERPRINTS,
           "--scratch", scratch]
    if args.perturb:
        cmd.append("--perturb")

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        proc.terminate()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        sys.exit(1)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(out)
        sys.stderr.write("perfbench: exited with %d\n" % proc.returncode)
        sys.exit(1)
    try:
        parse_result(lines[-1])
    except ValueError as e:
        sys.stderr.write(out)
        sys.stderr.write("perfbench: no result line: %s\n" % e)
        sys.exit(1)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
