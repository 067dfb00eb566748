#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload train_conv --seed 1 --seconds 10 --trace 0

The first run configures and builds `perfbench` (and the library beneath it)
from source into .bench_build/; later runs rebuild incrementally. The C++
program does the measuring and the correctness checks; this wrapper only
builds it, pins one OpenMP thread per rank, and passes its output through.
The last line of standard output is the result object; everything else goes
before it or to standard error.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("train_conv", "train_fc", "serve_light", "serve_heavy")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    # The benchmark builds the library from the root of the checkout.
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        fail("run from the repository root: CMakeLists.txt and src/ not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "build.ninja")):
        cfg = subprocess.run(
            ["cmake", "-S", "perfbench", "-B", BUILD_DIR, "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    res = subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant", choices=("loss", "bytes", "logits"),
                    help="corrupt one observed value before the checks "
                         "(proves the correctness gate fails the run)")
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.plant:
        cmd += ["--plant", args.plant]
    # One OpenMP thread per rank: four rank threads already fill four cores,
    # and the default (one OpenMP team per rank) oversubscribes them.
    env = dict(os.environ, OMP_NUM_THREADS="1")
    try:
        res = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = res.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(res.stdout)
        fail(f"no result line (exit code {res.returncode})")
    sys.stdout.write("\n".join(lines[:-1]) + "\n" if len(lines) > 1 else "")
    print(json.dumps(result))
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
