#!/usr/bin/env python3
"""Builds the benchmark runner from this checkout and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: serve-steady, serve-flood, des-paper, des-churn (see
perfbench/README.md). The build goes to $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; traced runs write their
spans to <build>/traces. The last line printed is one JSON object with the
keys correct, attempted, failed and metrics. The exit code is 0 when the
runner ran, and not 0 (with no result printed) when the checkout lacks the
program's sources, the build fails, or the runner crashes or overruns.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("serve-steady", "serve-flood", "des-paper", "des-churn")
# A run must end within 180 s; the runner itself stops starting repetitions
# after 120 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(bench_dir, build_dir):
    """Configures (once) and builds the runner; returns its path."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                fail(f"build timed out; see {log_path}")
            if code != 0:
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail(f"build failed; see {log_path}")
    return os.path.join(build_dir, "perfbench")


def binary_digest(path):
    digest = hashlib.sha256()
    with open(path, "rb") as binary:
        for block in iter(lambda: binary.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "sqlb", "service.h")):
        fail(f"no program sources under {root}/src: nothing to benchmark")
    out_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                              os.path.join(root, ".bench_build"))
    build_dir = os.path.join(out_dir, "perfbench")
    binary = build(bench_dir, build_dir)

    # Simulation outputs are pinned per build: every run of the same binary
    # with the same seed must reproduce them exactly.
    pin_dir = os.path.join(build_dir, "pins", binary_digest(binary))
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(pin_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--pin-dir", pin_dir]
    if args.trace == "1":
        command += ["--trace-file", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as expired:
        sys.stdout.write(expired.stdout or "")
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"runner exited with code {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if (not isinstance(result, dict) or
            set(result) != {"correct", "attempted", "failed", "metrics"}):
        sys.stdout.write(run.stdout)
        fail("runner printed no result line")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
