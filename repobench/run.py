#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 repobench/run.py --workload <tune_gp|tune_mix|serve_fleet> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
dbtune library and the benchmark binary into `.bench_build/` (CMake,
Release); later runs reuse that build. Build output goes to stderr, so
the last line on stdout is always the binary's JSON result. The exit
code is the binary's: 0 when every correctness check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tune_gp", "tune_mix", "serve_fleet")
# A run must end within 180 s; the binary stops well inside that.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build_dir():
    return os.path.join(ROOT, ".bench_build")


def fail(message, code=2):
    print(f"repobench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found: expected src/CMakeLists.txt at "
             f"{ROOT}")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "repobench",
                  "-j", "4"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail(f"build step failed: {error}")
        if done.returncode != 0:
            fail(f"build step failed ({done.returncode}): {' '.join(step)}")
    return os.path.join(out, "repobench")


def parse_result(stdout):
    """The binary's last stdout line, checked against the result shape."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    binary = build()
    scratch = os.path.join(build_dir(), "runs",
                           f"{args.workload}-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    command = [binary, "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace), "--scratch", scratch]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} exceeded {RUN_TIMEOUT_S} s", 1)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result = parse_result(done.stdout)
    if result is None:
        sys.stdout.write(done.stdout)
        fail("benchmark binary printed no result line", 1)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode == 0 and not result["correct"]:
        sys.exit(1)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
