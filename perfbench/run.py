#!/usr/bin/env python3
"""Served-latency benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (the engine sources under
src/ plus the load generator) into .bench_build/perfbench with CMake in
Release mode, then runs the load generator on the named workload (the
workload table is in perfbench/workload.cc). The generator's output is
passed through; its last line is the JSON result. The metric names are
checked against BENCHMARK.json when that file is present. Exit code: the
generator's (0 ok, 1 wrong answer, 2 bad input, set-up failure or a layer
replay that no longer mirrors the program, 3 generator fell behind), or 2
when the build or the metric check fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "loadgen")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "server", "query_server.h")):
        fail("run from the repository root: src/ is missing")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr[-4000:])
            fail("build step failed: " + " ".join(step))


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    return {e["name"]: e["unit"] for e in entries}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if args.seconds <= 0:
        fail("--seconds must be positive")
    build()

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        fail("load generator exceeded 170 s")
    lines = done.stdout.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        pass
    if done.returncode == 0 and result is not None:
        expected = expected_metrics(args.trace == 1)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if expected is not None and got != expected:
            missing = sorted(set(expected) - set(got))
            extra = sorted(set(got) - set(expected))
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
                 "units %s" % (missing, extra,
                               sorted(k for k in got if k in expected and
                                      got[k] != expected[k])))
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
