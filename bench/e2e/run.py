#!/usr/bin/env python3
"""Build bench_e2e if needed, run one workload, print one JSON result line.

Run from the repository root:

    python3 bench/e2e/run.py --workload als-nell2 --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/e2e (default .bench_build/e2e). With
--trace 0 the result carries the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics of a traced run, whose Chrome trace lands in
the build directory. The last line of stdout is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exits non-zero without a result when the sources are missing, the build
fails, or the run crashes, times out or omits a metric.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "e2e")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "session.hpp")):
        fail("library sources (src/) not found; run from a full checkout")
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", "4", "--target", "bench_e2e"],
    ]
    if os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps = steps[1:]  # the build re-configures itself when needed
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "bench_e2e")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    out = build_dir()
    binary = build(out)
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}"]
    if args.trace:
        cmd.append(f"--trace={out}/trace-{args.workload}-{args.seed}.json")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    if proc.returncode not in (0, 1):
        fail(f"bench_e2e exited with {proc.returncode}")

    printed = {}
    ops = None
    for line in proc.stdout.splitlines():
        fields = line.split()
        if len(fields) == 4 and fields[0] == "metric":
            printed[fields[1]] = (float(fields[2]), fields[3])
        elif len(fields) == 3 and fields[0] == "ops":
            ops = (int(fields[1]), int(fields[2]))
    if ops is None:
        fail("bench_e2e printed no operation counts")
    metrics = {}
    for m in wanted:
        if m["name"] not in printed:
            fail(f"bench_e2e did not print metric {m['name']}")
        value, unit = printed[m["name"]]
        if unit != m["unit"]:
            fail(f"metric {m['name']} in {unit}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    attempted, failed = ops
    print(json.dumps({"correct": proc.returncode == 0 and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
