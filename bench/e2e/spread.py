#!/usr/bin/env python3
"""Run sets of benchmark runs and summarise their spread.

From the repository root:

    python3 bench/e2e/spread.py run A --seeds 1-10      # 10 seeds x 4 workloads
    python3 bench/e2e/spread.py compare A B

`run` stores each run's JSON line as bench/e2e/results/<set>/<workload>-seed<n>.json
(seeds outer, workloads inner, so slow drift spreads over all workloads) and
writes <set>/summary.json: per workload and end-to-end metric, the median,
the quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median,
flagged when it is not below a third of the metric's bound (setup_s is
exempt from the spread rule). `compare` checks that set B's median of every
metric is no worse than set A's by more than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS = os.path.join(HERE, "results")


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(bench, runs):
    """runs: {workload: [result, ...]} -> {workload: {metric: stats}}."""
    out = {}
    for w, results in runs.items():
        out[w] = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            out[w][m["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": m["bound"], "n": len(values),
                "steady": m["name"] == "setup_s" or spread < m["bound"] / 3,
            }
        out[w]["failed"] = sum(r["failed"] for r in results)
        out[w]["attempted"] = sum(r["attempted"] for r in results)
    return out


def cmd_run(args):
    bench = load_bench()
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    set_dir = os.path.join(RESULTS, args.set)
    os.makedirs(set_dir, exist_ok=True)
    runs = {w: [] for w in workloads}
    for seed in seeds_of(args.seeds):
        for w in workloads:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                cwd=ROOT)
            if proc.returncode != 0:
                sys.exit(f"spread.py: {w} seed {seed} exited {proc.returncode}")
            line = proc.stdout.strip().splitlines()[-1]
            result = json.loads(line)
            with open(os.path.join(set_dir, f"{w}-seed{seed}.json"), "w") as f:
                f.write(line + "\n")
            runs[w].append(result)
            print(f"{w} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}"
                             for k, v in result["metrics"].items()),
                  flush=True)
    summary = summarise(bench, runs)
    with open(os.path.join(set_dir, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
        f.write("\n")
    print_summary(summary)
    return 0 if all(s[m]["steady"] for s in summary.values()
                    for m in s if isinstance(s[m], dict)) else 1


def print_summary(summary):
    for w, metrics in summary.items():
        print(f"{w} (failed {metrics['failed']} of {metrics['attempted']})")
        for name, s in metrics.items():
            if not isinstance(s, dict):
                continue
            print(f"  {name:14s} median {s['median']:.5g}  q1 {s['q1']:.5g}  "
                  f"q3 {s['q3']:.5g}  spread {s['spread']:.4f}  "
                  f"bound {s['bound']}  {'ok' if s['steady'] else 'WIDE'}")


def cmd_compare(args):
    bench = load_bench()
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    sets = []
    for name in (args.first, args.second):
        with open(os.path.join(RESULTS, name, "summary.json")) as f:
            sets.append(json.load(f))
    ok = True
    for w, metrics in sets[0].items():
        for name, a in metrics.items():
            if not isinstance(a, dict):
                continue
            b = sets[1][w][name]
            change = b["median"] / a["median"] - 1
            worse = change if better[name] == "lower" else -change
            good = worse <= a["bound"]
            ok &= good
            print(f"{w:15s} {name:14s} {a['median']:.5g} -> {b['median']:.5g} "
                  f"({change:+.2%}, bound {a['bound']}) {'ok' if good else 'WORSE'}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run")
    run.add_argument("set")
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--workloads", nargs="*")
    cmp = sub.add_parser("compare")
    cmp.add_argument("first")
    cmp.add_argument("second")
    args = ap.parse_args()
    sys.exit(cmd_run(args) if args.cmd == "run" else cmd_compare(args))


if __name__ == "__main__":
    main()
