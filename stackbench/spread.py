#!/usr/bin/env python3
"""Run the benchmark on several seeds and check that it is steady.

For each workload, runs `--runs` seeds starting at `--first-seed`, then,
with `--held-out`, as many more seeds starting after them. For every
end-to-end metric it prints the median and the spread (distance between
the first and third quartile over the median, from
`statistics.quantiles(values, n=4)`), and, with `--held-out`, how far the
held-out median moved from the first one. A spread above a third of the
metric's bound in BENCHMARK.json, or a held-out median worse than the
first by more than the bound, is flagged. Run from the repository root:

    python3 stackbench/spread.py --runs 10 --held-out
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: wrong answers\n{proc.stderr[-2000:]}")
    return result["metrics"]


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse(metric, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    if metric["better"] == "lower":
        return (second - first) / first
    return (first - second) / first


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--held-out", action="store_true")
    ap.add_argument("--dump", help="write every run's metrics to this JSON file")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    ok = True
    dump = {}
    for workload in names:
        sets = []
        for s in range(2 if args.held_out else 1):
            first = args.first_seed + s * args.runs
            runs = []
            for seed in range(first, first + args.runs):
                runs.append(run_once(bench["command"], workload, seed, bench["run_seconds"], 0))
                print(f"  {workload} seed {seed} done", file=sys.stderr, flush=True)
            sets.append(runs)
        dump[workload] = sets
        print(f"{workload}:")
        for m in bench["end_to_end"]:
            name = m["name"]
            medians, notes = [], []
            for runs in sets:
                vals = [r[name]["value"] for r in runs]
                medians.append(statistics.median(vals))
                sp = spread(vals)
                flag = "" if name == "setup_s" or sp < m["bound"] / 3 else "  <-- spread"
                ok &= not flag
                notes.append(f"median {medians[-1]:.6g} spread {sp:.3f}{flag}")
            if len(medians) == 2:
                w = worse(m, medians[0], medians[1])
                flag = "  <-- held-out worse than bound" if w > m["bound"] else ""
                ok &= not flag
                notes.append(f"held-out moved {w:+.3f} (bound {m['bound']}){flag}")
            print(f"  {name:<20} " + " | ".join(notes))
    if args.dump:
        with open(args.dump, "w") as f:
            json.dump(dump, f)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
