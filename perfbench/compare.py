#!/usr/bin/env python3
"""Run two interleaved sets of runs of every workload and compare them.

Usage, from the root of the repository:

    python3 perfbench/compare.py [--runs 10] [--sets 2] [--seconds S]
                                 [--workloads a,b] [--first-seed 1]

Run i of set A uses seed first_seed + i and run i of set B seed
first_seed + runs + i; the sets alternate run by run (A0 B0 A1 B1 ...),
so drift of the machine spreads over both. For every workload and
end-to-end metric of BENCHMARK.json the report gives each set's median
and quartiles (statistics.quantiles, n=4), the spread (interquartile
distance over the median), and whether the second median is within the
metric's bound of the first in its worse direction. It also compares the
share of failed operations between the sets. With --sets 1 only set A
runs, which is enough to read the spreads.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks")
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=2)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        sets = [[] for _ in range(args.sets)]
        for i in range(args.runs):
            for s in range(args.sets):
                seed = args.first_seed + s * args.runs + i
                result = run_once(workload, seed, args.seconds)
                sets[s].append(result)
                print(f"  {workload} set {'AB'[s]} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                    file=sys.stderr, flush=True)
        shares = [sorted({r["failed"] / r["attempted"] for r in runs}) for runs in sets]
        print(f"{workload}: failed share per set {shares}")
        if len(sets) == 2 and shares[0] != shares[1]:
            ok = False
        for metric in spec["end_to_end"]:
            name, bound, better = metric["name"], metric["bound"], metric["better"]
            stats = [summary([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            line = f"  {name:<16}"
            for label, (med, q1, q3, spread) in zip("AB", stats):
                line += f" {label}: median {med:.6g} [q1 {q1:.6g}, q3 {q3:.6g}] spread {spread:.3f}"
            steady = all(st[3] <= bound for st in stats) or name == "setup_s"
            line += f" (bound {bound}{'' if steady else ', SPREAD OVER BOUND'})"
            if len(stats) == 2:
                a, b = stats[0][0], stats[1][0]
                worse = (b - a) / a if better == "lower" else (a - b) / a
                agree = worse <= bound
                line += f" B vs A {worse:+.3f} {'agree' if agree else 'DISAGREE'}"
                ok &= agree
            ok &= steady
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
