#!/usr/bin/env python3
"""Repeatability report for the MC3 benchmark.

    python3 perfbench/repeat.py [--runs K] [--workload NAME ...] [--seed0 N]
                                [--save FILE] [--against FILE]

Run from the repository root. Runs `perfbench/run.py` K times per workload
(seeds seed0, seed0+1, ...; workloads interleaved so slow drift of the
machine spreads evenly over them), then prints for every end-to-end metric
its median, quartiles (Python's `statistics.quantiles(n=4)`) and the
quartile spread as a share of the median, against the bound in
`BENCHMARK.json`. A spread at or below a third of the bound reads `steady`,
up to the bound `ok`, beyond it `NOISY`; `setup_s` is exempt from the
spread rule. `--save` writes every value to a JSON file; `--against` reads
such a file and also compares medians, flagging any metric whose median
got worse by more than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(bench, workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"repeat.py: {' '.join(cmd)} failed with exit code {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"repeat.py: wrong answers in {workload} seed {seed}: {lines[-1]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def worse_by(bench_metric, before, after):
    """How much worse `after` is than `before`, as a share of `before`."""
    if before == 0:
        return 0.0
    change = (after - before) / before
    return change if bench_metric["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    values = {w: {} for w in workloads}
    for k in range(args.runs):
        for w in workloads:
            seed = args.seed0 + k
            for name, v in run_once(bench, w, seed).items():
                values[w].setdefault(name, []).append(v)
            print(f"run {k + 1}/{args.runs} {w} seed {seed} done", file=sys.stderr, flush=True)

    before = None
    if args.against:
        with open(args.against) as f:
            before = json.load(f)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)

    noisy = False
    print(f"{'workload':<16} {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for w in workloads:
        for m in bench["end_to_end"]:
            vals = values[w][m["name"]]
            q1, med, q3, sp = spread(vals)
            if m["name"] == "setup_s":
                verdict = "exempt"
            elif sp <= m["bound"] / 3:
                verdict = "steady"
            elif sp <= m["bound"]:
                verdict = "ok"
            else:
                verdict, noisy = "NOISY", True
            if before is not None and m["name"] in before.get(w, {}):
                prev = statistics.median(before[w][m["name"]])
                change = worse_by(m, prev, med)
                verdict += f"; vs saved median {change:+.3%} worse"
                if change > m["bound"]:
                    verdict += " REGRESSED"
                    noisy = True
            print(f"{w:<16} {m['name']:<18} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                  f"{sp:>8.2%} {m['bound']:>6}  {verdict}")
    sys.exit(1 if noisy else 0)


if __name__ == "__main__":
    main()
