#!/usr/bin/env python3
"""Steadiness report: run workloads repeatedly and show each metric's spread.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--seconds S]
                                [--save FILE] [--compare FILE]

Runs `run.py` once per (workload, seed) with seeds 1 .. runs and prints, for every end-to-end metric, the median, the quartiles
(statistics.quantiles(values, n=4)), the spread (Q3 - Q1) / median and
that spread as a share of the metric's bound in BENCHMARK.json. The
target is a spread under a third of the bound; setup_s is exempt from
the spread rule but not from the drift rule.

--save stores the raw values; --compare FILE reports, per metric, how far
this set's median moved from the saved set's median in the metric's
"worse" direction, against its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def collect(workloads, runs, seconds):
    values = {}
    for w in workloads:
        values[w] = {}
        for seed in range(1, runs + 1):
            r = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if r.returncode != 0:
                print(f"{w} seed {seed}: exit {r.returncode}", file=sys.stderr)
                continue
            res = json.loads(r.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                print(f"{w} seed {seed}: correct=false", file=sys.stderr)
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"  {w} seed {seed} done", file=sys.stderr)
    return values


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3


def report(values, bench, base=None):
    metrics = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    worst = 0.0
    for w, per in values.items():
        print(f"\n{w}")
        print(f"  {'metric':<26}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}{'/bound':>8}"
              + ("   drift  /bound" if base else ""))
        for name, v in per.items():
            m = metrics.get(name, {})
            q1, med, q3 = quartiles(v)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m.get("bound")
            share = spread / bound if bound else float("nan")
            if bound and name != "setup_s":
                worst = max(worst, share)
            line = (f"  {name:<26}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.3f}"
                    f"{bound if bound else '-':>7}{share:>8.2f}")
            if base and name in base.get(w, {}):
                old = statistics.median(base[w][name])
                if m.get("better") == "higher":
                    drift = old / med - 1 if med else float("inf")
                else:
                    drift = med / old - 1 if old else float("inf")
                line += f"  {drift:>+6.3f} {drift / bound if bound else float('nan'):>6.2f}"
            print(line)
    print(f"\nlargest spread / bound (setup_s excluded): {worst:.2f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec()["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()
    bench = spec()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    values = collect(args.workloads.split(","), args.runs, seconds)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    base = None
    if args.compare:
        with open(args.compare) as f:
            base = json.load(f)
    report(values, bench, base)


if __name__ == "__main__":
    main()
