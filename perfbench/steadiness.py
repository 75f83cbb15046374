#!/usr/bin/env python3
"""Steadiness report: run the benchmark repeatedly, one seed per run.

Run from the repository root::

    python3 perfbench/steadiness.py --workloads grid-cold,grid-warm,fuzz \\
        --seeds 1,2,3,4,5,6,7,8,9,10

Runs interleave the workloads (seed 1 of every workload, then seed 2,
...), each in a fresh process, and print for every (workload, metric)
the median, the quartiles (``statistics.quantiles(n=4)``), min/max and
the spread -- the distance between the quartiles as a share of the
median -- next to the metric's bound from ``BENCHMARK.json``.  A spread
above its bound or a failed check exits 1.
``--json PATH`` also writes every run's metrics, so two reports of the
same code can be compared median to median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: int, trace: int):
    """One benchmark process; returns its result object."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=900, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(command)} failed "
                         f"({done.returncode}):\n{done.stderr}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="grid-cold,grid-warm,fuzz")
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", default=None)
    args = parser.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",")
    seeds = [int(s) for s in args.seeds.split(",")]

    runs = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            result = run_once(workload, seed, seconds, args.trace)
            runs[workload].append(result)
            print(f"seed {seed} {workload}: correct {result['correct']} "
                  f"attempted {result['attempted']} failed "
                  f"{result['failed']}", flush=True)

    ok = True
    for workload in workloads:
        results = runs[workload]
        ok = ok and all(r["correct"] and not r["failed"] for r in results)
        print(f"\n{workload}: {len(results)} runs")
        print(f"  {'metric':38s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'min':>12s} {'max':>12s} {'spread':>7s} {'bound':>6s}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            if len(values) < 2:
                continue
            median, q1, q3, rel = spread(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "ok" if rel <= bound / 3 else \
                    "WIDE" if rel <= bound else "OVER"
                ok = ok and rel <= bound
            print(f"  {name:38s} {median:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{min(values):12.5g} {max(values):12.5g} {rel:7.2%} "
                  f"{'' if bound is None else format(bound, '.2f'):>6s} "
                  f"{flag}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"seeds": seeds, "seconds": seconds, "runs": runs},
                      handle, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
