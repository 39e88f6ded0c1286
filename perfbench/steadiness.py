#!/usr/bin/env python3
"""Steadiness report: repeats workloads over different seeds and prints,
per end-to-end metric, the median, the quartiles and the interquartile
range as a share of the median, next to the metric's bound in
BENCHMARK.json.  This is how the bounds are set.

Usage (from the root of a checkout):

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--workload <name> ...]

Quartiles are statistics.quantiles(values, n=4).  A spread below a third
of the bound reads "steady", up to the bound "within", else "WIDE".
Exits 1 when a spread is wide or a run fails its checks.
"""

import argparse
import statistics
import sys

sys.dont_write_bytecode = True

import bench  # noqa: E402


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    spec = bench.load_spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bench.build()
    ok = True
    for workload in workloads:
        samples = {}
        for run in range(args.runs):
            seed = args.first_seed + run
            code, lines = bench.run_workload(workload, seed,
                                             spec["run_seconds"], 0)
            result = bench.validate_result(lines[-1], spec, 0)
            if code != 0 or not result["correct"]:
                ok = False
                print("%s seed %d: checks failed (exit %d)"
                      % (workload, seed, code), flush=True)
            for name, entry in result["metrics"].items():
                samples.setdefault(name, []).append(entry["value"])
        print("\n%s: %d runs, seeds %d..%d" % (workload, args.runs,
                                              args.first_seed,
                                              args.first_seed + args.runs - 1))
        print("  %-34s %14s %14s %14s %8s %6s  %s"
              % ("metric", "median", "q1", "q3", "iqr/med", "bound", "verdict"))
        for name, values in samples.items():
            stats = summarise(values)
            bound = bounds[name]
            if stats["spread"] < bound / 3:
                verdict = "steady"
            elif stats["spread"] <= bound:
                verdict = "within"
            else:
                verdict = "WIDE"
                ok = False
            print("  %-34s %14.6g %14.6g %14.6g %8.4f %6s  %s"
                  % (name, stats["median"], stats["q1"], stats["q3"],
                     stats["spread"], bound, verdict), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except bench.BenchError as error:
        bench.log(str(error))
        sys.exit(2)
