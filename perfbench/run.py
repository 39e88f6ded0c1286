#!/usr/bin/env python3
"""Runs one workload of the divpp benchmark and prints its result.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (the library from src/ plus the driver) in Release mode
under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs
the workload, and prints the driver's provenance and detail lines and,
last, one JSON object {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones.  Exits non-zero, without a result, when the checkout
lacks the library sources or the build fails, and with the result when a
correctness check fails.
"""

import argparse
import sys

sys.dont_write_bytecode = True

import bench  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    try:
        spec = bench.load_spec()
        names = [workload["name"] for workload in spec["workloads"]]
        if args.workload not in names:
            raise bench.BenchError("unknown workload %r (declared: %s)"
                                   % (args.workload, ", ".join(names)))
        if args.seconds < 1:
            raise bench.BenchError("--seconds must be at least 1")
        bench.build()
        code, lines = bench.run_workload(args.workload, args.seed,
                                         args.seconds, args.trace)
        if not lines:
            raise bench.BenchError("the driver printed nothing (exit %d)" % code)
        result = bench.validate_result(lines[-1], spec, args.trace)
    except bench.BenchError as error:
        bench.log(str(error))
        return 2
    for line in lines:
        print(line)
    sys.stdout.flush()
    if code != 0 or not result["correct"]:
        bench.log("correctness checks failed (exit %d)" % code)
        return code if code != 0 else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
