#!/usr/bin/env python3
"""Self-test of the benchmark.

Usage (from the root of a checkout):

    python3 perfbench/selftest.py [--seconds 1] [--workload <name> ...]

Checks that BENCHMARK.json is well formed, runs the driver's own test of
the self-time arithmetic on a synthetic span tree, then runs every
declared workload untraced and traced and checks that each result names
exactly the metrics BENCHMARK.json declares for that mode, with their
units, and passes its correctness checks.
"""

import argparse
import re
import sys

sys.dont_write_bytecode = True

import bench  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check_spec(spec):
    problems = []

    def need(condition, message):
        if not condition:
            problems.append(message)

    need(set(spec) == {"command", "paths", "run_seconds", "workloads",
                       "end_to_end", "per_layer"}, "top-level keys")
    need(1 <= len(spec["paths"]) <= 16 and all(
        PATH.match(p) and not p.startswith("/") and ".." not in p.split("/")
        for p in spec["paths"]), "paths")
    need(1 <= len(spec["command"]) <= 32 and all(
        isinstance(c, str) and len(c) <= 200 and not c.startswith("/")
        for c in spec["command"]), "command")
    need(isinstance(spec["run_seconds"], int)
         and 1 <= spec["run_seconds"] <= 60, "run_seconds")
    need(2 <= len(spec["workloads"]) <= 8, "2 to 8 workloads")
    need(1 <= len(spec["end_to_end"]) <= 16, "1 to 16 end-to-end metrics")
    need(1 <= len(spec["per_layer"]) <= 128, "1 to 128 per-layer metrics")
    names = []
    for workload in spec["workloads"]:
        need(set(workload) == {"name", "why"}, "workload keys")
        need(0 < len(workload["why"]) <= 200 and "\n" not in workload["why"],
             "why of " + workload["name"])
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        need(set(metric) == {"name", "unit", "better", "bound"},
             "end-to-end keys of " + metric["name"])
        need(0 < metric["bound"] <= 0.25, "bound of " + metric["name"])
    for metric in spec["per_layer"]:
        need(set(metric) == {"name", "unit", "better"},
             "per-layer keys of " + metric["name"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        need(UNIT.match(metric["unit"]) is not None, "unit of " + metric["name"])
        need(metric["better"] in ("higher", "lower"), "better of " + metric["name"])
        names.append(metric["name"])
    need(all(NAME.match(n) for n in names), "name syntax")
    need(len(names) == len(set(names)), "names used once")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    need(len(setup) == 1 and setup[0]["unit"] == "s"
         and setup[0]["better"] == "lower", "setup_s in s, lower")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    spec = bench.load_spec()
    failures = ["BENCHMARK.json: " + p for p in check_spec(spec)]
    bench.build()
    code, lines = bench.run_driver(["--self-test"])
    if code != 0 or lines[-1:] != ['{"self_test": "ok"}']:
        failures.append("span self-time arithmetic")
    print("self-time arithmetic: %s" % ("ok" if code == 0 else "FAILED"),
          flush=True)

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for trace in (0, 1):
            label = "%s --trace %d" % (workload, trace)
            try:
                code, lines = bench.run_workload(workload, 1, args.seconds, trace)
                result = bench.validate_result(lines[-1], spec, trace)
                if code != 0 or not result["correct"]:
                    raise bench.BenchError("checks failed (exit %d)" % code)
                print("%s: ok, %d metrics" % (label, len(result["metrics"])),
                      flush=True)
            except (bench.BenchError, IndexError) as error:
                failures.append("%s: %s" % (label, error))
                print("%s: FAILED %s" % (label, error), flush=True)
    for failure in failures:
        print("FAILED " + failure)
    print("self-test %s" % ("passed" if not failures else "failed"))
    return 0 if not failures else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except bench.BenchError as error:
        bench.log(str(error))
        sys.exit(2)
