"""Shared helpers of the benchmark scripts: locate the checkout, build the
driver, run one workload and validate its result line against
BENCHMARK.json."""

import hashlib
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
LIBRARY_CMAKE = os.path.join(ROOT, "src", "CMakeLists.txt")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class BenchError(Exception):
    """A failure that ends the run with a message and a non-zero exit."""


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def load_spec():
    if not os.path.isfile(SPEC_PATH):
        raise BenchError("BENCHMARK.json not found at the checkout root")
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def binary_path():
    return os.path.join(build_dir(), "divpp_perfbench")


def _run_checked(command, timeout):
    """Runs a build step with its output on stderr (stdout is reserved
    for the result)."""
    try:
        subprocess.run(command, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=timeout, check=True)
    except subprocess.CalledProcessError as error:
        raise BenchError("build step failed: " + " ".join(command)) from error
    except subprocess.TimeoutExpired as error:
        raise BenchError("build step timed out: " + " ".join(command)) from error


def build():
    """Configures (once) and builds the driver in Release mode; a no-op
    when it is up to date."""
    if not os.path.isfile(LIBRARY_CMAKE):
        raise BenchError("library sources (src/) not found: run from a full "
                         "checkout of the repository")
    directory = build_dir()
    if not os.path.isfile(os.path.join(directory, "CMakeCache.txt")):
        _run_checked(["cmake", "-S", HERE, "-B", directory,
                      "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    _run_checked(["cmake", "--build", directory, "-j", jobs], BUILD_TIMEOUT_S)
    return binary_path()


def source_identity():
    """(commit, source digest): the git commit when the checkout is a git
    repository, else "none"; and a SHA-256 over the library and benchmark
    sources, which identifies the code either way."""
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "none"
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, subdirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return commit, digest.hexdigest()[:16]


def run_driver(arguments, timeout=RUN_TIMEOUT_S):
    """Runs the driver in its own process group; on timeout the whole
    group (including any forked sweep workers) is killed and reaped.
    Returns (exit code, stdout lines)."""
    process = subprocess.Popen([binary_path()] + arguments, cwd=ROOT,
                               stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        out, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise BenchError("the driver did not finish within %d s" % timeout)
    return process.returncode, out.splitlines()


def run_workload(workload, seed, seconds, trace):
    """Builds if needed and runs one workload; returns (exit code, stdout
    lines)."""
    commit, digest = source_identity()
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(traces, exist_ok=True)
    return run_driver([
        "--workload", workload, "--seed", str(seed), "--seconds",
        str(seconds), "--trace", str(trace),
        "--trace-out", os.path.join(traces, workload + ".tsv"),
        "--commit", commit, "--source-digest", digest])


def declared_metrics(spec, trace):
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def validate_result(line, spec, trace):
    """Parses the result line and checks it names exactly the declared
    metrics of this mode, with their units and finite values.  Returns the
    parsed object; raises BenchError otherwise."""
    try:
        result = json.loads(line)
    except ValueError as error:
        raise BenchError("last line is not JSON: %r" % line[:200]) from error
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        raise BenchError("result keys must be exactly %s" % sorted(RESULT_KEYS))
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            raise BenchError(key + " must be a whole number")
    if result["attempted"] < 1:
        raise BenchError("attempted must be at least 1")
    if not isinstance(result["correct"], bool):
        raise BenchError("correct must be a boolean")
    expected = declared_metrics(spec, trace)
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        raise BenchError("metrics differ from BENCHMARK.json: missing %s, "
                         "undeclared %s" % (missing, extra))
    for name, unit in expected.items():
        entry = metrics[name]
        if set(entry) != {"value", "unit"} or entry["unit"] != unit:
            raise BenchError("metric %s must be {value, unit=%s}" % (name, unit))
        value = entry["value"]
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            raise BenchError("metric %s has no finite value" % name)
    return result
