// divpp_perfbench: runs one benchmark workload and prints, as its last
// stdout line, {"correct", "attempted", "failed", "metrics"} with every
// end-to-end metric (untraced run) or every per-layer metric (traced
// run).  The two lines before it hold the provenance and the run's
// details.  perfbench/run.py builds this program and calls it.
//
//   divpp_perfbench --workload <name> --seed <n> --seconds <s>
//                   --trace <0|1> [--trace-out <file>]
//                   [--commit <id>] [--source-digest <hex>]
//   divpp_perfbench --self-test
//
// Exit codes: 0 all checks passed; 1 a correctness check failed (the
// result line is still printed); 2 bad arguments; 3 a build whose
// timings are refused; 4 an unexpected error.

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "io/json.h"
#include "provenance.h"
#include "trace.h"
#include "workloads.h"

namespace {

using perfbench::Options;
using perfbench::Result;

struct MetricDecl {
  const char* name;
  const char* unit;
};

/// The metrics BENCHMARK.json declares, with their units (the self-test
/// checks the two agree).
constexpr MetricDecl kEndToEnd[] = {
    {"setup_s", "s"},
    {"interactions_per_ref_s", "1/s"},
    {"window_ref_ns_per_int_p50", "ns"},
    {"window_ref_ns_per_int_p90", "ns"},
    {"scenarios_per_ref_s", "1/s"},
    {"peak_rss_mb", "MiB"},
};

/// A workload reports 0 for a layer it does not exercise.
constexpr MetricDecl kPerLayer[] = {
    {"core.active_per_kint", "1/kint"},
    {"core.jump_ns_per_active", "ns"},
    {"core.auto_vs_best", "ratio"},
    {"core.auto_batch_share", "frac"},
    {"core.rebuild_us", "us"},
    {"batch.calls", "1/window"},
    {"batch.interactions_per_call", "count"},
    {"batch.ns_per_call_p50", "ns"},
    {"batch.ns_per_call_p90", "ns"},
    {"batch.adopts_per_call", "count"},
    {"batch.fades_per_call", "count"},
    {"batch.self_share", "frac"},
    {"rng.draws_per_kint", "1/kint"},
    {"rng.draws_per_batch", "count"},
    {"tagged.changes", "1/Gint"},
    {"context.acquire_us_p50", "us"},
    {"context.build_ms_max", "ms"},
    {"context.hits", "count"},
    {"context.misses", "count"},
    {"context.resident_bytes", "B"},
    {"checkpoint.serialize_us_p50", "us"},
    {"checkpoint.bytes_p50", "B"},
    {"checkpoint.resume_us_p50", "us"},
    {"durable_file.write_us_p50", "us"},
    {"durable_file.write_us_p90", "us"},
    {"durable_file.writes_per_scenario", "count"},
    {"runtime.scenario_us_p50", "us"},
    {"runtime.scenario_us_p90", "us"},
    {"runtime.attempts_per_scenario", "count"},
    {"runtime.pool_busy_frac", "frac"},
    {"supervisor.frame_roundtrip_us", "us"},
    {"supervisor.overhead_frac", "frac"},
    {"trace.overhead_frac", "frac"},
};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "divpp_perfbench: " << message << "\n";
  std::exit(2);
}

std::int64_t parse_int(const std::string& flag, const std::string& value) {
  std::size_t used = 0;
  long long parsed = 0;
  try {
    parsed = std::stoll(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != value.size() || value.empty())
    usage(flag + " expects an integer, got '" + value + "'");
  return parsed;
}

/// Self time on a synthetic span tree with overlapping children, a
/// child sticking out of its parent and a grandchild.
int self_test() {
  using perfbench::Span;
  const std::vector<Span> spans = {
      {0, -1, 0, 0, 100},   // root
      {1, 0, 0, 10, 40},    // child, covers [10, 40]
      {1, 0, 0, 30, 60},    // child overlapping the first: union [10, 60]
      {2, 1, 0, 15, 20},    // grandchild of the first child
      {1, 0, 0, 90, 120},   // child past the root's end: covers [90, 100]
  };
  const std::vector<std::int64_t> expected = {40, 25, 30, 5, 30};
  const std::vector<std::int64_t> self = perfbench::self_times_ns(spans);
  bool ok = self == expected;
  ok = ok && std::abs(perfbench::quantile({4.0, 1.0, 3.0, 2.0}, 0.5) - 2.5) <
                 1e-12 &&
       std::abs(perfbench::quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.9) - 4.6) <
           1e-12;

  perfbench::Trace trace(true);
  {
    perfbench::Scope outer(trace, "outer", 7);
    trace.record("leaf", 7, 0, 0);
  }
  ok = ok && trace.spans().size() == 2 && trace.spans()[1].parent == 0 &&
       trace.spans()[1].id == 7;
  perfbench::Trace off(false);
  { perfbench::Scope ignored(off, "outer", 0); }
  ok = ok && off.spans().empty();

  std::cout << "{\"self_test\": " << (ok ? "\"ok\"" : "\"failed\"") << "}\n";
  return ok ? 0 : 1;
}

int run(int argc, char** argv) {
  Options options;
  std::string trace_out;
  std::string commit = "none";
  std::string source_digest = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") return self_test();
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = static_cast<std::uint64_t>(parse_int(flag, value));
    } else if (flag == "--seconds") {
      options.seconds = static_cast<double>(parse_int(flag, value));
      if (options.seconds < 1) usage("--seconds must be >= 1");
    } else if (flag == "--trace") {
      const std::int64_t traced = parse_int(flag, value);
      if (traced != 0 && traced != 1) usage("--trace expects 0 or 1");
      options.traced = traced == 1;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else if (flag == "--commit") {
      commit = value;
    } else if (flag == "--source-digest") {
      source_digest = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");

  const perfbench::Provenance provenance =
      perfbench::collect_provenance(commit, source_digest);
  const std::string refusal = perfbench::refusal_reason(provenance);
  if (!refusal.empty()) {
    std::cerr << "divpp_perfbench: refusing to report timings from a "
              << refusal << "\n";
    return 3;
  }

  perfbench::Trace trace(options.traced);
  Result result;
  if (options.workload == "trajectory_n1e8") {
    result = perfbench::run_trajectory_n1e8(options, trace);
  } else if (options.workload == "tagged_fairness_n2e4") {
    result = perfbench::run_tagged_fairness_n2e4(options, trace);
  } else if (options.workload == "sweep_in_memory") {
    result = perfbench::run_sweep_in_memory(options, trace);
  } else {
    usage("unknown workload '" + options.workload + "'");
  }

  divpp::io::Json metrics;
  std::set<std::string> declared;
  const auto emit = [&](const MetricDecl& decl, bool required) {
    declared.insert(decl.name);
    const auto it = result.metrics.find(decl.name);
    if (it == result.metrics.end() && required)
      throw std::logic_error(std::string("metric not measured: ") + decl.name);
    const double value = it == result.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(value))
      result.fail(std::string("metric is not finite: ") + decl.name);
    divpp::io::Json entry;
    entry.set("value", std::isfinite(value) ? value : 0.0)
        .set("unit", decl.unit);
    metrics.set(decl.name, entry);
  };
  if (options.traced) {
    for (const MetricDecl& decl : kPerLayer) emit(decl, false);
  } else {
    for (const MetricDecl& decl : kEndToEnd) emit(decl, true);
  }
  for (const auto& [name, value] : result.metrics)
    if (declared.count(name) == 0)
      throw std::logic_error("metric not declared: " + name);

  if (options.traced && !trace_out.empty()) trace.write(trace_out);

  divpp::io::Json detail;
  detail.set("workload", options.workload)
      .set("seed", static_cast<std::int64_t>(options.seed))
      .set("seconds", options.seconds)
      .set("trace", options.traced);
  for (const auto& [key, value] : result.detail) detail.set(key, value);
  for (std::size_t i = 0; i < result.failures.size(); ++i)
    detail.set("failure_" + std::to_string(i), result.failures[i]);

  divpp::io::Json provenance_line;
  provenance_line.set("provenance", perfbench::to_json(provenance));
  divpp::io::Json detail_line;
  detail_line.set("detail", detail);
  divpp::io::Json line;
  line.set("correct", result.failed == 0)
      .set("attempted", result.attempted)
      .set("failed", result.failed)
      .set("metrics", metrics);
  std::cout << provenance_line.to_string() << "\n"
            << detail_line.to_string() << "\n"
            << line.to_string() << std::endl;
  return result.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "divpp_perfbench: " << error.what() << "\n";
    return 4;
  }
}
