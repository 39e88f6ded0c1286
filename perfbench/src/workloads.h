#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

/// \file workloads.h
/// The benchmark's workloads and the result they hand back to main.
///
/// Every workload derives all of its inputs from the run seed, measures
/// for the requested number of seconds, checks its outputs with checks
/// that hold under any change to the order of RNG draws (conservation,
/// sustainability, the fluid limit, fair shares, sweep outcomes and
/// byte-identity between runs and transports), and returns either the
/// end-to-end metrics (untraced run) or the per-layer metrics (traced
/// run).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/weights.h"

#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 1.0;
  bool traced = false;
};

struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Measured metrics by name; main adds the units and fills the
  /// declared metrics a workload does not exercise.
  std::map<std::string, double> metrics;
  /// Context printed on the detail line (window counts, check values,
  /// checkpoint store).
  std::map<std::string, std::string> detail;
  /// First few failure messages.
  std::vector<std::string> failures;

  /// Counts one failed operation and keeps its message.
  void fail(const std::string& message);
};

/// The palette of every workload unless stated: w = (1,1,2,2,4,4,8,8).
[[nodiscard]] divpp::core::WeightMap default_palette();

/// Deterministic 64-bit value derived from (seed, stream).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

/// Peak resident set of this process (VmHWM) in MiB.
[[nodiscard]] double peak_rss_mb();

Result run_trajectory_n1e8(const Options& options, Trace& trace);
Result run_tagged_fairness_n2e4(const Options& options, Trace& trace);
Result run_sweep_in_memory(const Options& options, Trace& trace);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
