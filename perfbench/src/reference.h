#ifndef PERFBENCH_REFERENCE_H
#define PERFBENCH_REFERENCE_H

/// \file reference.h
/// A fixed agent-level loop that the benchmark times next to the
/// library, so that it can report the library's CPU times at a nominal
/// host speed.
///
/// On a shared host the same code runs up to twice as fast in one
/// minute as in another: the core's turbo frequency follows the load of
/// the whole machine, and a neighbour may share the core's other
/// hyperthread.  CPU time removes waiting for a core, not these.  The
/// loop below slows down with the library when they change: it runs
/// the Diversification rule (Eq. (2)) one interaction at a time on an
/// array of 2*10^4 agents, so it leans on the same random draws, branches
/// and cache-resident loads.  It belongs to the benchmark, not to the
/// library, so a change to the library does not move it.
///
/// A time t measured while the loop takes r ns per step is reported as
/// t * kNominalNsPerStep / r: the time the same work takes on a host
/// where the loop takes kNominalNsPerStep.

#include <cstdint>
#include <vector>

namespace perfbench {

/// CPU ns per step of the reference loop on the nominal host.
inline constexpr double kNominalNsPerStep = 9.0;

/// Cache-line aligned, so that loops run side by side on several
/// threads share no line.
class alignas(64) ReferenceLoop {
 public:
  /// n = 2*10^4 agents on the palette (1,1,2,2,4,4,8,8), one dark agent
  /// per 3 agents spread over the colours, warmed to its equilibrium.
  ReferenceLoop();

  /// Runs `steps` interactions on the calling thread and returns their
  /// CPU time in ns per step.
  double time_steps(std::int64_t steps);

 private:
  void run(std::int64_t steps);
  std::uint64_t next();

  std::vector<std::uint8_t> agents_;  ///< colour << 1 | dark
  std::uint64_t fade_below_[8] = {};  ///< fade iff a draw < this
  std::uint64_t state_[4] = {};
};

/// Mean CPU ns per step of `loops` run at once, one per thread, `steps`
/// steps each: the host speed seen by work spread over that many
/// threads.
double reference_ns_per_step(std::vector<ReferenceLoop>& loops,
                             std::int64_t steps);

/// Sliding median of `samples` over a window of 2 * half + 1 entries
/// (shorter at the ends).
std::vector<double> sliding_median(const std::vector<double>& samples,
                                   std::size_t half);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H
