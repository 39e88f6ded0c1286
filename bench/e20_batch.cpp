// E20 — collision-batch engine throughput (ISSUE 3, extended by ISSUE 4).
//
// Measures interactions/second of the distributionally identical lumped
// engines — step (plain per-interaction), jump (no-op-skipping chain),
// batch (whole collision-free stretches applied in aggregate) and auto
// (per-window jump/batch dispatch from the measured active fraction) —
// across population sizes n.  Since PR 4 the batch engine's counting
// draws are O(1) expected time (HRUA rejection, rng/discrete.h), so its
// amortised cost per interaction is O(k / √n) and *falls* as n grows,
// while step and jump stay flat: the crossover, the asymptotic gap, and
// auto's tracking of the per-n winner are the point of the table.
//
// Flags: --ns=10000,...,1000000000   (comma list, capped at 1e9; all
//                                     engines hold O(k) state so memory
//                                     never binds — only wall-clock does,
//                                     which the per-point wall column
//                                     makes budgetable)
//        --k=8 --w=4         (k equal colours of weight w; W = k·w)
//        --window=0          (interactions measured per engine per n;
//                             0 = auto: max(4·10⁶, 2n), capped per run)
//        --seed=99
//        --pr4-json=FILE     write the machine-readable summary object
//                            (BENCH_pr4.json in the repo root records the
//                            committed perf trajectory; --pr3-json is
//                            accepted as an alias for older harnesses)
//        --smoke             CI guard: n = 10⁶ only, and exit non-zero
//                            unless batch ≥ 2× step throughput AND auto
//                            ≥ 0.9× max(jump, batch)
//
// Methodology: every engine starts from the same equal_start
// configuration and the same fixed seed, and is warmed over one window
// of n interactions (its own engine, so each measures its steady-state
// regime — for auto this also charges the EWMA).  Then the engines are
// timed in interleaved rounds in this one process: each round advances
// every engine's own simulation by one measurement window, and each
// engine reports its fastest window (min of kRounds).  A host-load burst
// then slows one window of every engine alike instead of one engine's
// only timing, so the smoke ratios compare like with like.  At n = 10⁶
// auto delegates to the jump chain on the jump row's very stream, so
// their min-of-N times differ only by auto's per-window decision.  The
// comparison is throughput, not trajectories (the engines deliberately
// consume different draw sequences; see README).

#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/count_simulation.h"
#include "core/weights.h"
#include "io/args.h"
#include "io/json.h"
#include "io/table.h"
#include "rng/xoshiro.h"

namespace {

using divpp::core::CountSimulation;
using divpp::core::Engine;
using divpp::core::WeightMap;
using divpp::rng::Xoshiro256;

constexpr std::int64_t kMaxPopulation = 1'000'000'000;
/// Interleaved timed windows per engine and n; each engine reports its
/// fastest.  Five keep the smoke run under a second at n = 10⁶.
constexpr std::int64_t kRounds = 5;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// One engine's run: its own simulation and generator, advanced one
/// window per interleaved round.
struct Lane {
  Engine engine;
  std::int64_t window;
  CountSimulation sim;
  Xoshiro256 gen;
  double best_seconds = 0.0;  ///< fastest timed window (0 = none yet)
  double wall_seconds = 0.0;  ///< warmup + every timed window
};

/// Builds the lane and warms it over min(window, n) interactions.
Lane warmed_lane(const WeightMap& weights, std::int64_t n, Engine engine,
                 std::int64_t window, std::uint64_t seed) {
  const auto wall0 = std::chrono::steady_clock::now();
  Lane lane{engine, window, CountSimulation::equal_start(weights, n),
            Xoshiro256(seed)};
  lane.sim.advance_with(engine, std::min(window, n), lane.gen);  // untimed
  lane.wall_seconds = seconds_since(wall0);
  return lane;
}

/// Times one more window of the lane's engine; keeps the fastest.
void time_window(Lane& lane) {
  const auto t0 = std::chrono::steady_clock::now();
  lane.sim.advance_with(lane.engine, lane.sim.time() + lane.window,
                        lane.gen);
  const double elapsed = seconds_since(t0);
  lane.wall_seconds += elapsed;
  if (lane.best_seconds == 0.0 || elapsed < lane.best_seconds)
    lane.best_seconds = elapsed;
}

/// Step/jump windows shrink at huge n so a sweep stays minutes, not
/// hours; batch and auto always get the full window (they are the ones
/// whose asymptotics we are demonstrating, and auto must be timed on the
/// same footing as whichever engine it delegates to).
std::int64_t capped_window(std::int64_t window, Engine engine) {
  if (engine == Engine::kBatch || engine == Engine::kAuto) return window;
  const std::int64_t cap =
      engine == Engine::kStep ? 50'000'000 : 200'000'000;
  return std::min(window, cap);
}

}  // namespace

int main(int argc, char** argv) {
  const divpp::io::Args args(argc, argv);
  const bool smoke = args.get_bool("smoke", false);
  const auto ns = smoke ? std::vector<std::int64_t>{1'000'000}
                        : args.get_int_list(
                              "ns", {10'000, 100'000, 1'000'000, 10'000'000});
  for (const std::int64_t n : ns) {
    if (n < 2 || n > kMaxPopulation) {
      std::cerr << "e20_batch: --ns entries must be in [2, 1e9] (got " << n
                << "); the engines are O(k) memory, the cap is purely a "
                   "wall-clock budget guard\n";
      return 1;
    }
  }
  const std::int64_t k = args.get_int("k", 8);
  const double w = args.get_double("w", 4.0);
  const std::int64_t window_flag = args.get_int("window", 0);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 99));
  const std::string json_path =
      args.get_string("pr4-json", args.get_string("pr3-json", ""));
  const WeightMap weights(
      std::vector<double>(static_cast<std::size_t>(k), w));

  std::cout << divpp::io::banner(
      "E20: batch-engine throughput (step vs jump vs batch vs auto)");
  std::cout << "k = " << k << " colours of weight " << w
            << " (W = " << weights.total() << "); throughput of "
            << "distributionally identical engines.\n\n";

  divpp::io::Table table({"n", "engine", "window", "ns/interaction",
                          "interactions/sec", "speedup vs step", "wall s"});
  // ns/interaction and interactions/sec are each engine's fastest of
  // kRounds interleaved windows; wall s is its warmup plus every round.
  divpp::io::Json out;
  out.set("bench", "e20_batch");
  out.set("k", k);
  out.set("w", w);
  out.set("W", weights.total());
  out.set("seed", static_cast<std::int64_t>(seed));
  out.set("rounds", kRounds);

  bool smoke_ok = true;
  for (const std::int64_t n : ns) {
    const std::int64_t window =
        window_flag > 0 ? window_flag
                        : std::max<std::int64_t>(4'000'000, 2 * n);
    std::vector<Lane> lanes;
    for (const Engine engine : {Engine::kStep, Engine::kJump, Engine::kBatch,
                                Engine::kAuto})
      lanes.push_back(warmed_lane(weights, n, engine,
                                  capped_window(window, engine), seed));
    for (std::int64_t round = 0; round < kRounds; ++round)
      for (Lane& lane : lanes) time_window(lane);

    const auto ips = [](const Lane& lane) {
      return static_cast<double>(lane.window) / lane.best_seconds;
    };
    const double step_ips = ips(lanes[0]);
    const double jump_ips = ips(lanes[1]);
    const double batch_ips = ips(lanes[2]);
    const double auto_ips = ips(lanes[3]);
    const std::string suffix = "_n" + std::to_string(n);
    for (const Lane& lane : lanes) {
      const std::string name = divpp::core::engine_name(lane.engine);
      const double ns_per_interaction =
          lane.best_seconds * 1e9 / static_cast<double>(lane.window);
      table.begin_row()
          .add_cell(n)
          .add_cell(name)
          .add_cell(lane.window)
          .add_cell(ns_per_interaction, 3)
          .add_cell(ips(lane), 0)
          .add_cell(ips(lane) / step_ips, 2)
          .add_cell(lane.wall_seconds, 2);
      out.set(name + "_ips" + suffix, ips(lane));
      out.set(name + "_ns" + suffix, ns_per_interaction);
      out.set(name + "_wall_s" + suffix, lane.wall_seconds);
    }
    out.set("batch_vs_step" + suffix, batch_ips / step_ips);
    out.set("batch_vs_jump" + suffix, batch_ips / jump_ips);
    const double best = std::max(jump_ips, batch_ips);
    out.set("auto_vs_best" + suffix, auto_ips / best);
    if (smoke && batch_ips < 2.0 * step_ips) {
      smoke_ok = false;
      std::cerr << "e20 smoke FAILED: batch " << batch_ips
                << " int/s < 2x step " << step_ips << " int/s at n = " << n
                << "\n";
    }
    if (smoke && auto_ips < 0.9 * best) {
      smoke_ok = false;
      std::cerr << "e20 smoke FAILED: auto " << auto_ips
                << " int/s < 0.9x best fixed engine " << best
                << " int/s at n = " << n << "\n";
    }
  }
  std::cout << table.to_text()
            << "Reading: step and jump are flat in n; the batch column's "
               "ns/interaction falls like ~1/sqrt(n) (O(1) rejection "
               "draws per batch since PR 4), and auto should track "
               "max(jump, batch) within ~10% at every n.\n\n";

  if (!json_path.empty()) {
    std::ofstream file(json_path);
    if (!file) {
      std::cerr << "e20_batch: cannot write " << json_path << "\n";
      return 1;
    }
    file << out.to_string() << "\n";
  }
  std::cout << out.to_string() << "\n";
  return smoke_ok ? 0 : 2;
}
