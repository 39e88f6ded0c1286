// E15 — google-benchmark micro-suite for the hot paths: RNG primitives,
// samplers (alias, Fenwick, linear-scan references), rule application,
// engine steps (agent-based and count-chain, plain and jump), and
// neighbour sampling on generated topologies.
//
// Besides the google-benchmark suite, `--pr2-json=FILE` runs a dedicated
// before/after harness that times the PR-2 rewrites against the retained
// linear-scan baselines (count step, jump chain, agent step) at
// k ∈ {8, 64, 256, 1024} and writes one machine-readable JSON object —
// the perf-trajectory record.  `--pr2-quick` shrinks the step counts for
// CI smoke runs.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/count_simulation.h"
#include "core/diversification.h"
#include "core/population.h"
#include "graph/topologies.h"
#include "io/json.h"
#include "rng/distributions.h"
#include "rng/xoshiro.h"
#include "sampling/alias.h"
#include "sampling/fenwick.h"

namespace {

using divpp::core::CountSimulation;
using divpp::core::Engine;
using divpp::core::WeightMap;
using divpp::rng::Xoshiro256;

// ---------------------------------------------------------------------------
// Linear-scan count-chain baseline: a faithful copy of the pre-Fenwick hot
// path (O(k) class scans per step; O(k) propensity rebuild per active jump
// transition), kept as the measured "before" of the PR-2 comparison.
// ---------------------------------------------------------------------------

struct LinearCountRef {
  std::vector<double> weights;
  std::vector<std::int64_t> dark;
  std::vector<std::int64_t> light;
  std::int64_t n = 0;
  std::int64_t total_dark = 0;
  std::int64_t time = 0;

  static LinearCountRef equal_start(std::int64_t k, std::int64_t n,
                                    double weight) {
    LinearCountRef sim;
    sim.weights.assign(static_cast<std::size_t>(k), weight);
    sim.dark.assign(static_cast<std::size_t>(k), n / k);
    for (std::int64_t i = 0; i < n % k; ++i)
      ++sim.dark[static_cast<std::size_t>(i)];
    sim.light.assign(static_cast<std::size_t>(k), 0);
    sim.n = n;
    sim.total_dark = n;
    return sim;
  }

  [[nodiscard]] std::int64_t total_light() const { return n - total_dark; }

  struct Pick {
    bool is_dark = false;
    std::int32_t color = 0;
  };

  Pick pick_class(Xoshiro256& gen, std::int64_t total,
                  const Pick* excluded) const {
    std::int64_t target = divpp::rng::uniform_below(gen, total);
    const auto k = dark.size();
    for (std::size_t i = 0; i < k; ++i) {
      std::int64_t available = dark[i];
      if (excluded != nullptr && excluded->is_dark &&
          excluded->color == static_cast<std::int32_t>(i))
        --available;
      if (target < available) return {true, static_cast<std::int32_t>(i)};
      target -= available;
    }
    for (std::size_t i = 0; i < k; ++i) {
      std::int64_t available = light[i];
      if (excluded != nullptr && !excluded->is_dark &&
          excluded->color == static_cast<std::int32_t>(i))
        --available;
      if (target < available) return {false, static_cast<std::int32_t>(i)};
      target -= available;
    }
    return {false, static_cast<std::int32_t>(k - 1)};
  }

  void apply_adopt(std::int32_t from, std::int32_t to) {
    --light[static_cast<std::size_t>(from)];
    ++dark[static_cast<std::size_t>(to)];
    ++total_dark;
  }

  void apply_fade(std::int32_t i) {
    --dark[static_cast<std::size_t>(i)];
    ++light[static_cast<std::size_t>(i)];
    --total_dark;
  }

  void step(Xoshiro256& gen) {
    const Pick initiator = pick_class(gen, n, nullptr);
    const Pick responder = pick_class(gen, n - 1, &initiator);
    if (!initiator.is_dark && responder.is_dark) {
      apply_adopt(initiator.color, responder.color);
    } else if (initiator.is_dark && responder.is_dark &&
               initiator.color == responder.color) {
      if (divpp::rng::bernoulli(
              gen, 1.0 / weights[static_cast<std::size_t>(initiator.color)]))
        apply_fade(initiator.color);
    }
    ++time;
  }

  void advance_to(std::int64_t target_time, Xoshiro256& gen) {
    const auto k = dark.size();
    std::vector<double> flip_weights(k);
    while (time < target_time) {
      const auto adopt_weight = static_cast<double>(total_light()) *
                                static_cast<double>(total_dark);
      double flip_total = 0.0;
      for (std::size_t i = 0; i < k; ++i) {
        flip_weights[i] = static_cast<double>(dark[i]) *
                          static_cast<double>(dark[i] - 1) / weights[i];
        flip_total += flip_weights[i];
      }
      const double denom =
          static_cast<double>(n) * static_cast<double>(n - 1);
      const double p_active = (adopt_weight + flip_total) / denom;
      if (!(p_active > 0.0)) {
        time = target_time;
        return;
      }
      const std::int64_t skip = divpp::rng::geometric_failures(
          gen, std::min(p_active, 1.0));
      if (time + skip >= target_time) {
        time = target_time;
        return;
      }
      time += skip;
      const double pick =
          divpp::rng::uniform01(gen) * (adopt_weight + flip_total);
      if (pick < adopt_weight) {
        const auto from = static_cast<std::int32_t>(
            divpp::rng::sample_counts(gen, light, total_light()));
        const auto to = static_cast<std::int32_t>(
            divpp::rng::sample_counts(gen, dark, total_dark));
        apply_adopt(from, to);
      } else {
        const auto faded = static_cast<std::int32_t>(
            divpp::rng::sample_discrete(gen, flip_weights));
        apply_fade(faded);
      }
      ++time;
    }
  }
};

// ---------------------------------------------------------------------------
// google-benchmark suite
// ---------------------------------------------------------------------------

void BM_Xoshiro256(benchmark::State& state) {
  Xoshiro256 gen(1);
  for (auto _ : state) benchmark::DoNotOptimize(gen());
}
BENCHMARK(BM_Xoshiro256);

void BM_UniformBelow(benchmark::State& state) {
  Xoshiro256 gen(2);
  const std::int64_t bound = state.range(0);
  for (auto _ : state)
    benchmark::DoNotOptimize(divpp::rng::uniform_below(gen, bound));
}
BENCHMARK(BM_UniformBelow)->Arg(1000)->Arg(1'000'000'000);

void BM_AliasTableSample(benchmark::State& state) {
  Xoshiro256 gen(3);
  std::vector<double> weights(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < weights.size(); ++i)
    weights[i] = static_cast<double>(i + 1);
  const divpp::sampling::AliasTable table(weights);
  for (auto _ : state) benchmark::DoNotOptimize(table.sample(gen));
}
BENCHMARK(BM_AliasTableSample)->Arg(4)->Arg(64)->Arg(1024);

void BM_FenwickCountsSample(benchmark::State& state) {
  Xoshiro256 gen(3);
  std::vector<std::int64_t> counts(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < counts.size(); ++i)
    counts[i] = static_cast<std::int64_t>(i + 1);
  const divpp::sampling::FenwickCounts tree(counts);
  for (auto _ : state) benchmark::DoNotOptimize(tree.sample(gen));
}
BENCHMARK(BM_FenwickCountsSample)
    ->Arg(4)->Arg(8)->Arg(16)->Arg(20)->Arg(32)->Arg(64)->Arg(1024);

// The branch-free counting scan the count chain uses at or below its
// scan/tree cutoff: same draw, same index as the tree above.
void BM_ScanCountsSample(benchmark::State& state) {
  Xoshiro256 gen(3);
  std::vector<std::int64_t> counts(static_cast<std::size_t>(state.range(0)));
  std::int64_t total = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = static_cast<std::int64_t>(i + 1);
    total += counts[i];
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(divpp::sampling::scan_find_excluding(
        counts, divpp::rng::uniform_below(gen, total), -1));
}
BENCHMARK(BM_ScanCountsSample)
    ->Arg(4)->Arg(8)->Arg(16)->Arg(20)->Arg(32)->Arg(64);

void BM_LinearSampleCounts(benchmark::State& state) {
  Xoshiro256 gen(3);
  std::vector<std::int64_t> counts(static_cast<std::size_t>(state.range(0)));
  std::int64_t total = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = static_cast<std::int64_t>(i + 1);
    total += counts[i];
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(divpp::rng::sample_counts(gen, counts, total));
}
BENCHMARK(BM_LinearSampleCounts)->Arg(4)->Arg(64)->Arg(1024);

void BM_RuleApply(benchmark::State& state) {
  const divpp::core::DiversificationRule rule(WeightMap({1.0, 2.0, 4.0}));
  Xoshiro256 gen(4);
  divpp::core::AgentState me{0, divpp::core::kDark};
  const divpp::core::AgentState other{0, divpp::core::kDark};
  for (auto _ : state) {
    me.shade = divpp::core::kDark;
    benchmark::DoNotOptimize(rule.apply(me, other, gen));
  }
}
BENCHMARK(BM_RuleApply);

void BM_AgentStepComplete(benchmark::State& state) {
  const auto n = state.range(0);
  const divpp::graph::CompleteGraph graph(n);
  std::vector<std::int64_t> supports = {n / 2, n - n / 2};
  // Concrete graph type: devirtualised sampling fast path.
  auto pop = divpp::core::make_population(
      graph, supports,
      divpp::core::DiversificationRule(WeightMap({1.0, 3.0})));
  Xoshiro256 gen(5);
  for (auto _ : state) benchmark::DoNotOptimize(pop.step(gen).transition);
}
BENCHMARK(BM_AgentStepComplete)->Arg(1024)->Arg(262'144);

void BM_AgentStepCompleteVirtual(benchmark::State& state) {
  const auto n = state.range(0);
  const divpp::graph::CompleteGraph graph(n);
  const divpp::graph::Graph& base = graph;  // erase the concrete type
  std::vector<std::int64_t> supports = {n / 2, n - n / 2};
  auto pop = divpp::core::make_population(
      base, supports,
      divpp::core::DiversificationRule(WeightMap({1.0, 3.0})));
  Xoshiro256 gen(5);
  for (auto _ : state) benchmark::DoNotOptimize(pop.step(gen).transition);
}
BENCHMARK(BM_AgentStepCompleteVirtual)->Arg(1024)->Arg(262'144);

void BM_AgentStepTorus(benchmark::State& state) {
  Xoshiro256 topo_gen(6);
  const auto graph = divpp::graph::make_torus(64, 64);
  std::vector<std::int64_t> supports = {2048, 2048};
  auto pop = divpp::core::make_population(
      graph, supports,
      divpp::core::DiversificationRule(WeightMap({1.0, 3.0})));
  Xoshiro256 gen(7);
  for (auto _ : state) benchmark::DoNotOptimize(pop.step(gen).transition);
}
BENCHMARK(BM_AgentStepTorus);

void BM_CountStep(benchmark::State& state) {
  const auto k = state.range(0);
  std::vector<double> w(static_cast<std::size_t>(k), 2.0);
  auto sim = CountSimulation::equal_start(WeightMap(w), 1 << 20);
  Xoshiro256 gen(8);
  for (auto _ : state) benchmark::DoNotOptimize(sim.step(gen).transition);
}
BENCHMARK(BM_CountStep)->Arg(8)->Arg(64)->Arg(256)->Arg(1024);

void BM_CountStepLinear(benchmark::State& state) {
  const auto k = state.range(0);
  auto sim = LinearCountRef::equal_start(k, 1 << 20, 2.0);
  Xoshiro256 gen(8);
  for (auto _ : state) {
    sim.step(gen);
    benchmark::DoNotOptimize(sim.total_dark);
  }
}
BENCHMARK(BM_CountStepLinear)->Arg(8)->Arg(64)->Arg(256)->Arg(1024);

void BM_CountJumpAdvance(benchmark::State& state) {
  const auto k = state.range(0);
  std::vector<double> w(static_cast<std::size_t>(k), 2.0);
  auto sim = CountSimulation::equal_start(WeightMap(w), 1 << 20);
  Xoshiro256 gen(9);
  // Measure per-simulated-step cost: each iteration advances 1024 steps.
  for (auto _ : state) {
    sim.advance_with(Engine::kJump, sim.time() + 1024, gen);
    benchmark::DoNotOptimize(sim.total_dark());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_CountJumpAdvance)
    ->Arg(8)->Arg(16)->Arg(20)->Arg(32)->Arg(64)->Arg(256)->Arg(1024);

void BM_CountJumpAdvanceLinear(benchmark::State& state) {
  const auto k = state.range(0);
  auto sim = LinearCountRef::equal_start(k, 1 << 20, 2.0);
  Xoshiro256 gen(9);
  for (auto _ : state) {
    sim.advance_to(sim.time + 1024, gen);
    benchmark::DoNotOptimize(sim.total_dark);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_CountJumpAdvanceLinear)->Arg(8)->Arg(64)->Arg(256)->Arg(1024);

void BM_NeighborSampleRegular(benchmark::State& state) {
  Xoshiro256 topo_gen(10);
  const auto graph =
      divpp::graph::make_random_regular(4096, 8, topo_gen);
  Xoshiro256 gen(11);
  for (auto _ : state)
    benchmark::DoNotOptimize(graph.sample_neighbor(17, gen));
}
BENCHMARK(BM_NeighborSampleRegular);

// ---------------------------------------------------------------------------
// PR-2 before/after harness (--pr2-json=FILE)
// ---------------------------------------------------------------------------

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// ns per step over EXACTLY the measured window: the timer starts after
/// every warmup advance has completed and the divisor is the measured
/// step count alone, so warmup iterations can neither leak into the
/// elapsed time nor inflate the divisor.  The warmups are timed
/// separately (time_warmup below) and reported as their own JSON field —
/// verified against a plain untimed run in PR 3.
template <class Body>
double time_ns_per_step(std::int64_t steps, Body&& body) {
  const auto t0 = std::chrono::steady_clock::now();
  body(steps);
  return seconds_since(t0) * 1e9 / static_cast<double>(steps);
}

/// Runs a warmup body and returns its wall seconds (accumulated into the
/// harness-level "warmup_seconds_total" JSON field).
template <class Body>
double time_warmup(Body&& body) {
  const auto t0 = std::chrono::steady_clock::now();
  body();
  return seconds_since(t0);
}

void run_pr2_harness(const std::string& path, bool quick) {
  constexpr std::int64_t kN = 1 << 20;
  const std::int64_t step_budget = quick ? 20'000 : 2'000'000;
  const std::int64_t jump_budget = quick ? 20'000 : 1'000'000;
  // Both engines are warmed to the same O(n log n)-scale time via their
  // jump chains, so the per-step costs are measured in the equilibrium
  // regime the paper's sweeps live in, not at the all-dark start.
  const std::int64_t warm_time = quick ? 100'000 : 32 * kN;
  double warmup_seconds = 0.0;
  divpp::io::Json out;
  out.set("bench", "e15_micro_pr2");
  out.set("n", kN);
  out.set("quick", quick);
  out.set("warm_time_steps", warm_time);

  for (const std::int64_t k : {8, 64, 256, 1024}) {
    const std::string suffix = "_k" + std::to_string(k);
    std::vector<double> w(static_cast<std::size_t>(k), 2.0);

    // Plain count-chain stepping: Fenwick vs linear scan.
    {
      auto sim = CountSimulation::equal_start(WeightMap(w), kN);
      Xoshiro256 gen(8);
      warmup_seconds += time_warmup(
          [&] { sim.advance_with(Engine::kJump, warm_time, gen); });
      const double fenwick_ns = time_ns_per_step(
          step_budget, [&](std::int64_t s) {
            sim.advance_with(Engine::kStep, sim.time() + s, gen);
          });
      auto ref = LinearCountRef::equal_start(k, kN, 2.0);
      Xoshiro256 ref_gen(8);
      warmup_seconds +=
          time_warmup([&] { ref.advance_to(warm_time, ref_gen); });
      const double linear_ns = time_ns_per_step(
          step_budget, [&](std::int64_t s) {
            for (std::int64_t i = 0; i < s; ++i) ref.step(ref_gen);
          });
      out.set("count_step_linear_ns" + suffix, linear_ns);
      out.set("count_step_fenwick_ns" + suffix, fenwick_ns);
      out.set("count_step_speedup" + suffix, linear_ns / fenwick_ns);
    }

    // Jump chain: incremental propensities vs per-transition rebuild.
    {
      auto sim = CountSimulation::equal_start(WeightMap(w), kN);
      Xoshiro256 gen(9);
      warmup_seconds += time_warmup(
          [&] { sim.advance_with(Engine::kJump, warm_time, gen); });
      const double fenwick_ns = time_ns_per_step(
          jump_budget,
          [&](std::int64_t s) {
            sim.advance_with(Engine::kJump, sim.time() + s, gen);
          });
      auto ref = LinearCountRef::equal_start(k, kN, 2.0);
      Xoshiro256 ref_gen(9);
      warmup_seconds +=
          time_warmup([&] { ref.advance_to(warm_time, ref_gen); });
      const double linear_ns = time_ns_per_step(
          jump_budget,
          [&](std::int64_t s) { ref.advance_to(ref.time + s, ref_gen); });
      out.set("jump_linear_ns" + suffix, linear_ns);
      out.set("jump_fenwick_ns" + suffix, fenwick_ns);
      out.set("jump_speedup" + suffix, linear_ns / fenwick_ns);
    }
  }

  // Agent engine: virtual dispatch + per-step event structs ("before")
  // vs devirtualised complete-graph sampling + discard-path run().
  {
    constexpr std::int64_t kAgents = 262'144;
    const std::int64_t agent_budget = quick ? 100'000 : 4'000'000;
    const divpp::graph::CompleteGraph graph(kAgents);
    std::vector<std::int64_t> supports = {kAgents / 2, kAgents / 2};
    const divpp::core::DiversificationRule rule(WeightMap({1.0, 3.0}));

    const divpp::graph::Graph& base = graph;
    auto pop_virtual = divpp::core::make_population(base, supports, rule);
    Xoshiro256 gen_virtual(5);
    const double virtual_ns = time_ns_per_step(
        agent_budget, [&](std::int64_t s) {
          for (std::int64_t i = 0; i < s; ++i)
            (void)pop_virtual.step(gen_virtual);
        });

    auto pop_fast = divpp::core::make_population(graph, supports, rule);
    Xoshiro256 gen_fast(5);
    const double fast_ns = time_ns_per_step(
        agent_budget,
        [&](std::int64_t s) { pop_fast.run(s, gen_fast); });

    out.set("agent_step_virtual_ns", virtual_ns);
    out.set("agent_step_fast_ns", fast_ns);
    out.set("agent_step_speedup", virtual_ns / fast_ns);
  }
  out.set("warmup_seconds_total", warmup_seconds);

  std::ofstream file(path);
  if (!file) {
    std::cerr << "e15_micro: cannot write " << path << "\n";
    std::exit(1);
  }
  file << out.to_string() << "\n";
  std::cout << out.to_string() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string pr2_path;
  bool pr2_quick = false;
  std::vector<char*> remaining;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--pr2-json=", 11) == 0) {
      pr2_path = argv[i] + 11;
    } else if (std::strcmp(argv[i], "--pr2-quick") == 0) {
      pr2_quick = true;
    } else {
      remaining.push_back(argv[i]);
    }
  }
  if (!pr2_path.empty()) {
    run_pr2_harness(pr2_path, pr2_quick);
    return 0;
  }
  int rem_argc = static_cast<int>(remaining.size());
  benchmark::Initialize(&rem_argc, remaining.data());
  if (benchmark::ReportUnrecognizedArguments(rem_argc, remaining.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
