// End-to-end integration tests: the full pipeline (simulate → converge →
// verify diversity/fairness/sustainability) on small instances, the
// agent-based ↔ count-based engine equivalence, the derandomised variant,
// non-complete topologies, and parameterized property sweeps (TEST_P).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/convergence.h"
#include "analysis/fairness.h"
#include "analysis/sustainability.h"
#include "core/count_simulation.h"
#include "core/diversification.h"
#include "core/equilibrium.h"
#include "core/mean_field.h"
#include "core/population.h"
#include "graph/topologies.h"
#include "rng/xoshiro.h"
#include "stats/online_stats.h"
#include "stats/potentials.h"

namespace {

using divpp::core::AgentState;
using divpp::core::CountSimulation;
using divpp::core::Engine;
using divpp::core::DerandomisedRule;
using divpp::core::DiversificationRule;
using divpp::core::WeightMap;
using divpp::graph::CompleteGraph;
using divpp::rng::Xoshiro256;

TEST(EndToEnd, AgentBasedReachesDiversityFairnessSustainability) {
  const WeightMap weights({1.0, 2.0, 3.0});
  const CompleteGraph g(120);
  const std::vector<std::int64_t> supports = {40, 40, 40};
  auto pop = divpp::core::make_population(g, supports,
                                          DiversificationRule(weights));
  Xoshiro256 gen(1);

  divpp::analysis::SustainabilityMonitor monitor(3);
  // Warm up past the convergence scale W²·n·log n ≈ 36·120·4.8 ≈ 21k.
  pop.run(60'000, gen);

  // Then account fairness over a long window while watching dark counts.
  divpp::analysis::FairnessTracker fairness(pop.states(), 3, pop.time());
  divpp::stats::OnlineStats diversity_err;
  const std::int64_t horizon = pop.time() + 1'200'000;
  while (pop.time() < horizon) {
    pop.run_observed(1000, gen,
                     [&](const divpp::core::StepEvent<AgentState>& event) {
                       fairness.observe(event);
                     });
    const auto counts = divpp::core::tally(pop.states(), 3);
    monitor.observe(counts.dark, pop.time());
    const auto supports_now = counts.supports();
    diversity_err.add(
        divpp::stats::diversity_error(supports_now, weights.weights()));
  }
  fairness.finalize(pop.time());

  // Diversity: average deviation from fair shares stays near the √(log/n)
  // scale (generous factor for a small population).
  EXPECT_LT(diversity_err.mean(),
            6.0 * divpp::core::diversity_error_scale(120));
  // Fairness: every agent spends roughly the fair share of time on every
  // colour.  The horizon is ~10⁴ steps per agent, so the worst cell over
  // 360 (agent, colour) pairs still carries real Monte Carlo noise;
  // 0.45 relative slack keeps the test deterministic and meaningful.
  EXPECT_LT(fairness.worst_relative_error(weights), 0.45);
  // Sustainability: no colour's dark support ever died.
  EXPECT_TRUE(monitor.sustained());
}

TEST(EndToEnd, CountAndAgentEnginesAgreeOnMoments) {
  // The lumped chain and the agent-based engine simulate the same process
  // on K_n: compare the mean support of colour 0 after T steps across
  // replicas.
  const WeightMap weights({1.0, 3.0});
  constexpr std::int64_t kN = 60;
  constexpr std::int64_t kT = 4000;
  constexpr int kReplicas = 200;
  divpp::stats::OnlineStats agent_based;
  divpp::stats::OnlineStats count_based;
  const CompleteGraph g(kN);
  const std::vector<std::int64_t> supports = {30, 30};
  for (int r = 0; r < kReplicas; ++r) {
    Xoshiro256 gen_a(40'000 + static_cast<std::uint64_t>(r));
    auto pop = divpp::core::make_population(g, supports,
                                            DiversificationRule(weights));
    pop.run(kT, gen_a);
    agent_based.add(static_cast<double>(
        divpp::core::tally(pop.states(), 2).supports()[0]));

    Xoshiro256 gen_c(80'000 + static_cast<std::uint64_t>(r));
    CountSimulation sim(weights, {30, 30}, {0, 0});
    sim.advance_with(Engine::kStep, kT, gen_c);
    count_based.add(static_cast<double>(sim.support(0)));
  }
  const double se = std::sqrt(agent_based.variance() / kReplicas +
                              count_based.variance() / kReplicas);
  EXPECT_NEAR(agent_based.mean(), count_based.mean(), 3.5 * se + 1e-9);
}

TEST(EndToEnd, DerandomisedVariantConvergesToSameEquilibrium) {
  const WeightMap weights({1.0, 3.0});
  const CompleteGraph g(200);
  const std::vector<std::int64_t> supports = {100, 100};
  auto pop =
      divpp::core::make_population(g, supports, DerandomisedRule(weights));
  Xoshiro256 gen(3);
  pop.run(500'000, gen);
  // Average supports over a window to smooth fluctuations.
  divpp::stats::OnlineStats share1;
  for (int probe = 0; probe < 50; ++probe) {
    pop.run(2000, gen);
    share1.add(static_cast<double>(
                   divpp::core::tally(pop.states(), 2).supports()[1]) /
               200.0);
  }
  EXPECT_NEAR(share1.mean(), 0.75, 0.08);
  // Shade domain stays legal throughout.
  for (const AgentState& s : pop.states())
    EXPECT_TRUE(divpp::core::valid_derandomised_state(s, weights));
}

TEST(EndToEnd, UniformWeightsGiveUniformPartition) {
  // §1.2: all weights 1 ⇒ the protocol solves uniform k-partition.
  const WeightMap weights = WeightMap::uniform(4);
  auto sim = CountSimulation::adversarial_start(weights, 800);
  Xoshiro256 gen(4);
  sim.advance_with(Engine::kJump, 1'200'000, gen);
  for (divpp::core::ColorId i = 0; i < 4; ++i) {
    EXPECT_NEAR(static_cast<double>(sim.support(i)) / 800.0, 0.25, 0.07)
        << "colour " << i;
  }
}

TEST(EndToEnd, MeanFieldPredictsStochasticTrajectory) {
  const WeightMap weights({1.0, 2.0});
  constexpr std::int64_t kN = 4000;
  auto sim = CountSimulation::equal_start(weights, kN);
  Xoshiro256 gen(5);
  // Integrate the fluid limit for τ = 3 (i.e. 3n steps).
  divpp::core::MeanFieldOde ode(weights);
  auto fluid = divpp::core::MeanFieldOde::from_counts(
      {kN / 2, kN / 2}, {0, 0});
  ode.integrate(fluid, 3.0, 1e-3);
  sim.advance_with(Engine::kStep, 3 * kN, gen);
  for (divpp::core::ColorId i = 0; i < 2; ++i) {
    const double stochastic =
        static_cast<double>(sim.dark(i)) / static_cast<double>(kN);
    EXPECT_NEAR(stochastic, fluid.dark[static_cast<std::size_t>(i)], 0.03)
        << "dark fraction, colour " << i;
  }
}

// ---- property sweeps (TEST_P) ----------------------------------------------

struct SweepParams {
  std::int64_t n;
  std::vector<double> weights;
  std::uint64_t seed;
};

class DiversificationSweep : public ::testing::TestWithParam<SweepParams> {};

TEST_P(DiversificationSweep, InvariantsAndConvergence) {
  const SweepParams param = GetParam();
  const WeightMap weights(param.weights);
  auto sim = CountSimulation::adversarial_start(weights, param.n);
  Xoshiro256 gen(param.seed);

  const double total_weight = weights.total();
  const auto horizon = static_cast<std::int64_t>(
      6.0 * divpp::core::convergence_time_scale(param.n, total_weight));
  divpp::analysis::SustainabilityMonitor monitor(weights.num_colors());
  while (sim.time() < horizon) {
    sim.advance_with(Engine::kJump, sim.time() + 2000, gen);
    // Invariant: population size conserved.
    std::int64_t total = 0;
    for (divpp::core::ColorId i = 0; i < sim.num_colors(); ++i)
      total += sim.support(i);
    ASSERT_EQ(total, param.n);
    monitor.observe(sim.dark_counts(), sim.time());
  }
  // Sustainability (probability-1 invariant).
  EXPECT_TRUE(monitor.sustained());
  // Diversity at the horizon: within a few √(log n / n) of fair shares.
  const auto supports = sim.supports();
  const double err =
      divpp::stats::diversity_error(supports, weights.weights());
  EXPECT_LT(err, 8.0 * divpp::core::diversity_error_scale(param.n))
      << "n=" << param.n << " weights k=" << weights.num_colors();
  // Heavier colours hold more support at equilibrium (monotonicity).
  for (divpp::core::ColorId i = 0; i + 1 < sim.num_colors(); ++i) {
    if (weights.weight(i + 1) >= 2.0 * weights.weight(i)) {
      EXPECT_GT(sim.support(i + 1), sim.support(i));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ParameterGrid, DiversificationSweep,
    ::testing::Values(
        SweepParams{256, {1.0, 1.0}, 11},
        SweepParams{256, {1.0, 4.0}, 12},
        SweepParams{512, {1.0, 1.0, 1.0, 1.0}, 13},
        SweepParams{512, {1.0, 2.0, 4.0}, 14},
        SweepParams{1024, {2.0, 3.0}, 15},
        SweepParams{1024, {1.0, 1.0, 8.0}, 16},
        SweepParams{2048, {1.0, 2.0}, 17}),
    [](const ::testing::TestParamInfo<SweepParams>& info) {
      return "n" + std::to_string(info.param.n) + "_k" +
             std::to_string(info.param.weights.size()) + "_s" +
             std::to_string(info.param.seed);
    });

class TopologySweep : public ::testing::TestWithParam<std::string> {};

TEST_P(TopologySweep, ProtocolRunsAndSustainsOnEveryTopology) {
  const std::string spec = GetParam();
  Xoshiro256 gen(21);
  const auto graph = divpp::graph::make_topology(spec, 256, gen);
  const WeightMap weights({1.0, 2.0});
  const std::vector<std::int64_t> supports = {128, 128};
  auto pop = divpp::core::make_population(*graph, supports,
                                          DiversificationRule(weights));
  divpp::analysis::SustainabilityMonitor monitor(2);
  for (int burst = 0; burst < 60; ++burst) {
    pop.run(5000, gen);
    monitor.observe(divpp::core::tally(pop.states(), 2).dark, pop.time());
  }
  EXPECT_TRUE(monitor.sustained()) << spec;
  // Population conserved.
  EXPECT_EQ(static_cast<std::int64_t>(pop.states().size()), 256);
}

INSTANTIATE_TEST_SUITE_P(Topologies, TopologySweep,
                         ::testing::Values("complete", "cycle", "torus",
                                           "star", "regular:4", "er:0.05"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == ':' || c == '.') c = '_';
                           }
                           return name;
                         });

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, TaggedAgentConsistencyAcrossSeeds) {
  const WeightMap weights({1.0, 2.0});
  auto base = CountSimulation::proportional_start(weights, 48);
  divpp::core::TaggedCountSimulation sim(base, 1, true);
  Xoshiro256 gen(GetParam());
  for (int i = 0; i < 30'000; ++i) {
    sim.step(gen);
    const auto tagged = sim.tagged_state();
    const std::int64_t pool = tagged.is_dark()
                                  ? sim.counts().dark(tagged.color)
                                  : sim.counts().light(tagged.color);
    ASSERT_GE(pool, 1);
    ASSERT_GE(sim.counts().min_dark(), 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u));

}  // namespace
