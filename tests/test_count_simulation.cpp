// Tests for the lumped count-chain simulator: exact transition semantics,
// conservation laws, the sustainability invariant, jump-chain/plain-chain
// distributional agreement, structural-change mutators, and the tagged-
// agent extension.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/count_simulation.h"
#include "core/equilibrium.h"
#include "core/weights.h"
#include "rng/xoshiro.h"
#include "stats/online_stats.h"

namespace {

using divpp::core::AgentState;
using divpp::core::ColorId;
using divpp::core::CountSimulation;
using divpp::core::Engine;
using divpp::core::TaggedCountSimulation;
using divpp::core::Transition;
using divpp::core::WeightMap;
using divpp::rng::Xoshiro256;

TEST(CountSimulation, ConstructionValidation) {
  const WeightMap weights({1.0, 2.0});
  EXPECT_NO_THROW(CountSimulation(weights, {1, 1}, {0, 0}));
  EXPECT_THROW(CountSimulation(weights, {1}, {0, 0}), std::invalid_argument);
  EXPECT_THROW(CountSimulation(weights, {-1, 2}, {0, 0}),
               std::invalid_argument);
  EXPECT_THROW(CountSimulation(weights, {1, 0}, {0, 0}),
               std::invalid_argument);  // n < 2
}

TEST(CountSimulation, FactoriesProduceAllDarkPopulations) {
  const WeightMap weights({1.0, 2.0, 5.0});
  for (const auto& sim :
       {CountSimulation::proportional_start(weights, 100),
        CountSimulation::adversarial_start(weights, 100),
        CountSimulation::equal_start(weights, 100)}) {
    EXPECT_EQ(sim.n(), 100);
    EXPECT_EQ(sim.total_dark(), 100);
    EXPECT_EQ(sim.total_light(), 0);
    EXPECT_GE(sim.min_dark(), 1);  // every colour starts represented
  }
}

TEST(CountSimulation, ProportionalStartMatchesFairShares) {
  const WeightMap weights({1.0, 3.0});
  const auto sim = CountSimulation::proportional_start(weights, 100);
  EXPECT_EQ(sim.dark(0), 25);
  EXPECT_EQ(sim.dark(1), 75);
}

TEST(CountSimulation, ProportionalStartTinyPopulation) {
  const WeightMap weights({1.0, 1000.0});
  const auto sim = CountSimulation::proportional_start(weights, 5);
  EXPECT_EQ(sim.n(), 5);
  EXPECT_GE(sim.dark(0), 1);
  EXPECT_GE(sim.dark(1), 1);
}

TEST(CountSimulation, AdversarialStartShape) {
  const WeightMap weights({1.0, 1.0, 1.0, 1.0});
  const auto sim = CountSimulation::adversarial_start(weights, 64);
  EXPECT_EQ(sim.dark(0), 61);
  EXPECT_EQ(sim.dark(1), 1);
  EXPECT_EQ(sim.dark(3), 1);
  EXPECT_THROW((void)CountSimulation::adversarial_start(weights, 4),
               std::invalid_argument);
}

TEST(CountSimulation, StepConservesPopulation) {
  const WeightMap weights({1.0, 2.0});
  auto sim = CountSimulation::equal_start(weights, 40);
  Xoshiro256 gen(1);
  for (int i = 0; i < 5000; ++i) {
    (void)sim.step(gen);
    std::int64_t total = 0;
    for (divpp::core::ColorId c = 0; c < sim.num_colors(); ++c)
      total += sim.support(c);
    ASSERT_EQ(total, 40);
    ASSERT_EQ(sim.total_dark() + sim.total_light(), 40);
  }
  EXPECT_EQ(sim.time(), 5000);
}

TEST(CountSimulation, SustainabilityInvariantHolds) {
  // Definition 1.1(3): dark support never reaches zero under the protocol.
  for (const std::uint64_t seed : {7u, 8u, 9u, 10u}) {
    const WeightMap weights({1.0, 2.0, 4.0});
    auto sim = CountSimulation::adversarial_start(weights, 30);
    Xoshiro256 gen(seed);
    for (int i = 0; i < 20'000; ++i) {
      (void)sim.step(gen);
      ASSERT_GE(sim.min_dark(), 1) << "seed " << seed << " step " << i;
    }
  }
}

TEST(CountSimulation, StepOutcomesMatchStateDeltas) {
  const WeightMap weights({1.0, 1.0});
  auto sim = CountSimulation::equal_start(weights, 20);
  Xoshiro256 gen(2);
  for (int i = 0; i < 4000; ++i) {
    const std::vector<std::int64_t> dark_before(
        sim.dark_counts().begin(), sim.dark_counts().end());
    const std::vector<std::int64_t> light_before(
        sim.light_counts().begin(), sim.light_counts().end());
    const auto outcome = sim.step(gen);
    switch (outcome.transition) {
      case Transition::kNoOp:
        EXPECT_EQ(std::vector<std::int64_t>(sim.dark_counts().begin(),
                                            sim.dark_counts().end()),
                  dark_before);
        break;
      case Transition::kAdopt: {
        const auto from = static_cast<std::size_t>(outcome.from);
        const auto to = static_cast<std::size_t>(outcome.to);
        EXPECT_EQ(sim.light_counts()[from], light_before[from] - 1);
        EXPECT_EQ(sim.dark_counts()[to], dark_before[to] + 1);
        break;
      }
      case Transition::kFade: {
        const auto c = static_cast<std::size_t>(outcome.from);
        EXPECT_EQ(outcome.from, outcome.to);
        EXPECT_EQ(sim.dark_counts()[c], dark_before[c] - 1);
        EXPECT_EQ(sim.light_counts()[c], light_before[c] + 1);
        break;
      }
    }
  }
}

TEST(CountSimulation, ActiveProbabilityMatchesEmpiricalRate) {
  const WeightMap weights({2.0, 2.0});
  auto sim = CountSimulation::equal_start(weights, 64);
  Xoshiro256 gen(3);
  // Warm up to a generic configuration.
  sim.advance_with(Engine::kStep, 2000, gen);
  const double p = sim.active_probability();
  // Estimate the one-step active probability by repeated trial from the
  // same state (copy the simulation each time).
  int active = 0;
  constexpr int kTrials = 40'000;
  for (int i = 0; i < kTrials; ++i) {
    CountSimulation copy = sim;
    if (copy.step(gen).transition != Transition::kNoOp) ++active;
  }
  EXPECT_NEAR(static_cast<double>(active) / kTrials, p, 0.01);
}

TEST(CountSimulation, RunToAndAdvanceToRespectTargets) {
  const WeightMap weights({1.0, 1.0});
  auto a = CountSimulation::equal_start(weights, 32);
  auto b = CountSimulation::equal_start(weights, 32);
  Xoshiro256 gen(4);
  a.advance_with(Engine::kStep, 123, gen);
  EXPECT_EQ(a.time(), 123);
  b.advance_with(Engine::kJump, 123, gen);
  EXPECT_EQ(b.time(), 123);
  EXPECT_THROW(a.advance_with(Engine::kStep, 50, gen), std::invalid_argument);
  EXPECT_THROW(b.advance_with(Engine::kJump, 50, gen), std::invalid_argument);
}

TEST(CountSimulation, JumpChainMatchesPlainChainDistribution) {
  // Strong distributional check: mean and variance of the support of
  // colour 0 after T steps agree between the two stepping modes across
  // many replicas.
  const WeightMap weights({1.0, 3.0});
  constexpr std::int64_t kN = 48;
  constexpr std::int64_t kT = 3000;
  constexpr int kReplicas = 300;
  divpp::stats::OnlineStats plain;
  divpp::stats::OnlineStats jump;
  for (int r = 0; r < kReplicas; ++r) {
    Xoshiro256 gen_plain(1000 + static_cast<std::uint64_t>(r));
    Xoshiro256 gen_jump(9000 + static_cast<std::uint64_t>(r));
    auto a = CountSimulation::equal_start(weights, kN);
    a.advance_with(Engine::kStep, kT, gen_plain);
    plain.add(static_cast<double>(a.support(0)));
    auto b = CountSimulation::equal_start(weights, kN);
    b.advance_with(Engine::kJump, kT, gen_jump);
    jump.add(static_cast<double>(b.support(0)));
  }
  // Means within 3 combined standard errors.
  const double se = std::sqrt(plain.variance() / kReplicas +
                              jump.variance() / kReplicas);
  EXPECT_NEAR(plain.mean(), jump.mean(), 3.0 * se + 1e-9);
  // Spreads of similar magnitude.
  EXPECT_LT(jump.stddev(), plain.stddev() * 1.6 + 1.0);
  EXPECT_LT(plain.stddev(), jump.stddev() * 1.6 + 1.0);
}

TEST(CountSimulation, ConvergesToFairSharesFromAdversarialStart) {
  const WeightMap weights({1.0, 2.0, 5.0});
  auto sim = CountSimulation::adversarial_start(weights, 1000);
  Xoshiro256 gen(5);
  // W = 8; run well past W² n log n.
  sim.advance_with(Engine::kJump, 900'000, gen);
  for (divpp::core::ColorId i = 0; i < 3; ++i) {
    const double share = static_cast<double>(sim.support(i)) / 1000.0;
    EXPECT_NEAR(share, weights.fair_share(i), 0.08) << "colour " << i;
  }
  // Dark/light split per Eq. (7): A ≈ W/(1+W)·n.
  EXPECT_NEAR(static_cast<double>(sim.total_dark()) / 1000.0, 8.0 / 9.0,
              0.06);
}

TEST(CountSimulation, AbsorbedConfigurationJumpsToTarget) {
  // One dark agent per colour and no light agents: no transition can ever
  // fire (fade needs two same-colour dark agents); the jump chain must
  // fast-forward to the horizon.
  const WeightMap weights({2.0, 2.0});
  CountSimulation sim(weights, {1, 1}, {0, 0});
  Xoshiro256 gen(6);
  EXPECT_EQ(sim.active_probability(), 0.0);
  sim.advance_with(Engine::kJump, 1'000'000'000, gen);
  EXPECT_EQ(sim.time(), 1'000'000'000);
  EXPECT_EQ(sim.dark(0), 1);
  EXPECT_EQ(sim.dark(1), 1);
}

// ---- structural changes --------------------------------------------------

TEST(CountSimulation, AddAgents) {
  const WeightMap weights({1.0, 1.0});
  auto sim = CountSimulation::equal_start(weights, 10);
  sim.add_agents(0, 5, /*dark_shade=*/true);
  sim.add_agents(1, 3, /*dark_shade=*/false);
  EXPECT_EQ(sim.n(), 18);
  EXPECT_EQ(sim.dark(0), 10);
  EXPECT_EQ(sim.light(1), 3);
  EXPECT_EQ(sim.total_dark(), 15);
  EXPECT_THROW(sim.add_agents(7, 1, true), std::out_of_range);
  EXPECT_THROW(sim.add_agents(0, -1, true), std::invalid_argument);
}

TEST(CountSimulation, AddColor) {
  const WeightMap weights({1.0, 1.0});
  auto sim = CountSimulation::equal_start(weights, 10);
  sim.add_color(4.0, 2);
  EXPECT_EQ(sim.num_colors(), 3);
  EXPECT_EQ(sim.n(), 12);
  EXPECT_EQ(sim.dark(2), 2);
  EXPECT_EQ(sim.weights().weight(2), 4.0);
  EXPECT_THROW(sim.add_color(2.0, 0), std::invalid_argument);
}

TEST(CountSimulation, RecolorAll) {
  const WeightMap weights({1.0, 1.0, 1.0});
  CountSimulation sim(weights, {3, 4, 5}, {1, 2, 0});
  sim.recolor_all(0, 2);
  EXPECT_EQ(sim.dark(0), 0);
  EXPECT_EQ(sim.light(0), 0);
  EXPECT_EQ(sim.dark(2), 8);
  EXPECT_EQ(sim.light(2), 1);
  EXPECT_EQ(sim.n(), 15);
  EXPECT_THROW(sim.recolor_all(1, 1), std::invalid_argument);
  EXPECT_THROW(sim.recolor_all(5, 0), std::out_of_range);
}

TEST(CountSimulation, Transfer) {
  const WeightMap weights({1.0, 1.0});
  CountSimulation sim(weights, {6, 2}, {4, 0});
  sim.transfer(0, 1, 3, 2);
  EXPECT_EQ(sim.dark(0), 3);
  EXPECT_EQ(sim.light(0), 2);
  EXPECT_EQ(sim.dark(1), 5);
  EXPECT_EQ(sim.light(1), 2);
  EXPECT_EQ(sim.n(), 12);
  EXPECT_THROW(sim.transfer(0, 1, 100, 0), std::invalid_argument);
  EXPECT_THROW(sim.transfer(0, 0, 1, 0), std::invalid_argument);
}

TEST(CountSimulation, NewColorSpreadsAfterInjection) {
  const WeightMap weights({1.0, 1.0});
  auto sim = CountSimulation::equal_start(weights, 300);
  Xoshiro256 gen(7);
  sim.advance_with(Engine::kJump, 50'000, gen);
  sim.add_color(2.0, 1);  // one dark agent of a brand-new heavy colour
  sim.advance_with(Engine::kJump, 600'000, gen);
  // New fair share = 2/4 = 1/2 of (n = 301).
  const double share = static_cast<double>(sim.support(2)) /
                       static_cast<double>(sim.n());
  EXPECT_NEAR(share, 0.5, 0.12);
  EXPECT_GE(sim.min_dark(), 1);
}

TEST(CountSimulation, JumpRunGrowingPastTheScanCutoffKeepsItsStream) {
  // Up to 16 colours the class draws scan the flat counts and keep no
  // trees; an add_color that takes the palette to 17 mid-run must build
  // the Fenwick trees and continue the very same stream.  Pinned against
  // the run before the scan existed (commit 41ca856, trees at every k).
  std::vector<double> weights;
  for (int i = 0; i < 16; ++i) weights.push_back(1.0 + (i % 4));
  auto sim = CountSimulation::proportional_start(WeightMap(weights), 4000);
  Xoshiro256 gen(0xc0ffee17ULL);
  sim.schedule_event(40'000, [](CountSimulation& s) {
    ASSERT_EQ(s.num_colors(), 16);
    s.add_color(3.0, 40);
  });
  sim.advance_with(Engine::kJump, 200'000, gen);
  ASSERT_EQ(sim.num_colors(), 17);
  const std::vector<std::int64_t> dark = {100, 180, 298, 388, 102, 194,
                                          278, 389, 96,  199, 290, 397,
                                          92,  177, 293, 383, 86};
  const std::vector<std::int64_t> light = {3, 4, 7, 6, 1, 8, 5, 13, 2,
                                           1, 9, 12, 3, 5, 9, 10, 0};
  EXPECT_EQ(std::vector<std::int64_t>(sim.dark_counts().begin(),
                                      sim.dark_counts().end()),
            dark);
  EXPECT_EQ(std::vector<std::int64_t>(sim.light_counts().begin(),
                                      sim.light_counts().end()),
            light);
  EXPECT_EQ(sim.time(), 200'000);
  EXPECT_EQ(sim.active_transitions(), 9050);
  const std::array<std::uint64_t, 4> state = {
      0x591601ea3e5b9d2eULL, 0x67f0209fe8089962ULL, 0x40304c0f09b62155ULL,
      0xf618c32ffc799749ULL};
  EXPECT_EQ(gen.state(), state);
}

TEST(CountSimulation, MinDarkMatchesBruteForceAfterEveryMutator) {
  // min_dark() is computed at query time; this pins it against a
  // brute-force minimum after every kind of structural or dynamic
  // change, so a future cached min structure that misses an update
  // fails here.
  const auto expect_min = [](const CountSimulation& s, const char* after) {
    std::int64_t brute = s.dark(0);
    for (ColorId i = 1; i < s.num_colors(); ++i)
      brute = std::min(brute, s.dark(i));
    EXPECT_EQ(s.min_dark(), brute) << "after " << after;
  };
  const auto run_windows = [&](CountSimulation& s, Xoshiro256& gen) {
    for (const Engine e : {Engine::kJump, Engine::kBatch, Engine::kAuto}) {
      for (int w = 0; w < 4; ++w) {
        s.advance_with(e, s.time() + 300, gen);
        expect_min(s, divpp::core::engine_name(e));
      }
    }
  };
  const WeightMap weights({1.0, 2.0, 3.0, 1.0, 5.0});
  auto sim = CountSimulation::adversarial_start(weights, 200);
  Xoshiro256 gen(31);
  expect_min(sim, "construction");
  run_windows(sim, gen);

  sim.add_agents(1, 3, /*dark_shade=*/false);
  expect_min(sim, "add_agents (light)");
  sim.add_agents(3, 2, /*dark_shade=*/true);
  expect_min(sim, "add_agents (dark)");
  sim.add_color(2.0, 1);
  expect_min(sim, "add_color");
  EXPECT_EQ(sim.min_dark(), 1);  // the new colour joins with one dark agent
  sim.transfer(0, 5, 1, 0);
  expect_min(sim, "transfer");
  run_windows(sim, gen);

  const auto resumed =
      divpp::core::resume_run_from_checkpoint(
          divpp::core::to_checkpoint_v2(sim, gen));
  expect_min(resumed.sim, "checkpoint-v2 restore");
  EXPECT_EQ(resumed.sim.min_dark(), sim.min_dark());

  // The tagged decomposition holds the tagged agent out of the counts
  // while it runs; min_dark() must follow the held-out counts too.
  const auto heaviest = static_cast<ColorId>(std::distance(
      sim.dark_counts().begin(),
      std::max_element(sim.dark_counts().begin(), sim.dark_counts().end())));
  TaggedCountSimulation tagged(sim, heaviest, /*tagged_dark=*/true);
  std::int64_t changes = 0;
  for (const Engine e : {Engine::kJump, Engine::kBatch, Engine::kAuto}) {
    tagged.run_changes(e, tagged.time() + 4'000, gen,
                       [&](std::int64_t, AgentState) {
                         ++changes;
                         expect_min(tagged.counts(), "tagged hold-out change");
                       });
    expect_min(tagged.counts(), "tagged window");
  }
  EXPECT_GT(changes, 0);

  sim.recolor_all(4, 0);
  expect_min(sim, "recolor_all");
  EXPECT_EQ(sim.min_dark(), 0);  // colour 4 has no agents left
  run_windows(sim, gen);
}

// ---- tagged-agent simulation ----------------------------------------------

TEST(TaggedCountSimulation, ConstructionRequiresMatchingAgent) {
  const WeightMap weights({1.0, 1.0});
  auto sim = CountSimulation::equal_start(weights, 10);
  EXPECT_NO_THROW(TaggedCountSimulation(sim, 0, /*tagged_dark=*/true));
  // No light agents at an all-dark start:
  EXPECT_THROW(TaggedCountSimulation(sim, 0, /*tagged_dark=*/false),
               std::invalid_argument);
}

TEST(TaggedCountSimulation, RefusesASimulationWithPendingEvents) {
  // A tagged run holds the tagged agent out of the counts and cannot
  // fire events, so it would skip one scheduled at t = 500 and leave a
  // checkpoint whose event lies before its clock.  Refuse up front.
  auto sim = CountSimulation::equal_start(WeightMap({1.0, 2.0}), 200);
  int fired = 0;
  const std::int64_t handle =
      sim.schedule_event(500, [&](CountSimulation&) { ++fired; });
  EXPECT_THROW(TaggedCountSimulation(sim, 0, /*tagged_dark=*/true),
               std::invalid_argument);

  // Without the event the same start tags, runs, and round-trips through
  // a v2 checkpoint.
  ASSERT_TRUE(sim.cancel_scheduled_event(handle));
  TaggedCountSimulation tagged(sim, 0, /*tagged_dark=*/true);
  Xoshiro256 gen(15);
  tagged.advance_with(Engine::kJump, 1000, gen);
  const auto resumed = divpp::core::resume_tagged_run_from_checkpoint(
      divpp::core::to_checkpoint_v2(tagged, gen));
  EXPECT_EQ(resumed.sim.time(), 1000);
  EXPECT_EQ(fired, 0);
}

TEST(TaggedCountSimulation, CountsStayConsistentWithTaggedState) {
  const WeightMap weights({1.0, 2.0});
  auto base = CountSimulation::equal_start(weights, 24);
  TaggedCountSimulation sim(base, 0, true);
  Xoshiro256 gen(8);
  for (int i = 0; i < 20'000; ++i) {
    sim.step(gen);
    const auto tagged = sim.tagged_state();
    // The tagged agent's class must be non-empty in the counts.
    const std::int64_t pool = tagged.is_dark()
                                  ? sim.counts().dark(tagged.color)
                                  : sim.counts().light(tagged.color);
    ASSERT_GE(pool, 1) << "step " << i;
    ASSERT_EQ(sim.counts().total_dark() + sim.counts().total_light(), 24);
  }
  EXPECT_EQ(sim.time(), 20'000);
}

TEST(TaggedCountSimulation, TaggedOccupancyApproachesStationary) {
  // Section 2.4: over long horizons the tagged agent's colour occupancy
  // approaches π: colour i (dark or light) ≈ w_i/W.
  const WeightMap weights({1.0, 3.0});
  auto base = CountSimulation::proportional_start(weights, 64);
  TaggedCountSimulation sim(base, 0, true);
  Xoshiro256 gen(9);
  std::int64_t time_on_color1 = 0;
  constexpr std::int64_t kHorizon = 400'000;
  // Each change books the steps the previous colour held (the pre-step
  // state of every step in [0, kHorizon)).
  divpp::core::ColorId held = sim.tagged_state().color;
  std::int64_t held_since = 0;
  const auto book = [&](std::int64_t until) {
    if (held == 1) time_on_color1 += until - held_since;
    held_since = until;
  };
  sim.run_changes(Engine::kStep, kHorizon, gen,
                  [&](std::int64_t pre_step, AgentState s) {
                    book(pre_step + 1);
                    held = s.color;
                  });
  book(kHorizon);
  const double fraction =
      static_cast<double>(time_on_color1) / static_cast<double>(kHorizon);
  EXPECT_NEAR(fraction, 0.75, 0.08);
}

// ---- parse_engine ----------------------------------------------------------

TEST(ParseEngine, AcceptsEveryValidToken) {
  EXPECT_EQ(divpp::core::parse_engine("step"), Engine::kStep);
  EXPECT_EQ(divpp::core::parse_engine("jump"), Engine::kJump);
  EXPECT_EQ(divpp::core::parse_engine("batch"), Engine::kBatch);
  EXPECT_EQ(divpp::core::parse_engine("auto"), Engine::kAuto);
}

TEST(ParseEngine, RejectsUnknownTokensNamingTheValidSet) {
  for (const char* bad : {"", "turbo", "Auto", "jump ", "batch,auto"}) {
    try {
      (void)divpp::core::parse_engine(bad);
      FAIL() << "parse_engine accepted '" << bad << "'";
    } catch (const std::invalid_argument& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("step|jump|batch|auto"), std::string::npos)
          << "error message must name the valid set, got: " << message;
      EXPECT_NE(message.find(bad), std::string::npos)
          << "error message must quote the offending token";
    }
  }
}

// ---- auto engine -----------------------------------------------------------

TEST(AutoEngine, TinyPopulationDelegatesToJumpBitIdentically) {
  // Below the batch fallback size kAuto always picks the jump chain,
  // so with equal seeds the trajectories and generator states must match
  // draw for draw.
  const WeightMap weights({1.0, 2.0, 4.0});
  auto jump_sim = CountSimulation::adversarial_start(weights, 50);
  auto auto_sim = jump_sim;
  Xoshiro256 jump_gen(31);
  Xoshiro256 auto_gen(31);
  for (int window = 0; window < 5; ++window) {
    const std::int64_t target = (window + 1) * 3'000;
    jump_sim.advance_with(Engine::kJump, target, jump_gen);
    auto_sim.advance_with(Engine::kAuto, target, auto_gen);
    ASSERT_EQ(jump_gen, auto_gen) << "window " << window;
    for (divpp::core::ColorId c = 0; c < 3; ++c) {
      ASSERT_EQ(jump_sim.dark(c), auto_sim.dark(c));
      ASSERT_EQ(jump_sim.light(c), auto_sim.light(c));
    }
  }
}

TEST(AutoEngine, EwmaTracksMeasuredActiveFraction) {
  const WeightMap weights({1.0, 1.0, 1.0, 1.0});
  auto sim = CountSimulation::equal_start(weights, 4'000);
  Xoshiro256 gen(32);
  // Before any window the estimate is the exact one-step probability.
  EXPECT_DOUBLE_EQ(sim.active_fraction_estimate(),
                   sim.active_probability());
  const std::int64_t t0 = sim.active_transitions();
  sim.advance_with(Engine::kAuto, 100'000, gen);
  const double measured =
      static_cast<double>(sim.active_transitions() - t0) / 100'000.0;
  // One window: EWMA == measured fraction exactly (cold start).
  EXPECT_DOUBLE_EQ(sim.active_fraction_estimate(), measured);
  EXPECT_GT(measured, 0.0);
  EXPECT_LT(measured, 1.0);
  // A second window folds in with decay 1/2, so the estimate stays
  // between the old estimate and the new window's fraction.
  const std::int64_t t1 = sim.active_transitions();
  sim.advance_with(Engine::kAuto, 200'000, gen);
  const double second =
      static_cast<double>(sim.active_transitions() - t1) / 100'000.0;
  const double blended = 0.5 * measured + 0.5 * second;
  EXPECT_NEAR(sim.active_fraction_estimate(), blended, 1e-12);
}

TEST(AutoEngine, ActiveTransitionCountsAgreeAcrossEngines) {
  // Every engine must account its adopt/fade transitions.  The engines
  // consume different draw sequences, so the counts agree only in law:
  // over 50k interactions the active counts concentrate within a few
  // standard deviations (~sqrt(count)) of each other.
  const WeightMap weights({2.0, 3.0});
  auto step_sim = CountSimulation::equal_start(weights, 600);
  auto jump_sim = step_sim;
  auto batch_sim = step_sim;
  Xoshiro256 step_gen(33);
  Xoshiro256 jump_gen(33);
  Xoshiro256 batch_gen(33);
  step_sim.advance_with(Engine::kStep, 50'000, step_gen);
  jump_sim.advance_with(Engine::kJump, 50'000, jump_gen);
  batch_sim.advance_with(Engine::kBatch, 50'000, batch_gen);
  const auto step_count = static_cast<double>(step_sim.active_transitions());
  EXPECT_GT(step_count, 0);
  EXPECT_NEAR(static_cast<double>(jump_sim.active_transitions()),
              step_count, 8.0 * std::sqrt(step_count));
  EXPECT_NEAR(static_cast<double>(batch_sim.active_transitions()),
              step_count, 8.0 * std::sqrt(step_count));
}

// ---- scheduled events ------------------------------------------------------

TEST(ScheduledEvents, FireAtExactInteractionIndexUnderEveryEngine) {
  // The event-queue regression for batched windows: a mid-window event
  // must land at exactly its interaction index, for every engine,
  // without the caller splitting the window by hand.
  for (const Engine engine :
       {Engine::kStep, Engine::kJump, Engine::kBatch, Engine::kAuto}) {
    const WeightMap weights({1.0, 2.0});
    auto sim = CountSimulation::equal_start(weights, 500);
    Xoshiro256 gen(34);
    constexpr std::int64_t kEventTime = 12'345;  // mid-window, odd offset
    std::int64_t fired_at = -1;
    std::int64_t fired_n = -1;
    sim.schedule_event(kEventTime, [&](CountSimulation& s) {
      fired_at = s.time();
      s.add_agents(0, 7, true);
      fired_n = s.n();
    });
    EXPECT_EQ(sim.pending_event_count(), 1);
    sim.advance_with(engine, 40'000, gen);
    EXPECT_EQ(fired_at, kEventTime)
        << divpp::core::engine_name(engine);
    EXPECT_EQ(fired_n, 507);
    EXPECT_EQ(sim.n(), 507);
    EXPECT_EQ(sim.time(), 40'000);
    EXPECT_EQ(sim.pending_event_count(), 0);
  }
}

TEST(ScheduledEvents, MidWindowEventInLargeBatchedWindow) {
  // Large enough that the collision-batch engine genuinely batches, and
  // the event falls strictly inside a batch-sized window.
  const WeightMap weights({1.0, 1.0, 1.0, 1.0});
  auto sim = CountSimulation::equal_start(weights, 100'000);
  Xoshiro256 gen(35);
  constexpr std::int64_t kEventTime = 70'001;
  std::int64_t fired_at = -1;
  sim.schedule_event(kEventTime, [&](CountSimulation& s) {
    fired_at = s.time();
    s.add_color(2.0, 5);
  });
  sim.advance_with(Engine::kBatch, 150'000, gen);
  EXPECT_EQ(fired_at, kEventTime);
  EXPECT_EQ(sim.num_colors(), 5);
  EXPECT_EQ(sim.time(), 150'000);
}

TEST(ScheduledEvents, OrderAndPendingSemantics) {
  const WeightMap weights({1.0, 2.0});
  auto sim = CountSimulation::equal_start(weights, 300);
  Xoshiro256 gen(36);
  std::vector<int> order;
  sim.schedule_event(2'000, [&](CountSimulation&) { order.push_back(2); });
  sim.schedule_event(1'000, [&](CountSimulation&) { order.push_back(1); });
  sim.schedule_event(2'000, [&](CountSimulation&) { order.push_back(3); });
  sim.schedule_event(90'000, [&](CountSimulation&) { order.push_back(9); });
  EXPECT_EQ(sim.pending_event_count(), 4);
  sim.advance_with(Engine::kJump, 5'000, gen);
  // Time order, ties in registration order; the far event stays queued.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.pending_event_count(), 1);
  // Scheduling in the past throws; so does an empty action.
  EXPECT_THROW((void)sim.schedule_event(4'000, [](CountSimulation&) {}),
               std::invalid_argument);
  EXPECT_THROW((void)sim.schedule_event(10'000,
                                        divpp::core::CountSimulation::
                                            EventAction{}),
               std::invalid_argument);
  // Cancellation by handle removes exactly the targeted event, once.
  const std::int64_t handle =
      sim.schedule_event(50'000, [&](CountSimulation&) { order.push_back(5); });
  EXPECT_EQ(sim.pending_event_count(), 2);
  EXPECT_TRUE(sim.cancel_scheduled_event(handle));
  EXPECT_FALSE(sim.cancel_scheduled_event(handle));
  EXPECT_EQ(sim.pending_event_count(), 1);
  sim.advance_with(Engine::kJump, 95'000, gen);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 9}));
}

TEST(ScheduledEvents, EventAtCurrentTimeFiresBeforeStepping) {
  const WeightMap weights({1.0, 2.0});
  auto sim = CountSimulation::equal_start(weights, 300);
  Xoshiro256 gen(37);
  sim.advance_with(Engine::kStep, 500, gen);
  std::int64_t fired_at = -1;
  sim.schedule_event(500, [&](CountSimulation& s) { fired_at = s.time(); });
  sim.advance_with(Engine::kStep, 600, gen);
  EXPECT_EQ(fired_at, 500);
}

}  // namespace
