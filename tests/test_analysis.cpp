// Tests for the analysis module: equilibrium-region detectors, the §2.1
// phase-region ladder, fairness accounting, and sustainability monitors.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "analysis/convergence.h"
#include "analysis/fairness.h"
#include "analysis/phase_tracker.h"
#include "analysis/sustainability.h"
#include "core/count_simulation.h"
#include "core/equilibrium.h"
#include "core/population.h"
#include "core/weights.h"
#include "rng/xoshiro.h"

namespace {

using divpp::analysis::FairnessTracker;
using divpp::analysis::PhaseTracker;
using divpp::analysis::Region;
using divpp::analysis::SustainabilityMonitor;
using divpp::core::AgentState;
using divpp::core::CountSimulation;
using divpp::core::Engine;
using divpp::core::kDark;
using divpp::core::kLight;
using divpp::core::StepEvent;
using divpp::core::Transition;
using divpp::core::WeightMap;
using divpp::rng::Xoshiro256;

// A configuration sitting exactly at the Eq. (7) equilibrium for
// weights {1, 3} (W = 4) and n = 100: A = (20, 60), a = (5, 15).
CountSimulation equilibrium_sim() {
  return CountSimulation(WeightMap({1.0, 3.0}), {20, 60}, {5, 15});
}

TEST(ConvergenceRegion, EquilibriumConfigurationIsInside) {
  const CountSimulation sim = equilibrium_sim();
  EXPECT_TRUE(divpp::analysis::in_equilibrium_region(sim, 0.05));
  EXPECT_TRUE(divpp::analysis::in_fine_equilibrium(sim, 1.0));
}

TEST(ConvergenceRegion, SkewedConfigurationIsOutside) {
  const CountSimulation sim(WeightMap({1.0, 3.0}), {79, 1}, {10, 10});
  EXPECT_FALSE(divpp::analysis::in_equilibrium_region(sim, 0.25));
  EXPECT_FALSE(divpp::analysis::in_fine_equilibrium(sim, 0.5));
  EXPECT_THROW(
      (void)divpp::analysis::in_equilibrium_region(sim, 0.0),
      std::invalid_argument);
}

TEST(ConvergenceRegion, AllDarkStartIsOutside) {
  const auto sim =
      CountSimulation::proportional_start(WeightMap({1.0, 3.0}), 100);
  // a = 0 violates the light-total band.
  EXPECT_FALSE(divpp::analysis::in_equilibrium_region(sim, 0.25));
}

TEST(ConvergenceDetection, ReachesRegionOnSmallInstance) {
  auto sim = CountSimulation::equal_start(WeightMap({1.0, 3.0}), 200);
  Xoshiro256 gen(1);
  const std::int64_t entered = divpp::analysis::time_to_equilibrium_region(
      sim, 0.4, 2'000'000, 500, gen);
  ASSERT_GE(entered, 0) << "never entered E(0.4)";
  EXPECT_LT(entered, 2'000'000);
}

TEST(ConvergenceDetection, PersistenceAfterEntry) {
  auto sim = CountSimulation::equal_start(WeightMap({1.0, 1.0}), 300);
  Xoshiro256 gen(2);
  const auto report = divpp::analysis::probe_equilibrium_persistence(
      sim, 0.5, 1'500'000, 1000, gen);
  ASSERT_GE(report.entered, 0);
  // δ = 0.5 is generous: with n = 300 the region should hold to the
  // horizon (Theorem 2.5 promises n^10-scale persistence).
  EXPECT_FALSE(report.exited);
  EXPECT_EQ(report.held_until, 1'500'000);
}

TEST(PotentialEvaluation, MatchesStatsFunctions) {
  const CountSimulation sim = equilibrium_sim();
  EXPECT_NEAR(divpp::analysis::evaluate_potential(
                  sim, divpp::analysis::PotentialKind::kPhi),
              0.0, 1e-9);
  EXPECT_NEAR(divpp::analysis::evaluate_potential(
                  sim, divpp::analysis::PotentialKind::kPsi),
              0.0, 1e-9);
  EXPECT_NEAR(divpp::analysis::evaluate_potential(
                  sim, divpp::analysis::PotentialKind::kSupports),
              0.0, 1e-9);
}

TEST(PotentialDetection, PhiDropsBelowTheoremEnvelope) {
  const WeightMap weights({1.0, 2.0});
  auto sim = CountSimulation::adversarial_start(weights, 400);
  Xoshiro256 gen(3);
  const double threshold =
      divpp::core::theorem28_envelope(400, weights.total(), 2.0);
  const std::int64_t hit = divpp::analysis::time_to_potential_below(
      sim, divpp::analysis::PotentialKind::kPhi, threshold, 4'000'000, 1000,
      gen);
  ASSERT_GE(hit, 0);
}

// ---- phase tracker ---------------------------------------------------------

TEST(PhaseTrackerTest, ParameterValidation) {
  EXPECT_THROW(PhaseTracker(0.0), std::invalid_argument);
  EXPECT_THROW(PhaseTracker(0.3), std::invalid_argument);
  EXPECT_NO_THROW(PhaseTracker(0.1));
}

TEST(PhaseTrackerTest, EquilibriumIsInAllRegions) {
  const PhaseTracker tracker(0.1);
  const CountSimulation sim = equilibrium_sim();
  for (const Region r : {Region::kR1, Region::kS1, Region::kR2, Region::kS2,
                         Region::kS3, Region::kS4})
    EXPECT_TRUE(tracker.contains(sim, r)) << divpp::analysis::region_name(r);
}

TEST(PhaseTrackerTest, AllDarkStartFailsLightRegions) {
  const PhaseTracker tracker(0.1);
  const auto sim =
      CountSimulation::proportional_start(WeightMap({1.0, 3.0}), 100);
  EXPECT_FALSE(tracker.contains(sim, Region::kR1));
  EXPECT_FALSE(tracker.contains(sim, Region::kS1));
  EXPECT_FALSE(tracker.contains(sim, Region::kR2));  // requires S1
}

TEST(PhaseTrackerTest, RegionsAreNested) {
  // R_j ⊆ S_j by construction: any configuration in R1 is in S1, any in
  // R2 is in S2.
  const PhaseTracker tracker(0.05);
  // Slightly depleted light pool: in S1 (2ε slack) but not R1 (ε slack).
  // n=100, W=4: target a = 20; (1−ε)·20 = 19, (1−2ε)·20 = 18.
  const CountSimulation sim(WeightMap({1.0, 3.0}), {21, 61}, {5, 13});
  EXPECT_FALSE(tracker.contains(sim, Region::kR1));  // a = 18 < 19
  EXPECT_TRUE(tracker.contains(sim, Region::kS1));   // a = 18 >= 18
}

TEST(PhaseTrackerTest, ObserveRecordsFirstHitsInOrder) {
  const WeightMap weights({1.0, 2.0});
  auto sim = CountSimulation::adversarial_start(weights, 300);
  PhaseTracker tracker(0.2);
  Xoshiro256 gen(4);
  while (sim.time() < 1'200'000) {
    tracker.observe(sim);
    // S4 (looser dark bound, 4ε) can be reached before R2 (3ε), so wait
    // for both before stopping.
    if (tracker.first_hit(Region::kS4) >= 0 &&
        tracker.first_hit(Region::kR2) >= 0)
      break;
    sim.advance_with(Engine::kJump, sim.time() + 200, gen);
  }
  ASSERT_GE(tracker.first_hit(Region::kR1), 0) << "R1 never reached";
  ASSERT_GE(tracker.first_hit(Region::kR2), 0) << "R2 never reached";
  // The ladder is climbed in order: light pool rises first, then the
  // minorities (Phase 1 narrative).
  EXPECT_LE(tracker.first_hit(Region::kS1), tracker.first_hit(Region::kR2));
  EXPECT_LE(tracker.first_hit(Region::kR1), tracker.first_hit(Region::kR2));
}

TEST(PhaseTrackerTest, RegionNames) {
  EXPECT_EQ(divpp::analysis::region_name(Region::kR1), "R1");
  EXPECT_EQ(divpp::analysis::region_name(Region::kS4), "S4");
}

// ---- fairness tracker ------------------------------------------------------

StepEvent<AgentState> make_event(std::int64_t t, std::int64_t agent,
                                 AgentState before, AgentState after) {
  StepEvent<AgentState> event;
  event.time = t;
  event.initiator = agent;
  event.before = before;
  event.after = after;
  event.transition =
      before == after ? Transition::kNoOp : Transition::kAdopt;
  return event;
}

TEST(FairnessTrackerTest, ExactAccountingOnScriptedTrajectory) {
  // Agent 0: colour 0 on [0, 10), colour 1 on [10, 25).
  // Agent 1: colour 1 throughout [0, 25).
  const std::vector<AgentState> init = {{0, kDark}, {1, kDark}};
  FairnessTracker tracker(init, 2);
  tracker.observe(make_event(10, 0, {0, kDark}, {1, kDark}));
  tracker.finalize(25);
  EXPECT_EQ(tracker.color_time(0, 0), 10);
  EXPECT_EQ(tracker.color_time(0, 1), 15);
  EXPECT_EQ(tracker.color_time(1, 1), 25);
  EXPECT_EQ(tracker.horizon(), 25);
  EXPECT_NEAR(tracker.occupancy_fraction(0, 0), 0.4, 1e-12);
  EXPECT_NEAR(tracker.occupancy_fraction(0, 1), 0.6, 1e-12);
  EXPECT_NEAR(tracker.mean_occupancy(1), (0.6 + 1.0) / 2.0, 1e-12);
}

TEST(FairnessTrackerTest, ObserveChangeMatchesEventAccounting) {
  // The aggregate observe_change entry (PR 5 batched tagged engine) must
  // book exactly the same cell times as the per-event stream: a change
  // at time T switches the state effective at T.
  const std::vector<AgentState> init = {{0, kDark}, {1, kDark}};
  FairnessTracker by_events(init, 2);
  by_events.observe(make_event(10, 0, {0, kDark}, {1, kDark}));
  by_events.observe(make_event(18, 0, {1, kDark}, {1, kLight}));
  by_events.finalize(25);
  FairnessTracker by_changes(init, 2);
  by_changes.observe_change(0, 10, {1, kDark});
  by_changes.observe_change(0, 18, {1, kLight});
  by_changes.finalize(25);
  for (std::int64_t agent = 0; agent < 2; ++agent) {
    for (divpp::core::ColorId c = 0; c < 2; ++c) {
      for (const bool dark : {false, true}) {
        EXPECT_EQ(by_changes.cell_time(agent, c, dark),
                  by_events.cell_time(agent, c, dark))
            << agent << "/" << c << "/" << dark;
      }
    }
  }
}

TEST(FairnessTrackerTest, ObserveChangeValidates) {
  const std::vector<AgentState> init = {{0, kDark}};
  FairnessTracker tracker(init, 2);
  EXPECT_THROW(tracker.observe_change(1, 5, {0, kDark}), std::out_of_range);
  EXPECT_THROW(tracker.observe_change(0, 5, {2, kDark}),
               std::invalid_argument);
  tracker.observe_change(0, 5, {1, kDark});
  EXPECT_THROW(tracker.observe_change(0, 4, {0, kDark}),
               std::invalid_argument);  // out of time order
  tracker.finalize(10);
  EXPECT_THROW(tracker.observe_change(0, 11, {0, kDark}), std::logic_error);
}

TEST(FairnessTrackerTest, ZeroLengthHorizonReportsNoError) {
  // finalize(start_time) leaves nothing accounted: occupancies and both
  // worst-error helpers must report 0 instead of dividing by zero or
  // scoring the fair shares themselves as deviation.
  const std::vector<AgentState> init = {{0, kDark}};
  FairnessTracker tracker(init, 2, 7);
  tracker.finalize(7);
  EXPECT_EQ(tracker.horizon(), 0);
  EXPECT_EQ(tracker.occupancy_fraction(0, 0), 0.0);
  const WeightMap weights({1.0, 3.0});
  EXPECT_EQ(tracker.worst_absolute_error(weights), 0.0);
  EXPECT_EQ(tracker.worst_relative_error(weights), 0.0);
}

TEST(FairnessTrackerTest, TracksShadesSeparately) {
  const std::vector<AgentState> init = {{0, kDark}};
  FairnessTracker tracker(init, 1);
  tracker.observe(make_event(4, 0, {0, kDark}, {0, kLight}));
  tracker.observe(make_event(6, 0, {0, kLight}, {0, kDark}));
  tracker.finalize(10);
  EXPECT_EQ(tracker.cell_time(0, 0, /*dark=*/true), 8);
  EXPECT_EQ(tracker.cell_time(0, 0, /*dark=*/false), 2);
}

TEST(FairnessTrackerTest, ErrorMetricsAgainstWeights) {
  const std::vector<AgentState> init = {{0, kDark}};
  FairnessTracker tracker(init, 2);
  // Stays on colour 0 the whole horizon; fair share of colour 0 is 0.25.
  tracker.finalize(100);
  const WeightMap weights({1.0, 3.0});
  EXPECT_NEAR(tracker.worst_absolute_error(weights), 0.75, 1e-12);
  EXPECT_NEAR(tracker.worst_relative_error(weights), 3.0, 1e-12);
}

TEST(FairnessTrackerTest, RejectsInconsistentEventStream) {
  const std::vector<AgentState> init = {{0, kDark}};
  FairnessTracker tracker(init, 2);
  EXPECT_THROW(
      tracker.observe(make_event(5, 0, {1, kDark}, {0, kDark})),
      std::logic_error);
}

TEST(FairnessTrackerTest, LifecycleErrors) {
  const std::vector<AgentState> init = {{0, kDark}};
  FairnessTracker tracker(init, 1);
  EXPECT_THROW((void)tracker.horizon(), std::logic_error);
  EXPECT_THROW((void)tracker.color_time(0, 0), std::logic_error);
  tracker.finalize(10);
  EXPECT_THROW(tracker.finalize(20), std::logic_error);
  EXPECT_THROW(tracker.observe(make_event(11, 0, {0, kDark}, {0, kLight})),
               std::logic_error);
  EXPECT_THROW((void)tracker.color_time(5, 0), std::out_of_range);
}

TEST(FairnessTrackerTest, NoOpEventsAreCheap) {
  const std::vector<AgentState> init = {{0, kDark}};
  FairnessTracker tracker(init, 1);
  StepEvent<AgentState> event =
      make_event(3, 0, {0, kDark}, {0, kDark});
  event.transition = Transition::kNoOp;
  tracker.observe(event);
  tracker.finalize(10);
  EXPECT_EQ(tracker.color_time(0, 0), 10);
}

// ---- sustainability monitor -------------------------------------------------

TEST(SustainabilityMonitorTest, TracksMinimaAndDeaths) {
  SustainabilityMonitor monitor(3);
  monitor.observe(std::vector<std::int64_t>{5, 3, 1}, 0);
  monitor.observe(std::vector<std::int64_t>{4, 0, 2}, 7);
  monitor.observe(std::vector<std::int64_t>{4, 1, 2}, 9);
  EXPECT_EQ(monitor.min_count(0), 4);
  EXPECT_EQ(monitor.min_count(1), 0);
  EXPECT_EQ(monitor.min_count_ever(), 0);
  EXPECT_EQ(monitor.death_time(1), 7);
  EXPECT_EQ(monitor.death_time(0), -1);
  EXPECT_EQ(monitor.colors_died(), 1);
  EXPECT_FALSE(monitor.sustained());
}

TEST(SustainabilityMonitorTest, SustainedWhenNoDeath) {
  SustainabilityMonitor monitor(2);
  monitor.observe(std::vector<std::int64_t>{2, 2}, 0);
  monitor.observe(std::vector<std::int64_t>{1, 3}, 1);
  EXPECT_TRUE(monitor.sustained());
  EXPECT_EQ(monitor.min_count_ever(), 1);
}

TEST(SustainabilityMonitorTest, Validation) {
  EXPECT_THROW(SustainabilityMonitor(0), std::invalid_argument);
  SustainabilityMonitor monitor(2);
  EXPECT_THROW(monitor.observe(std::vector<std::int64_t>{1}, 0),
               std::invalid_argument);
  EXPECT_THROW((void)monitor.min_count(5), std::out_of_range);
  EXPECT_THROW((void)monitor.death_time(-1), std::out_of_range);
}

TEST(SustainabilityIntegration, DiversificationNeverKillsDarkSupport) {
  const WeightMap weights({1.0, 2.0});
  auto sim = CountSimulation::adversarial_start(weights, 100);
  SustainabilityMonitor monitor(2);
  Xoshiro256 gen(5);
  for (int burst = 0; burst < 200; ++burst) {
    sim.advance_with(Engine::kJump, sim.time() + 1000, gen);
    monitor.observe(sim.dark_counts(), sim.time());
  }
  EXPECT_TRUE(monitor.sustained());
  EXPECT_GE(monitor.min_count_ever(), 1);
}

}  // namespace
