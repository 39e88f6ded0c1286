// Tests for the resilient scenario-sweep runtime (PR 8): mixed-n
// multiplexing with values bit-identical to dedicated runs, context
// admission rejection under a memory budget, per-scenario fault
// isolation (a crashing scenario quarantines alone and everyone else's
// JSON is byte-identical to the fault-free sweep), self-healing (random
// crashes at any thread count, torn checkpoints, deadline overruns,
// quarantine after max_retries), never resuming a checkpoint an earlier
// sweep left behind, graceful drain with manifest resume, checkpoint
// cleanup, and backpressure.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/count_simulation.h"
#include "core/weights.h"
#include "fault/durable_file.h"
#include "fault/fault.h"
#include "io/json.h"
#include "rng/xoshiro.h"
#include "runtime/durable_runner.h"
#include "runtime/supervisor.h"
#include "runtime/sweep_runner.h"

namespace {

using divpp::core::CountSimulation;
using divpp::core::Engine;
using divpp::core::WeightMap;
using divpp::fault::FaultKind;
using divpp::fault::FaultSchedule;
using divpp::fault::FaultSpec;
using divpp::io::json_quote;
using divpp::rng::Xoshiro256;
using divpp::runtime::DurableRunConfig;
using divpp::runtime::run_windows;
using divpp::runtime::ScenarioOutcome;
using divpp::runtime::ScenarioReport;
using divpp::runtime::ScenarioSpec;
using divpp::runtime::SweepOptions;
using divpp::runtime::SweepResult;
using divpp::runtime::SweepRunner;
using divpp::runtime::wire::encode_run;

constexpr std::int64_t kPeriod = 1000;

double min_dark_statistic(const CountSimulation& sim) {
  return static_cast<double>(sim.min_dark());
}

ScenarioSpec scenario(const std::string& name, std::int64_t n,
                      std::uint64_t seed, std::int64_t target,
                      Engine engine = Engine::kBatch) {
  ScenarioSpec spec;
  spec.name = name;
  spec.n = n;
  spec.weights = WeightMap({1.0, 2.0, 3.0});
  spec.start = ScenarioSpec::Start::kProportional;
  spec.engine = engine;
  spec.target_time = target;
  spec.seed = seed;
  return spec;
}

/// A varied scenario list: mixed populations (including sub-64 ones the
/// batch engine serves via its step fallback), engines, and targets.
std::vector<ScenarioSpec> mixed_specs(int count) {
  const std::vector<std::int64_t> populations{40, 150, 400, 1000, 2500};
  const std::vector<Engine> engines{Engine::kBatch, Engine::kAuto,
                                    Engine::kJump};
  std::vector<ScenarioSpec> specs;
  specs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const auto u = static_cast<std::size_t>(i);
    specs.push_back(scenario(
        "scenario-" + std::to_string(i), populations[u % populations.size()],
        /*seed=*/1000 + static_cast<std::uint64_t>(i),
        /*target=*/3500 + 500 * static_cast<std::int64_t>(i % 3),
        engines[u % engines.size()]));
  }
  return specs;
}

/// The dedicated (non-multiplexed) reference: same start, same engine,
/// same seed, same checkpoint period — what the sweep must reproduce
/// bit-for-bit.
double dedicated_value(const ScenarioSpec& spec) {
  CountSimulation sim =
      CountSimulation::proportional_start(spec.weights, spec.n);
  Xoshiro256 gen(spec.seed);
  DurableRunConfig config;
  config.engine = spec.engine;
  config.target_time = spec.target_time;
  config.checkpoint_period = kPeriod;
  run_windows(sim, gen, config);
  return min_dark_statistic(sim);
}

SweepOptions sweep_options(int threads) {
  // Every test runs under an explicit schedule (empty by default, the
  // fault tests override it) so a hostile DIVPP_FAULT_SPEC in the
  // environment — the CI fault-injection job sets one — cannot leak
  // into the sweep through the nullptr-means-global() fallback.
  static const FaultSchedule no_env_faults;
  SweepOptions options;
  options.threads = threads;
  options.checkpoint_period = kPeriod;
  options.backoff_initial_ms = 0.0;  // tests need no real backoff waits
  options.faults = &no_env_faults;
  return options;
}

TEST(Sweep, ValidatesOptionsAndSpecs) {
  EXPECT_THROW(SweepRunner(SweepOptions{}), std::invalid_argument);
  SweepRunner runner(sweep_options(2));
  std::vector<ScenarioSpec> bad{scenario("tiny", 1, 1, 100)};
  EXPECT_THROW((void)runner.run(bad, min_dark_statistic),
               std::invalid_argument);
  EXPECT_THROW((void)runner.run({}, nullptr), std::invalid_argument);
  EXPECT_THROW((void)runner.resume({}, min_dark_statistic),
               std::invalid_argument)
      << "resume without a sweep_dir has nothing to resume from";
}

TEST(Sweep, MixedScenariosMatchDedicatedRunsBitForBit) {
  const std::vector<ScenarioSpec> specs = mixed_specs(20);
  SweepRunner runner(sweep_options(4));
  const SweepResult result = runner.run(specs, min_dark_statistic);

  ASSERT_EQ(result.scenarios.size(), specs.size());
  EXPECT_EQ(result.completed, static_cast<std::int64_t>(specs.size()));
  EXPECT_EQ(result.quarantined, 0);
  EXPECT_EQ(result.rejected, 0);
  EXPECT_EQ(result.drained, 0);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ScenarioReport& report = result.scenarios[i];
    EXPECT_EQ(report.name, specs[i].name);
    EXPECT_EQ(report.outcome, ScenarioOutcome::kOk) << report.error;
    EXPECT_EQ(report.value, dedicated_value(specs[i]))
        << "scenario " << specs[i].name;
    EXPECT_NE(report.json.find(specs[i].name), std::string::npos);
  }
  // 20 scenarios share 5 (n, k, w) keys: the cache built each key once.
  EXPECT_EQ(runner.context_stats().misses, 5);
  EXPECT_EQ(runner.context_stats().hits, 15);
}

TEST(Sweep, OversizedScenarioIsRejectedNotRun) {
  std::vector<ScenarioSpec> specs = mixed_specs(4);
  specs.push_back(scenario("giant", 50'000'000, 9, 2000));
  SweepOptions options = sweep_options(2);
  // Budget fits the small contexts, never the giant's ~O(√n) tables.
  options.context_budget_bytes = std::size_t{1} << 16;  // 64 KiB
  SweepRunner runner(options);
  const SweepResult result = runner.run(specs, min_dark_statistic);

  EXPECT_EQ(result.completed, 4);
  EXPECT_EQ(result.rejected, 1);
  const ScenarioReport& giant = result.scenarios.back();
  EXPECT_EQ(giant.outcome, ScenarioOutcome::kRejected);
  EXPECT_NE(giant.error.find("budget"), std::string::npos) << giant.error;
  // Rejection is structured refusal, not a crash: the rest completed
  // with dedicated-run values.
  for (std::size_t i = 0; i + 1 < specs.size(); ++i)
    EXPECT_EQ(result.scenarios[i].value, dedicated_value(specs[i]));
}

TEST(Sweep, FaultIsolationQuarantinesOnlyTheTargetedScenario) {
  const std::vector<ScenarioSpec> specs = mixed_specs(8);

  // Reference: the fault-free sweep.
  const FaultSchedule none;
  SweepOptions clean_options = sweep_options(2);
  clean_options.faults = &none;
  const SweepResult clean =
      SweepRunner(clean_options).run(specs, min_dark_statistic);
  ASSERT_EQ(clean.completed, 8);

  // Crash scenario 2 at its second boundary with no retries: it must be
  // quarantined, everyone else byte-identical to the clean sweep.
  FaultSpec crash;
  crash.kind = FaultKind::kCrash;
  crash.at_window = 1;
  crash.replica = 2;
  const FaultSchedule one_crash({crash});
  SweepOptions options = sweep_options(2);
  options.faults = &one_crash;
  options.max_retries = 0;
  const SweepResult result =
      SweepRunner(options).run(specs, min_dark_statistic);

  EXPECT_EQ(result.quarantined, 1);
  EXPECT_EQ(result.completed, 7);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (i == 2) {
      EXPECT_EQ(result.scenarios[i].outcome, ScenarioOutcome::kQuarantined);
      EXPECT_FALSE(result.scenarios[i].error.empty());
      EXPECT_TRUE(result.scenarios[i].json.empty());
    } else {
      EXPECT_EQ(result.scenarios[i].outcome, ScenarioOutcome::kOk);
      EXPECT_EQ(result.scenarios[i].json, clean.scenarios[i].json)
          << "scenario " << i << " must be byte-identical to the "
          << "fault-free sweep";
    }
  }

  // With a retry allowed the same crash self-heals bit-identically.
  const FaultSchedule crash_again({crash});
  options.faults = &crash_again;
  options.max_retries = 2;
  const SweepResult healed =
      SweepRunner(options).run(specs, min_dark_statistic);
  EXPECT_EQ(healed.completed, 8);
  EXPECT_EQ(healed.scenarios[2].outcome, ScenarioOutcome::kRecovered);
  EXPECT_EQ(healed.scenarios[2].json, clean.scenarios[2].json);
}

TEST(Sweep, DrainMidSweepThenResumeFinishesBitIdentically) {
  const std::vector<ScenarioSpec> specs = mixed_specs(24);
  const std::string dir = ::testing::TempDir() + "divpp_sweep_drain";
  std::filesystem::remove_all(dir);

  // Reference values from dedicated runs.
  std::map<std::string, double> reference;
  for (const ScenarioSpec& spec : specs)
    reference[spec.name] = dedicated_value(spec);

  SweepOptions options = sweep_options(2);
  options.sweep_dir = dir;
  SweepRunner runner(options);
  // Drain from inside the sweep, deterministically: after the fifth
  // completed statistic, request a graceful stop.
  std::atomic<int> done{0};
  const SweepRunner::Statistic draining_statistic =
      [&](const CountSimulation& sim) {
        if (done.fetch_add(1) + 1 == 5) runner.request_drain();
        return min_dark_statistic(sim);
      };
  const SweepResult first = runner.run(specs, draining_statistic);

  EXPECT_TRUE(first.drain_requested);
  EXPECT_GE(first.completed, 5);
  EXPECT_GE(first.drained, 1) << "24 scenarios on 2 threads: the drain "
                                 "must catch some of them";
  EXPECT_EQ(first.completed + first.drained,
            static_cast<std::int64_t>(specs.size()));
  for (const ScenarioReport& report : first.scenarios) {
    if (report.outcome == ScenarioOutcome::kOk ||
        report.outcome == ScenarioOutcome::kRecovered) {
      EXPECT_EQ(report.value, reference[report.name]);
    }
  }

  // Resume finishes the drained scenarios — values bit-identical to the
  // dedicated runs, finished ones kept from the manifest.
  const SweepResult second = runner.resume(specs, min_dark_statistic);
  EXPECT_EQ(second.completed, static_cast<std::int64_t>(specs.size()));
  EXPECT_EQ(second.drained, 0);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ScenarioReport& report = second.scenarios[i];
    EXPECT_EQ(report.value, reference[report.name])
        << "scenario " << report.name;
    EXPECT_FALSE(report.json.empty());
  }
}

TEST(Sweep, ResumeRefusesMismatchedSpecs) {
  // A manifest is another sweep's record unless the scenario count and
  // every deterministic field of every spec match: resuming under a new
  // seed must not report the old seed's value as this seed's result.
  const std::vector<ScenarioSpec> specs = mixed_specs(3);
  const std::string dir = ::testing::TempDir() + "divpp_sweep_mismatch";
  std::filesystem::remove_all(dir);
  SweepOptions options = sweep_options(2);
  options.sweep_dir = dir;
  SweepRunner runner(options);
  const SweepResult original = runner.run(specs, min_dark_statistic);
  ASSERT_EQ(original.completed, 3);

  std::atomic<int> executed{0};
  const SweepRunner::Statistic counting = [&](const CountSimulation& sim) {
    executed.fetch_add(1);
    return min_dark_statistic(sim);
  };
  const auto mutated = [&](auto&& change) {
    std::vector<ScenarioSpec> copy = specs;
    change(copy);
    return copy;
  };
  const struct {
    const char* what;
    std::vector<ScenarioSpec> specs;
  } others[] = {
      {"name", mutated([](auto& s) { s[1].name = "imposter"; })},
      {"count", mutated([](auto& s) { s.pop_back(); })},
      {"seed", mutated([](auto& s) { s[1].seed = 99; })},
      {"population", mutated([](auto& s) { ++s[1].n; })},
      {"target", mutated([](auto& s) { ++s[1].target_time; })},
      {"engine", mutated([](auto& s) { s[1].engine = Engine::kStep; })},
      {"start", mutated([](auto& s) {
         s[1].start = ScenarioSpec::Start::kEqual;
       })},
      {"palette", mutated([](auto& s) {
         s[1].weights = WeightMap({1.0, 2.0, 3.0000000000000004});
       })},
  };
  for (const auto& other : others) {
    EXPECT_THROW((void)runner.resume(other.specs, counting),
                 std::invalid_argument)
        << "a different " << other.what << " was resumed as the same sweep";
  }
  EXPECT_EQ(executed.load(), 0);

  // The matching specs still resume, keeping the recorded results.
  const SweepResult resumed = runner.resume(specs, counting);
  EXPECT_EQ(executed.load(), 0);
  for (std::size_t i = 0; i < specs.size(); ++i)
    EXPECT_EQ(resumed.scenarios[i].json, original.scenarios[i].json);
}

TEST(Sweep, CleanupOnSuccessKeepsTheQuarantinedCheckpoint) {
  const std::vector<ScenarioSpec> specs = mixed_specs(6);
  const std::string dir = ::testing::TempDir() + "divpp_sweep_cleanup";
  std::filesystem::remove_all(dir);

  FaultSpec crash;
  crash.kind = FaultKind::kCrash;
  crash.at_window = 1;
  crash.replica = 3;
  const FaultSchedule schedule({crash});
  SweepOptions options = sweep_options(2);
  options.sweep_dir = dir;
  options.cleanup_on_success = true;
  options.max_retries = 0;
  options.faults = &schedule;
  const SweepResult result =
      SweepRunner(options).run(specs, min_dark_statistic);

  ASSERT_EQ(result.quarantined, 1);
  ASSERT_EQ(result.scenarios[3].outcome, ScenarioOutcome::kQuarantined);
  EXPECT_TRUE(std::filesystem::exists(dir + "/scenario_3.ckpt"))
      << "quarantine must keep the post-mortem checkpoint";
  for (const std::size_t i : {0u, 1u, 2u, 4u, 5u})
    EXPECT_FALSE(std::filesystem::exists(dir + "/scenario_" +
                                         std::to_string(i) + ".ckpt"))
        << "completed scenario " << i << " must be cleaned up";
  EXPECT_TRUE(std::filesystem::exists(dir + "/sweep.manifest"));
}

TEST(Sweep, RepeatedFailuresQuarantineAndKeepTheCheckpoint) {
  const std::vector<ScenarioSpec> specs{scenario("doomed", 200, 21, 3000),
                                        scenario("fine", 200, 22, 3000)};
  const std::string dir = ::testing::TempDir() + "divpp_sweep_doomed";
  std::filesystem::remove_all(dir);
  // One injected exception per window: attempts 1, 2, 3 die at windows
  // 0, 1, 2 (each resume starts past the previous window) and the
  // scenario runs out of retries.
  std::vector<FaultSpec> faults;
  for (std::int64_t w = 0; w < 3; ++w) {
    FaultSpec spec;
    spec.kind = FaultKind::kException;
    spec.at_window = w;
    spec.replica = 0;
    faults.push_back(spec);
  }
  const FaultSchedule schedule(faults);
  SweepOptions options = sweep_options(1);
  options.sweep_dir = dir;
  options.max_retries = 2;
  options.faults = &schedule;
  const SweepResult result =
      SweepRunner(options).run(specs, min_dark_statistic);

  EXPECT_EQ(result.quarantined, 1);
  EXPECT_EQ(result.completed, 1);
  const ScenarioReport& doomed = result.scenarios[0];
  EXPECT_EQ(doomed.outcome, ScenarioOutcome::kQuarantined);
  EXPECT_EQ(doomed.attempts, 3);
  EXPECT_EQ(doomed.resumes, 2);
  EXPECT_NE(doomed.error.find("injected exception"), std::string::npos)
      << doomed.error;
  EXPECT_TRUE(std::filesystem::exists(dir + "/scenario_0.ckpt"))
      << "quarantine must keep the post-mortem checkpoint";
  EXPECT_EQ(result.scenarios[1].outcome, ScenarioOutcome::kOk);
  EXPECT_EQ(result.scenarios[1].value, dedicated_value(specs[1]));
}

TEST(Sweep, TornCheckpointFallsBackToFromScratchRestart) {
  const std::vector<ScenarioSpec> specs{scenario("torn", 200, 11, 3000)};
  const std::string dir = ::testing::TempDir() + "divpp_sweep_torn";
  std::filesystem::remove_all(dir);
  // Tear the very checkpoint the crash leaves behind: the retry must
  // detect the torn file and restart from scratch, never load it.
  FaultSpec torn;
  torn.kind = FaultKind::kTornWrite;
  torn.at_window = 2;
  FaultSpec crash;
  crash.kind = FaultKind::kCrash;
  crash.at_window = 2;
  const FaultSchedule schedule({torn, crash});
  SweepOptions options = sweep_options(1);
  options.sweep_dir = dir;
  options.faults = &schedule;
  const SweepResult result =
      SweepRunner(options).run(specs, min_dark_statistic);

  ASSERT_EQ(result.completed, 1);
  const ScenarioReport& report = result.scenarios[0];
  EXPECT_EQ(report.outcome, ScenarioOutcome::kRecovered);
  EXPECT_EQ(report.attempts, 2);
  EXPECT_EQ(report.resumes, 0) << "a torn checkpoint must not be resumed";
  EXPECT_EQ(report.value, dedicated_value(specs[0]));
}

TEST(Sweep, DeadlineOverrunIsRetriedAndRecovers) {
  const std::vector<ScenarioSpec> specs{scenario("stall", 200, 31, 3000)};
  const std::string dir = ::testing::TempDir() + "divpp_sweep_deadline";
  std::filesystem::remove_all(dir);
  // One 300 ms stall against a 50 ms deadline: attempt 1 overruns (the
  // cooperative check sees it at the next boundary), the retry runs
  // stall-free from the last checkpoint.
  FaultSpec latency;
  latency.kind = FaultKind::kLatency;
  latency.at_window = 0;
  latency.latency_us = 300'000;
  const FaultSchedule schedule({latency});
  SweepOptions options = sweep_options(1);
  options.sweep_dir = dir;
  options.scenario_deadline_seconds = 0.05;
  options.faults = &schedule;
  const SweepResult result =
      SweepRunner(options).run(specs, min_dark_statistic);

  ASSERT_EQ(result.completed, 1);
  const ScenarioReport& report = result.scenarios[0];
  EXPECT_EQ(report.outcome, ScenarioOutcome::kRecovered);
  EXPECT_GE(report.resumes, 1);
  EXPECT_NE(report.error.find("deadline"), std::string::npos)
      << report.error;
  EXPECT_EQ(report.value, dedicated_value(specs[0]));
}

TEST(Sweep, RandomCrashesHealBitIdenticallyAtAnyThreadCount) {
  const std::vector<ScenarioSpec> specs = mixed_specs(6);
  const SweepResult clean =
      SweepRunner(sweep_options(1)).run(specs, min_dark_statistic);
  ASSERT_EQ(clean.completed, 6);

  for (const int threads : {1, 3}) {
    // A fresh schedule per sweep: each spec fires once per schedule.
    const FaultSchedule crashes = FaultSchedule::random_crashes(
        /*seed=*/5, /*count=*/4, /*max_window=*/3, /*num_replicas=*/6);
    SweepOptions options = sweep_options(threads);
    options.faults = &crashes;
    const SweepResult result =
        SweepRunner(options).run(specs, min_dark_statistic);
    EXPECT_EQ(result.completed, 6) << threads << " threads";
    EXPECT_EQ(result.quarantined, 0);
    EXPECT_GE(result.recovered, 1) << "no crash actually fired";
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(result.scenarios[i].value, clean.scenarios[i].value)
          << "scenario " << i << " at " << threads << " threads";
      EXPECT_EQ(result.scenarios[i].json, clean.scenarios[i].json);
    }
  }
}

TEST(Sweep, RunNeverResumesFromAnEarlierSweepsCheckpoint) {
  // Sweeps reuse one directory, and cleanup_on_success is off by
  // default, so scenario_0.ckpt outlives the sweep that wrote it.
  const std::string dir = ::testing::TempDir() + "divpp_sweep_stale";
  std::filesystem::remove_all(dir);
  SweepOptions options = sweep_options(1);
  options.sweep_dir = dir;
  SweepRunner runner(options);
  const SweepResult earlier =
      runner.run({scenario("earlier", 500, 3, 8000)}, min_dark_statistic);
  ASSERT_EQ(earlier.completed, 1);
  ASSERT_TRUE(std::filesystem::exists(dir + "/scenario_0.ckpt"));

  // A target-0 scenario writes no boundary checkpoint, so when its
  // statistic fails once, the retry finds only the earlier sweep's
  // file.  It must start from scratch, not from that foreign state.
  const ScenarioSpec fresh = scenario("fresh", 200, 4, 0);
  std::atomic<bool> failed_once{false};
  const SweepRunner::Statistic flaky = [&](const CountSimulation& sim) {
    if (!failed_once.exchange(true))
      throw std::runtime_error("statistic failed once");
    return min_dark_statistic(sim);
  };
  const SweepResult result = runner.run({fresh}, flaky);

  ASSERT_EQ(result.scenarios.size(), 1U);
  const ScenarioReport& report = result.scenarios[0];
  EXPECT_EQ(report.outcome, ScenarioOutcome::kRecovered) << report.error;
  EXPECT_EQ(report.attempts, 2);
  EXPECT_EQ(report.resumes, 0);
  EXPECT_EQ(report.value,
            min_dark_statistic(CountSimulation::proportional_start(
                fresh.weights, fresh.n)));
}

TEST(Sweep, ResumeNeverContinuesAnEarlierSweepsCheckpoint) {
  const std::string dir = ::testing::TempDir() + "divpp_sweep_stale_drain";
  std::filesystem::remove_all(dir);
  SweepOptions options = sweep_options(1);
  options.sweep_dir = dir;
  options.admission_capacity = 1;
  SweepRunner runner(options);
  const SweepResult earlier =
      runner.run({scenario("earlier-0", 500, 5, 8000),
                  scenario("earlier-1", 500, 6, 8000)},
                 min_dark_statistic);
  ASSERT_EQ(earlier.completed, 2);
  ASSERT_TRUE(std::filesystem::exists(dir + "/scenario_1.ckpt"));

  // One thread takes scenario 0 first, and its statistic drains the
  // sweep, so scenario 1 is dropped from the queue before it starts.
  // resume() must then run it from scratch: the earlier sweep's state
  // is a different simulation, and its clock is behind the new target.
  const std::vector<ScenarioSpec> specs{scenario("later-0", 200, 7, 3000),
                                        scenario("later-1", 200, 8, 9000)};
  const SweepRunner::Statistic draining = [&](const CountSimulation& sim) {
    runner.request_drain();
    return min_dark_statistic(sim);
  };
  const SweepResult first = runner.run(specs, draining);
  ASSERT_EQ(first.scenarios[1].outcome, ScenarioOutcome::kDrained);
  ASSERT_EQ(first.scenarios[1].attempts, 0);

  const SweepResult second = runner.resume(specs, min_dark_statistic);
  EXPECT_EQ(second.completed, 2);
  EXPECT_EQ(second.scenarios[1].resumes, 0);
  EXPECT_EQ(second.scenarios[1].value, dedicated_value(specs[1]));
}

TEST(Sweep, CorruptManifestsAreRefusedNeverHalfResumed) {
  // PR 9 satellite: a damaged manifest must be a clean, structured
  // refusal — std::invalid_argument before ANY scenario re-runs — for
  // every truncation point and for a table of field mutations.  All
  // corrupted payloads are re-written through write_durable so their
  // CRC is valid: these must be caught by the parser, not the framing.
  const std::vector<ScenarioSpec> specs = mixed_specs(4);
  const std::string dir = ::testing::TempDir() + "divpp_sweep_corrupt";
  std::filesystem::remove_all(dir);
  SweepOptions options = sweep_options(2);
  options.sweep_dir = dir;
  SweepRunner runner(options);
  const SweepResult original = runner.run(specs, min_dark_statistic);
  ASSERT_EQ(original.completed, 4);

  const std::string manifest = dir + "/sweep.manifest";
  const std::string text = divpp::fault::read_durable(manifest);

  // Any execution during a refused resume would be a half-resume.
  std::atomic<int> executed{0};
  const SweepRunner::Statistic counting = [&](const CountSimulation& sim) {
    executed.fetch_add(1);
    return min_dark_statistic(sim);
  };
  const auto expect_refused = [&](const std::string& corrupted,
                                  const std::string& what) {
    divpp::fault::write_durable(manifest, corrupted);
    EXPECT_THROW((void)runner.resume(specs, counting), std::invalid_argument)
        << what;
    EXPECT_EQ(executed.load(), 0) << "half-resumed after " << what;
  };

  // Every truncation point.  The single benign prefix — dropping only
  // the final newline — parses identically and is asserted below.
  const std::string sans_newline = text.substr(0, text.size() - 1);
  for (std::size_t keep = 0; keep < text.size(); ++keep) {
    const std::string prefix = text.substr(0, keep);
    if (prefix == sans_newline) continue;
    expect_refused(prefix, "truncation at byte " + std::to_string(keep));
  }
  divpp::fault::write_durable(manifest, sans_newline);
  const SweepResult intact = runner.resume(specs, counting);
  EXPECT_EQ(executed.load(), 0);
  for (std::size_t i = 0; i < specs.size(); ++i)
    EXPECT_EQ(intact.scenarios[i].json, original.scenarios[i].json);

  // Field-mutation table.  Lines: [0] header, [1..4] scenarios, [5] end.
  std::vector<std::string> lines;
  for (std::size_t begin = 0; begin < text.size();) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  ASSERT_EQ(lines.size(), 6U);
  const auto with_line = [&](std::size_t index, const std::string& line) {
    std::vector<std::string> mutated = lines;
    mutated[index] = line;
    std::string out;
    for (const std::string& l : mutated) out += l + "\n";
    return out;
  };
  // Scenario 0's recorded spec: its run-command encoding, json-quoted.
  const auto quoted_spec = [](const ScenarioSpec& spec) {
    return json_quote(encode_run(0, /*resuming=*/false, spec));
  };
  const std::string spec0 = quoted_spec(specs[0]);
  ScenarioSpec imposter = specs[0];
  imposter.name = "imposter";
  const struct {
    const char* what;
    std::string payload;
  } mutations[] = {
      {"wrong format version", with_line(0, "divpp-sweep-v1 4")},
      {"wrong scenario count", with_line(0, "divpp-sweep-v2 5")},
      {"garbage header", with_line(0, "divpp")},
      {"wrong line keyword", with_line(1, "scenariox 0 ok 1 0 0x0p+0 " +
                                              spec0 + " \"\"")},
      {"wrong scenario index", with_line(1, "scenario 9 ok 1 0 0x0p+0 " +
                                                spec0 + " \"\"")},
      {"unknown status", with_line(1, "scenario 0 exploded 1 0 0x0p+0 " +
                                          spec0 + " \"\"")},
      {"negative attempts", with_line(1, "scenario 0 ok -1 0 0x0p+0 " +
                                             spec0 + " \"\"")},
      {"non-numeric attempts", with_line(1, "scenario 0 ok abc 0 0x0p+0 " +
                                                spec0 + " \"\"")},
      {"bad value hexfloat", with_line(1, "scenario 0 ok 1 0 zzz " + spec0 +
                                              " \"\"")},
      {"unterminated spec quote",
       with_line(1, "scenario 0 ok 1 0 0x0p+0 " +
                        spec0.substr(0, spec0.size() - 1) + " \"\"")},
      {"name of a different sweep",
       with_line(1, "scenario 0 ok 1 0 0x0p+0 " + quoted_spec(imposter) +
                        " \"\"")},
      {"trailing junk on a scenario line", with_line(1, lines[1] + " junk")},
      {"missing end marker", with_line(5, "End")},
      {"trailing junk after end", text + "junk\n"},
      {"duplicated scenario line", with_line(2, lines[1])},
  };
  for (const auto& mutation : mutations)
    expect_refused(mutation.payload, mutation.what);

  // Raw (unframed) garbage never even reaches the parser: the durable
  // layer rejects it as a torn/corrupt file.
  {
    std::ofstream out(manifest, std::ios::binary | std::ios::trunc);
    out << "not a durable blob";
  }
  EXPECT_THROW((void)runner.resume(specs, counting),
               divpp::fault::DurableFileError);
  EXPECT_EQ(executed.load(), 0);
}

TEST(Sweep, BackpressureBoundsTheQueueAndStillCompletes) {
  const std::vector<ScenarioSpec> specs = mixed_specs(30);
  SweepOptions options = sweep_options(2);
  options.admission_capacity = 2;  // far below the scenario count
  const SweepResult result =
      SweepRunner(options).run(specs, min_dark_statistic);
  EXPECT_EQ(result.completed, static_cast<std::int64_t>(specs.size()));
  for (std::size_t i = 0; i < specs.size(); ++i)
    EXPECT_EQ(result.scenarios[i].value, dedicated_value(specs[i]));
}

}  // namespace
