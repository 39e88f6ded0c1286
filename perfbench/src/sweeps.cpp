// The sweep workload: 4000 short auto-engine scenarios on an in-process
// SweepRunner with in-memory checkpoints.  Its traced run also runs the
// first kDurableScenarios on a durable store inside the checkout, in
// process and on forked, supervised workers, with one checkpoint per
// scenario.  On a disk store every durable write costs two fsyncs,
// whose jitter would swamp a timed end-to-end sweep (see README).

#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "context/sampler_context.h"
#include "core/checkpoint.h"
#include "core/count_simulation.h"
#include "fault/durable_file.h"
#include "fault/fault.h"
#include "rng/xoshiro.h"
#include "runtime/supervisor.h"
#include "runtime/sweep_runner.h"

#include "provenance.h"
#include "reference.h"
#include "workloads.h"

namespace perfbench {
namespace {

using divpp::core::CountSimulation;
using divpp::core::Engine;
using divpp::core::WeightMap;
using divpp::rng::Xoshiro256;
using divpp::runtime::ScenarioOutcome;
using divpp::runtime::ScenarioReport;
using divpp::runtime::ScenarioSpec;
using divpp::runtime::SweepOptions;
using divpp::runtime::SweepResult;

/// Checkpoint stores live here, relative to the checkout root.
constexpr const char* kScratchDir = ".perfbench_tmp";
constexpr std::size_t kScenarios = 4000;
/// Set-up warms the context cache and the log-factorial table with a
/// sweep of this many scenarios, because the first sweep in a process
/// is the slowest.
constexpr std::size_t kWarmupScenarios = 200;
constexpr std::array<std::int64_t, 4> kSizes{256, 1024, 4096, 16384};
constexpr std::int64_t kTargetPerAgent = 16;
constexpr std::int64_t kCheckpointPeriod = 4096;
/// The durable sweeps (traced run only) run the first this many specs
/// with one checkpoint per scenario, at its target: the period is the
/// largest target.
constexpr std::size_t kDurableScenarios = 1000;
constexpr std::int64_t kDurablePeriod = kTargetPerAgent * kSizes.back();
/// Interleaved pairs of an in-process and a supervised durable sweep
/// behind supervisor.overhead_frac.
constexpr int kOverheadPairs = 5;
constexpr int kMinSweeps = 3;
/// An untraced run times this many reference steps on every worker
/// thread before and after each sweep (~5 ms).
constexpr std::int64_t kReferenceSteps = 1'000'000;

std::vector<ScenarioSpec> make_specs(std::uint64_t seed) {
  const std::array<WeightMap, 3> palettes{WeightMap({1.0, 2.0}),
                                          WeightMap({1.0, 1.0, 2.0, 4.0}),
                                          default_palette()};
  Xoshiro256 gen(derive_seed(seed, 3));
  std::vector<ScenarioSpec> specs(kScenarios);
  for (std::size_t i = 0; i < kScenarios; ++i) {
    ScenarioSpec& spec = specs[i];
    spec.name = 's';
    spec.name += std::to_string(i);
    // Every 12 consecutive scenarios hold each (n, palette) pair once,
    // so the work of a sweep, and of any prefix of it, is the same for
    // every seed.
    spec.n = kSizes[i % kSizes.size()];
    spec.weights = palettes[(i / kSizes.size()) % palettes.size()];
    spec.start = i % 5 == 4 ? ScenarioSpec::Start::kAdversarial
                            : ScenarioSpec::Start::kProportional;
    spec.engine = Engine::kAuto;
    spec.target_time = kTargetPerAgent * spec.n;
    spec.seed = gen();
  }
  return specs;
}

CountSimulation initial_state(const ScenarioSpec& spec) {
  return spec.start == ScenarioSpec::Start::kAdversarial
             ? CountSimulation::adversarial_start(spec.weights, spec.n)
             : CountSimulation::proportional_start(spec.weights, spec.n);
}

/// L1 distance of the supports from the fair shares w_i n / W, as a
/// share of n; -1 when the final state breaks conservation or
/// sustainability.  Crosses the worker pipe as a hexfloat, so the
/// supervised transport reports it too.
double sweep_statistic(const CountSimulation& sim) {
  std::int64_t total = 0;
  for (const std::int64_t c : sim.supports()) total += c;
  if (total != sim.n() || sim.min_dark() < 1) return -1.0;
  const double n = static_cast<double>(sim.n());
  const double w_total = sim.weights().total();
  double distance = 0.0;
  for (std::int64_t i = 0; i < sim.num_colors(); ++i)
    distance += std::abs(static_cast<double>(sim.support(i)) -
                         sim.weights().weight(i) * n / w_total) /
                n;
  return distance;
}

/// An explicit empty schedule: SweepOptions::faults == nullptr would
/// fall back to the DIVPP_FAULT_SPEC environment variable.
const divpp::fault::FaultSchedule& no_faults() {
  static const divpp::fault::FaultSchedule none;
  return none;
}

int worker_count() { return std::min(4, available_cpus()); }

SweepOptions in_memory_options() {
  SweepOptions options;
  options.threads = worker_count();
  options.checkpoint_period = kCheckpointPeriod;
  options.faults = &no_faults();
  return options;
}

SweepOptions durable_options(const std::string& dir, bool supervised) {
  SweepOptions options = in_memory_options();
  options.checkpoint_period = kDurablePeriod;
  options.sweep_dir = dir;
  options.supervision.enabled = supervised;
  options.supervision.workers = worker_count();
  return options;
}

std::string filesystem_type(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return hex;
    }
  }
}

/// The run's checkpoint store, created on construction and removed
/// (with the scratch directory, once empty) however the run ends.
class Store {
 public:
  explicit Store(const std::string& workload)
      : path_(std::string(kScratchDir) + "/" + workload + "-" +
              std::to_string(::getpid())) {
    std::filesystem::create_directories(path_);
  }
  ~Store() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
    std::filesystem::remove(kScratchDir, ignored);
  }
  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// Wall time of a sweep, and the CPU time of every thread of this
/// process over it (forked workers not included).
struct SweepTime {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// One whole sweep in a fresh runner, from an empty checkpoint
/// directory when it has one.  The runner's destruction (pool join or
/// worker reaping) is timed: users pay it.
SweepResult timed_sweep(const std::vector<ScenarioSpec>& specs,
                        const SweepOptions& options, SweepTime& time) {
  if (!options.sweep_dir.empty()) std::filesystem::remove_all(options.sweep_dir);
  const std::int64_t cpu_start = process_cpu_ns();
  const std::int64_t start = now_ns();
  SweepResult result;
  {
    divpp::runtime::SweepRunner runner(options);
    result = runner.run(specs, sweep_statistic);
  }
  time.wall_s = seconds_since(start);
  time.cpu_s = static_cast<double>(process_cpu_ns() - cpu_start) * 1e-9;
  return result;
}

/// Every scenario must finish kOk with a valid statistic and, when a
/// reference is given, the same result line byte for byte.
void check_sweep(const SweepResult& sweep,
                 const std::vector<std::string>* reference, Result& result) {
  for (std::size_t i = 0; i < sweep.scenarios.size(); ++i) {
    const ScenarioReport& report = sweep.scenarios[i];
    ++result.attempted;
    if (report.outcome != ScenarioOutcome::kOk) {
      result.fail("sweep: " + report.name + " ended " +
                  divpp::runtime::scenario_outcome_name(report.outcome) +
                  ": " + report.error);
    } else if (!(report.value >= 0.0)) {
      result.fail("sweep: " + report.name +
                  " broke conservation or sustainability");
    } else if (reference != nullptr && (*reference)[i] != report.json) {
      result.fail("sweep: " + report.name +
                  " result line differs between transports or runs");
    }
  }
}

std::vector<std::string> json_lines(const SweepResult& sweep) {
  std::vector<std::string> lines;
  for (const ScenarioReport& report : sweep.scenarios)
    lines.push_back(report.json);
  return lines;
}

double interactions_of(const std::vector<ScenarioSpec>& specs) {
  double total = 0.0;
  for (const ScenarioSpec& spec : specs)
    total += static_cast<double>(spec.target_time);
  return total;
}

bool same_spec(const ScenarioSpec& a, const ScenarioSpec& b) {
  return a.name == b.name && a.n == b.n && a.weights == b.weights &&
         a.start == b.start && a.engine == b.engine &&
         a.target_time == b.target_time && a.seed == b.seed;
}

std::vector<double> to_us(std::vector<double> ns) {
  for (double& v : ns) v *= 1e-3;
  return ns;
}

/// Sequential calls into each layer for every scenario, each under its
/// own span: context acquire, execute_scenario, checkpoint serialise and
/// resume.  Returns the total execute_scenario time in seconds.
double probe_layers(const std::vector<ScenarioSpec>& specs, Trace& trace,
                    Result& result) {
  const SweepOptions options = in_memory_options();
  divpp::context::SamplerContextCache run_cache;
  divpp::context::SamplerContextCache probe_cache;
  std::vector<double> blob_bytes;

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ScenarioSpec& spec = specs[i];
    const auto id = static_cast<std::int64_t>(i);
    Scope scenario_span(trace, "scenario", id);

    std::int64_t t0 = now_ns();
    const auto context = probe_cache.acquire(spec.n, spec.weights);
    trace.record("context.acquire", id, t0, now_ns());

    ScenarioReport report;
    t0 = now_ns();
    divpp::runtime::execute_scenario(spec, i, options, sweep_statistic,
                                     &no_faults(), false, run_cache, {}, {},
                                     report);
    trace.record("runtime.execute_scenario", id, t0, now_ns());
    trace.count("runtime.attempts", report.attempts);
    ++result.attempted;
    if (report.outcome != ScenarioOutcome::kOk || !(report.value >= 0.0))
      result.fail("sequential: " + report.name + " ended " +
                  divpp::runtime::scenario_outcome_name(report.outcome));

    // The checkpoint layer on this scenario's state at its first
    // checkpoint boundary.
    CountSimulation sim = initial_state(spec);
    sim.set_sampler_context(context);
    Xoshiro256 gen(spec.seed);
    sim.advance_with(spec.engine, std::min(kCheckpointPeriod, spec.target_time),
                     gen);
    t0 = now_ns();
    const std::string blob = divpp::core::to_checkpoint_v2(sim, gen);
    trace.record("checkpoint.serialize", id, t0, now_ns());
    blob_bytes.push_back(static_cast<double>(blob.size()));
    t0 = now_ns();
    const divpp::core::ResumedRun resumed =
        divpp::core::resume_run_from_checkpoint(blob);
    trace.record("checkpoint.resume", id, t0, now_ns());
    if (!(resumed.gen == gen) || resumed.sim.time() != sim.time() ||
        !std::ranges::equal(resumed.sim.dark_counts(), sim.dark_counts()) ||
        !std::ranges::equal(resumed.sim.light_counts(), sim.light_counts()))
      result.fail("checkpoint: resume does not restore the serialised run");
  }

  const auto acquire_us = to_us(trace.durations_ns("context.acquire"));
  const auto stats = probe_cache.stats();
  const std::vector<double> scenario_ns =
      trace.durations_ns("runtime.execute_scenario");
  const auto scenario_us = to_us(scenario_ns);
  double scenario_s = 0.0;
  for (const double ns : scenario_ns) scenario_s += ns * 1e-9;
  auto& m = result.metrics;
  m["context.acquire_us_p50"] = quantile(acquire_us, 0.5);
  m["context.build_ms_max"] =
      *std::max_element(acquire_us.begin(), acquire_us.end()) * 1e-3;
  m["context.hits"] = static_cast<double>(stats.hits);
  m["context.misses"] = static_cast<double>(stats.misses);
  m["context.resident_bytes"] = static_cast<double>(stats.resident_bytes);
  m["checkpoint.serialize_us_p50"] =
      quantile(to_us(trace.durations_ns("checkpoint.serialize")), 0.5);
  m["checkpoint.bytes_p50"] = quantile(blob_bytes, 0.5);
  m["checkpoint.resume_us_p50"] =
      quantile(to_us(trace.durations_ns("checkpoint.resume")), 0.5);
  m["runtime.scenario_us_p50"] = quantile(scenario_us, 0.5);
  m["runtime.scenario_us_p90"] = quantile(scenario_us, 0.9);
  m["runtime.attempts_per_scenario"] =
      trace.counter("runtime.attempts") / static_cast<double>(specs.size());
  // The trace's own recording time over the user's calls it wraps.
  m["trace.overhead_frac"] =
      static_cast<double>(trace.recording_ns()) * 1e-9 / scenario_s;
  return scenario_s;
}

/// Sequential durable-store calls for every scenario of the subset: an
/// execute_scenario on the store, where every checkpoint boundary is a
/// durable write; a durable write and read-back of the scenario's start
/// checkpoint; and the supervisor's frame round trip of its run command.
void probe_durable(const std::vector<ScenarioSpec>& specs,
                   const SweepOptions& options, Trace& trace,
                   Result& result) {
  std::filesystem::create_directories(options.sweep_dir);
  const std::string probe_path = options.sweep_dir + "/probe.ckpt";
  divpp::context::SamplerContextCache cache;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ScenarioSpec& spec = specs[i];
    const auto id = static_cast<std::int64_t>(i);
    Scope scenario_span(trace, "durable_scenario", id);

    ScenarioReport report;
    std::int64_t writes = 0;
    std::int64_t t0 = now_ns();
    divpp::runtime::execute_scenario(
        spec, i, options, sweep_statistic, &no_faults(), false, cache, {},
        [&writes] { ++writes; }, report);
    trace.record("runtime.execute_durable", id, t0, now_ns());
    trace.count("durable_file.writes", static_cast<double>(writes));
    ++result.attempted;
    if (report.outcome != ScenarioOutcome::kOk || !(report.value >= 0.0))
      result.fail("durable: " + report.name + " ended " +
                  divpp::runtime::scenario_outcome_name(report.outcome));

    const std::string blob = divpp::core::to_checkpoint_v2(
        initial_state(spec), Xoshiro256(spec.seed));
    t0 = now_ns();
    divpp::fault::write_durable(probe_path, blob);
    trace.record("durable_file.write", id, t0, now_ns());
    if (divpp::fault::read_durable(probe_path) != blob)
      result.fail("durable_file: read back differs from what was written");

    t0 = now_ns();
    std::string stream;
    divpp::runtime::wire::append_frame(
        stream, divpp::runtime::wire::encode_run(i, false, spec));
    const std::optional<std::string> frame =
        divpp::runtime::wire::take_frame(stream);
    const divpp::runtime::wire::RunCommand command =
        divpp::runtime::wire::decode_run(frame.value_or(""));
    trace.record("supervisor.frame_roundtrip", id, t0, now_ns());
    if (command.index != i || !same_spec(command.spec, spec) ||
        !stream.empty())
      result.fail("supervisor: run frame does not round-trip");
  }
  const auto write_us = to_us(trace.durations_ns("durable_file.write"));
  auto& m = result.metrics;
  m["durable_file.write_us_p50"] = quantile(write_us, 0.5);
  m["durable_file.write_us_p90"] = quantile(write_us, 0.9);
  m["durable_file.writes_per_scenario"] =
      trace.counter("durable_file.writes") / static_cast<double>(specs.size());
  m["supervisor.frame_roundtrip_us"] =
      quantile(to_us(trace.durations_ns("supervisor.frame_roundtrip")), 0.5);
}

/// The durable subset: layer probes, then interleaved pairs of an
/// in-process and a supervised sweep on the same store, so that drift in
/// the store's fsync latency hits both sides alike.  Every sweep must
/// print the first in-process sweep's result lines.  The supervisor
/// forks, so every in-process runner is destroyed (its pool joined)
/// before a supervised one starts.
void measure_transports(const std::vector<ScenarioSpec>& specs,
                        const std::string& workload, Trace& trace,
                        Result& result) {
  const Store store(workload);
  result.detail["checkpoint_store"] = store.path();
  result.detail["checkpoint_store_fs"] = filesystem_type(store.path());
  const std::vector<ScenarioSpec> subset(
      specs.begin(), specs.begin() + kDurableScenarios);
  probe_durable(subset, durable_options(store.path() + "/probe", false),
                trace, result);

  const std::string dir = store.path() + "/sweep";
  const SweepOptions in_process = durable_options(dir, false);
  const SweepOptions supervised = durable_options(dir, true);
  std::vector<std::string> reference;
  std::vector<double> ratios;
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    SweepTime local_time;
    SweepTime forked_time;
    {
      Scope span(trace, "runtime.durable_sweep", pair);
      const SweepResult local = timed_sweep(subset, in_process, local_time);
      if (reference.empty()) reference = json_lines(local);
      check_sweep(local, &reference, result);
    }
    {
      Scope span(trace, "supervisor.sweep", pair);
      check_sweep(timed_sweep(subset, supervised, forked_time), &reference,
                  result);
    }
    ratios.push_back(forked_time.wall_s / local_time.wall_s);
  }
  result.metrics["supervisor.overhead_frac"] = quantile(ratios, 0.5) - 1.0;
}

}  // namespace

Result run_sweep_in_memory(const Options& options, Trace& trace) {
  Result result;
  const SweepOptions in_memory = in_memory_options();

  // One set-up: the inputs, then a warm-up sweep.  The first starts the
  // run; one after each timed sweep adds a sample, so that the samples
  // span the same stretch of time as the sweeps.
  std::vector<double> setup_cpu_seconds;
  // Reference speeds, one before the first set-up and one after each
  // sweep and each set-up: sweep i lies between samples 2i + 1 and
  // 2i + 2, set-up j between samples 2j and 2j + 1.
  std::vector<ReferenceLoop> reference;
  std::vector<double> reference_ns;
  const auto time_reference = [&] {
    if (!reference.empty())
      reference_ns.push_back(reference_ns_per_step(reference, kReferenceSteps));
  };
  if (!options.traced) {
    reference.resize(static_cast<std::size_t>(worker_count()));
    time_reference();
  }
  const auto set_up = [&] {
    const std::int64_t start = process_cpu_ns();
    std::vector<ScenarioSpec> made = make_specs(options.seed);
    const std::vector<ScenarioSpec> warmup(
        made.begin(), made.begin() + kWarmupScenarios);
    SweepTime ignored;
    const SweepResult warm = timed_sweep(warmup, in_memory, ignored);
    setup_cpu_seconds.push_back(
        static_cast<double>(process_cpu_ns() - start) * 1e-9);
    time_reference();
    check_sweep(warm, nullptr, result);
    return made;
  };
  const std::vector<ScenarioSpec> specs = set_up();
  const double interactions = interactions_of(specs);
  result.detail["threads"] = std::to_string(worker_count());

  if (options.traced) {
    const double scenario_s = probe_layers(specs, trace, result);
    SweepTime sweep_time;
    check_sweep(timed_sweep(specs, in_memory, sweep_time), nullptr, result);
    result.metrics["runtime.pool_busy_frac"] =
        scenario_s / (static_cast<double>(worker_count()) * sweep_time.wall_s);
    measure_transports(specs, options.workload, trace, result);
  } else {
    std::vector<SweepTime> sweep_times;
    std::vector<std::string> first_lines;
    const std::int64_t run_start = now_ns();
    for (int rep = 0;
         rep < kMinSweeps || seconds_since(run_start) < options.seconds;
         ++rep) {
      SweepTime time;
      const SweepResult sweep = timed_sweep(specs, in_memory, time);
      sweep_times.push_back(time);
      time_reference();
      if (rep == 0) first_lines = json_lines(sweep);
      check_sweep(sweep, &first_lines, result);
      (void)set_up();
    }
    // Each sweep's and set-up's process CPU time, scaled to the nominal
    // host by the mean reference speed of the samples either side of it
    // (see reference.h).
    const auto scale = [&](std::size_t before) {
      return 2.0 * kNominalNsPerStep /
             (reference_ns[before] + reference_ns[before + 1]);
    };
    double cpu_s = 0.0;
    double wall_s = 0.0;
    double ref_s = 0.0;
    std::vector<double> ns_per_int;
    for (std::size_t i = 0; i < sweep_times.size(); ++i) {
      const double scaled_s = sweep_times[i].cpu_s * scale(2 * i + 1);
      cpu_s += sweep_times[i].cpu_s;
      wall_s += sweep_times[i].wall_s;
      ref_s += scaled_s;
      ns_per_int.push_back(scaled_s * 1e9 / interactions);
    }
    std::vector<double> setup_s;
    for (std::size_t j = 0; j < setup_cpu_seconds.size(); ++j)
      setup_s.push_back(setup_cpu_seconds[j] * scale(2 * j));
    const auto sweeps = static_cast<double>(sweep_times.size());
    const double scenarios = sweeps * static_cast<double>(kScenarios);
    result.metrics["setup_s"] = quantile(setup_s, 0.5);
    result.metrics["interactions_per_ref_s"] = sweeps * interactions / ref_s;
    result.metrics["window_ref_ns_per_int_p50"] = quantile(ns_per_int, 0.5);
    result.metrics["window_ref_ns_per_int_p90"] = quantile(ns_per_int, 0.9);
    result.metrics["scenarios_per_ref_s"] = scenarios / ref_s;
    result.metrics["peak_rss_mb"] = peak_rss_mb();
    result.detail["windows"] = std::to_string(sweep_times.size());
    result.detail["reference_ns_per_step_p50"] =
        std::to_string(quantile(reference_ns, 0.5));
    result.detail["scenarios_per_cpu_s"] = std::to_string(scenarios / cpu_s);
    result.detail["scenarios_per_wall_s"] = std::to_string(scenarios / wall_s);
    result.detail["cpu_over_wall"] = std::to_string(cpu_s / wall_s);
    result.detail["window"] = "one sweep of " + std::to_string(kScenarios) +
                              " scenarios";
  }
  return result;
}

}  // namespace perfbench
