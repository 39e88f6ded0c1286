#include "runtime/sweep_runner.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>

#include "core/checkpoint.h"
#include "fault/durable_file.h"
#include "io/json.h"
#include "rng/xoshiro.h"
#include "runtime/durable_runner.h"
#include "runtime/supervisor.h"

namespace divpp::runtime {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::string_view kManifest = "sweep manifest";
constexpr std::string_view kManifestHeader = "divpp-sweep-v2 ";

int parse_int(const std::string& text) {
  std::size_t used = 0;
  int value = 0;
  try {
    value = std::stoi(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size() || value < 0)
    throw std::invalid_argument("sweep manifest: bad count '" + text + "'");
  return value;
}

/// Manifest status word.  kDrained (and never-started) persists as
/// "pending": both mean "unfinished work resume() must run".
const char* manifest_status(ScenarioOutcome outcome) {
  switch (outcome) {
    case ScenarioOutcome::kOk: return "ok";
    case ScenarioOutcome::kRecovered: return "recovered";
    case ScenarioOutcome::kQuarantined: return "quarantined";
    case ScenarioOutcome::kRejected: return "rejected";
    case ScenarioOutcome::kDrained: return "pending";
  }
  return "pending";
}

core::CountSimulation initial_state(const ScenarioSpec& spec) {
  switch (spec.start) {
    case ScenarioSpec::Start::kProportional:
      return core::CountSimulation::proportional_start(spec.weights, spec.n);
    case ScenarioSpec::Start::kAdversarial:
      return core::CountSimulation::adversarial_start(spec.weights, spec.n);
    case ScenarioSpec::Start::kEqual:
      return core::CountSimulation::equal_start(spec.weights, spec.n);
  }
  throw std::invalid_argument("ScenarioSpec: unknown start kind");
}

void ensure_directory(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) return;
  throw std::runtime_error("SweepRunner: cannot create sweep_dir '" + path +
                           "': " + std::strerror(errno));
}

/// What the recovery loop produced.
struct RecoveryResult {
  bool completed = false;  ///< false == quarantined (retries exhausted)
  int attempts = 1;        ///< total attempts, clean == 1
  int resumes = 0;         ///< attempts that restored from a checkpoint
  std::string error;       ///< last failure message (empty when clean)
};

/// Runs `attempt` until it returns normally, at most
/// 1 + options.max_retries times, with capped exponential backoff between
/// attempts.  The callback receives the recovered state — the latest
/// *valid* checkpoint, or nullopt when there is none (the attempt must
/// then start from scratch).  Retries always recover, and so does the
/// first attempt when `resume_first` is set (a drained scenario
/// continuing where it parked).  Recovery reads the file at `path` when
/// one is set, else `latest`, the in-memory copy the run's on_checkpoint
/// hook keeps; a torn or corrupt checkpoint is detected and skipped,
/// never loaded.  \throws std::invalid_argument on negative retry or
/// backoff options; attempt failures become the RecoveryResult.
RecoveryResult run_with_recovery(
    const SweepOptions& options, const std::string& path, bool resume_first,
    const std::string& latest,
    const std::function<void(std::optional<core::ResumedRun>)>& attempt) {
  if (options.max_retries < 0)
    throw std::invalid_argument("execute_scenario: negative max_retries");
  if (options.backoff_initial_ms < 0 || options.backoff_cap_ms < 0)
    throw std::invalid_argument("execute_scenario: negative backoff");
  RecoveryResult result;
  for (int att = 0;; ++att) {
    result.attempts = att + 1;
    try {
      std::optional<core::ResumedRun> resumed;
      if (att > 0 || resume_first) {
        std::string blob = latest;
        if (!path.empty()) {
          try {
            blob = fault::read_durable(path);
          } catch (const fault::DurableFileError&) {
            blob.clear();
          }
        }
        if (!blob.empty()) {
          try {
            resumed = core::resume_run_from_checkpoint(blob);
          } catch (const std::invalid_argument&) {
          }
        }
      }
      if (resumed.has_value()) ++result.resumes;
      attempt(std::move(resumed));
      result.completed = true;
      return result;
    } catch (const std::exception& error) {
      result.error = error.what();
      if (att >= options.max_retries) return result;
      const double delay_ms = std::min(
          options.backoff_cap_ms,
          options.backoff_initial_ms *
              static_cast<double>(std::int64_t{1} << std::min(att, 40)));
      if (delay_ms > 0)
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(delay_ms));
    }
  }
}

}  // namespace

const char* scenario_outcome_name(ScenarioOutcome outcome) {
  switch (outcome) {
    case ScenarioOutcome::kOk: return "ok";
    case ScenarioOutcome::kRecovered: return "recovered";
    case ScenarioOutcome::kQuarantined: return "quarantined";
    case ScenarioOutcome::kRejected: return "rejected";
    case ScenarioOutcome::kDrained: return "drained";
  }
  return "unknown";
}

std::string scenario_checkpoint_path(const std::string& sweep_dir,
                                     std::size_t index) {
  if (sweep_dir.empty()) return {};
  return sweep_dir + "/scenario_" + std::to_string(index) + ".ckpt";
}

std::string scenario_result_json(const ScenarioSpec& spec, double value) {
  io::Json json;
  json.set("scenario", spec.name)
      .set("n", spec.n)
      .set("k", spec.weights.num_colors())
      .set("engine", core::engine_name(spec.engine))
      .set("target", spec.target_time)
      .set("seed", static_cast<std::int64_t>(spec.seed))
      .set("value", value);
  return json.to_string();
}

void execute_scenario(const ScenarioSpec& spec, std::size_t index,
                      const SweepOptions& options,
                      const SweepStatistic& statistic,
                      const fault::FaultSchedule* faults, bool resuming,
                      context::SamplerContextCache& cache,
                      const std::function<bool()>& should_stop,
                      const std::function<void()>& on_boundary,
                      ScenarioReport& report) {
  report.name = spec.name;
  const std::string path = scenario_checkpoint_path(options.sweep_dir, index);
  // A fresh run owns no checkpoint yet: a file at `path` is an earlier
  // sweep's, and a retry must never resume from it.
  if (!resuming && !path.empty()) std::remove(path.c_str());
  try {
    // Shared immutables first: admission is the only failure that is a
    // *decision* (budget) rather than an accident, hence its own outcome.
    std::shared_ptr<const context::SamplerContext> shared;
    try {
      shared = cache.acquire(spec.n, spec.weights);
    } catch (const context::ContextAdmissionError& error) {
      report.outcome = ScenarioOutcome::kRejected;
      report.error = error.what();
      return;
    }

    std::string latest;  // in-memory fallback checkpoint
    bool parked = false;
    double value = 0.0;
    const RecoveryResult recovery = run_with_recovery(
        options, path, /*resume_first=*/resuming, latest,
        [&](std::optional<core::ResumedRun> resumed) {
          core::CountSimulation sim = resumed.has_value()
                                          ? std::move(resumed->sim)
                                          : initial_state(spec);
          rng::Xoshiro256 gen = resumed.has_value()
                                    ? resumed->gen
                                    : rng::Xoshiro256(spec.seed);
          // Attach the shared tables.  Without this the batch engine
          // lazily builds identical private ones — bit-identical by the
          // pin in test_context, just slower and per-scenario.
          sim.set_sampler_context(shared);

          DurableRunConfig config;
          config.engine = spec.engine;
          config.target_time = spec.target_time;
          config.checkpoint_period = options.checkpoint_period;
          config.checkpoint_path = path;
          config.on_checkpoint = [&latest,
                                  &on_boundary](const std::string& blob) {
            latest = blob;
            if (on_boundary) on_boundary();
          };
          config.deadline_seconds = options.scenario_deadline_seconds;
          config.faults = faults;
          config.replica = static_cast<std::int64_t>(index);
          config.should_stop = should_stop;
          run_windows(sim, gen, config);

          if (sim.time() < spec.target_time) {
            parked = true;  // stopped by a drain at a durable boundary
            return;
          }
          parked = false;
          value = statistic(sim);
        });

    report.attempts = recovery.attempts;
    report.resumes = recovery.resumes;
    report.error = recovery.error;
    if (!recovery.completed) {
      // Quarantine keeps its last checkpoint for post-mortem.
      report.outcome = ScenarioOutcome::kQuarantined;
      return;
    }
    if (parked) {
      report.outcome = ScenarioOutcome::kDrained;
      return;
    }
    report.value = value;
    report.outcome = recovery.attempts == 1 ? ScenarioOutcome::kOk
                                            : ScenarioOutcome::kRecovered;
    report.json = scenario_result_json(spec, value);
    if (options.cleanup_on_success && !path.empty())
      std::remove(path.c_str());
  } catch (const std::exception& error) {
    // Callers must not see throws; an unexpected failure outside the
    // recovery loop quarantines just this scenario.
    report.outcome = ScenarioOutcome::kQuarantined;
    report.error = error.what();
  } catch (...) {
    report.outcome = ScenarioOutcome::kQuarantined;
    report.error = "unknown error";
  }
}

SweepRunner::SweepRunner(SweepOptions options)
    : options_(std::move(options)),
      cache_(options_.context_budget_bytes > 0
                 ? options_.context_budget_bytes
                 : context::SamplerContextCache::kDefaultBudgetBytes),
      pool_(options_.threads) {
  if (options_.checkpoint_period <= 0)
    throw std::invalid_argument("SweepRunner: checkpoint_period must be > 0");
  if (options_.max_retries < 0)
    throw std::invalid_argument("SweepRunner: negative max_retries");
  if (options_.backoff_initial_ms < 0 || options_.backoff_cap_ms < 0)
    throw std::invalid_argument("SweepRunner: negative backoff");
  if (options_.scenario_deadline_seconds < 0)
    throw std::invalid_argument("SweepRunner: negative deadline");
  if (options_.admission_capacity < 0)
    throw std::invalid_argument("SweepRunner: negative admission_capacity");
  if (options_.supervision.enabled) {
    if (options_.sweep_dir.empty())
      throw std::invalid_argument(
          "SweepRunner: supervision needs a sweep_dir — respawn-and-resume "
          "requires checkpoints that survive process death");
    if (options_.supervision.workers < 0)
      throw std::invalid_argument("SweepRunner: negative supervision workers");
    if (options_.supervision.heartbeat_period_seconds < 0 ||
        options_.supervision.hang_timeout_seconds < 0)
      throw std::invalid_argument("SweepRunner: negative supervision timing");
    if (options_.supervision.crash_loop_k < 1)
      throw std::invalid_argument("SweepRunner: crash_loop_k must be >= 1");
  }
}

SweepResult SweepRunner::run(const std::vector<ScenarioSpec>& specs,
                             const Statistic& statistic) {
  return execute(specs, statistic, /*resuming=*/false);
}

SweepResult SweepRunner::resume(const std::vector<ScenarioSpec>& specs,
                                const Statistic& statistic) {
  if (options_.sweep_dir.empty())
    throw std::invalid_argument(
        "SweepRunner::resume: needs a sweep_dir (in-memory sweeps leave "
        "nothing to resume from)");
  return execute(specs, statistic, /*resuming=*/true);
}

void SweepRunner::request_drain() {
  drain_.store(true, std::memory_order_relaxed);
  // Wake both the blocked submitter and any idle workers so the drain
  // takes effect now, not at the next queue transition.
  std::lock_guard<std::mutex> lock(queue_mutex_);
  can_submit_.notify_all();
  have_work_.notify_all();
}

std::string SweepRunner::manifest_path() const {
  return options_.sweep_dir + "/sweep.manifest";
}

SweepResult SweepRunner::execute(const std::vector<ScenarioSpec>& specs,
                                 const Statistic& statistic, bool resuming) {
  if (!statistic)
    throw std::invalid_argument("SweepRunner: empty statistic");
  for (const ScenarioSpec& spec : specs) {
    if (spec.n < 2)
      throw std::invalid_argument("SweepRunner: scenario '" + spec.name +
                                  "' has n < 2");
    if (spec.target_time < 0)
      throw std::invalid_argument("SweepRunner: scenario '" + spec.name +
                                  "' has a negative target");
  }
  const auto start = Clock::now();
  drain_.store(false, std::memory_order_relaxed);
  if (!options_.sweep_dir.empty()) ensure_directory(options_.sweep_dir);

  const fault::FaultSchedule* faults =
      options_.faults != nullptr ? options_.faults : &fault::global();

  const std::size_t count = specs.size();
  std::vector<ScenarioReport> reports(count);
  for (std::size_t i = 0; i < count; ++i) reports[i].name = specs[i].name;
  std::vector<char> finished(count, 0);  // recorded done in the manifest
  if (resuming) load_manifest(specs, reports, finished);

  if (options_.supervision.enabled) {
    // Process-isolated path: fan unfinished scenarios out to forked
    // worker processes.  pool_ is never submitted to, so this process
    // stays single-threaded — a precondition for safe fork().
    run_supervised(specs, options_, statistic, resuming, reports, finished);
  } else {
    run_in_process(specs, statistic, faults, resuming, reports, finished);
  }

  SweepResult out;
  out.drain_requested = drain_.load(std::memory_order_relaxed);
  for (const ScenarioReport& report : reports) {
    switch (report.outcome) {
      case ScenarioOutcome::kOk: ++out.completed; break;
      case ScenarioOutcome::kRecovered:
        ++out.completed;
        ++out.recovered;
        break;
      case ScenarioOutcome::kQuarantined: ++out.quarantined; break;
      case ScenarioOutcome::kRejected: ++out.rejected; break;
      case ScenarioOutcome::kDrained: ++out.drained; break;
    }
  }
  out.scenarios = std::move(reports);
  out.wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(Clock::now() -
                                                                start)
          .count();
  if (!options_.sweep_dir.empty()) write_manifest(specs, out.scenarios);
  return out;
}

void SweepRunner::run_in_process(const std::vector<ScenarioSpec>& specs,
                                 const Statistic& statistic,
                                 const fault::FaultSchedule* faults,
                                 bool resuming,
                                 std::vector<ScenarioReport>& reports,
                                 const std::vector<char>& finished) {
  const std::size_t count = specs.size();
  // The bounded admission queue.  Plain locals guarded by queue_mutex_;
  // the cvs are members only so request_drain() can wake the waiters.
  std::deque<std::size_t> ready;
  bool closed = false;
  std::vector<char> settled(count, 0);  // report written by a worker
  const std::int64_t capacity =
      options_.admission_capacity > 0
          ? options_.admission_capacity
          : 4 * static_cast<std::int64_t>(pool_.thread_count());

  auto worker = [&] {
    for (;;) {
      std::size_t index = 0;
      {
        std::unique_lock<std::mutex> lock(queue_mutex_);
        have_work_.wait(lock, [&] {
          return !ready.empty() || closed ||
                 drain_.load(std::memory_order_relaxed);
        });
        if (drain_.load(std::memory_order_relaxed)) {
          // Admitted-but-unstarted scenarios drain too: drop them here,
          // unsettled; the post-join pass reports them kDrained.
          ready.clear();
          can_submit_.notify_all();
          return;
        }
        if (ready.empty()) return;  // closed, queue drained
        index = ready.front();
        ready.pop_front();
        can_submit_.notify_one();
      }
      run_scenario(index, specs[index], statistic, faults, resuming,
                   reports[index]);
      settled[index] = 1;
    }
  };
  for (int t = 0; t < pool_.thread_count(); ++t) pool_.submit(worker);

  // Submission, with backpressure: block while the queue is full.
  for (std::size_t i = 0; i < count; ++i) {
    if (finished[i] != 0) continue;
    std::unique_lock<std::mutex> lock(queue_mutex_);
    can_submit_.wait(lock, [&] {
      return static_cast<std::int64_t>(ready.size()) < capacity ||
             drain_.load(std::memory_order_relaxed);
    });
    if (drain_.load(std::memory_order_relaxed)) break;
    ready.push_back(i);
    have_work_.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    closed = true;
  }
  have_work_.notify_all();
  pool_.wait_idle();

  for (std::size_t i = 0; i < count; ++i) {
    if (finished[i] == 0 && settled[i] == 0) {
      // Never reached a worker: drained out of the queue (or never
      // admitted).  attempts == 0 records that no attempt ran.
      reports[i].outcome = ScenarioOutcome::kDrained;
      reports[i].attempts = 0;
      // Nor did execute_scenario clear its path, so on a fresh run a
      // file there is an earlier sweep's: resume() must start it afresh.
      if (!resuming && !options_.sweep_dir.empty())
        std::remove(scenario_checkpoint_path(options_.sweep_dir, i).c_str());
    }
  }
}

void SweepRunner::run_scenario(std::size_t index, const ScenarioSpec& spec,
                               const Statistic& statistic,
                               const fault::FaultSchedule* faults,
                               bool resuming, ScenarioReport& report) {
  execute_scenario(
      spec, index, options_, statistic, faults, resuming, cache_,
      [this] { return drain_.load(std::memory_order_relaxed); },
      /*on_boundary=*/nullptr, report);
}

std::string SweepRunner::manifest_header(std::size_t scenarios) const {
  return std::string(kManifestHeader) + std::to_string(scenarios) +
         " period " + std::to_string(options_.checkpoint_period);
}

void SweepRunner::write_manifest(
    const std::vector<ScenarioSpec>& specs,
    const std::vector<ScenarioReport>& reports) const {
  std::string text = manifest_header(specs.size()) + "\n";
  // Each line records its scenario's whole spec (every deterministic
  // field, in the supervisor's run-command encoding): resume() keeps a
  // recorded result only for a spec equal to it byte for byte.
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const ScenarioReport& report = reports[i];
    text += "scenario " + std::to_string(i) + " " +
            manifest_status(report.outcome) + " " +
            std::to_string(report.attempts) + " " +
            std::to_string(report.resumes) + " " +
            io::hex_double(report.value) + " " +
            io::json_quote(wire::encode_run(i, false, specs[i])) + " " +
            io::json_quote(report.error) + "\n";
  }
  text += "end\n";
  fault::write_durable(manifest_path(), text);
}

void SweepRunner::load_manifest(const std::vector<ScenarioSpec>& specs,
                                std::vector<ScenarioReport>& reports,
                                std::vector<char>& finished) const {
  const std::string text = fault::read_durable(manifest_path());
  std::vector<std::string> lines;
  for (std::size_t begin = 0; begin < text.size();) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  if (lines.size() != specs.size() + 2)
    throw std::invalid_argument(
        "sweep manifest: expected " + std::to_string(specs.size()) +
        " scenarios, found " +
        std::to_string(lines.size() < 2 ? 0 : lines.size() - 2));
  // The header pins the checkpoint period as well as the scenario count:
  // run_windows canonicalises at every boundary and the auto engine
  // re-decides per window, so another period gives other results, and a
  // recorded "ok" value would no longer be this runner's value.
  const std::string header = manifest_header(specs.size());
  if (lines.front() != header)
    throw std::invalid_argument("sweep manifest: header '" + lines.front() +
                                "' does not match this runner's '" + header +
                                "' — refusing to resume a different sweep");
  if (lines.back() != "end")
    throw std::invalid_argument("sweep manifest: missing end marker");

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string& line = lines[i + 1];
    std::size_t pos = 0;
    const auto token = [&] { return io::scan_token(line, pos, kManifest); };
    if (token() != "scenario" || token() != std::to_string(i))
      throw std::invalid_argument("sweep manifest: bad scenario line " +
                                  std::to_string(i + 2));
    const std::string status = token();
    const int attempts = parse_int(token());
    const int resumes = parse_int(token());
    const double value = io::parse_hex_double(token(), kManifest);
    const std::string spec = io::scan_quoted(line, pos, kManifest);
    const std::string error = io::scan_quoted(line, pos, kManifest);
    io::skip_spaces(line, pos);
    if (pos != line.size())
      throw std::invalid_argument("sweep manifest: trailing junk on line " +
                                  std::to_string(i + 2));
    const std::string expected = wire::encode_run(i, false, specs[i]);
    if (spec != expected)
      throw std::invalid_argument(
          "sweep manifest: scenario " + std::to_string(i) + " is '" + spec +
          "' on disk but '" + expected +
          "' in the specs — refusing to resume a different sweep");

    ScenarioReport& report = reports[i];
    report.attempts = attempts;
    report.resumes = resumes;
    report.error = error;
    if (status == "pending") continue;  // resume() re-runs it
    if (status == "ok") {
      report.outcome = ScenarioOutcome::kOk;
    } else if (status == "recovered") {
      report.outcome = ScenarioOutcome::kRecovered;
    } else if (status == "quarantined") {
      report.outcome = ScenarioOutcome::kQuarantined;
    } else if (status == "rejected") {
      report.outcome = ScenarioOutcome::kRejected;
    } else {
      throw std::invalid_argument("sweep manifest: unknown status '" +
                                  status + "'");
    }
    if (report.outcome == ScenarioOutcome::kOk ||
        report.outcome == ScenarioOutcome::kRecovered) {
      report.value = value;  // hexfloat round-trip: bit-identical
      report.json = scenario_result_json(specs[i], value);
    }
    finished[i] = 1;
  }
}

}  // namespace divpp::runtime
