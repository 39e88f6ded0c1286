// The two trajectory workloads: one long CountSimulation at n = 10^8
// (collision-batch regime) and one TaggedCountSimulation at n = 2*10^4
// feeding a FairnessTracker (jump-chain regime, batch layer bypassed).
//
// A traced run adds probes on copies of each window and derives every
// per-layer metric from the spans and counts it records.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/fairness.h"
#include "batch/collision_batch.h"
#include "check/counting_generator.h"
#include "context/sampler_context.h"
#include "core/agent.h"
#include "core/count_simulation.h"
#include "core/mean_field.h"
#include "rng/xoshiro.h"

#include "reference.h"
#include "workloads.h"

namespace perfbench {
namespace {

using divpp::core::AgentState;
using divpp::core::CountSimulation;
using divpp::core::Engine;
using divpp::core::TaggedCountSimulation;
using divpp::rng::Xoshiro256;

/// Both trajectories run at least this many equal windows.
constexpr std::int64_t kMinWindows = 100;
/// Set-up runs once before the first window and again after every
/// kSetupEvery-th, so that its samples span the same stretch of time as
/// the windows: timed only at the start of a process, its median spread
/// about twice as much between runs as the windows' (see README).
constexpr std::int64_t kSetupEvery = 4;
/// An untraced run times this many reference steps after every window
/// (~2 ms, 5-10% of a window) and scales each window by the median
/// reference speed over kReferenceHalf windows either side of it.
constexpr std::int64_t kReferenceSteps = 250'000;
constexpr std::size_t kReferenceHalf = 8;
/// Every kCompareEvery-th traced window also runs auto again and the
/// jump and batch engines on copies of the window's start state and
/// generator.  Not every window: jump costs ~6x auto at n = 10^8 and
/// batch ~5x auto at n = 2*10^4.
constexpr std::int64_t kCompareEvery = 4;

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

const CountSimulation& counts_of(const CountSimulation& sim) { return sim; }
const CountSimulation& counts_of(const TaggedCountSimulation& sim) {
  return sim.counts();
}

bool same_counts(const CountSimulation& a, const CountSimulation& b) {
  return a.time() == b.time() &&
         std::ranges::equal(a.dark_counts(), b.dark_counts()) &&
         std::ranges::equal(a.light_counts(), b.light_counts());
}

bool same_state(const CountSimulation& a, const CountSimulation& b) {
  return same_counts(a, b);
}
bool same_state(const TaggedCountSimulation& a,
                const TaggedCountSimulation& b) {
  return same_counts(a.counts(), b.counts()) &&
         a.tagged_state() == b.tagged_state();
}

/// Conservation (the supports sum to n) and sustainability
/// (min_dark >= 1): both hold for every legitimate trajectory of the
/// protocol, whatever order the engine draws its randomness in.
std::string boundary_violation(const CountSimulation& sim,
                               const std::vector<std::int64_t>& supports) {
  std::int64_t total = 0;
  for (const std::int64_t c : supports) total += c;
  if (total != sim.n())
    return "conservation: supports sum to " + std::to_string(total) +
           ", n = " + std::to_string(sim.n());
  if (sim.min_dark() < 1)
    return "sustainability: min_dark = " + std::to_string(sim.min_dark());
  return {};
}

/// Set-up timings and the context cache of the last set-up.
struct SetupStats {
  std::vector<double> cpu_seconds;
  /// The number of windows run before each set-up.
  std::vector<std::size_t> after_windows;
  std::vector<double> acquire_us;
  divpp::context::ContextCacheStats cache;
};

/// The end-to-end metrics: the windows' and set-ups' process CPU times
/// (every thread the library might start, not just the caller's), each
/// scaled to the nominal host by the reference speed around it (see
/// reference.h).  The unscaled CPU and wall figures of the same
/// windows go to the detail line.
void put_end_to_end(Result& result, const SetupStats& setup,
                    const std::vector<double>& window_cpu_ns,
                    const std::vector<double>& reference_ns, double wall_s,
                    std::int64_t window) {
  const std::vector<double> host =
      sliding_median(reference_ns, kReferenceHalf);
  const auto windows = static_cast<double>(window_cpu_ns.size());
  const double interactions = windows * static_cast<double>(window);
  double ref_s = 0.0;
  std::vector<double> ns_per_int;
  for (std::size_t w = 0; w < window_cpu_ns.size(); ++w) {
    const double ns = window_cpu_ns[w] * kNominalNsPerStep / host[w];
    ref_s += ns * 1e-9;
    ns_per_int.push_back(ns / static_cast<double>(window));
  }
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < setup.cpu_seconds.size(); ++i) {
    const std::size_t w = std::max<std::size_t>(setup.after_windows[i], 1) - 1;
    setup_s.push_back(setup.cpu_seconds[i] * kNominalNsPerStep / host[w]);
  }
  const double cpu_s = sum(window_cpu_ns) * 1e-9;
  result.metrics["setup_s"] = quantile(setup_s, 0.5);
  result.metrics["interactions_per_ref_s"] = interactions / ref_s;
  result.metrics["window_ref_ns_per_int_p50"] = quantile(ns_per_int, 0.5);
  result.metrics["window_ref_ns_per_int_p90"] = quantile(ns_per_int, 0.9);
  result.metrics["scenarios_per_ref_s"] = windows / ref_s;
  result.metrics["peak_rss_mb"] = peak_rss_mb();
  result.detail["windows"] = std::to_string(window_cpu_ns.size());
  result.detail["window_interactions"] = std::to_string(window);
  result.detail["reference_ns_per_step_p50"] =
      std::to_string(quantile(reference_ns, 0.5));
  result.detail["interactions_per_cpu_s"] =
      std::to_string(interactions / cpu_s);
  result.detail["interactions_per_wall_s"] =
      std::to_string(interactions / wall_s);
  result.detail["cpu_over_wall"] = std::to_string(cpu_s / wall_s);
}

/// Span durations by window id.
std::map<std::int64_t, double> by_window(const Trace& trace,
                                         std::string_view name) {
  std::map<std::int64_t, double> out;
  const auto& names = trace.names();
  for (const Span& span : trace.spans())
    if (names[static_cast<std::size_t>(span.name)] == name)
      out[span.id] = static_cast<double>(span.end_ns - span.start_ns);
  return out;
}

/// Per-layer metrics from the spans and counts of a traced run; `main`
/// names the span of the user's call.
void put_layers(Result& result, const Trace& trace, const SetupStats& setup,
                std::string_view main) {
  auto& m = result.metrics;
  const double interactions = trace.counter("core.interactions");
  m["core.active_per_kint"] =
      ratio(1000.0 * trace.counter("core.active"), interactions);
  m["core.jump_ns_per_active"] =
      ratio(sum(trace.durations_ns("core.jump_copy")),
            trace.counter("core.jump_active"));

  const auto main_ns = by_window(trace, main);
  const auto jump_ns = by_window(trace, "core.jump_copy");
  const auto batch_ns = by_window(trace, "core.batch_copy");
  std::vector<double> auto_vs_best;
  for (const auto& [id, jump] : jump_ns)
    auto_vs_best.push_back(main_ns.at(id) / std::min(jump, batch_ns.at(id)));
  m["core.auto_vs_best"] = quantile(auto_vs_best, 0.5);
  m["core.auto_batch_share"] =
      ratio(trace.counter("core.batch_picks"),
            static_cast<double>(jump_ns.size()));
  std::vector<double> rebuild_us = trace.durations_ns("core.canonicalize");
  for (double& v : rebuild_us) v *= 1e-3;
  m["core.rebuild_us"] = quantile(rebuild_us, 0.5);

  const double calls = trace.counter("batch.calls");
  const std::vector<double> call_ns = trace.durations_ns("batch.advance");
  const std::vector<double> rerun_ns = trace.durations_ns("batch.rerun");
  m["batch.calls"] = ratio(calls, static_cast<double>(rerun_ns.size()));
  m["batch.interactions_per_call"] =
      ratio(trace.counter("batch.interactions"), calls);
  m["batch.ns_per_call_p50"] = quantile(call_ns, 0.5);
  m["batch.ns_per_call_p90"] = quantile(call_ns, 0.9);
  m["batch.adopts_per_call"] = ratio(trace.counter("batch.adopts"), calls);
  m["batch.fades_per_call"] = ratio(trace.counter("batch.fades"), calls);
  // The batch layer's own calls as a share of the re-run loop around
  // them (the rest is the loop's O(k) absorption test and span records).
  m["batch.self_share"] =
      ratio(sum(trace.self_ns("batch.advance")), sum(rerun_ns));
  m["rng.draws_per_kint"] =
      ratio(1000.0 * trace.counter("rng.draws"), interactions);
  m["rng.draws_per_batch"] = ratio(trace.counter("rng.batch_draws"), calls);
  m["tagged.changes"] =
      ratio(1e9 * trace.counter("tagged.changes"), interactions);

  m["context.acquire_us_p50"] = quantile(setup.acquire_us, 0.5);
  m["context.build_ms_max"] =
      *std::max_element(setup.acquire_us.begin(), setup.acquire_us.end()) *
      1e-3;
  m["context.hits"] = static_cast<double>(setup.cache.hits);
  m["context.misses"] = static_cast<double>(setup.cache.misses);
  m["context.resident_bytes"] =
      static_cast<double>(setup.cache.resident_bytes);
  // The trace's own recording time over the user's timed calls.
  m["trace.overhead_frac"] =
      ratio(static_cast<double>(trace.recording_ns()),
            sum(trace.durations_ns(main)));
  result.detail["compared_windows"] = std::to_string(jump_ns.size());
}

/// Adds the exact draw count between two generator states (replayed)
/// to the count `name`.  A miss is a failure: the window consumed more
/// than `cap` draws or left the stream.
void count_draws(Trace& trace, std::string_view name, std::int64_t id,
                 const Xoshiro256& from, const Xoshiro256& to,
                 std::int64_t cap, Result& result) {
  const std::int64_t start = now_ns();
  const std::int64_t draws = divpp::check::draws_between(from, to, cap);
  trace.record("rng.replay", id, start, now_ns());
  if (draws < 0) result.fail("rng: window draws not found within the replay cap");
  trace.count(name, static_cast<double>(std::max<std::int64_t>(draws, 0)));
}

/// Runs auto, jump and batch on copies of the window start
/// and classifies the main window's pick.  `advance(sim, engine, gen)`
/// runs one window.
template <typename Sim, typename Advance>
void compare_engines(Trace& trace, std::int64_t id, const Sim& start,
                     const Xoshiro256& start_gen, const Sim& main_end,
                     const Xoshiro256& main_gen, const Advance& advance,
                     Result& result) {
  auto run = [&](Engine engine, const char* name) {
    std::pair<Sim, Xoshiro256> copy{start, start_gen};
    const std::int64_t before = counts_of(copy.first).active_transitions();
    const std::int64_t t0 = now_ns();
    advance(copy.first, engine, copy.second);
    trace.record(name, id, t0, now_ns());
    if (engine == Engine::kJump)
      trace.count("core.jump_active",
                  static_cast<double>(
                      counts_of(copy.first).active_transitions() - before));
    return copy;
  };
  const auto again = run(Engine::kAuto, "core.auto_copy");
  const auto jump = run(Engine::kJump, "core.jump_copy");
  const auto batch = run(Engine::kBatch, "core.batch_copy");
  if (!same_state(again.first, main_end) || !(again.second == main_gen))
    result.fail("core: auto is not reproducible from the window start");
  const bool picked_batch =
      same_state(batch.first, main_end) && batch.second == main_gen;
  const bool picked_jump =
      same_state(jump.first, main_end) && jump.second == main_gen;
  if (!picked_batch && !picked_jump)
    result.fail("core: auto consumed neither delegate's stream");
  trace.count("core.batch_picks", picked_batch ? 1.0 : 0.0);
}

/// canonicalize() on a copy of the boundary state.
template <typename Sim>
void time_rebuild(Trace& trace, std::int64_t id, const Sim& sim) {
  Sim copy = sim;
  const std::int64_t t0 = now_ns();
  copy.canonicalize();
  trace.record("core.canonicalize", id, t0, now_ns());
}

}  // namespace

Result run_trajectory_n1e8(const Options& options, Trace& trace) {
  constexpr std::int64_t kN = 100'000'000;
  constexpr std::int64_t kWindow = 40'000'000;
  /// Final supports must sit within this share of n of the fluid limit.
  constexpr double kOdeTolerance = 1e-3;
  Result result;
  const divpp::core::WeightMap weights = default_palette();

  SetupStats setup;
  std::vector<double> window_cpu_ns;
  std::vector<double> reference_ns;
  double wall_s = 0.0;
  std::optional<ReferenceLoop> reference;
  if (!options.traced) reference.emplace();
  std::shared_ptr<const divpp::context::SamplerContext> context;
  std::optional<CountSimulation> sim;
  Xoshiro256 gen;
  // One set-up; the first starts the run, later ones add samples.
  const auto set_up = [&](bool keep) {
    const std::int64_t t0 = process_cpu_ns();
    divpp::context::SamplerContextCache cache;
    const std::int64_t a0 = now_ns();
    auto acquired = cache.acquire(kN, weights);
    setup.acquire_us.push_back(static_cast<double>(now_ns() - a0) * 1e-3);
    CountSimulation fresh = CountSimulation::equal_start(weights, kN);
    fresh.set_sampler_context(acquired);
    Xoshiro256 g(derive_seed(options.seed, 1));
    fresh.advance_with(Engine::kAuto, kWindow, g);  // warm-up window
    setup.cpu_seconds.push_back(
        static_cast<double>(process_cpu_ns() - t0) * 1e-9);
    setup.after_windows.push_back(window_cpu_ns.size());
    setup.cache = cache.stats();
    if (!keep) return;
    context = std::move(acquired);
    sim.emplace(std::move(fresh));
    gen = g;
  };
  set_up(true);

  const std::vector<std::int64_t> start_dark(sim->dark_counts().begin(),
                                             sim->dark_counts().end());
  const std::vector<std::int64_t> start_light(sim->light_counts().begin(),
                                              sim->light_counts().end());
  const std::int64_t start_time = sim->time();
  const std::int64_t replay_cap = 8 * kWindow;
  std::optional<divpp::batch::CollisionBatcher> batcher;
  if (options.traced) batcher.emplace(context);
  const auto advance = [&](CountSimulation& s, Engine engine, Xoshiro256& g) {
    s.advance_with(engine, s.time() + kWindow, g);
  };

  const std::int64_t run_start = now_ns();
  for (std::int64_t w = 0;
       w < kMinWindows || seconds_since(run_start) < options.seconds; ++w) {
    Scope window_span(trace, "window", w);
    std::optional<CountSimulation> start;
    if (options.traced) start.emplace(*sim);
    const Xoshiro256 start_gen = gen;
    const std::int64_t active_before = sim->active_transitions();

    const std::int64_t cpu0 = process_cpu_ns();
    const std::int64_t t0 = now_ns();
    sim->advance_with(Engine::kAuto, sim->time() + kWindow, gen);
    const std::int64_t t1 = now_ns();
    window_cpu_ns.push_back(static_cast<double>(process_cpu_ns() - cpu0));
    wall_s += static_cast<double>(t1 - t0) * 1e-9;
    trace.record("core.advance_with", w, t0, t1);
    if (reference)
      reference_ns.push_back(reference->time_steps(kReferenceSteps));
    if (w % kSetupEvery == kSetupEvery - 1) set_up(false);

    ++result.attempted;
    const std::string violation = boundary_violation(*sim, sim->supports());
    if (!violation.empty()) result.fail(violation);
    if (!options.traced) continue;

    // ---- traced: layer probes on copies of this window ----------------
    trace.count("core.interactions", static_cast<double>(kWindow));
    trace.count("core.active",
                static_cast<double>(sim->active_transitions() - active_before));
    count_draws(trace, "rng.draws", w, start_gen, gen, replay_cap, result);

    // The window again as a CollisionBatcher::advance loop with
    // run_batched's budgets and absorption short-cut.
    std::vector<std::int64_t> dark(start->dark_counts().begin(),
                                   start->dark_counts().end());
    std::vector<std::int64_t> light(start->light_counts().begin(),
                                    start->light_counts().end());
    Xoshiro256 rerun_gen = start_gen;
    std::int64_t calls = 0;
    std::int64_t adopts = 0;
    std::int64_t fades = 0;
    {
      Scope rerun_span(trace, "batch.rerun", w);
      std::int64_t remaining = kWindow;
      while (remaining > 0) {
        std::int64_t total_dark = 0;
        std::int64_t dark_ge2 = 0;
        for (const std::int64_t d : dark) {
          total_dark += d;
          if (d >= 2) ++dark_ge2;
        }
        if (dark_ge2 == 0 && (total_dark == kN || total_dark == 0)) break;
        const std::int64_t c0 = now_ns();
        const std::int64_t used =
            batcher->advance(dark, light, remaining, rerun_gen);
        trace.record("batch.advance", w, c0, now_ns());
        remaining -= used;
        ++calls;
        adopts += batcher->last_outcome().adopts;
        fades += batcher->last_outcome().fades;
      }
      trace.count("batch.interactions",
                  static_cast<double>(kWindow - remaining));
    }
    trace.count("batch.calls", static_cast<double>(calls));
    trace.count("batch.adopts", static_cast<double>(adopts));
    trace.count("batch.fades", static_cast<double>(fades));
    count_draws(trace, "rng.batch_draws", w, start_gen, rerun_gen, replay_cap,
                result);
    const bool rerun_is_main =
        rerun_gen == gen && std::ranges::equal(dark, sim->dark_counts()) &&
        std::ranges::equal(light, sim->light_counts());
    if (!rerun_is_main) {
      // Auto picked jump, or the re-run is not the batch engine's work.
      CountSimulation batch_copy = *start;
      Xoshiro256 g = start_gen;
      advance(batch_copy, Engine::kBatch, g);
      if (!(g == rerun_gen) ||
          !std::ranges::equal(dark, batch_copy.dark_counts()) ||
          !std::ranges::equal(light, batch_copy.light_counts()))
        result.fail("batch: advance loop does not reproduce run_batched");
    }

    if (w % kCompareEvery == 0)
      compare_engines(trace, w, *start, start_gen, *sim, gen, advance, result);
    time_rebuild(trace, w, *sim);
  }

  // The fluid limit from the timed start state (Chatzigiannakis &
  // Spirakis): at n = 10^8 the supports concentrate within O(sqrt(n))
  // of it, so a wrong law shows as an error of order 1/W = 0.03.
  const divpp::core::MeanFieldOde ode(weights);
  const auto predicted = ode.predict_counts_after(
      start_dark, start_light, sim->time() - start_time);
  double worst = 0.0;
  for (std::int64_t i = 0; i < sim->num_colors(); ++i) {
    const auto c = static_cast<std::size_t>(i);
    const double expected =
        static_cast<double>(predicted.dark[c] + predicted.light[c]);
    worst = std::max(worst, std::abs(static_cast<double>(sim->support(i)) -
                                     expected) /
                                static_cast<double>(kN));
  }
  result.detail["ode_max_error_of_n"] = std::to_string(worst);
  if (!(worst <= kOdeTolerance))
    result.fail("mean field: final supports off the fluid limit by " +
                std::to_string(worst) + " of n");

  if (options.traced) {
    put_layers(result, trace, setup, "core.advance_with");
  } else {
    put_end_to_end(result, setup, window_cpu_ns, reference_ns, wall_s,
                   kWindow);
  }
  return result;
}

Result run_tagged_fairness_n2e4(const Options& options, Trace& trace) {
  constexpr std::int64_t kN = 20'000;
  constexpr std::int64_t kWindow = 3'000'000;
  Result result;
  const divpp::core::WeightMap weights = default_palette();

  SetupStats setup;
  std::vector<double> window_cpu_ns;
  std::vector<double> reference_ns;
  double wall_s = 0.0;
  std::optional<ReferenceLoop> reference;
  if (!options.traced) reference.emplace();
  std::optional<TaggedCountSimulation> sim;
  Xoshiro256 gen;
  // One set-up; the first starts the run, later ones add samples.
  const auto set_up = [&](bool keep) {
    const std::int64_t t0 = process_cpu_ns();
    divpp::context::SamplerContextCache cache;
    const std::int64_t a0 = now_ns();
    auto acquired = cache.acquire(kN, weights);
    setup.acquire_us.push_back(static_cast<double>(now_ns() - a0) * 1e-3);
    CountSimulation counts = CountSimulation::proportional_start(weights, kN);
    counts.set_sampler_context(acquired);
    TaggedCountSimulation fresh(std::move(counts), 0, true);
    Xoshiro256 g(derive_seed(options.seed, 2));
    fresh.run_changes(Engine::kAuto, kWindow, g,
                      [](std::int64_t, AgentState) {});  // warm-up window
    setup.cpu_seconds.push_back(
        static_cast<double>(process_cpu_ns() - t0) * 1e-9);
    setup.after_windows.push_back(window_cpu_ns.size());
    setup.cache = cache.stats();
    if (!keep) return;
    sim.emplace(std::move(fresh));
    gen = g;
  };
  set_up(true);

  const AgentState first = sim->tagged_state();
  divpp::analysis::FairnessTracker tracker(std::span(&first, 1),
                                           sim->counts().num_colors(),
                                           sim->time());
  std::int64_t changes = 0;
  const TaggedCountSimulation::ChangeObserver observe =
      [&](std::int64_t when, AgentState next) {
        tracker.observe_change(0, when, next);
        ++changes;
      };
  const auto advance = [&](TaggedCountSimulation& s, Engine engine,
                           Xoshiro256& g) {
    s.run_changes(engine, s.time() + kWindow, g,
                  [](std::int64_t, AgentState) {});
  };
  const std::int64_t replay_cap = 8 * kWindow;

  const std::int64_t run_start = now_ns();
  for (std::int64_t w = 0;
       w < kMinWindows || seconds_since(run_start) < options.seconds; ++w) {
    Scope window_span(trace, "window", w);
    std::optional<TaggedCountSimulation> start;
    if (options.traced) start.emplace(*sim);
    const Xoshiro256 start_gen = gen;
    const std::int64_t active_before = sim->counts().active_transitions();
    const std::int64_t changes_before = changes;

    const std::int64_t cpu0 = process_cpu_ns();
    const std::int64_t t0 = now_ns();
    sim->run_changes(Engine::kAuto, sim->time() + kWindow, gen, observe);
    const std::int64_t t1 = now_ns();
    window_cpu_ns.push_back(static_cast<double>(process_cpu_ns() - cpu0));
    wall_s += static_cast<double>(t1 - t0) * 1e-9;
    trace.record("core.run_changes", w, t0, t1);
    if (reference)
      reference_ns.push_back(reference->time_steps(kReferenceSteps));
    if (w % kSetupEvery == kSetupEvery - 1) set_up(false);

    ++result.attempted;
    const CountSimulation& counts = sim->counts();
    std::string violation = boundary_violation(counts, counts.supports());
    const AgentState tagged = sim->tagged_state();
    const auto cell = static_cast<std::size_t>(tagged.color);
    if (violation.empty() &&
        (tagged.is_dark() ? counts.dark_counts()[cell]
                          : counts.light_counts()[cell]) < 1)
      violation = "tagged: the tagged agent's cell is empty";
    if (!violation.empty()) result.fail(violation);
    if (!options.traced) continue;

    trace.count("core.interactions", static_cast<double>(kWindow));
    trace.count("core.active", static_cast<double>(
                                   counts.active_transitions() - active_before));
    trace.count("tagged.changes",
                static_cast<double>(changes - changes_before));
    count_draws(trace, "rng.draws", w, start_gen, gen, replay_cap, result);
    if (w % kCompareEvery == 0)
      compare_engines(trace, w, *start, start_gen, *sim, gen, advance, result);
    time_rebuild(trace, w, *sim);
  }

  // Fairness (Defn 1.1(2)): the tagged agent's occupancy of colour i
  // tends to w_i/W.  The tolerance is five standard deviations of a
  // proportion estimated from changes/2 independent sojourns.
  tracker.finalize(sim->time());
  const double error = tracker.worst_absolute_error(weights);
  const double tolerance =
      5.0 * std::sqrt(0.25 / std::max(1.0, static_cast<double>(changes) / 2));
  result.detail["tagged_changes"] = std::to_string(changes);
  result.detail["occupancy_error"] = std::to_string(error);
  result.detail["occupancy_tolerance"] = std::to_string(tolerance);
  if (changes < 10 || !(error <= tolerance))
    result.fail("fairness: occupancy error " + std::to_string(error) +
                " over tolerance " + std::to_string(tolerance) + " after " +
                std::to_string(changes) + " changes");

  if (options.traced) {
    put_layers(result, trace, setup, "core.run_changes");
  } else {
    put_end_to_end(result, setup, window_cpu_ns, reference_ns, wall_s,
                   kWindow);
  }
  return result;
}

}  // namespace perfbench
