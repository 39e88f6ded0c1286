#include "core/count_simulation.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "batch/collision_batch.h"
#include "check/invariant.h"
#include "context/sampler_context.h"
#include "rng/distributions.h"

namespace divpp::core {

Engine parse_engine(const std::string& name) {
  if (name == "step") return Engine::kStep;
  if (name == "jump") return Engine::kJump;
  if (name == "batch") return Engine::kBatch;
  if (name == "auto") return Engine::kAuto;
  throw std::invalid_argument("parse_engine: unknown engine '" + name +
                              "' (valid: step|jump|batch|auto)");
}

const char* engine_name(Engine engine) {
  switch (engine) {
    case Engine::kStep: return "step";
    case Engine::kJump: return "jump";
    case Engine::kBatch: return "batch";
    case Engine::kAuto: return "auto";
  }
  throw std::logic_error("engine_name: unknown engine");
}

CountSimulation::CountSimulation(WeightMap weights,
                                 std::vector<std::int64_t> dark,
                                 std::vector<std::int64_t> light)
    : weights_(std::move(weights)), dark_(std::move(dark)),
      light_(std::move(light)) {
  validate();
  n_ = std::accumulate(dark_.begin(), dark_.end(), std::int64_t{0}) +
       std::accumulate(light_.begin(), light_.end(), std::int64_t{0});
  if (n_ < 2)
    throw std::invalid_argument("CountSimulation: need at least two agents");
  rebuild_derived();
}

namespace {

/// Palettes up to this size draw classes by a branch-free scan over the
/// flat counts (sampling::scan_find_excluding) and keep no count trees;
/// larger ones use the FenwickCounts descent.  Both map every draw to the
/// same colour, so the cutoff is invisible to trajectories.  Measured
/// with e15_micro: per isolated draw the scan stops winning between 16
/// and 20; in the jump chain, which also saves the tree upkeep, it wins
/// at 20, ties at 32 and loses at 64.  16 keeps the k = 8 palettes of
/// the benchmarks on the scan and the k = 20 golden table on the trees,
/// so both layouts stay pinned.
constexpr std::int64_t kPickClassLinearCutoff = 16;

}  // namespace

// The per-transition helpers (count_trees_live, find_color, apply_adopt,
// apply_fade, on_dark_changed) are `inline` so they compile into the jump
// chain's loop: out of line, their calls cost the tagged benchmark about
// a tenth of its throughput.

inline bool CountSimulation::count_trees_live() const noexcept {
  return static_cast<std::int64_t>(dark_.size()) > kPickClassLinearCutoff;
}

inline ColorId CountSimulation::find_color(bool dark, std::int64_t target,
                                           std::int64_t excluded)
    const noexcept {
  if (count_trees_live())
    return static_cast<ColorId>(
        (dark ? dark_tree_ : light_tree_).find_excluding(target, excluded));
  return static_cast<ColorId>(
      sampling::scan_find_excluding(dark ? dark_ : light_, target, excluded));
}

void CountSimulation::rebuild_derived() {
  const auto k = dark_.size();
  total_dark_ = std::accumulate(dark_.begin(), dark_.end(), std::int64_t{0});
  if (count_trees_live()) {
    dark_tree_.assign(dark_);
    light_tree_.assign(light_);
  } else {
    dark_tree_ = sampling::FenwickCounts{};
    light_tree_ = sampling::FenwickCounts{};
  }
  inv_weight_.resize(k);
  dark_ge2_ = 0;
  std::vector<double> flips(k);
  for (std::size_t i = 0; i < k; ++i) {
    inv_weight_[i] = 1.0 / weights_.weights()[i];
    flips[i] = static_cast<double>(dark_[i]) *
               static_cast<double>(dark_[i] - 1) * inv_weight_[i];
    if (dark_[i] >= 2) ++dark_ge2_;
  }
  flip_tree_.assign(flips);
  SIM_IF_CHECKED(check_invariants());
}

void CountSimulation::check_invariants() const {
#ifdef SIM_CHECKED
  const auto k = static_cast<std::size_t>(weights_.num_colors());
  SIM_DCHECK_EQ(dark_.size(), k);
  SIM_DCHECK_EQ(light_.size(), k);
  std::int64_t sum_dark = 0;
  std::int64_t sum_light = 0;
  std::int64_t ge2 = 0;
  // Class draws read the count trees above the scan cutoff and the flat
  // counts themselves below it, where the trees must stay empty.
  const bool trees = count_trees_live();
  SIM_DCHECK_EQ(dark_tree_.size(), trees ? static_cast<std::int64_t>(k) : 0);
  SIM_DCHECK_EQ(light_tree_.size(), trees ? static_cast<std::int64_t>(k) : 0);
  for (std::size_t i = 0; i < k; ++i) {
    SIM_DCHECK_GE(dark_[i], 0);
    SIM_DCHECK_GE(light_[i], 0);
    sum_dark += dark_[i];
    sum_light += light_[i];
    if (dark_[i] >= 2) ++ge2;
    // Derived sampling state in lockstep with the raw counts.
    if (trees) {
      SIM_DCHECK_EQ(dark_tree_.get(static_cast<std::int64_t>(i)), dark_[i]);
      SIM_DCHECK_EQ(light_tree_.get(static_cast<std::int64_t>(i)),
                    light_[i]);
    }
    // Flip propensity f_i = A_i (A_i − 1) / w_i is recomputed exactly on
    // every dark change, so the leaf must match to the last bit.
    const double expected_flip = static_cast<double>(dark_[i]) *
                                 static_cast<double>(dark_[i] - 1) *
                                 inv_weight_[i];
    SIM_DCHECK_EQ(flip_tree_.get(static_cast<std::int64_t>(i)),
                  expected_flip);
  }
  SIM_DCHECK_EQ(sum_dark + sum_light, n_);          // count conservation
  SIM_DCHECK_EQ(sum_dark, total_dark_);
  if (trees) {
    SIM_DCHECK_EQ(sum_dark, dark_tree_.total());
    SIM_DCHECK_EQ(sum_light, light_tree_.total());
  }
  SIM_DCHECK_EQ(ge2, dark_ge2_);
  // The flip total drifts by at most one rounding per incremental update
  // between FenwickPropensities' periodic exact rebuilds; k·2⁻⁵² relative
  // is a generous envelope for any k the rebuild period allows.
  double exact_flip_total = 0.0;
  for (std::size_t i = 0; i < k; ++i)
    exact_flip_total += flip_tree_.get(static_cast<std::int64_t>(i));
  const double flip_tol =
      1e-9 * std::max(1.0, exact_flip_total) + 1e-300;
  SIM_DCHECK_LE(std::fabs(flip_tree_.total() - exact_flip_total), flip_tol);
  SIM_DCHECK_GE(time_, 0);
  // Event queue: sorted by firing time, nothing already in the past.
  for (std::size_t e = 0; e < pending_events_.size(); ++e) {
    SIM_DCHECK_GE(pending_events_[e].time, time_);
    if (e > 0)
      SIM_DCHECK_GE(pending_events_[e].time, pending_events_[e - 1].time);
  }
#endif  // SIM_CHECKED
}

void CountSimulation::validate() const {
  const auto k = static_cast<std::size_t>(weights_.num_colors());
  if (dark_.size() != k || light_.size() != k)
    throw std::invalid_argument(
        "CountSimulation: count vectors must match the palette size");
  for (std::size_t i = 0; i < k; ++i) {
    if (dark_[i] < 0 || light_[i] < 0)
      throw std::invalid_argument("CountSimulation: negative count");
  }
}

CountSimulation CountSimulation::proportional_start(WeightMap weights,
                                                    std::int64_t n) {
  const std::int64_t k = weights.num_colors();
  if (n < std::max<std::int64_t>(2, k))
    throw std::invalid_argument("proportional_start: need n >= max(2, k)");
  // Largest-remainder apportionment with a floor of one agent per colour.
  std::vector<std::int64_t> supports(static_cast<std::size_t>(k), 1);
  std::int64_t assigned = k;
  std::vector<std::pair<double, ColorId>> remainders;
  for (ColorId i = 0; i < k; ++i) {
    const double exact = weights.fair_share(i) * static_cast<double>(n);
    const auto extra = static_cast<std::int64_t>(std::floor(exact)) - 1;
    if (extra > 0) {
      supports[static_cast<std::size_t>(i)] += extra;
      assigned += extra;
    }
    remainders.emplace_back(exact - std::floor(exact), i);
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::size_t cursor = 0;
  while (assigned < n) {
    const ColorId i = remainders[cursor % remainders.size()].second;
    ++supports[static_cast<std::size_t>(i)];
    ++assigned;
    ++cursor;
  }
  // The one-agent floor can overshoot when n is barely above k; shave the
  // excess off the best-supported colours.
  while (assigned > n) {
    const auto it = std::max_element(supports.begin(), supports.end());
    if (*it <= 1)
      throw std::invalid_argument("proportional_start: n too small for k");
    --*it;
    --assigned;
  }
  return CountSimulation(std::move(weights), std::move(supports),
                         std::vector<std::int64_t>(static_cast<std::size_t>(k),
                                                   0));
}

CountSimulation CountSimulation::adversarial_start(WeightMap weights,
                                                   std::int64_t n) {
  const std::int64_t k = weights.num_colors();
  if (n < k + 1)
    throw std::invalid_argument("adversarial_start: need n >= k + 1");
  std::vector<std::int64_t> supports(static_cast<std::size_t>(k), 1);
  supports[0] = n - (k - 1);
  return CountSimulation(std::move(weights), std::move(supports),
                         std::vector<std::int64_t>(static_cast<std::size_t>(k),
                                                   0));
}

CountSimulation CountSimulation::equal_start(WeightMap weights,
                                             std::int64_t n) {
  const std::int64_t k = weights.num_colors();
  if (n < std::max<std::int64_t>(2, k))
    throw std::invalid_argument("equal_start: need n >= max(2, k)");
  std::vector<std::int64_t> supports(static_cast<std::size_t>(k), n / k);
  for (std::int64_t i = 0; i < n % k; ++i)
    ++supports[static_cast<std::size_t>(i)];
  return CountSimulation(std::move(weights), std::move(supports),
                         std::vector<std::int64_t>(static_cast<std::size_t>(k),
                                                   0));
}

std::int64_t CountSimulation::dark(ColorId i) const {
  if (i < 0 || i >= num_colors())
    throw std::out_of_range("CountSimulation::dark: colour out of range");
  return dark_[static_cast<std::size_t>(i)];
}

std::int64_t CountSimulation::light(ColorId i) const {
  if (i < 0 || i >= num_colors())
    throw std::out_of_range("CountSimulation::light: colour out of range");
  return light_[static_cast<std::size_t>(i)];
}

std::int64_t CountSimulation::support(ColorId i) const {
  return dark(i) + light(i);
}

std::vector<std::int64_t> CountSimulation::supports() const {
  std::vector<std::int64_t> out(dark_.size());
  for (std::size_t i = 0; i < dark_.size(); ++i) out[i] = dark_[i] + light_[i];
  return out;
}

std::int64_t CountSimulation::min_dark() const noexcept {
  // O(k) at query time: every caller reads it at a window boundary, so a
  // per-transition min structure would cost more than it saves.
  return *std::min_element(dark_.begin(), dark_.end());
}

double CountSimulation::active_probability() const noexcept {
  const double denom =
      static_cast<double>(n_) * static_cast<double>(n_ - 1);
  const double adopt = static_cast<double>(total_light()) *
                       static_cast<double>(total_dark_);
  return (adopt + flip_tree_.total()) / denom;
}

namespace {

/// Below this size a collision batch covers only O(√n) interactions and
/// its fixed per-batch overhead dominates; plain stepping wins and keeps
/// step()'s draw sequence.  Distributionally the cutoff is invisible.
/// The tagged engines share the cutoff: below it every tagged engine
/// falls back to the step loop, bit-identically.
constexpr std::int64_t kBatchMinPopulation = 64;

/// The tagged decomposition draws involvement positions one window chunk
/// at a time so the position buffer stays bounded (expected 2·chunk/n
/// entries, worst case at the smallest batched n).  Chunking is exact:
/// involvement indicators are i.i.d. per interaction, so Binomial counts
/// over disjoint chunks compose.
constexpr std::int64_t kTaggedInvolvementChunk = 1 << 22;

// ---- auto-engine cost model ------------------------------------------
// The jump chain pays a roughly constant cost per *active transition*
// (geometric skip + propensity pick + two tree updates); the batch
// engine pays a roughly constant cost per *batch*, amortised over the
// expected collision-free stretch E[ℓ] = √(πn/8) (clamped by the window
// when the window is shorter).  The constants below are coarse
// calibrations from bench/e20_batch on the reference host — only the
// *ordering* of the two predictions matters, and near the crossover the
// engines are within ~10% of each other anyway, so the model tolerates
// large calibration error.
// The jump constant is deliberately not re-fitted when the jump kernel
// gets faster: a new value moves auto's jump/batch crossover, which
// changes the engine — and so the RNG stream — auto picks in existing
// runs.  Auto must stay a pure function of the simulation state (never
// fed by run-time timings), so a re-fit is an offline change of this
// constant under the stream-moving rule: it re-captures the golden
// streams in the same change.
constexpr double kAutoJumpNsPerTransition = 70.0;
constexpr double kAutoBatchNsBase = 1400.0;
constexpr double kAutoBatchNsPerColor = 225.0;
/// Per-window EWMA decay of the measured active-transition fraction:
/// new_estimate = (1 − λ)·old + λ·measured with λ = 0.5, so a regime
/// change (an adversary event, a phase transition) is absorbed within a
/// couple of windows while single-window noise is halved.
constexpr double kAutoEwmaDecay = 0.5;
/// Windows shorter than this contribute nothing to the EWMA: a handful
/// of interactions (event splitting can produce 1-interaction windows)
/// measures a fraction of essentially 0 or 1 and would whipsaw the
/// estimate — and the engine choice for such a window is irrelevant
/// anyway.
constexpr std::int64_t kAutoEwmaMinWindow = 256;
constexpr double kPiOver8 = 0.39269908169872414;

}  // namespace

CountSimulation::ClassPick CountSimulation::pick_class(
    rng::Xoshiro256& gen, std::int64_t total, const ClassPick* excluded) const {
  // Single uniform draw over the eligible agents, mapped dark-block-first.
  std::int64_t target = rng::uniform_below(gen, total);
  const std::int64_t ex_dark =
      (excluded != nullptr && excluded->dark) ? excluded->color : -1;
  const std::int64_t dark_avail = total_dark_ - (ex_dark >= 0 ? 1 : 0);
  if (target < dark_avail) return {true, find_color(true, target, ex_dark)};
  target -= dark_avail;
  const std::int64_t ex_light =
      (excluded != nullptr && !excluded->dark) ? excluded->color : -1;
  const std::int64_t light_avail = total_light() - (ex_light >= 0 ? 1 : 0);
  if (target >= light_avail)
    throw std::logic_error("CountSimulation::pick_class: inconsistent totals");
  return {false, find_color(false, target, ex_light)};
}

inline void CountSimulation::on_dark_changed(std::size_t i) noexcept {
  const std::int64_t d = dark_[i];
  flip_tree_.set(static_cast<std::int64_t>(i),
                 static_cast<double>(d) * static_cast<double>(d - 1) *
                     inv_weight_[i]);
}

inline void CountSimulation::apply_adopt(ColorId from, ColorId to) noexcept {
  const auto f = static_cast<std::size_t>(from);
  const auto t = static_cast<std::size_t>(to);
  // The adopting light initiator always lives in the counts, so a
  // violation means a sampler or tree descent returned an out-of-support
  // category.  (No check on dark_[to]: under the tagged hold-out the
  // responder may be the excluded tagged agent, whose cell reads 0.)
  SIM_ASSERT(light_[f] >= 1);
  ++active_transitions_;
  --light_[f];
  ++dark_[t];
  if (count_trees_live()) {
    light_tree_.add(from, -1);
    dark_tree_.add(to, +1);
  }
  if (dark_[t] == 2) ++dark_ge2_;
  on_dark_changed(t);
  ++total_dark_;
}

inline void CountSimulation::apply_fade(ColorId i) noexcept {
  const auto c = static_cast<std::size_t>(i);
  // The fading dark agent always lives in the counts (its pair partner
  // may be the held-out tagged agent, so >= 2 would over-assert).
  SIM_ASSERT(dark_[c] >= 1);
  ++active_transitions_;
  --dark_[c];
  if (dark_[c] == 1) --dark_ge2_;
  on_dark_changed(c);
  ++light_[c];
  if (count_trees_live()) {
    dark_tree_.add(i, -1);
    light_tree_.add(i, +1);
  }
  --total_dark_;
}

CountStepOutcome CountSimulation::step(rng::Xoshiro256& gen) {
  const ClassPick initiator = pick_class(gen, n_, nullptr);
  const ClassPick responder = pick_class(gen, n_ - 1, &initiator);
  CountStepOutcome outcome;
  if (!initiator.dark && responder.dark) {
    apply_adopt(initiator.color, responder.color);
    outcome = {Transition::kAdopt, initiator.color, responder.color};
  } else if (initiator.dark && responder.dark &&
             initiator.color == responder.color) {
    const double w = weights_.weight(initiator.color);
    if (rng::bernoulli(gen, 1.0 / w)) {
      apply_fade(initiator.color);
      outcome = {Transition::kFade, initiator.color, initiator.color};
    }
  }
  ++time_;
  return outcome;
}

void CountSimulation::advance_with(Engine engine, std::int64_t target_time,
                                   rng::Xoshiro256& gen) {
  if (target_time < time_)
    throw std::invalid_argument("advance_with: target time is in the past");
  SIM_IF_CHECKED(check_invariants());
  while (!pending_events_.empty() &&
         pending_events_.front().time <= target_time) {
    PendingEvent event = std::move(pending_events_.front());
    pending_events_.erase(pending_events_.begin());
    if (event.time < time_)
      throw std::invalid_argument(
          "advance_with: a scheduled event's time has already passed (was "
          "the simulation advanced with bare step() calls?)");
    if (event.time > time_) advance_core(engine, event.time, gen);
    // Window/event alignment: every engine must stop exactly at the
    // event's interaction index — a batch that overshoots would apply
    // interactions the event was scheduled to precede.
    SIM_DCHECK_EQ(time_, event.time);
    event.action(*this);
  }
  if (time_ < target_time) advance_core(engine, target_time, gen);
  SIM_DCHECK_EQ(time_, target_time);
  SIM_IF_CHECKED(check_invariants());
}

std::int64_t CountSimulation::schedule_event(std::int64_t when,
                                             EventAction action) {
  if (when < time_)
    throw std::invalid_argument(
        "schedule_event: event time is in the past");
  if (!action)
    throw std::invalid_argument("schedule_event: empty action");
  const std::int64_t handle = next_event_handle_++;
  // Insert keeping (time, registration order) — the vector stays small
  // (an adversary script), so linear insertion is fine.
  auto it = pending_events_.end();
  while (it != pending_events_.begin() && std::prev(it)->time > when) --it;
  pending_events_.insert(it, PendingEvent{when, handle, std::move(action)});
  return handle;
}

std::vector<std::pair<std::int64_t, std::int64_t>>
CountSimulation::pending_event_schedule() const {
  std::vector<std::pair<std::int64_t, std::int64_t>> out;
  out.reserve(pending_events_.size());
  for (const PendingEvent& event : pending_events_)
    out.emplace_back(event.time, event.handle);
  return out;
}

bool CountSimulation::rebind_scheduled_event(std::int64_t handle,
                                             EventAction action) {
  if (!action)
    throw std::invalid_argument("rebind_scheduled_event: empty action");
  for (PendingEvent& event : pending_events_) {
    if (event.handle == handle) {
      event.action = std::move(action);
      return true;
    }
  }
  return false;
}

void CountSimulation::canonicalize() { rebuild_derived(); }

void CountSimulation::set_sampler_context(
    std::shared_ptr<const context::SamplerContext> context) {
  if (context != nullptr && !(context->weights() == weights_))
    throw std::invalid_argument(
        "set_sampler_context: context palette does not match the "
        "simulation's");
  sampler_context_ = std::move(context);
  // Rebuilt lazily on the next batched window, from the context when one
  // is attached.  The batcher holds no trajectory state (per-advance
  // scratch plus a deterministic table), so dropping it changes nothing
  // observable.
  batcher_.reset();
}

bool CountSimulation::cancel_scheduled_event(std::int64_t handle) noexcept {
  for (auto it = pending_events_.begin(); it != pending_events_.end(); ++it) {
    if (it->handle == handle) {
      pending_events_.erase(it);
      return true;
    }
  }
  return false;
}

void CountSimulation::advance_core(Engine engine, std::int64_t target_time,
                                   rng::Xoshiro256& gen) {
  switch (engine) {
    case Engine::kStep: step_to(target_time, gen); return;
    case Engine::kJump: jump_to(target_time, gen); return;
    case Engine::kBatch: batch_to(target_time, gen); return;
    case Engine::kAuto: auto_to(target_time, gen); return;
  }
  throw std::logic_error("advance_core: unknown engine");
}

void CountSimulation::step_to(std::int64_t target_time,
                              rng::Xoshiro256& gen) {
  while (time_ < target_time) (void)step(gen);
}

void CountSimulation::jump_to(std::int64_t target_time,
                              rng::Xoshiro256& gen) {
  const double denom = static_cast<double>(n_) * static_cast<double>(n_ - 1);
  while (time_ < target_time) {
    // Absorption is decided on exact integers (an adopt needs a light and
    // a dark agent; a fade needs two same-colour dark agents) so rounding
    // in the propensities can never mis-detect it at huge n.
    if (is_absorbed()) {
      time_ = target_time;
      return;
    }
    // Propensities are maintained incrementally: the adopt weight is a
    // product of running totals and the flip total is the tree's O(1)
    // running sum — no O(k) rebuild per active transition.
    const auto adopt_weight = static_cast<double>(total_light()) *
                              static_cast<double>(total_dark_);
    const double flip_total = flip_tree_.total();
    const double p_active =
        std::min((adopt_weight + flip_total) / denom, 1.0);
    if (!(p_active > 0.0)) {
      // Defensive: not absorbed, so the exact propensity is positive; a
      // vanishing float total means the drifting tree lost it — resync.
      rebuild_derived();
      continue;
    }
    // Steps before the next active one are geometric(p_active); by
    // memorylessness we may stop at the window edge without bias.
    const std::int64_t skip = rng::geometric_failures(gen, p_active);
    if (time_ + skip >= target_time) {
      time_ = target_time;
      return;
    }
    time_ += skip;
    // Pick which active transition fired.  A branch is only eligible when
    // its exact integer precondition holds; the propensity draw decides
    // between them when both are live.
    const double pick = rng::uniform01(gen) * (adopt_weight + flip_total);
    const bool do_adopt =
        total_light() > 0 && (dark_ge2_ == 0 || pick < adopt_weight);
    if (do_adopt) {
      const ColorId from =
          find_color(false, rng::uniform_below(gen, total_light()), -1);
      const ColorId to =
          find_color(true, rng::uniform_below(gen, total_dark_), -1);
      apply_adopt(from, to);
    } else {
      const auto faded = static_cast<ColorId>(
          flip_tree_.find(std::max(pick - adopt_weight, 0.0)));
      apply_fade(faded);
    }
    ++time_;
  }
}

void CountSimulation::batch_to(std::int64_t target_time,
                               rng::Xoshiro256& gen) {
  if (n_ < kBatchMinPopulation) {
    step_to(target_time, gen);
    return;
  }
  if (!batcher_.has_value() || batcher_->num_colors() != num_colors()) {
    if (sampler_context_ != nullptr &&
        sampler_context_->weights() == weights_) {
      batcher_.emplace(sampler_context_);
    } else {
      batcher_.emplace(weights_);
    }
  }
  batch::CollisionBatcher& batcher = *batcher_;
  while (time_ < target_time) {
    // The batcher mutates raw counts; keep the exact-integer absorption
    // counters current so an absorbed configuration short-circuits the
    // remaining window (every further interaction is a no-op).
    total_dark_ = std::accumulate(dark_.begin(), dark_.end(),
                                  std::int64_t{0});
    dark_ge2_ = 0;
    for (const std::int64_t d : dark_)
      if (d >= 2) ++dark_ge2_;
    if (is_absorbed()) {
      time_ = target_time;
      break;
    }
    const std::int64_t budget = target_time - time_;
    const std::int64_t consumed = batcher.advance(dark_, light_, budget, gen);
    // A batch may never overrun its window: the run length is truncated
    // at the budget and the collision interaction only counts when it
    // fits (event alignment in advance_with depends on this).
    SIM_ASSERT(consumed >= 1);
    SIM_DCHECK_LE(consumed, budget);
    time_ += consumed;
    const batch::CollisionBatcher::Outcome& out = batcher.last_outcome();
    active_transitions_ += out.adopts + out.fades;
  }
  rebuild_derived();
}

double CountSimulation::active_fraction_estimate() const noexcept {
  return active_ewma_ >= 0.0 ? active_ewma_ : active_probability();
}

Engine CountSimulation::pick_auto_engine(
    std::int64_t window) const noexcept {
  // Tiny populations: kBatch would fall back to plain stepping,
  // which the jump chain strictly dominates.
  if (n_ < kBatchMinPopulation) return Engine::kJump;
  const double jump_ns =
      kAutoJumpNsPerTransition * active_fraction_estimate();
  const double expected_stretch =
      std::sqrt(kPiOver8 * static_cast<double>(n_));
  const double effective_stretch =
      std::min(expected_stretch, static_cast<double>(window));
  const double batch_ns =
      (kAutoBatchNsBase +
       kAutoBatchNsPerColor * static_cast<double>(num_colors())) /
      effective_stretch;
  return batch_ns < jump_ns ? Engine::kBatch : Engine::kJump;
}

void CountSimulation::auto_to(std::int64_t target_time,
                              rng::Xoshiro256& gen) {
  const std::int64_t window = target_time - time_;
  if (window <= 0) return;
  const Engine engine = pick_auto_engine(window);
  const std::int64_t before = active_transitions_;
  if (engine == Engine::kJump) {
    jump_to(target_time, gen);
  } else {
    batch_to(target_time, gen);
  }
  if (window < kAutoEwmaMinWindow) return;  // too noisy to learn from
  const double measured =
      static_cast<double>(active_transitions_ - before) /
      static_cast<double>(window);
  active_ewma_ = active_ewma_ < 0.0
                     ? measured
                     : (1.0 - kAutoEwmaDecay) * active_ewma_ +
                           kAutoEwmaDecay * measured;
}

void CountSimulation::add_agents(ColorId i, std::int64_t count,
                                 bool dark_shade) {
  if (i < 0 || i >= num_colors())
    throw std::out_of_range("add_agents: colour out of range");
  if (count < 0) throw std::invalid_argument("add_agents: negative count");
  if (dark_shade) {
    dark_[static_cast<std::size_t>(i)] += count;
  } else {
    light_[static_cast<std::size_t>(i)] += count;
  }
  n_ += count;
  rebuild_derived();
}

void CountSimulation::add_color(double weight, std::int64_t dark_count) {
  if (dark_count < 1)
    throw std::invalid_argument(
        "add_color: new colours must join with at least one dark agent "
        "(paper sustainability requirement)");
  weights_ = weights_.with_color(weight);
  dark_.push_back(dark_count);
  light_.push_back(0);
  n_ += dark_count;
  // The palette outgrew any attached shared context; drop it so the
  // batch engine rebuilds private layouts for the new palette.
  sampler_context_.reset();
  rebuild_derived();
}

void CountSimulation::recolor_all(ColorId victim, ColorId heir) {
  if (victim < 0 || victim >= num_colors() || heir < 0 ||
      heir >= num_colors())
    throw std::out_of_range("recolor_all: colour out of range");
  if (victim == heir)
    throw std::invalid_argument("recolor_all: victim == heir");
  dark_[static_cast<std::size_t>(heir)] +=
      dark_[static_cast<std::size_t>(victim)];
  light_[static_cast<std::size_t>(heir)] +=
      light_[static_cast<std::size_t>(victim)];
  dark_[static_cast<std::size_t>(victim)] = 0;
  light_[static_cast<std::size_t>(victim)] = 0;
  rebuild_derived();
}

void CountSimulation::transfer(ColorId from, ColorId to,
                               std::int64_t dark_moved,
                               std::int64_t light_moved) {
  if (from < 0 || from >= num_colors() || to < 0 || to >= num_colors())
    throw std::out_of_range("transfer: colour out of range");
  if (from == to) throw std::invalid_argument("transfer: from == to");
  if (dark_moved < 0 || light_moved < 0)
    throw std::invalid_argument("transfer: negative move counts");
  if (dark_moved > dark_[static_cast<std::size_t>(from)] ||
      light_moved > light_[static_cast<std::size_t>(from)])
    throw std::invalid_argument("transfer: not enough agents to move");
  dark_[static_cast<std::size_t>(from)] -= dark_moved;
  dark_[static_cast<std::size_t>(to)] += dark_moved;
  light_[static_cast<std::size_t>(from)] -= light_moved;
  light_[static_cast<std::size_t>(to)] += light_moved;
  rebuild_derived();
}

TaggedCountSimulation::TaggedCountSimulation(CountSimulation sim,
                                             ColorId tagged_color,
                                             bool tagged_dark)
    : sim_(std::move(sim)),
      tagged_{tagged_color, tagged_dark ? kDark : kLight} {
  const std::int64_t pool = tagged_dark ? sim_.dark(tagged_color)
                                        : sim_.light(tagged_color);
  if (pool < 1)
    throw std::invalid_argument(
        "TaggedCountSimulation: no agent with the requested state to tag");
  if (sim_.pending_event_count() != 0)
    throw std::invalid_argument(
        "TaggedCountSimulation: the simulation has pending scheduled events, "
        "which a tagged run cannot fire");
}

void TaggedCountSimulation::step(rng::Xoshiro256& gen) {
  const std::int64_t n = sim_.n_;
  const CountSimulation::ClassPick self{tagged_.is_dark(), tagged_.color};
  if (rng::uniform_below(gen, n) == 0) {
    // The tagged agent is the scheduled initiator.
    const CountSimulation::ClassPick responder =
        sim_.pick_class(gen, n - 1, &self);
    if (!self.dark && responder.dark) {
      sim_.apply_adopt(self.color, responder.color);
      tagged_ = AgentState{responder.color, kDark};
    } else if (self.dark && responder.dark && self.color == responder.color) {
      if (rng::bernoulli(gen, 1.0 / sim_.weights_.weight(self.color))) {
        sim_.apply_fade(self.color);
        tagged_.shade = kLight;
      }
    }
  } else {
    // Another agent is scheduled; it may observe the tagged agent, but a
    // one-way rule never mutates the responder, so only counts move.
    const CountSimulation::ClassPick initiator =
        sim_.pick_class(gen, n - 1, &self);
    const CountSimulation::ClassPick responder =
        sim_.pick_class(gen, n - 1, &initiator);
    if (!initiator.dark && responder.dark) {
      sim_.apply_adopt(initiator.color, responder.color);
    } else if (initiator.dark && responder.dark &&
               initiator.color == responder.color) {
      if (rng::bernoulli(gen, 1.0 / sim_.weights_.weight(initiator.color))) {
        sim_.apply_fade(initiator.color);
      }
    }
  }
  ++sim_.time_;
}

void TaggedCountSimulation::advance_with(Engine engine,
                                         std::int64_t target_time,
                                         rng::Xoshiro256& gen) {
  run(engine, target_time, gen, nullptr);
}

void TaggedCountSimulation::run_changes(Engine engine,
                                        std::int64_t target_time,
                                        rng::Xoshiro256& gen,
                                        const ChangeObserver& on_change) {
  run(engine, target_time, gen, &on_change);
}

void TaggedCountSimulation::run(Engine engine, std::int64_t target_time,
                                rng::Xoshiro256& gen,
                                const ChangeObserver* on_change) {
  if (on_change != nullptr && !*on_change)
    throw std::invalid_argument(
        "TaggedCountSimulation::run_changes: empty observer");
  if (target_time < sim_.time_)
    throw std::invalid_argument(
        "TaggedCountSimulation: target time is in the past");
  if (engine == Engine::kStep || sim_.n_ < kBatchMinPopulation) {
    run_steps(target_time, gen, on_change);
  } else {
    run_decomposed(engine, target_time, gen, on_change);
  }
}

void TaggedCountSimulation::run_steps(std::int64_t target_time,
                                      rng::Xoshiro256& gen,
                                      const ChangeObserver* on_change) {
  while (sim_.time_ < target_time) {
    const AgentState before = tagged_;
    const std::int64_t pre_step = sim_.time_;
    step(gen);
    if (on_change != nullptr && !(tagged_ == before))
      (*on_change)(pre_step, tagged_);
  }
}

void TaggedCountSimulation::run_decomposed(Engine engine,
                                           std::int64_t target_time,
                                           rng::Xoshiro256& gen,
                                           const ChangeObserver* on_change) {
  // Hold the tagged agent out of the lumped counts for the whole run:
  // conditioned on the involvement positions drawn below, every other
  // interaction is a uniform ordered pair of the remaining n − 1 agents —
  // a standard lumped chain `engine` advances at full speed, which by
  // construction can never relocate the tagged agent (the run-scope form
  // of step()'s counts-minus-tagged initiator draw).
  const std::int64_t n = sim_.n_;
  {
    auto& cell = tagged_.is_dark()
                     ? sim_.dark_[static_cast<std::size_t>(tagged_.color)]
                     : sim_.light_[static_cast<std::size_t>(tagged_.color)];
    // The tagged agent's own cell must still hold it (used-set ⊆
    // support): anything else means the hold-out bookkeeping leaked.
    SIM_ASSERT(cell >= 1);
    --cell;
  }
  sim_.n_ = n - 1;
  sim_.rebuild_derived();
  while (sim_.time_ < target_time) {
    const std::int64_t chunk =
        std::min(target_time - sim_.time_, kTaggedInvolvementChunk);
    const std::int64_t chunk_start = sim_.time_;
    batch::CollisionBatcher::draw_tagged_involvement(gen, n, chunk,
                                                     involvement_);
    SIM_IF_CHECKED({
      // Involvement positions: strictly increasing, inside the chunk.
      for (std::size_t p = 0; p < involvement_.size(); ++p) {
        SIM_DCHECK_GE(involvement_[p], 0);
        SIM_DCHECK(involvement_[p] < chunk);
        if (p > 0) SIM_DCHECK(involvement_[p - 1] < involvement_[p]);
      }
    });
    for (const std::int64_t pos : involvement_) {
      const std::int64_t when = chunk_start + pos;
      if (sim_.time_ < when) sim_.advance_core(engine, when, gen);
      resolve_tagged_interaction(gen, on_change);
    }
    if (sim_.time_ < chunk_start + chunk)
      sim_.advance_core(engine, chunk_start + chunk, gen);
  }
  // Re-seat the tagged agent under its *current* state — it may have
  // changed colour or shade at an involvement position.
  {
    auto& cell = tagged_.is_dark()
                     ? sim_.dark_[static_cast<std::size_t>(tagged_.color)]
                     : sim_.light_[static_cast<std::size_t>(tagged_.color)];
    ++cell;
  }
  sim_.n_ = n;
  sim_.rebuild_derived();
}

void TaggedCountSimulation::resolve_tagged_interaction(
    rng::Xoshiro256& gen, const ChangeObserver* on_change) {
  // Conditioned on involvement the tagged agent is the initiator or the
  // responder with probability 1/2 each (the two 1/n events are disjoint
  // and equally likely), and the partner is uniform over the other n − 1
  // agents — one plain class pick from the held-out counts.
  const bool tagged_initiator = rng::bernoulli(gen, 0.5);
  const CountSimulation::ClassPick partner =
      sim_.pick_class(gen, sim_.n_, nullptr);
  const std::int64_t pre_step = sim_.time_;
  if (tagged_initiator) {
    if (!tagged_.is_dark() && partner.dark) {
      tagged_ = AgentState{partner.color, kDark};
      ++sim_.active_transitions_;
      if (on_change != nullptr) (*on_change)(pre_step, tagged_);
    } else if (tagged_.is_dark() && partner.dark &&
               tagged_.color == partner.color) {
      if (rng::bernoulli(gen, 1.0 / sim_.weights_.weight(tagged_.color))) {
        tagged_.shade = kLight;
        ++sim_.active_transitions_;
        if (on_change != nullptr) (*on_change)(pre_step, tagged_);
      }
    }
  } else {
    // One-way rules never mutate the responder: only the partner and the
    // held-out counts can move.
    if (!partner.dark && tagged_.is_dark()) {
      sim_.apply_adopt(partner.color, tagged_.color);
    } else if (partner.dark && tagged_.is_dark() &&
               partner.color == tagged_.color) {
      if (rng::bernoulli(gen, 1.0 / sim_.weights_.weight(partner.color))) {
        sim_.apply_fade(partner.color);
      }
    }
  }
  ++sim_.time_;
}

}  // namespace divpp::core
