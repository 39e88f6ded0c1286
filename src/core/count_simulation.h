#ifndef DIVPP_CORE_COUNT_SIMULATION_H
#define DIVPP_CORE_COUNT_SIMULATION_H

/// \file count_simulation.h
/// Exact lumped simulation of the Diversification protocol on the
/// complete graph.
///
/// On K_n the agents are exchangeable, so the process
/// ξ(t) = (A_1..A_k, a_1..a_k) of per-colour dark/light counts (paper §2)
/// is itself a Markov chain.  Simulating ξ directly costs O(k) per step
/// and O(k) memory — independent of n — which is what makes the paper's
/// n-scaling experiments tractable.
///
/// step() executes one time-step, including no-ops; advance_with() runs
/// to a target time under one of the distributionally identical engines
/// of `Engine`.  The jump chain samples the geometric number of no-op
/// steps between state changes, then applies one active transition:
/// near equilibrium only a Θ(1/W) fraction of steps are active, so it is
/// several times faster than stepping for long windows.
///
/// Class draws (stepping, the jump chain, the tagged partner pick) scan
/// the flat dark/light count arrays branch-free in O(k) for palettes up
/// to 16 colours, where that beats a tree on constants and saves the
/// tree upkeep per transition; larger palettes draw from Fenwick count
/// trees in O(log k) (sampling/fenwick.h).  Both map every draw to the
/// same colour, so the stream does not depend on the layout.  Flip-
/// propensity draws always use a FenwickPropensities tree, and the
/// adopt/flip propensities are maintained by O(1) deltas instead of an
/// O(k) rebuild per active transition — the standard kinetic-Monte-Carlo
/// organisation, which is what makes large-k sweeps (E17) tractable.
///
/// TaggedCountSimulation additionally carries one distinguished agent
/// through the lumped dynamics (exactly — see the class comment), which
/// gives fairness trajectories at count-simulation cost.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "batch/collision_batch.h"
#include "core/agent.h"
#include "core/diversification.h"
#include "core/weights.h"
#include "rng/xoshiro.h"
#include "sampling/fenwick.h"

namespace divpp::context {
class SamplerContext;
}  // namespace divpp::context

namespace divpp::core {

/// Outcome of one lumped step (for trackers and tests).
struct CountStepOutcome {
  Transition transition = Transition::kNoOp;
  ColorId from = -1;  ///< adopt: colour losing a light agent; fade: colour fading
  ColorId to = -1;    ///< adopt: colour gaining a dark agent; fade: == from
};

/// The distributionally identical engines of the lumped chain, selected
/// per call of CountSimulation::advance_with:
///  * kStep  — plain per-interaction stepping, a loop of step().
///  * kJump  — the jump chain: skips each no-op stretch with one
///    geometric draw, then applies one active transition: O(k) class
///    scans up to 16 colours, O(log k) tree descents above.
///  * kBatch — the collision-batch engine (batch/collision_batch.h):
///    applies whole collision-free stretches of distinct-agent
///    interactions in aggregate, amortised sub-constant work per
///    interaction at large n.  Its RNG draw *sequence* differs from
///    kStep's and kJump's (see the README reproducibility note).
///    Populations too small for batching to pay fall back to stepping.
///  * kAuto  — treats each window (a call, or a segment between two
///    scheduled events) as one decision: predicts the per-interaction
///    cost of the jump chain (∝ its per-transition constant × the EWMA
///    active fraction) and of the batch engine (∝ its per-batch constant
///    over the expected collision-free stretch clamped by the window),
///    runs the cheaper one, then folds the measured active fraction into
///    the EWMA.  It consumes exactly the RNG stream of the engine it
///    delegates to, so it is as exact as they are.
enum class Engine { kStep, kJump, kBatch, kAuto };

/// Parses "step" / "jump" / "batch" / "auto" (bench --engine flags).
/// \throws std::invalid_argument naming the valid set on anything else.
[[nodiscard]] Engine parse_engine(const std::string& name);

/// The flag spelling of an engine (tables, JSON summaries).
[[nodiscard]] const char* engine_name(Engine engine);

/// Lumped (count-level) simulation of the Diversification protocol on the
/// complete graph K_n.
class CountSimulation {
 public:
  /// Starts from explicit per-colour dark/light counts.
  /// \throws std::invalid_argument on negative counts, size mismatch with
  /// the palette, or a population of fewer than two agents.
  CountSimulation(WeightMap weights, std::vector<std::int64_t> dark,
                  std::vector<std::int64_t> light);

  /// All-dark start with supports proportional to the fair shares
  /// (rounding remainders assigned greedily) — a "nice" start.
  [[nodiscard]] static CountSimulation proportional_start(WeightMap weights,
                                                          std::int64_t n);

  /// All-dark start with one agent on each colour except colour 0, which
  /// holds everyone else — the adversarial start that exercises Phase 1
  /// ("the rise of the minorities").  \pre n >= num_colors + 1.
  [[nodiscard]] static CountSimulation adversarial_start(WeightMap weights,
                                                         std::int64_t n);

  /// All-dark start with equal supports (n/k each, remainder to colour 0).
  [[nodiscard]] static CountSimulation equal_start(WeightMap weights,
                                                   std::int64_t n);

  // ---- observers -------------------------------------------------------

  [[nodiscard]] std::int64_t n() const noexcept { return n_; }
  [[nodiscard]] std::int64_t num_colors() const noexcept {
    return weights_.num_colors();
  }
  [[nodiscard]] std::int64_t time() const noexcept { return time_; }
  [[nodiscard]] const WeightMap& weights() const noexcept { return weights_; }

  /// Dark count A_i(t).
  [[nodiscard]] std::int64_t dark(ColorId i) const;
  /// Light count a_i(t).
  [[nodiscard]] std::int64_t light(ColorId i) const;
  /// Support C_i(t) = A_i + a_i.
  [[nodiscard]] std::int64_t support(ColorId i) const;
  [[nodiscard]] std::span<const std::int64_t> dark_counts() const noexcept {
    return dark_;
  }
  [[nodiscard]] std::span<const std::int64_t> light_counts() const noexcept {
    return light_;
  }
  /// All supports C_i.
  [[nodiscard]] std::vector<std::int64_t> supports() const;
  /// A(t) = Σ A_i.
  [[nodiscard]] std::int64_t total_dark() const noexcept { return total_dark_; }
  /// a(t) = Σ a_i.
  [[nodiscard]] std::int64_t total_light() const noexcept {
    return n_ - total_dark_;
  }
  /// Sustainability observable: the smallest per-colour dark count.
  /// O(k) per call; nothing is maintained per transition.
  [[nodiscard]] std::int64_t min_dark() const noexcept;

  /// Probability that the *next* step changes the state (used by the jump
  /// chain and the auto engine's cold-start estimate; exposed for tests).
  [[nodiscard]] double active_probability() const noexcept;

  /// Total adopt + fade transitions applied since construction, by any
  /// engine.  The auto engine differences this across a window to
  /// measure the realised active-transition fraction.
  [[nodiscard]] std::int64_t active_transitions() const noexcept {
    return active_transitions_;
  }

  /// The auto engine's current active-fraction estimate: an EWMA (decay
  /// kAutoEwmaDecay per window) of measured window fractions, or the
  /// exact single-step active_probability() before any window has been
  /// measured.  Exposed for tests and diagnostics.
  [[nodiscard]] double active_fraction_estimate() const noexcept;

  // ---- dynamics --------------------------------------------------------

  /// Executes exactly one time-step (possibly a no-op).
  CountStepOutcome step(rng::Xoshiro256& gen);

  /// Advances until time() == target_time with `engine` (see `Engine`),
  /// firing every scheduled event at exactly its interaction index.
  /// \throws std::invalid_argument when target_time < time().
  void advance_with(Engine engine, std::int64_t target_time,
                    rng::Xoshiro256& gen);

  // ---- scheduled events (adversary API) --------------------------------

  /// Callback fired when the simulation clock reaches its scheduled
  /// interaction index.
  using EventAction = std::function<void(CountSimulation&)>;

  /// Schedules `action` to run when time() == `when`, from inside
  /// advance_with: every engine splits its window at the event time, so
  /// callers never hand-split batched windows around adversary events.
  /// Events fire in time order (ties in registration order), exactly
  /// once, after `when` interactions have been applied and before
  /// interaction `when` + 1.  The action may mutate the simulation
  /// structurally (add_agents / add_color / ...) but must not re-enter
  /// advance_with.  Bare step() calls and TaggedCountSimulation never
  /// fire events.  Returns a handle for cancel_scheduled_event.
  /// \pre when >= time().
  std::int64_t schedule_event(std::int64_t when, EventAction action);

  /// Number of scheduled events that have not fired yet.
  [[nodiscard]] std::int64_t pending_event_count() const noexcept {
    return static_cast<std::int64_t>(pending_events_.size());
  }

  /// Removes one not-yet-fired event by the handle schedule_event
  /// returned; returns whether it was still pending.  Drivers that
  /// registered a script (adversary::Schedule::run) cancel *their own*
  /// remaining events when an event action throws, leaving events other
  /// callers scheduled untouched.
  bool cancel_scheduled_event(std::int64_t handle) noexcept;

  /// (time, handle) of every pending event in firing order.  A v2
  /// checkpoint (core/checkpoint.h) serialises exactly this: actions are
  /// code and cannot cross a process boundary, so a resumed run must
  /// re-attach them by handle (rebind_scheduled_event).
  [[nodiscard]] std::vector<std::pair<std::int64_t, std::int64_t>>
  pending_event_schedule() const;

  /// Re-attaches the action of a pending event — the second half of a v2
  /// resume, whose restored events hold placeholder actions that throw
  /// std::logic_error if they fire unrebound.  Also replaces the action
  /// of an ordinary pending event.  Returns false when no pending event
  /// has this handle.  \throws std::invalid_argument on an empty action.
  bool rebind_scheduled_event(std::int64_t handle, EventAction action);

  /// Attaches a shared sampler context (context/sampler_context.h): the
  /// batch engine then borrows the context's eager run-length tables and
  /// propensity layouts instead of building private ones — bit-identical
  /// (the tables are pure deterministic functions of (n, w)), so a
  /// sweep can hand one context to thousands of scenarios.  Passing a
  /// context whose palette differs from the simulation's throws
  /// std::invalid_argument; nullptr detaches.  A later add_color drops
  /// the context automatically (the palette outgrew it) and the batch
  /// engine falls back to private tables.
  void set_sampler_context(
      std::shared_ptr<const context::SamplerContext> context);

  /// The attached shared context, or nullptr when running solo.
  [[nodiscard]] const std::shared_ptr<const context::SamplerContext>&
  sampler_context() const noexcept {
    return sampler_context_;
  }

  /// Rebuilds every derived sampling structure (Fenwick trees, flip
  /// propensities, cached totals) from the raw counts, discarding any
  /// accumulated float drift.  Checkpoint canonicalisation point: a v2
  /// restore starts from freshly rebuilt trees, so a resumable driver
  /// (runtime/durable_runner.h) canonicalises at every checkpoint
  /// boundary — an uninterrupted run and a killed-and-resumed run then
  /// follow the same float trajectory, which is what makes resume
  /// bit-identical rather than merely distributionally identical.
  /// Consumes no RNG draws and changes no counts, clock, or estimates.
  void canonicalize();

  // ---- structural changes (adversary API) ------------------------------

  /// Adds `count` agents of colour i (dark when `dark_shade`).
  void add_agents(ColorId i, std::int64_t count, bool dark_shade);

  /// Adds a brand-new colour with `weight`, supported by `dark_count`
  /// fresh dark agents (the paper's robustness scenario: new colours join
  /// dark).  \pre weight >= 1, dark_count >= 1.
  void add_color(double weight, std::int64_t dark_count);

  /// Recolours every agent of colour `victim` to colour `heir` keeping
  /// shades (the paper's "external agent recolours all red agents blue").
  /// The palette keeps the victim colour; its support drops to zero,
  /// deliberately breaking sustainability *from outside* the protocol.
  void recolor_all(ColorId victim, ColorId heir);

  /// Moves `dark_moved` dark and `light_moved` light agents from colour
  /// `from` to colour `to`, preserving shades and the population size.
  /// \pre enough agents of each shade on `from`.
  void transfer(ColorId from, ColorId to, std::int64_t dark_moved,
                std::int64_t light_moved);

 private:
  friend class TaggedCountSimulation;
  /// The checkpoint layer's accessor (defined in checkpoint.cpp): it
  /// round-trips the clock, the auto-engine EWMA, the transition
  /// counter, and the pending-event schedule.
  friend struct CheckpointAccess;

  void validate() const;
  /// Full O(k) invariant walk (SIM_CHECKED builds only; compiled to an
  /// empty body otherwise and never called from release paths): count
  /// conservation Σ(dark + light) == n, non-negativity, total_dark_ /
  /// dark_ge2_ / Fenwick-tree consistency, flip propensities within the
  /// rebuild drift bound, event queue sorted and not in the past.  Called
  /// from window boundaries (advance_with) and every structural rebuild
  /// — not per step, so checked runs stay within ~2× wall-clock.
  void check_invariants() const;
  /// Rebuilds every derived structure (trees, propensities, counters)
  /// from dark_/light_ in O(k) — constructor and structural mutators.
  void rebuild_derived();
  /// Engine cores without event awareness; advance_with splits its
  /// window at pending event times and runs each segment through
  /// advance_core (each segment is its own window for the auto engine).
  void step_to(std::int64_t target_time, rng::Xoshiro256& gen);
  void jump_to(std::int64_t target_time, rng::Xoshiro256& gen);
  void batch_to(std::int64_t target_time, rng::Xoshiro256& gen);
  void auto_to(std::int64_t target_time, rng::Xoshiro256& gen);
  void advance_core(Engine engine, std::int64_t target_time,
                    rng::Xoshiro256& gen);
  /// The auto engine's cost-model decision for a window of `window`
  /// interactions (exposed to tests through kAuto's behaviour).
  [[nodiscard]] Engine pick_auto_engine(std::int64_t window) const noexcept;
  // The `inline` helpers below are defined in count_simulation.cpp, the
  // only translation unit that calls them.
  inline void apply_adopt(ColorId from, ColorId to) noexcept;
  inline void apply_fade(ColorId i) noexcept;
  /// Updates the dark-count derived state after dark_[i] changed by ±1.
  inline void on_dark_changed(std::size_t i) noexcept;
  /// Exact absorption test on integers, immune to rounding: an adopt
  /// needs a light initiator AND a dark responder; a fade needs a colour
  /// with two dark agents.
  [[nodiscard]] bool is_absorbed() const noexcept {
    return dark_ge2_ == 0 && (total_light() == 0 || total_dark_ == 0);
  }
  /// Samples (class is dark?, colour) of the initiator/responder.
  struct ClassPick {
    bool dark = false;
    ColorId color = 0;
  };
  [[nodiscard]] ClassPick pick_class(rng::Xoshiro256& gen,
                                     std::int64_t total,
                                     const ClassPick* excluded) const;
  /// Whether the palette is above the scan cutoff, where class draws
  /// descend dark_tree_/light_tree_; at or below it the trees stay empty
  /// and draws scan the flat counts.
  [[nodiscard]] inline bool count_trees_live() const noexcept;
  /// The colour owning position `target` among the dark (or light)
  /// counts with one unit of colour `excluded` removed (-1: none).
  [[nodiscard]] inline ColorId find_color(bool dark, std::int64_t target,
                                          std::int64_t excluded) const noexcept;

  WeightMap weights_;
  std::vector<std::int64_t> dark_;
  std::vector<std::int64_t> light_;
  std::int64_t n_ = 0;
  std::int64_t total_dark_ = 0;
  std::int64_t time_ = 0;
  // Derived sampling state, kept in lockstep with dark_/light_:
  // Class-draw trees over dark/light counts; empty unless
  // count_trees_live() (small palettes scan dark_/light_ directly).
  sampling::FenwickCounts dark_tree_;
  sampling::FenwickCounts light_tree_;
  sampling::FenwickPropensities flip_tree_; // f_i = A_i (A_i - 1) / w_i
  std::vector<double> inv_weight_;          // 1 / w_i
  std::int64_t dark_ge2_ = 0;               // #colours with dark_[i] >= 2
  std::int64_t active_transitions_ = 0;  // adopt + fade count, any engine
  /// EWMA of measured per-window active fractions (< 0 until the first
  /// auto window completes).
  double active_ewma_ = -1.0;
  /// Scheduled events sorted by time (ties keep registration order).
  struct PendingEvent {
    std::int64_t time = 0;
    std::int64_t handle = 0;
    EventAction action;
  };
  std::vector<PendingEvent> pending_events_;
  std::int64_t next_event_handle_ = 0;
  /// Lazily built by the batch engine and kept across calls so windowed
  /// drivers (advance_with per check_every chunk) reuse the batcher's
  /// O(√n) run-length table instead of rebuilding it per window.
  /// Invalidated when the palette grows (add_color).
  std::optional<batch::CollisionBatcher> batcher_;
  /// Shared immutable sampler state (set_sampler_context); nullptr when
  /// running solo.  Copies of the simulation share it (it is immutable).
  std::shared_ptr<const context::SamplerContext> sampler_context_;
};

/// CountSimulation plus one distinguished ("tagged") agent carried through
/// the lumped dynamics *exactly*:
///
///  * with probability 1/n the tagged agent is the scheduled initiator —
///    its responder class is drawn from the counts minus itself and the
///    rule is applied to its own state;
///  * otherwise the initiator is drawn from the counts minus the tagged
///    agent, so a lumped transition never relocates the tagged agent.
///
/// This yields the tagged agent's exact (colour, shade) trajectory — the
/// object Section 2.4 approximates with the Markov chain M — while the
/// population is simulated at O(k) per step.
///
/// Since PR 5 the joint chain also runs under the jump, batch and auto
/// engines, at the same amortised speed as the untagged engines.  The
/// decomposition is exact: each interaction picks the tagged agent as
/// initiator with probability 1/n and as responder with probability 1/n,
/// i.i.d. across interactions and independently of every other draw, so
/// over a window of ℓ interactions the tagged agent's interactions are a
/// Binomial(ℓ, 2/n) count at uniformly random positions
/// (batch::CollisionBatcher::draw_tagged_involvement).  Conditioned on
/// those positions, every other interaction is a uniform ordered pair of
/// the *remaining* n − 1 agents — a standard lumped chain on the counts
/// minus the tagged agent, which the untagged engines advance at full
/// speed — and at each tagged position the partner is one plain class
/// pick from those counts, with the rule applied exactly (the tagged
/// agent adopts from the current lumped counts and fades at its 1/w_i
/// rate).  Populations below the batching cutoff fall back to step(),
/// bit-identically.
class TaggedCountSimulation {
 public:
  /// Tags one agent of colour `tagged_color` with shade `tagged_dark`.
  /// \pre the corresponding count in `sim` is >= 1.
  /// \throws std::invalid_argument when no such agent exists, or when
  /// `sim` has pending scheduled events: an event cannot fire while the
  /// tagged agent is held out of the counts, so a tagged run would skip
  /// it and leave a checkpoint whose event lies before its clock.
  TaggedCountSimulation(CountSimulation sim, ColorId tagged_color,
                        bool tagged_dark);

  /// One time-step of the joint (counts, tagged) chain.
  void step(rng::Xoshiro256& gen);

  /// Advances the joint chain to target_time with the chosen engine.
  /// All four engines are distributionally identical on the joint
  /// (tagged colour, tagged shade, counts) law
  /// (tests/test_tagged_batch.cpp); the RNG draw *sequence* differs
  /// between kStep and the decomposed engines (README reproducibility
  /// note).  kAuto delegates each collision-free segment to jump or
  /// batch through the underlying cost model.
  /// \throws std::invalid_argument when target_time < time().
  void advance_with(Engine engine, std::int64_t target_time,
                    rng::Xoshiro256& gen);

  /// Called at every tagged-agent state change with the time-step index
  /// at which `new_state` takes effect (the pre-step clock of the
  /// changing interaction — the same convention as StepEvent::time, so
  /// analysis::FairnessTracker::observe_change consumes it directly).
  using ChangeObserver = std::function<void(std::int64_t, AgentState)>;

  /// advance_with plus `on_change`, invoked exactly once per tagged state
  /// change: a whole stretch between changes books as one segment, so
  /// fairness accounting costs O(changes), not O(interactions).  Under
  /// kStep the stream is that of a plain step() loop.
  /// \throws std::invalid_argument on an empty observer or when
  /// target_time < time().
  void run_changes(Engine engine, std::int64_t target_time,
                   rng::Xoshiro256& gen, const ChangeObserver& on_change);

  [[nodiscard]] const CountSimulation& counts() const noexcept { return sim_; }
  [[nodiscard]] AgentState tagged_state() const noexcept { return tagged_; }
  [[nodiscard]] std::int64_t time() const noexcept { return sim_.time(); }

  /// CountSimulation::canonicalize on the wrapped counts — the same
  /// checkpoint-boundary alignment contract, for the tagged chain.
  void canonicalize() { sim_.canonicalize(); }

 private:
  /// The one body of advance_with and run_changes (`on_change` may be
  /// null): validates, then runs the step loop or the decomposition.
  void run(Engine engine, std::int64_t target_time, rng::Xoshiro256& gen,
           const ChangeObserver* on_change);
  /// Step-mode run shared by the kStep engine and the small-population
  /// fallback; bit-identical to a plain step() loop.
  void run_steps(std::int64_t target_time, rng::Xoshiro256& gen,
                 const ChangeObserver* on_change);
  /// The Binomial-involvement decomposition driving kJump/kBatch/kAuto.
  void run_decomposed(Engine engine, std::int64_t target_time,
                      rng::Xoshiro256& gen, const ChangeObserver* on_change);
  /// Resolves one interaction known to involve the tagged agent
  /// (counts currently exclude it); advances the clock by one.
  void resolve_tagged_interaction(rng::Xoshiro256& gen,
                                  const ChangeObserver* on_change);

  CountSimulation sim_;
  AgentState tagged_{};
  /// Scratch for draw_tagged_involvement (kept across windows).
  std::vector<std::int64_t> involvement_;
};

}  // namespace divpp::core

#endif  // DIVPP_CORE_COUNT_SIMULATION_H
