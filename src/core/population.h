#ifndef DIVPP_CORE_POPULATION_H
#define DIVPP_CORE_POPULATION_H

/// \file population.h
/// The agent-based population-protocol engine.
///
/// Implements the paper's scheduling model (§1.2): at each time-step a
/// uniformly random agent u is scheduled; u samples a uniformly random
/// neighbour v on the interaction graph (the other n-1 agents on the
/// complete graph) and applies the protocol rule.  The engine is
/// templated on the rule so the hot loop is fully devirtualised, and on
/// the state type so colour protocols (AgentState), opinion protocols
/// (ColorId) and averaging protocols (double) share one engine.
///
/// Rule concept:
///   static constexpr int  kResponders        — 1 or 2 sampled responders;
///   static constexpr bool kMutatesResponder  — two-way rules mutate v;
///   Transition apply(State& u, <responders>, rng::Xoshiro256&) — with
///     responders `const State&` (one-way) or `State&` (two-way).
///
/// Two-responder rules receive two independent neighbour samples (with
/// replacement), matching the gossip-model conventions of the 2-Choices /
/// 3-Majority literature cited in §1.1.
///
/// The engine is additionally templated on the graph type.  With the
/// default `GraphT = graph::Graph` neighbour sampling goes through the
/// virtual interface; instantiating on a concrete graph that exposes a
/// non-virtual `sample_neighbor_fast` (graph::CompleteGraph — the paper's
/// model) inlines the draw into the hot loop with no virtual call.
/// make_population deduces the concrete type automatically.

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/diversification.h"
#include "graph/graph.h"
#include "rng/distributions.h"
#include "rng/xoshiro.h"

namespace divpp::core {

/// What happened in one engine step (consumed by trackers and tests).
template <typename State>
struct StepEvent {
  std::int64_t time = 0;       ///< time-step index (0-based) of this event
  std::int64_t initiator = -1; ///< scheduled agent
  State before{};              ///< initiator state before the interaction
  State after{};               ///< initiator state after the interaction
  Transition transition = Transition::kNoOp;
};

/// Agent-based simulation of one protocol on one interaction graph.
///
/// The graph is borrowed (not owned) and must outlive the population.
template <typename State, typename Rule, typename GraphT = graph::Graph>
class Population {
 public:
  /// \pre initial.size() == graph.num_nodes() >= 2.
  Population(const GraphT& graph, std::vector<State> initial, Rule rule)
      : graph_(&graph), states_(std::move(initial)), rule_(std::move(rule)) {
    if (static_cast<std::int64_t>(states_.size()) != graph.num_nodes())
      throw std::invalid_argument(
          "Population: initial state count must equal graph size");
    if (graph.num_nodes() < 2)
      throw std::invalid_argument("Population: need at least two agents");
  }

  /// Number of agents n.
  [[nodiscard]] std::int64_t size() const noexcept {
    return static_cast<std::int64_t>(states_.size());
  }

  /// Time-steps executed so far.
  [[nodiscard]] std::int64_t time() const noexcept { return time_; }

  /// All agent states (indexed by node id).
  [[nodiscard]] const std::vector<State>& states() const noexcept {
    return states_;
  }

  /// One agent's state.  \pre 0 <= u < size().
  [[nodiscard]] const State& state(std::int64_t u) const {
    check_agent(u);
    return states_[static_cast<std::size_t>(u)];
  }

  /// Overwrites one agent's state (adversary events, tests).
  void set_state(std::int64_t u, State s) {
    check_agent(u);
    states_[static_cast<std::size_t>(u)] = std::move(s);
  }

  /// The rule instance (e.g. to query its palette).
  [[nodiscard]] const Rule& rule() const noexcept { return rule_; }

  /// The interaction graph.
  [[nodiscard]] const GraphT& graph() const noexcept { return *graph_; }

  /// Executes one time-step with a uniformly random initiator
  /// (the paper's scheduler) and returns what happened.
  StepEvent<State> step(rng::Xoshiro256& gen) {
    const std::int64_t u = rng::uniform_below(gen, size());
    return step_with_initiator(u, gen);
  }

  /// Executes one time-step with the given initiator (used by the
  /// alternative schedulers in sched/).
  StepEvent<State> step_with_initiator(std::int64_t u, rng::Xoshiro256& gen) {
    check_agent(u);
    StepEvent<State> event;
    event.time = time_;
    event.initiator = u;
    State& me = states_[static_cast<std::size_t>(u)];
    event.before = me;
    event.transition = interact(u, me, gen);
    event.after = me;
    ++time_;
    return event;
  }

  /// Applies one interaction between a *forced* (initiator, responder)
  /// pair, bypassing the graph — the primitive behind matching/adversarial
  /// schedules (sched/schedulers.h).  Advances the clock by one step.
  /// Defined for one-responder rules only.  \pre distinct valid agents.
  StepEvent<State> force_interaction(std::int64_t initiator,
                                     std::int64_t responder,
                                     rng::Xoshiro256& gen) {
    static_assert(Rule::kResponders == 1,
                  "forced pairs are defined for one-responder rules");
    check_agent(initiator);
    check_agent(responder);
    if (initiator == responder)
      throw std::invalid_argument(
          "force_interaction: initiator and responder must differ");
    StepEvent<State> event;
    event.time = time_;
    event.initiator = initiator;
    State& me = states_[static_cast<std::size_t>(initiator)];
    event.before = me;
    event.transition =
        rule_.apply(me, states_[static_cast<std::size_t>(responder)], gen);
    event.after = me;
    ++time_;
    return event;
  }

  /// Runs `steps` time-steps, discarding events.  The StepEvent copies of
  /// step() (two State copies per step) are hoisted out of this path: the
  /// interaction is applied directly to the stored states.
  void run(std::int64_t steps, rng::Xoshiro256& gen) {
    for (std::int64_t i = 0; i < steps; ++i) {
      const std::int64_t u = rng::uniform_below(gen, size());
      (void)interact(u, states_[static_cast<std::size_t>(u)], gen);
      ++time_;
    }
  }

  /// Runs `steps` time-steps, forwarding each event to `observer`.
  template <typename Observer>
  void run_observed(std::int64_t steps, rng::Xoshiro256& gen,
                    Observer&& observer) {
    for (std::int64_t i = 0; i < steps; ++i) observer(step(gen));
  }

 private:
  /// One neighbour draw; resolved at compile time to the non-virtual
  /// inline fast path when the graph type provides one.
  [[nodiscard]] std::int64_t sample_neighbor_of(std::int64_t u,
                                                rng::Xoshiro256& gen) const {
    if constexpr (requires(const GraphT& g) {
                    { g.sample_neighbor_fast(u, gen) };
                  }) {
      return graph_->sample_neighbor_fast(u, gen);
    } else {
      return graph_->sample_neighbor(u, gen);
    }
  }

  /// Applies one interaction with initiator u (state reference `me`),
  /// mutating states in place; shared by step paths and run().
  Transition interact(std::int64_t u, State& me, rng::Xoshiro256& gen) {
    if constexpr (Rule::kResponders == 1) {
      const std::int64_t v = sample_neighbor_of(u, gen);
      if constexpr (Rule::kMutatesResponder) {
        return rule_.apply(me, states_[static_cast<std::size_t>(v)], gen);
      } else {
        const State& other = states_[static_cast<std::size_t>(v)];
        return rule_.apply(me, other, gen);
      }
    } else {
      static_assert(Rule::kResponders == 2,
                    "Population supports rules with 1 or 2 responders");
      const std::int64_t v1 = sample_neighbor_of(u, gen);
      const std::int64_t v2 = sample_neighbor_of(u, gen);
      const State& o1 = states_[static_cast<std::size_t>(v1)];
      const State& o2 = states_[static_cast<std::size_t>(v2)];
      return rule_.apply(me, o1, o2, gen);
    }
  }

  void check_agent(std::int64_t u) const {
    if (u < 0 || u >= size())
      throw std::out_of_range("Population: agent index out of range");
  }

  const GraphT* graph_;
  std::vector<State> states_;
  Rule rule_;
  std::int64_t time_ = 0;
};

/// Convenience alias: the paper's protocol on an arbitrary graph.
using DiversificationPopulation = Population<AgentState, DiversificationRule>;
/// Convenience alias: the derandomised variant.
using DerandomisedPopulation = Population<AgentState, DerandomisedRule>;

/// Builds a Population for the paper's model: all-dark initial
/// configuration with the given per-colour supports.  The graph must be
/// supplied by the caller (it is borrowed), and its *static* type is
/// deduced: passing a concrete graph (e.g. graph::CompleteGraph) selects
/// the devirtualised sampling fast path, while passing `const
/// graph::Graph&` keeps the dynamic-dispatch engine.
template <typename Rule, typename GraphT>
[[nodiscard]] Population<AgentState, Rule, GraphT> make_population(
    const GraphT& graph, std::span<const std::int64_t> supports, Rule rule) {
  return Population<AgentState, Rule, GraphT>(
      graph, make_initial_agents(supports), std::move(rule));
}

}  // namespace divpp::core

#endif  // DIVPP_CORE_POPULATION_H
