#ifndef DIVPP_ADVERSARY_EVENTS_H
#define DIVPP_ADVERSARY_EVENTS_H

/// \file events.h
/// Structural-change (adversary) machinery.
///
/// The paper claims the Diversification protocol is robust: "even when an
/// adversary adds agents and colours, the protocol quickly returns into a
/// state of diversity and fairness", and sustainability survives any
/// change that keeps at least one dark agent per colour.  This module
/// scripts such interventions against a CountSimulation so experiment E8
/// can measure recovery times.

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "core/count_simulation.h"
#include "core/weights.h"
#include "rng/xoshiro.h"

namespace divpp::adversary {

/// Injects `count` new agents of an existing colour (dark or light).
struct AddAgents {
  core::ColorId color = 0;
  std::int64_t count = 0;
  bool dark = true;
};

/// Introduces a brand-new colour with `dark_count` dark supporters.
struct AddColor {
  double weight = 1.0;
  std::int64_t dark_count = 1;
};

/// Recolours every supporter of `victim` to `heir` (colour retirement —
/// the paper's "task is fulfilled and no longer necessary" footnote).
struct RemoveColor {
  core::ColorId victim = 0;
  core::ColorId heir = 1;
};

/// Moves a fraction of `from`'s supporters (dark and light alike,
/// rounded down per shade) to colour `to` — a partial shock such as
/// "many foragers fell victim to other ant colonies".
struct PartialRecolor {
  core::ColorId from = 0;
  core::ColorId to = 1;
  double fraction = 0.5;
};

/// One adversary intervention.
using Event = std::variant<AddAgents, AddColor, RemoveColor, PartialRecolor>;

/// Applies one event to a count simulation.
/// \throws std::invalid_argument / std::out_of_range on malformed events.
void apply_event(core::CountSimulation& sim, const Event& event);

/// Human-readable event description for experiment logs.
[[nodiscard]] std::string describe(const Event& event);

/// An event scheduled at an absolute simulation time.
struct ScheduledEvent {
  std::int64_t time = 0;
  Event event;
};

/// A time-sorted adversary script replayed against a simulation.
class Schedule {
 public:
  Schedule() = default;

  /// Adds an event; times may be given in any order.
  Schedule& at(std::int64_t time, Event event);

  /// Runs `sim` to `horizon` with `engine`, firing each event at exactly
  /// its interaction index: the events are registered on the
  /// simulation's own event queue (CountSimulation::schedule_event), so
  /// every engine — including the collision-batch and auto engines —
  /// splits its windows at the event times automatically.  Safe for
  /// every engine: the chains re-parameterise after each event.
  void run(core::CountSimulation& sim, std::int64_t horizon,
           rng::Xoshiro256& gen,
           core::Engine engine = core::Engine::kJump) const;

  [[nodiscard]] const std::vector<ScheduledEvent>& events() const noexcept {
    return events_;
  }

 private:
  std::vector<ScheduledEvent> events_;
};

}  // namespace divpp::adversary

#endif  // DIVPP_ADVERSARY_EVENTS_H
