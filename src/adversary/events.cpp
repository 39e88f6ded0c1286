#include "adversary/events.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace divpp::adversary {

namespace {

struct Applier {
  core::CountSimulation& sim;

  void operator()(const AddAgents& e) const {
    sim.add_agents(e.color, e.count, e.dark);
  }
  void operator()(const AddColor& e) const {
    sim.add_color(e.weight, e.dark_count);
  }
  void operator()(const RemoveColor& e) const {
    sim.recolor_all(e.victim, e.heir);
  }
  void operator()(const PartialRecolor& e) const {
    if (e.fraction < 0.0 || e.fraction > 1.0)
      throw std::invalid_argument("PartialRecolor: fraction must be in [0,1]");
    if (e.from == e.to)
      throw std::invalid_argument("PartialRecolor: from == to");
    const auto dark_moved = static_cast<std::int64_t>(
        std::floor(e.fraction * static_cast<double>(sim.dark(e.from))));
    const auto light_moved = static_cast<std::int64_t>(
        std::floor(e.fraction * static_cast<double>(sim.light(e.from))));
    sim.transfer(e.from, e.to, dark_moved, light_moved);
  }
};

struct Describer {
  std::string operator()(const AddAgents& e) const {
    std::ostringstream out;
    out << "add " << e.count << (e.dark ? " dark" : " light")
        << " agents of colour " << e.color;
    return out.str();
  }
  std::string operator()(const AddColor& e) const {
    std::ostringstream out;
    out << "add colour (w=" << e.weight << ") with " << e.dark_count
        << " dark agents";
    return out.str();
  }
  std::string operator()(const RemoveColor& e) const {
    std::ostringstream out;
    out << "recolour all of colour " << e.victim << " to colour " << e.heir;
    return out.str();
  }
  std::string operator()(const PartialRecolor& e) const {
    std::ostringstream out;
    out << "recolour " << e.fraction * 100.0 << "% of colour " << e.from
        << " to colour " << e.to;
    return out.str();
  }
};

}  // namespace

void apply_event(core::CountSimulation& sim, const Event& event) {
  std::visit(Applier{sim}, event);
}

std::string describe(const Event& event) {
  return std::visit(Describer{}, event);
}

Schedule& Schedule::at(std::int64_t time, Event event) {
  if (time < 0) throw std::invalid_argument("Schedule::at: negative time");
  events_.push_back({time, std::move(event)});
  std::stable_sort(events_.begin(), events_.end(),
                   [](const ScheduledEvent& a, const ScheduledEvent& b) {
                     return a.time < b.time;
                   });
  return *this;
}

void Schedule::run(core::CountSimulation& sim, std::int64_t horizon,
                   rng::Xoshiro256& gen, core::Engine engine) const {
  std::vector<std::int64_t> handles;
  for (const ScheduledEvent& scheduled : events_) {
    if (scheduled.time < sim.time())
      throw std::invalid_argument(
          "Schedule::run: event scheduled before current simulation time");
    if (scheduled.time > horizon) break;
    handles.push_back(sim.schedule_event(
        scheduled.time, [event = scheduled.event](core::CountSimulation& s) {
          apply_event(s, event);
        }));
  }
  try {
    sim.advance_with(engine, horizon, gen);
  } catch (...) {
    // A throwing event action (e.g. a malformed event) must not leave
    // the rest of this script queued on the simulation — the PR-3
    // inline application left no hidden state behind, and neither does
    // this.  Only this run's own events are cancelled; anything the
    // caller scheduled directly stays pending.
    for (const std::int64_t handle : handles)
      (void)sim.cancel_scheduled_event(handle);
    throw;
  }
}

}  // namespace divpp::adversary
