#include "simcore/simulation.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

namespace cbs::sim {

Simulation::Simulation(const Simulation& src)
    : queue_(src.queue_),
      now_(src.now_),
      processed_(src.processed_),
      stop_requested_(false),
      source_targets_(src.targets_.size()) {}

TargetId Simulation::register_target(EventTarget& target) {
  targets_.push_back(&target);
  return static_cast<TargetId>(targets_.size() - 1);
}

TargetId Simulation::register_target(EventTarget& target, TargetId source_id) {
  const TargetId id = register_target(target);
  assert(id == source_id &&
         "fork targets must register in their source's order");
  (void)source_id;
  return id;
}

void Simulation::verify_fork() const {
  if (targets_.size() == source_targets_) return;
  std::string msg = "fork registered ";
  msg += std::to_string(targets_.size());
  msg += " event target(s), its source had ";
  msg += std::to_string(source_targets_);
  msg += ": pending events would reach the wrong component";
  throw std::runtime_error(msg);
}

EventId Simulation::schedule_at(SimTime t, Event event) {
  assert(is_valid_time(t) && "schedule_at: invalid time");
  assert(t >= now_ && "schedule_at: cannot schedule in the past");
  return queue_.push(t, event);
}

EventId Simulation::schedule_reserved(SimTime t, std::uint64_t seq,
                                      Event event) {
  assert(is_valid_time(t) && "schedule_reserved: invalid time");
  assert(t >= now_ && "schedule_reserved: cannot schedule in the past");
  return queue_.push_reserved(t, seq, event);
}

bool Simulation::reschedule(EventId id, SimTime t) {
  assert(is_valid_time(t) && "reschedule: invalid time");
  assert(t >= now_ && "reschedule: cannot schedule in the past");
  return queue_.reschedule(id, t);
}

EventId Simulation::schedule_in(SimDuration delay, Event event) {
  assert(delay >= 0.0 && "schedule_in: negative delay");
  return queue_.push(now_ + delay, event);
}

bool Simulation::step() {
  if (queue_.empty()) return false;
  const auto [time, event] = queue_.pop();
  assert(time >= now_ && "event queue yielded an event in the past");
  assert(event.target < targets_.size() && "event for an unregistered target");
  now_ = time;
  ++processed_;
  targets_[event.target]->on_event(event.kind, event.arg);
  return true;
}

SimTime Simulation::run() {
  stop_requested_ = false;
  while (!stop_requested_ && step()) {
  }
  return now_;
}

SimTime Simulation::run_until(SimTime deadline) {
  stop_requested_ = false;
  while (!stop_requested_ && !queue_.empty() && queue_.next_time() <= deadline) {
    step();
  }
  if (stop_requested_ || now_ > deadline) return now_;
  // The caller asked for this much simulated time: advance the clock to the
  // deadline even when the queue drained early or no event lands exactly
  // there.
  now_ = deadline;
  return now_;
}

}  // namespace cbs::sim
