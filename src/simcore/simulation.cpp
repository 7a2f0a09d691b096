#include "simcore/simulation.hpp"

#include <cassert>
#include <utility>

namespace cbs::sim {

EventId Simulation::schedule_at(SimTime t, EventQueue::Callback cb) {
  assert(is_valid_time(t) && "schedule_at: invalid time");
  assert(t >= now_ && "schedule_at: cannot schedule in the past");
  return queue_.push(t, std::move(cb));
}

EventId Simulation::schedule_reserved(SimTime t, std::uint64_t seq,
                                      EventQueue::Callback cb) {
  assert(is_valid_time(t) && "schedule_reserved: invalid time");
  assert(t >= now_ && "schedule_reserved: cannot schedule in the past");
  return queue_.restore(t, seq, std::move(cb));
}

EventId Simulation::schedule_in(SimDuration delay, EventQueue::Callback cb) {
  assert(delay >= 0.0 && "schedule_in: negative delay");
  return queue_.push(now_ + delay, std::move(cb));
}

bool Simulation::step() {
  if (queue_.empty()) return false;
  auto [time, callback] = queue_.pop();
  assert(time >= now_ && "event queue yielded an event in the past");
  now_ = time;
  ++processed_;
  callback();
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
