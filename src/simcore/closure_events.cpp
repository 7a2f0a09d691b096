#include "simcore/closure_events.hpp"

#include <cassert>
#include <utility>

namespace cbs::sim {

ClosureEvents::ClosureEvents(Simulation& sim)
    : sim_(sim), target_(sim.register_target(*this)) {}

std::uint64_t ClosureEvents::store(UniqueCallback cb) {
  assert(cb);
  if (free_.empty()) {
    closures_.push_back(std::move(cb));
    return closures_.size() - 1;
  }
  const std::uint64_t slot = free_.back();
  free_.pop_back();
  closures_[slot] = std::move(cb);
  return slot;
}

EventId ClosureEvents::at(SimTime t, UniqueCallback cb) {
  return sim_.schedule_at(t, {target_, 0, store(std::move(cb))});
}

EventId ClosureEvents::in(SimDuration delay, UniqueCallback cb) {
  return sim_.schedule_in(delay, {target_, 0, store(std::move(cb))});
}

bool ClosureEvents::cancel(EventId id) {
  const Event* event = sim_.find_pending(id);
  if (event == nullptr || event->target != target_) return false;
  const std::uint64_t slot = event->arg;
  sim_.cancel(id);
  closures_[slot].reset();
  free_.push_back(slot);
  return true;
}

void ClosureEvents::on_event(std::uint32_t /*kind*/, std::uint64_t slot) {
  // Moved out first: the closure may schedule more, growing closures_.
  UniqueCallback cb = std::move(closures_[slot]);
  free_.push_back(slot);
  cb();
}

}  // namespace cbs::sim
