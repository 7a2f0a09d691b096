#include "compute/job_store.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace cbs::compute {

JobStore::JobStore(cbs::sim::Simulation& sim, StoreOwner& owner,
                   std::size_t index)
    : sim_(sim), target_(sim.register_target(*this)), owner_(owner) {
  index_ = index;
}

JobStore::JobStore(cbs::sim::Simulation& dst, StoreOwner& owner,
                   const JobStore& src)
    : JobStoreState(src),
      sim_(dst),
      target_(dst.register_target(*this, src.target_)),
      owner_(owner) {}

void JobStore::put_async(std::uint64_t seq, ObjectKind kind, double bytes) {
  step_op(PendingOp{.seq = seq, .kind = kind, .bytes = bytes});
}

void JobStore::step_op(PendingOp op) {
  if (available_) {
    put(op.seq, op.kind, op.bytes);
    owner_.on_put_done(index_, op.seq, op.kind, true);
    return;
  }
  ++failed_attempts_;
  if (op.attempt + 1 >= kMaxAttempts) {
    ++abandoned_ops_;
    owner_.on_put_done(index_, op.seq, op.kind, false);
    return;
  }
  const std::uint64_t op_id = next_op_id_++;
  sim_.schedule_in(cbs::sim::doubling_backoff(kRetryBackoff, op.attempt),
                   {target_, 0, op_id});
  pending_ops_.insert(op_id, std::move(op));
}

void JobStore::on_event(std::uint32_t /*kind*/, std::uint64_t op_id) {
  PendingOp op = std::move(pending_ops_.at(op_id));
  pending_ops_.erase(op_id);
  ++op.attempt;
  step_op(std::move(op));
}

void JobStore::integrate() {
  byte_seconds_ += occupancy_ * (sim_.now() - last_change_);
  last_change_ = sim_.now();
}

double JobStore::occupancy_byte_seconds() const {
  return byte_seconds_ + occupancy_ * (sim_.now() - last_change_);
}

std::uint64_t JobStore::key_of(std::uint64_t seq, ObjectKind kind) {
  assert(seq < (std::uint64_t{1} << 63));
  return (seq << 1) | static_cast<std::uint64_t>(kind);
}

void JobStore::put(std::uint64_t seq, ObjectKind kind, double bytes) {
  assert(bytes >= 0.0);
  integrate();
  const std::uint64_t key = key_of(seq, kind);
  if (double* stored = objects_.find(key)) {
    occupancy_ -= *stored;
    *stored = bytes;
  } else {
    objects_.insert(key, bytes);
  }
  occupancy_ += bytes;
  peak_ = std::max(peak_, occupancy_);
}

double JobStore::size_of(std::uint64_t seq, ObjectKind kind) const {
  const double* stored = objects_.find(key_of(seq, kind));
  return stored == nullptr ? 0.0 : *stored;
}

double JobStore::erase(std::uint64_t seq, ObjectKind kind) {
  const std::uint64_t key = key_of(seq, kind);
  const double* stored = objects_.find(key);
  if (stored == nullptr) return 0.0;
  integrate();
  const double freed = *stored;
  occupancy_ -= freed;
  objects_.erase(key);
  return freed;
}

}  // namespace cbs::compute
