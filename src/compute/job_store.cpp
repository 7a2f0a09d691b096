#include "compute/job_store.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "simcore/snapshot.hpp"

namespace cbs::compute {

JobStore::JobStore(cbs::sim::Simulation& sim, Config config)
    : sim_(sim), config_(config) {
  assert(config_.max_attempts >= 1);
  assert(config_.retry_backoff >= 0.0);
  assert(config_.backoff_multiplier >= 1.0);
  assert(config_.capacity_bytes >= 0.0);
}

JobStore::JobStore(cbs::sim::Simulation& dst, const JobStore& src)
    : sim_(dst),
      config_(src.config_),
      available_(src.available_),
      failed_attempts_(src.failed_attempts_),
      abandoned_ops_(src.abandoned_ops_),
      objects_(src.objects_),
      occupancy_(src.occupancy_),
      peak_(src.peak_),
      byte_seconds_(src.byte_seconds_),
      last_change_(src.last_change_),
      pending_ops_(src.pending_ops_),
      next_op_id_(src.next_op_id_) {
  assert(src.closure_retries_pending_ == 0 &&
         "closure-based async ops cannot cross a fork");
}

int JobStore::register_continuation(Continuation continuation) {
  assert(continuation);
  continuations_.push_back(std::move(continuation));
  return static_cast<int>(continuations_.size()) - 1;
}

void JobStore::rebuild_events(cbs::sim::SnapshotContext& ctx) {
  for (auto& [op_id, op] : pending_ops_) {
    const std::uint64_t id = op_id;
    op.retry = ctx.restore(op.retry, [this, id] { retry_op(id); });
  }
}

cbs::sim::SimDuration JobStore::backoff_delay(int attempt) const {
  // attempt 0 failed -> wait retry_backoff, then grow geometrically.
  double delay = config_.retry_backoff;
  for (int i = 0; i < attempt; ++i) delay *= config_.backoff_multiplier;
  return std::min(delay, config_.max_backoff);
}

void JobStore::attempt_put(const std::string& key, double bytes,
                           PutHandler done, int attempt) {
  const double delta = bytes - size_of(key);  // overwrite frees the old object
  if (available_ && occupancy_ + delta <= config_.capacity_bytes) {
    put(key, bytes);
    if (done) done(true);
    return;
  }
  ++failed_attempts_;
  if (attempt + 1 >= config_.max_attempts) {
    ++abandoned_ops_;
    if (done) done(false);
    return;
  }
  ++closure_retries_pending_;
  sim_.schedule_in(backoff_delay(attempt),
                   [this, key, bytes, done = std::move(done), attempt] {
                     --closure_retries_pending_;
                     attempt_put(key, bytes, done, attempt + 1);
                   });
}

void JobStore::put_async(const std::string& key, double bytes,
                         PutHandler done) {
  attempt_put(key, bytes, std::move(done), 0);
}

void JobStore::attempt_get(const std::string& key, GetHandler done,
                           int attempt) {
  if (available_) {
    auto it = objects_.find(key);
    if (it == objects_.end()) {
      // Absence on a healthy store is a definite answer, not a fault.
      if (done) done(false, 0.0);
    } else {
      if (done) done(true, it->second);
    }
    return;
  }
  ++failed_attempts_;
  if (attempt + 1 >= config_.max_attempts) {
    ++abandoned_ops_;
    if (done) done(false, 0.0);
    return;
  }
  ++closure_retries_pending_;
  sim_.schedule_in(backoff_delay(attempt),
                   [this, key, done = std::move(done), attempt] {
                     --closure_retries_pending_;
                     attempt_get(key, done, attempt + 1);
                   });
}

void JobStore::get_async(const std::string& key, GetHandler done) {
  attempt_get(key, std::move(done), 0);
}

void JobStore::put_async(const std::string& key, double bytes, int slot,
                         std::uint64_t tag) {
  assert(slot >= 0 && slot < static_cast<int>(continuations_.size()));
  PendingOp op;
  op.is_put = true;
  op.key = key;
  op.bytes = bytes;
  op.slot = slot;
  op.tag = tag;
  step_op(std::move(op));
}

void JobStore::get_async(const std::string& key, int slot, std::uint64_t tag) {
  assert(slot >= 0 && slot < static_cast<int>(continuations_.size()));
  PendingOp op;
  op.is_put = false;
  op.key = key;
  op.slot = slot;
  op.tag = tag;
  step_op(std::move(op));
}

void JobStore::step_op(PendingOp op) {
  Continuation& done = continuations_[static_cast<std::size_t>(op.slot)];
  if (op.is_put) {
    const double delta = op.bytes - size_of(op.key);
    if (available_ && occupancy_ + delta <= config_.capacity_bytes) {
      put(op.key, op.bytes);
      done(op.tag, true, op.bytes);
      return;
    }
  } else if (available_) {
    // Absence on a healthy store is a definite answer, not a fault.
    auto it = objects_.find(op.key);
    if (it == objects_.end()) {
      done(op.tag, false, 0.0);
    } else {
      done(op.tag, true, it->second);
    }
    return;
  }
  ++failed_attempts_;
  if (op.attempt + 1 >= config_.max_attempts) {
    ++abandoned_ops_;
    done(op.tag, false, 0.0);
    return;
  }
  const std::uint64_t op_id = next_op_id_++;
  const cbs::sim::SimDuration delay = backoff_delay(op.attempt);
  op.retry = sim_.schedule_in(delay, [this, op_id] { retry_op(op_id); });
  pending_ops_.emplace(op_id, std::move(op));
}

void JobStore::retry_op(std::uint64_t op_id) {
  auto it = pending_ops_.find(op_id);
  assert(it != pending_ops_.end());
  PendingOp op = std::move(it->second);
  pending_ops_.erase(it);
  op.retry = cbs::sim::EventId{};
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

void JobStore::put(const std::string& key, double bytes) {
  assert(bytes >= 0.0);
  integrate();
  auto [it, inserted] = objects_.try_emplace(key, bytes);
  if (!inserted) {
    occupancy_ -= it->second;
    it->second = bytes;
  }
  occupancy_ += bytes;
  peak_ = std::max(peak_, occupancy_);
}

double JobStore::size_of(const std::string& key) const {
  auto it = objects_.find(key);
  return it == objects_.end() ? 0.0 : it->second;
}

bool JobStore::contains(const std::string& key) const {
  return objects_.contains(key);
}

double JobStore::erase(const std::string& key) {
  auto it = objects_.find(key);
  if (it == objects_.end()) return 0.0;
  integrate();
  const double freed = it->second;
  occupancy_ -= freed;
  objects_.erase(it);
  return freed;
}

}  // namespace cbs::compute
