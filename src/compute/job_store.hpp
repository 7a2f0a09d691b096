#pragma once

#include <cstdint>

#include "simcore/simulation.hpp"
#include "simcore/time.hpp"
#include "util/seq_table.hpp"

namespace cbs::compute {

class StoreOwner;

/// A JobStore's value state: everything but its engine, target id and
/// owner, so a fork copies it whole (DESIGN.md §12.2).
struct JobStoreState {
  enum class ObjectKind : std::uint8_t { kInput, kOutput };

  /// One put_async awaiting its next retry — pure value state, named by
  /// its retry event's argument.
  struct PendingOp {
    std::uint64_t seq = 0;
    ObjectKind kind = ObjectKind::kInput;
    double bytes = 0.0;
    int attempt = 0;
  };

  std::size_t index_ = 0;
  bool available_ = true;
  std::uint64_t failed_attempts_ = 0;
  std::uint64_t abandoned_ops_ = 0;
  std::size_t objects_ = 0;  ///< objects stored now
  double occupancy_ = 0.0;
  double peak_ = 0.0;
  double byte_seconds_ = 0.0;
  cbs::sim::SimTime last_change_ = 0.0;
  cbs::util::SeqTable<PendingOp> pending_ops_;
  std::uint64_t next_op_id_ = 1;
};

/// The external cloud's staging storage (Amazon S3 in the prototype):
/// uploaded job inputs land here before EMR picks them up, and compressed
/// outputs wait here for download. Keeps the object count, current and
/// peak occupancy and their time integral (the billing quantity) as
/// running values, with no per-object record: the owner's job knows the
/// size of what it staged and releases exactly those bytes, so a fork
/// copies a few scalars and the pending retries.
///
/// A job has at most one object of each kind here; put_async names it by
/// its job's sequence id and its kind, which come back in the owner's
/// report. put_async has S3-style best-effort semantics: while the store
/// is unavailable (an EC outage), an attempt fails and is retried after
/// exponential backoff (kRetryBackoff, doubling), giving up after
/// kMaxAttempts. With the store available, put_async completes
/// synchronously and schedules no events — the fault layer is free when
/// disabled.
class JobStore : private JobStoreState, private cbs::sim::EventTarget {
 public:
  using JobStoreState::ObjectKind;

  /// Attempts per put_async (first try included).
  static constexpr int kMaxAttempts = 6;
  /// Delay before the first retry; it doubles per subsequent retry, so a
  /// put that never lands waits 2, 4, 8, 16 and 32 s and gives up at 62 s.
  static constexpr cbs::sim::SimDuration kRetryBackoff = 2.0;

  /// A store that reports to `owner` under `index`.
  JobStore(cbs::sim::Simulation& sim, StoreOwner& owner, std::size_t index);
  JobStore(const JobStore&) = delete;
  JobStore& operator=(const JobStore&) = delete;

  /// Fork support: copies `src`'s JobStoreState whole (occupancy
  /// accounting, pending retry records, its index) into a store bound to
  /// `dst`, the copy of `src`'s engine, that reports to `owner`.
  JobStore(cbs::sim::Simulation& dst, StoreOwner& owner, const JobStore& src);

  /// Removes a stored object of `bytes`: exactly the bytes its put_async
  /// staged, so occupancy returns to what it was before.
  void release(double bytes);

  /// Availability switch, driven by the EC outage windows of the fault
  /// plan. While false, every put_async attempt fails.
  void set_available(bool available) noexcept { available_ = available; }
  [[nodiscard]] bool available() const noexcept { return available_; }

  /// Stores `bytes` as job `seq`'s object of `kind`, with retry/backoff.
  /// The result goes to the owner once, with `seq` and `kind`:
  /// synchronously when the first attempt succeeds. A pending retry is
  /// value state that crosses a fork, not a closure.
  void put_async(std::uint64_t seq, ObjectKind kind, double bytes);

  /// put_async attempts that failed (store unavailable).
  [[nodiscard]] std::uint64_t failed_attempts() const noexcept {
    return failed_attempts_;
  }
  /// Operations that exhausted kMaxAttempts and reported ok = false.
  [[nodiscard]] std::uint64_t abandoned_ops() const noexcept {
    return abandoned_ops_;
  }

  [[nodiscard]] double occupancy_bytes() const noexcept { return occupancy_; }
  [[nodiscard]] double peak_occupancy_bytes() const noexcept { return peak_; }
  /// Integral of occupancy over time (byte-seconds) — the storage-billing
  /// quantity.
  [[nodiscard]] double occupancy_byte_seconds() const;
  [[nodiscard]] std::size_t object_count() const noexcept { return objects_; }

 private:
  /// Stores an object of `bytes`: the landing of a put_async attempt.
  void put(double bytes);
  /// The retry of pending op `op_id`.
  void on_event(std::uint32_t kind, std::uint64_t op_id) override;
  void integrate();
  void step_op(PendingOp op);

  cbs::sim::Simulation& sim_;
  cbs::sim::TargetId target_;
  StoreOwner& owner_;
};

/// What a JobStore reports finished put_async() operations to. `store` is
/// the index the owner gave the store at construction; `ok` is false when
/// the put was abandoned after JobStore::kMaxAttempts.
class StoreOwner {
 public:
  virtual void on_put_done(std::size_t store, std::uint64_t seq,
                           JobStore::ObjectKind kind, bool ok) = 0;

 protected:
  ~StoreOwner() = default;
};

}  // namespace cbs::compute
