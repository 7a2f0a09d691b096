#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "simcore/simulation.hpp"
#include "simcore/time.hpp"
#include "util/flat_map.hpp"

namespace cbs::sim {
class SnapshotContext;
}

namespace cbs::compute {

/// The external cloud's staging storage (Amazon S3 in the prototype):
/// uploaded job inputs land here before EMR picks them up, and compressed
/// outputs wait here for download. Keeps current and peak occupancy and
/// their time integral (the billing quantity) as running values, not as a
/// history, so a fork copies only the live objects.
///
/// The synchronous put/size_of/erase API models the fault-free control
/// plane. The asynchronous put_async/get_async paths add S3-style
/// best-effort semantics: while the store is unavailable (an EC outage) or
/// over capacity, an attempt fails and is retried after exponential
/// backoff, giving up after `Config::max_attempts`. With the store
/// available and capacity unconstrained (the defaults), the async paths
/// complete synchronously and schedule no events — the fault layer is free
/// when disabled.
class JobStore {
 public:
  struct Config {
    /// Attempts per operation (first try included). At least 1.
    int max_attempts = 6;
    /// Delay before the first retry; grows by `backoff_multiplier` per
    /// subsequent retry, capped at `max_backoff`.
    cbs::sim::SimDuration retry_backoff = 2.0;
    double backoff_multiplier = 2.0;
    cbs::sim::SimDuration max_backoff = 60.0;
    /// Byte capacity; a put that would overflow it fails (and retries).
    double capacity_bytes = std::numeric_limits<double>::infinity();
  };

  using PutHandler = std::function<void(bool ok)>;
  using GetHandler = std::function<void(bool ok, double bytes)>;
  /// A registered continuation: receives the caller's tag and the result
  /// (`bytes` is the object size for gets, the stored size for puts).
  using Continuation =
      std::function<void(std::uint64_t tag, bool ok, double bytes)>;

  explicit JobStore(cbs::sim::Simulation& sim) : JobStore(sim, Config{}) {}
  JobStore(cbs::sim::Simulation& sim, Config config);
  JobStore(const JobStore&) = delete;
  JobStore& operator=(const JobStore&) = delete;

  /// Fork support: copies `src`'s value state (objects, occupancy
  /// accounting, pending retry records) into a store bound to `dst`.
  /// Continuations are NOT copied — the owner must register them on the
  /// clone in source order, then call rebuild_events(). Precondition: no
  /// closure-based async op is awaiting a retry.
  JobStore(cbs::sim::Simulation& dst, const JobStore& src);

  /// Registers a continuation and returns its slot for the tag-based
  /// async forms.
  int register_continuation(Continuation continuation);

  /// Re-schedules pending retry events after a fork.
  void rebuild_events(cbs::sim::SnapshotContext& ctx);

  /// Stores `bytes` under `key`; overwrites an existing object.
  void put(const std::string& key, double bytes);

  /// Size of the object under `key`; 0 if absent.
  [[nodiscard]] double size_of(const std::string& key) const;

  [[nodiscard]] bool contains(const std::string& key) const;

  /// Removes an object; no-op if absent. Returns the freed bytes.
  double erase(const std::string& key);

  // ---- Best-effort paths (retry/backoff against outages) -------------

  /// Availability switch, driven by the EC outage windows of the fault
  /// plan. While false, every async attempt fails.
  void set_available(bool available) noexcept { available_ = available; }
  [[nodiscard]] bool available() const noexcept { return available_; }

  /// Stores `bytes` under `key` with retry/backoff; `done(ok)` fires once,
  /// synchronously when the first attempt succeeds.
  void put_async(const std::string& key, double bytes, PutHandler done);

  /// Fetches the object size with the same retry semantics. A missing key
  /// on an *available* store fails immediately (no retry — absence is a
  /// definite answer, not an outage).
  void get_async(const std::string& key, GetHandler done);

  /// Tag-based forms — the forkable path: the result is dispatched to the
  /// registered continuation `slot` with `tag`, and a pending retry is
  /// value state (re-schedulable across a fork) instead of a closure.
  void put_async(const std::string& key, double bytes, int slot,
                 std::uint64_t tag);
  void get_async(const std::string& key, int slot, std::uint64_t tag);

  /// Async attempts that failed (unavailable or over capacity).
  [[nodiscard]] std::uint64_t failed_attempts() const noexcept {
    return failed_attempts_;
  }
  /// Operations that exhausted max_attempts and reported ok = false.
  [[nodiscard]] std::uint64_t abandoned_ops() const noexcept {
    return abandoned_ops_;
  }

  [[nodiscard]] double occupancy_bytes() const noexcept { return occupancy_; }
  [[nodiscard]] double peak_occupancy_bytes() const noexcept { return peak_; }
  /// Integral of occupancy over time (byte-seconds) — the storage-billing
  /// quantity.
  [[nodiscard]] double occupancy_byte_seconds() const;
  [[nodiscard]] std::size_t object_count() const noexcept { return objects_.size(); }
  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  /// One tag-based async op awaiting its next retry — pure value state
  /// plus the pending event id, so forks can re-schedule it.
  struct PendingOp {
    bool is_put = false;
    std::string key;
    double bytes = 0.0;  ///< puts only
    int slot = -1;
    std::uint64_t tag = 0;
    int attempt = 0;
    cbs::sim::EventId retry{};
  };

  cbs::sim::Simulation& sim_;
  void integrate();
  [[nodiscard]] cbs::sim::SimDuration backoff_delay(int attempt) const;
  void attempt_put(const std::string& key, double bytes, PutHandler done,
                   int attempt);
  void attempt_get(const std::string& key, GetHandler done, int attempt);
  void step_op(PendingOp op);
  void retry_op(std::uint64_t op_id);

  Config config_;
  bool available_ = true;
  std::uint64_t failed_attempts_ = 0;
  std::uint64_t abandoned_ops_ = 0;
  std::unordered_map<std::string, double> objects_;
  double occupancy_ = 0.0;
  double peak_ = 0.0;
  double byte_seconds_ = 0.0;
  cbs::sim::SimTime last_change_ = 0.0;
  // Owners re-register continuations in the same slot order post-fork.
  // cbs-lint: snapshot-complete-ok(re-registered post-fork in slot order)
  std::vector<Continuation> continuations_;
  cbs::util::FlatMap<std::uint64_t, PendingOp> pending_ops_;
  std::uint64_t next_op_id_ = 1;
  std::uint64_t closure_retries_pending_ = 0;  ///< blocks forking when > 0
};

}  // namespace cbs::compute
