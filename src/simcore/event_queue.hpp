#pragma once

#include <cstdint>
#include <vector>

#include "simcore/time.hpp"

namespace cbs::sim {

/// Opaque handle to a scheduled event; used for cancellation. Encodes the
/// event's slab slot and a per-slot generation, so handles of fired or
/// cancelled events can never alias a later event that reuses the slot.
struct EventId {
  std::uint64_t value = 0;
  friend bool operator==(EventId, EventId) = default;
};

/// Index of an EventTarget in its Simulation's target table.
using TargetId = std::uint32_t;

/// A pending event as plain data: the target it is delivered to, a kind
/// the target defines, and one integer argument (a machine index, a
/// transfer id, a job seq). Holding no pointer and no closure, it crosses
/// a fork by copy.
struct Event {
  TargetId target = 0;
  std::uint32_t kind = 0;
  std::uint64_t arg = 0;
};

/// Priority queue of timestamped event records with stable FIFO
/// tie-breaking and O(1) amortized cancellation.
///
/// Determinism contract: two events at the same timestamp fire in the order
/// they were scheduled, regardless of heap internals. This is what makes
/// whole-simulation replay bit-exact.
///
/// ## Engine layout
///
/// Event state lives in a flat slab of reusable POD slots (event record +
/// generation + state); the 4-ary heap orders small POD `{time, order}`
/// records by (time, scheduling order). Consequences:
///
///  - scheduling an event allocates nothing once the slab and heap vectors
///    have warmed up;
///  - cancellation marks the slot and leaves a tombstone record in the
///    heap; tombstones are dropped when they surface, and bulk-compacted
///    when they outnumber live events — so cancel-heavy paths
///    (burst-retraction deadlines) cannot grow the heap unboundedly;
///  - the queue is a plain value: copying it copies the slab, the heap and
///    the seq counter, so every EventId of the source names the same event
///    in the copy. A copy only reads its source.
class EventQueue {
 public:
  /// Pre-sizes the slab and heap for `expected_events` concurrent events.
  /// Purely a performance hint: growth past it still works.
  void reserve(std::size_t expected_events);

  /// Schedules `event` at absolute time `t`. Precondition: is_valid_time(t).
  EventId push(SimTime t, Event event);

  /// Schedules `event` under an explicit scheduling-order number `seq`
  /// reserved earlier by advancing next_seq() past it
  /// (Simulation::reserve_seqs). Precondition: seq < next_seq() and seq
  /// unique among pending events.
  EventId push_reserved(SimTime t, std::uint64_t seq, Event event);

  /// Cancels a pending event. Returns true if it was still pending;
  /// cancelling an already-fired or already-cancelled event is a no-op.
  bool cancel(EventId id);

  /// The record of a pending event; nullptr once it fired or was cancelled.
  [[nodiscard]] const Event* find(EventId id) const noexcept;

  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }

  /// Timestamp of the next live event; kTimeInfinity when empty.
  [[nodiscard]] SimTime next_time();

  /// Removes and returns the next live event along with its time.
  /// Precondition: !empty().
  struct Popped {
    SimTime time;
    Event event;
  };
  Popped pop();

  /// Number of live (non-cancelled) events still pending.
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  /// Live events addressed to `target` (diagnostics; O(heap)).
  [[nodiscard]] std::size_t count_pending(TargetId target) const noexcept;

  /// Total events scheduled over the queue's lifetime (diagnostics).
  [[nodiscard]] std::uint64_t total_scheduled() const noexcept { return next_seq_ - 1; }

  /// Cancelled events still occupying heap records (diagnostics/tests).
  [[nodiscard]] std::size_t tombstones() const noexcept { return tombstones_; }

  [[nodiscard]] std::uint64_t next_seq() const noexcept { return next_seq_; }
  void set_next_seq(std::uint64_t seq) noexcept { next_seq_ = seq; }

 private:
  enum class SlotState : std::uint8_t { kFree, kPending, kCancelled };

  /// The event record plus its identity (gen, state): 24 bytes of POD.
  struct Slot {
    Event event;
    std::uint32_t gen = 0;   ///< bumped on every reuse; part of the EventId
    SlotState state = SlotState::kFree;
  };

  /// One heap record, deliberately 16 bytes so sift moves stay cheap and
  /// 10k pending events fit in 160 KB of L2. `order` packs the insertion
  /// seq (high 40 bits) over the slot index (low 24): seq is unique, so
  /// comparing `order` alone IS the FIFO tie-break, and the slot rides
  /// along for free. Limits — ≤ 2^24 concurrent events, ≤ 2^40 lifetime
  /// events — are asserted in push().
  struct HeapItem {
    SimTime time;
    std::uint64_t order;  ///< (seq << kSlotBits) | slot

    [[nodiscard]] std::uint32_t slot() const noexcept {
      return static_cast<std::uint32_t>(order & ((1ULL << kSlotBits) - 1));
    }
  };
  static constexpr unsigned kSlotBits = 24;

  /// Strict-weak "fires earlier" order: (time, seq). seq is unique, so this
  /// is a total order and every valid heap yields the same pop sequence.
  [[nodiscard]] static bool fires_before(const HeapItem& a,
                                         const HeapItem& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.order < b.order;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t idx);
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  void heapify();
  void drop_cancelled_head();
  void maybe_compact();

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  ///< reusable slot indices (LIFO)
  std::vector<HeapItem> heap_;
  std::size_t tombstones_ = 0;  ///< cancelled records still in heap_
  std::size_t live_ = 0;        ///< pending (non-cancelled) events
  std::uint64_t next_seq_ = 1;
};

}  // namespace cbs::sim
