#pragma once

#include <bit>
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
/// tie-breaking and in-place cancellation.
///
/// Determinism contract: two events at the same timestamp fire in the order
/// they were scheduled, regardless of heap internals. This is what makes
/// whole-simulation replay bit-exact.
///
/// ## Engine layout
///
/// Event state lives in a flat slab of reusable POD slots (event record +
/// generation + heap position); an indexed 4-ary heap orders 16-byte keys
/// of the live events only, by (time, scheduling order). Consequences:
///
///  - scheduling an event allocates nothing once the slab and heap vectors
///    have warmed up;
///  - a slot knows where its record sits, so cancel() and reschedule()
///    fix the heap in place: a cancelled event leaves nothing behind, and
///    the heap is never larger than the number of pending events;
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

  /// Moves a pending event to time `t` under a fresh seq, exactly as a
  /// cancel() followed by a push() of the same record would order it, but
  /// `id` keeps naming it. Returns false (and does nothing) when `id` is
  /// not pending. Precondition: is_valid_time(t).
  bool reschedule(EventId id, SimTime t);

  /// The record of a pending event; nullptr once it fired or was cancelled.
  [[nodiscard]] const Event* find(EventId id) const noexcept;

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }

  /// Timestamp of the next event; kTimeInfinity when empty.
  [[nodiscard]] SimTime next_time() const noexcept {
    return heap_.empty() ? kTimeInfinity : heap_.front().when();
  }

  /// Removes and returns the next event along with its time.
  /// Precondition: !empty().
  struct Popped {
    SimTime time;
    Event event;
  };
  Popped pop();

  /// Number of pending events.
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  /// Pending events addressed to `target` (diagnostics; O(size)).
  [[nodiscard]] std::size_t count_pending(TargetId target) const noexcept;

  /// Total events scheduled over the queue's lifetime (diagnostics); a
  /// reschedule counts as one more.
  [[nodiscard]] std::uint64_t total_scheduled() const noexcept { return next_seq_ - 1; }

  /// True when the heap is ordered, every pending slot's stored position
  /// holds its record, and every other slot is free (tests; O(slots)).
  [[nodiscard]] bool consistent() const noexcept;

  [[nodiscard]] std::uint64_t next_seq() const noexcept { return next_seq_; }
  void set_next_seq(std::uint64_t seq) noexcept { next_seq_ = seq; }

 private:
  static constexpr std::uint32_t kNoPos = ~std::uint32_t{0};

  /// The event record plus its identity and heap position: 24 bytes of POD.
  struct Slot {
    Event event;
    std::uint32_t gen = 0;       ///< bumped on every reuse; part of the EventId
    std::uint32_t pos = kNoPos;  ///< index in heap_; kNoPos when free
  };

  __extension__ typedef unsigned __int128 Key;

  /// One heap record: a 128-bit key whose high half is the time's bits
  /// (non-negative doubles order as their bit patterns) and whose low half
  /// packs the insertion seq (high 40 bits) over the slot index (low 24).
  /// seq is unique, so one integer comparison is the (time, FIFO) order,
  /// and the slot rides along for free. Limits — ≤ 2^24 concurrent events,
  /// ≤ 2^40 lifetime events — are asserted in push_reserved().
  struct HeapItem {
    Key key;

    [[nodiscard]] SimTime when() const noexcept {
      return std::bit_cast<SimTime>(static_cast<std::uint64_t>(key >> 64));
    }
    [[nodiscard]] std::uint32_t slot() const noexcept {
      return static_cast<std::uint32_t>(key & ((1U << kSlotBits) - 1));
    }
  };
  static constexpr unsigned kSlotBits = 24;

  /// The record of `slot` at `t` under `seq`; `t + 0.0` maps -0.0 to +0.0.
  [[nodiscard]] static HeapItem make_item(SimTime t, std::uint64_t seq,
                                          std::uint32_t slot) noexcept {
    return {(Key{std::bit_cast<std::uint64_t>(t + 0.0)} << 64) |
            (seq << kSlotBits) | slot};
  }

  void put(std::size_t pos, HeapItem item) noexcept;
  void sift_up(std::size_t pos, HeapItem item) noexcept;
  void place(std::size_t pos, HeapItem item) noexcept;
  void remove_at(std::size_t pos) noexcept;

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  ///< reusable slot indices (LIFO)
  std::vector<HeapItem> heap_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace cbs::sim
