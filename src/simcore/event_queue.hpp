#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "simcore/callback.hpp"
#include "simcore/time.hpp"

namespace cbs::sim {

/// Opaque handle to a scheduled event; used for cancellation. Encodes the
/// event's slab slot and a per-slot generation, so handles of fired or
/// cancelled events can never alias a later event that reuses the slot.
struct EventId {
  std::uint64_t value = 0;
  friend bool operator==(EventId, EventId) = default;
};

/// Priority queue of timestamped callbacks with stable FIFO tie-breaking and
/// O(1) amortized cancellation.
///
/// Determinism contract: two events at the same timestamp fire in the order
/// they were scheduled, regardless of heap internals. This is what makes
/// whole-simulation replay bit-exact.
///
/// ## Engine layout (the allocation-light design)
///
/// Event state lives in a slab of reusable slots (callback + time + seq +
/// generation); the binary heap orders small POD `{time, seq, slot}` records
/// by (time, scheduling order). Consequences:
///
///  - scheduling an event allocates nothing once the slab and heap vectors
///    have warmed up (and the callback fits `UniqueCallback`'s buffer);
///  - cancellation destroys the callback immediately (releasing captured
///    state) and leaves a tombstone record in the heap; tombstones are
///    dropped when they surface, and bulk-compacted when they outnumber
///    live events — so cancel-heavy paths (burst-retraction deadlines)
///    cannot grow the heap unboundedly;
///  - `pop()` moves the callback out of its slot — no const_cast through
///    `std::priority_queue::top()`, which the previous implementation
///    needed.
class EventQueue {
 public:
  using Callback = UniqueCallback;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Pre-sizes the slab and heap for `expected_events` concurrent events.
  /// Purely a performance hint: growth past it still works. Worth calling
  /// before bulk scheduling — slab growth relocates every stored callback.
  void reserve(std::size_t expected_events);

  /// Schedules `cb` at absolute time `t`. Precondition: is_valid_time(t).
  EventId push(SimTime t, Callback cb);

  /// Cancels a pending event. Returns true if it was still pending;
  /// cancelling an already-fired or already-cancelled event is a no-op.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }

  /// Timestamp of the next live event; kTimeInfinity when empty.
  [[nodiscard]] SimTime next_time() const;

  /// Removes and returns the next live event's callback along with its time.
  /// Precondition: !empty().
  struct Popped {
    SimTime time;
    Callback callback;
  };
  Popped pop();

  /// Number of live (non-cancelled) events still pending.
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  /// Total events scheduled over the queue's lifetime (diagnostics).
  [[nodiscard]] std::uint64_t total_scheduled() const noexcept { return next_seq_ - 1; }

  /// Cancelled events still occupying heap records (diagnostics/tests).
  [[nodiscard]] std::size_t tombstones() const noexcept { return tombstones_; }

  // --- Snapshot/fork support -------------------------------------------
  //
  // Callbacks are move-only, so a queue cannot be copied. Instead a fork
  // serializes the pending {id, time, seq} records and each component
  // re-registers its own events on the clone via restore(), preserving the
  // original (time, seq) pair. seq is unique and fires_before() compares
  // (time, order) where order is dominated by seq, so slot reassignment in
  // the clone can never change pop order: replay is bit-exact.

  /// One pending event, without its callback.
  struct PendingEvent {
    EventId id;         ///< handle in *this* queue (the snapshot source)
    SimTime time = 0.0;
    std::uint64_t seq = 0;  ///< original scheduling order
  };

  /// All live events, sorted by seq (deterministic order).
  [[nodiscard]] std::vector<PendingEvent> pending_records() const;

  /// Re-schedules an event with an explicit (time, seq) taken from a
  /// source queue's PendingEvent, or reserved earlier by advancing
  /// next_seq() past it (Simulation::reserve_seqs). Precondition: seq <
  /// next_seq() (call set_next_seq() first) and seq unique among pending
  /// events.
  EventId restore(SimTime t, std::uint64_t seq, Callback cb);

  [[nodiscard]] std::uint64_t next_seq() const noexcept { return next_seq_; }
  void set_next_seq(std::uint64_t seq) noexcept { next_seq_ = seq; }

 private:
  enum class SlotState : std::uint8_t { kFree, kPending, kCancelled };

  /// Exactly one cache line: the time and insertion order live in the heap
  /// record instead, so a slot is just identity (gen, state) + callback.
  struct Slot {
    std::uint32_t gen = 0;   ///< bumped on every reuse; part of the EventId
    SlotState state = SlotState::kFree;
    Callback callback;
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

  /// Slab chunking: 512 slots (32 KB) per chunk. Chunks never move, so
  /// growing the slab relocates no stored callback — a flat vector paid an
  /// indirect relocate call per live event on every capacity doubling,
  /// which dominated bulk-scheduling cost.
  static constexpr unsigned kChunkBits = 9;
  static constexpr std::uint32_t kChunkSize = 1U << kChunkBits;

  [[nodiscard]] Slot& slot_at(std::uint32_t idx) const noexcept {
    return slabs_[idx >> kChunkBits][idx & (kChunkSize - 1)];
  }

  // The helpers below only touch the mutable engine state, so they are
  // `const` and shared by next_time()'s lazy head-dropping.
  [[nodiscard]] std::uint32_t acquire_slot() const;
  void release_slot(std::uint32_t idx) const;
  void sift_up(std::size_t pos) const;
  void sift_down(std::size_t pos) const;
  void heapify() const;
  void drop_cancelled_head() const;
  void maybe_compact() const;

  // `mutable` so next_time() can lazily discard cancelled heads, exactly as
  // the previous implementation did.
  mutable std::vector<std::unique_ptr<Slot[]>> slabs_;
  mutable std::uint32_t slot_count_ = 0;     ///< slots ever created
  mutable std::vector<std::uint32_t> free_;  ///< reusable slot indices (LIFO)
  mutable std::vector<HeapItem> heap_;
  mutable std::size_t tombstones_ = 0;  ///< cancelled records still in heap_
  std::size_t live_ = 0;                ///< pending (non-cancelled) events
  std::uint64_t next_seq_ = 1;
};

}  // namespace cbs::sim
