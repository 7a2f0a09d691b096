#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "net/link.hpp"
#include "util/flat_map.hpp"
#include "net/thread_tuner.hpp"
#include "simcore/callback.hpp"
#include "simcore/simulation.hpp"

namespace cbs::core {

/// The asynchronous transfer stage of the pipelined architecture (Fig. 5):
/// a set of FIFO classes feeding one Link, one active transfer slot per
/// class. With one class this is the plain upload (or download) queue used
/// by the Greedy/Op schedulers; with three classes and per-batch size
/// bounds it implements Algorithm 3's small/medium/large splitting.
///
/// Ride-up policy (§IV.C): when a class's slot frees and its own queue is
/// empty, it serves the head of the nearest *lower* class — small jobs may
/// use the medium/large pipes, large jobs may never block the small pipe.
///
/// The set holds at most `num_classes × slots_per_class` transfers in
/// flight on the link, and tells the link so at construction
/// (Link::reserve_transfers) — the link's hot/cold transfer tables then
/// never reallocate in steady state.
class TransferQueueSet {
 public:
  /// Fired when a job's transfer completes; `klass` is the queue class the
  /// item was *enqueued* to (not the slot that carried it). Move-only: the
  /// handler is a set-once hook owned by this queue set, never copied.
  using CompletionHook = cbs::sim::UniqueFunction<void(
      std::uint64_t tag, int klass, const cbs::net::TransferRecord&)>;

  TransferQueueSet(cbs::sim::Simulation& sim, cbs::net::Link& link,
                   cbs::net::ThreadTuner& tuner, int num_classes,
                   int slots_per_class = 1);
  TransferQueueSet(const TransferQueueSet&) = delete;
  TransferQueueSet& operator=(const TransferQueueSet&) = delete;

  /// Fork support: copies `src`'s queues and active bookkeeping into a set
  /// bound to the forked `link`/`tuner`. Registers its completion handler
  /// on `link` — construction order relative to other handler owners must
  /// match the source link so slot indices line up. The set-once
  /// on_complete_ hook is NOT copied; the owner re-registers it. The set
  /// schedules no events of its own (the link owns the transfer events).
  TransferQueueSet(cbs::sim::Simulation& dst, const TransferQueueSet& src,
                   cbs::net::Link& link, cbs::net::ThreadTuner& tuner);

  void set_on_complete(CompletionHook handler) {
    on_complete_ = std::move(handler);
  }

  /// Enqueues `bytes` for transfer under caller tag `tag` into `klass`.
  void enqueue(std::uint64_t tag, double bytes, int klass);

  /// Cancels a *queued* (not yet started) item. Returns true on success;
  /// false when the item already started or is unknown — the §IV.D
  /// rescheduler uses this to pull jobs back before upload begins.
  bool try_cancel(std::uint64_t tag);

  /// Cancels an *in-flight* transfer: the underlying link transfer is
  /// aborted (progress wasted) and the slot freed. Returns false for an
  /// unknown tag. The burst-retraction policy uses this when a job must be
  /// reclaimed after its upload already started.
  bool try_cancel_active(std::uint64_t tag);

  /// Bytes waiting or in flight, per class (Algorithm 3's s_up/m_up/l_up).
  [[nodiscard]] std::vector<double> backlog_bytes_per_class() const;
  [[nodiscard]] double total_backlog_bytes() const;
  [[nodiscard]] int num_classes() const noexcept {
    return static_cast<int>(queues_.size());
  }
  [[nodiscard]] bool idle() const;
  [[nodiscard]] std::size_t queued_items() const;
  [[nodiscard]] std::size_t active_items() const noexcept { return active_count_; }

  /// Tags currently waiting (not started), youngest class first — the
  /// rescheduler scans these for pull-back candidates.
  [[nodiscard]] std::vector<std::uint64_t> queued_tags() const;

 private:
  struct Item {
    std::uint64_t tag;
    double bytes;
    int klass;
  };

  struct Slot {
    bool busy = false;
  };

  struct ActiveItem {
    Item item;
    int slot_klass = 0;        ///< class whose slot carries it (ride-up)
    std::size_t slot = 0;
    cbs::net::TransferId transfer{};
  };

  void pump();
  void release_slot(const ActiveItem& active);
  void on_link_complete(std::uint64_t tag, const cbs::net::TransferRecord& rec);
  [[nodiscard]] int pick_queue_for_class(int klass) const;

  cbs::sim::Simulation& sim_;
  cbs::net::Link& link_;
  cbs::net::ThreadTuner& tuner_;
  std::vector<std::deque<Item>> queues_;
  std::vector<std::vector<Slot>> slots_;  // per class
  // Deterministic ascending-tag iteration, and cancellation needs tag
  // lookup; tags are monotonic so inserts are O(1) amortized appends.
  cbs::util::FlatMap<std::uint64_t, ActiveItem> active_;
  std::size_t active_count_ = 0;
  // cbs-lint: snapshot-complete-ok(owner re-wires set_on_complete post-fork)
  CompletionHook on_complete_;
  int link_slot_ = -1;  ///< registered handler slot on link_
};

}  // namespace cbs::core
