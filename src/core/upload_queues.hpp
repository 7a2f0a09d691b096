#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "net/link.hpp"
#include "util/flat_map.hpp"
#include "net/thread_tuner.hpp"
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
///
/// The set does not listen to the link. It submits every transfer with the
/// report kind it was built with, and the link's owner hands each finished
/// one back through on_transfer_done().
class TransferQueueSet {
 public:
  TransferQueueSet(cbs::sim::Simulation& sim, cbs::net::Link& link,
                   cbs::net::ThreadTuner& tuner, std::uint32_t transfer_kind,
                   int num_classes, int slots_per_class = 1);
  TransferQueueSet(const TransferQueueSet&) = delete;
  TransferQueueSet& operator=(const TransferQueueSet&) = delete;

  /// Fork support: copies `src`'s queues and active bookkeeping into a set
  /// bound to the forked `link`/`tuner`. The set schedules no events of
  /// its own (the link owns the transfer events). The one clone in src/
  /// that takes peers besides the engine and its source: passing the link
  /// and tuner to each call instead would cost more than it saves.
  TransferQueueSet(cbs::sim::Simulation& dst, const TransferQueueSet& src,
                   cbs::net::Link& link, cbs::net::ThreadTuner& tuner);

  /// Takes the finished transfer of `tag` back from the link's owner: frees
  /// its slot and starts the next waiting item, so the pipe never idles
  /// across the owner's own handling of the completion.
  void on_transfer_done(std::uint64_t tag);

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
  [[nodiscard]] int pick_queue_for_class(int klass) const;

  cbs::sim::Simulation& sim_;
  cbs::net::Link& link_;
  cbs::net::ThreadTuner& tuner_;
  std::uint32_t transfer_kind_;  ///< Link::submit's report kind
  std::vector<std::deque<Item>> queues_;
  std::vector<std::vector<Slot>> slots_;  // per class
  // Deterministic ascending-tag iteration, and cancellation needs tag
  // lookup; tags are monotonic so inserts are O(1) amortized appends.
  cbs::util::FlatMap<std::uint64_t, ActiveItem> active_;
  std::size_t active_count_ = 0;
};

}  // namespace cbs::core
