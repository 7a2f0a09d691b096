#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "net/link.hpp"
#include "util/seq_table.hpp"
#include "net/thread_tuner.hpp"
#include "simcore/simulation.hpp"

namespace cbs::core {

/// A TransferQueueSet's value state: everything but its engine and its
/// site's link and tuner, so a fork copies it whole (DESIGN.md §12.2).
struct TransferQueueSetState {
  struct Item {
    std::uint64_t tag;
    double bytes;
    int klass;
    bool cancelled = false;  ///< a tombstone: skipped, dropped at the front
  };

  /// One class's FIFO. Its front item is never a tombstone, so a queue
  /// holds waiting work exactly when it is not empty.
  struct Queue {
    std::deque<Item> items;
    std::uint64_t front_index = 0;  ///< items.front()'s number in the class
  };

  /// Where a waiting item sits: its class and its number in that class
  /// (Queue::front_index counts the items popped before it).
  struct QueuedAt {
    int klass = 0;
    std::uint64_t index = 0;
  };

  /// The item a class's slot carries — its own, or a lower class's ride-up
  /// — and its link transfer.
  struct InFlight {
    Item item;
    cbs::net::TransferId transfer{};
  };

  std::uint32_t transfer_kind_ = 0;  ///< Link::submit's report kind
  std::vector<Queue> queues_;
  /// Every waiting item, by tag, once indexed_.
  cbs::util::SeqTable<QueuedAt> queued_;
  bool indexed_ = false;  ///< set by the first try_cancel()
  /// Per class, the one transfer its slot carries, if any.
  std::vector<std::optional<InFlight>> in_flight_;
};

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
/// The set holds at most `num_classes` transfers in flight on the link, and
/// tells the link so at construction (Link::reserve_transfers) — the link's
/// hot pool then never reallocates in steady state.
///
/// The set does not listen to the link. It submits every transfer with the
/// report kind it was built with, and the link's owner hands each finished
/// one back through on_transfer_done().
class TransferQueueSet : private TransferQueueSetState {
 public:
  TransferQueueSet(cbs::sim::Simulation& sim, cbs::net::Link& link,
                   cbs::net::ThreadTuner& tuner, std::uint32_t transfer_kind,
                   int num_classes);
  TransferQueueSet(const TransferQueueSet&) = delete;
  TransferQueueSet& operator=(const TransferQueueSet&) = delete;

  /// Fork support: copies `src`'s TransferQueueSetState whole (queues and
  /// active bookkeeping) into a set bound to the forked `link`/`tuner`. The set schedules no events of
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
  /// rescheduler uses this to pull jobs back before upload begins. O(1):
  /// the tag index finds the item, which stays in its queue as a tombstone
  /// until it reaches the front. The index is built at the first call, so
  /// a set that never cancels (a download queue) never keeps one.
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
  [[nodiscard]] std::size_t active_items() const noexcept;

  /// Tags currently waiting (not started), youngest class first — the
  /// rescheduler scans these for pull-back candidates.
  [[nodiscard]] std::vector<std::uint64_t> queued_tags() const;

  /// Cancelled items still held in their queues, behind a waiting item.
  [[nodiscard]] std::size_t tombstones() const;

 private:
  void pump();
  /// Pops the tombstones at the front of `queue`, so its front is live.
  void drop_dead_front(Queue& queue);
  [[nodiscard]] int pick_queue_for_class(int klass) const;
  /// The slot carrying `tag`, or nullptr when none does.
  [[nodiscard]] std::optional<InFlight>* slot_of(std::uint64_t tag);

  cbs::sim::Simulation& sim_;
  cbs::net::Link& link_;
  cbs::net::ThreadTuner& tuner_;
};

}  // namespace cbs::core
