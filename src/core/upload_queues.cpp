#include "core/upload_queues.hpp"

#include <algorithm>
#include <cassert>

namespace cbs::core {

TransferQueueSet::TransferQueueSet(cbs::sim::Simulation& sim,
                                   cbs::net::Link& link,
                                   cbs::net::ThreadTuner& tuner,
                                   std::uint32_t transfer_kind,
                                   int num_classes)
    : sim_(sim), link_(link), tuner_(tuner) {
  assert(num_classes >= 1);
  transfer_kind_ = transfer_kind;
  queues_.resize(static_cast<std::size_t>(num_classes));
  in_flight_.resize(static_cast<std::size_t>(num_classes));
  // One slot per class bounds this set's concurrent transfers, so the
  // link's SoA pool can be sized once up front (shared links take the max).
  link_.reserve_transfers(static_cast<std::size_t>(num_classes));
}

TransferQueueSet::TransferQueueSet(cbs::sim::Simulation& dst,
                                   const TransferQueueSet& src,
                                   cbs::net::Link& link,
                                   cbs::net::ThreadTuner& tuner)
    : TransferQueueSetState(src), sim_(dst), link_(link), tuner_(tuner) {}

void TransferQueueSet::enqueue(std::uint64_t tag, double bytes, int klass) {
  assert(bytes > 0.0);
  assert(klass >= 0 && klass < num_classes());
  Queue& queue = queues_[static_cast<std::size_t>(klass)];
  if (indexed_) {
    queued_.insert(tag,
                   QueuedAt{klass, queue.front_index + queue.items.size()});
  }
  queue.items.push_back(Item{tag, bytes, klass});
  pump();
}

bool TransferQueueSet::try_cancel(std::uint64_t tag) {
  if (!indexed_) {
    // Until now every queue was free of tombstones: each item's number in
    // its class is its place behind the front.
    indexed_ = true;
    for (int klass = 0; klass < num_classes(); ++klass) {
      const Queue& queue = queues_[static_cast<std::size_t>(klass)];
      for (std::size_t i = 0; i < queue.items.size(); ++i) {
        queued_.insert(queue.items[i].tag,
                       QueuedAt{klass, queue.front_index + i});
      }
    }
  }
  const QueuedAt* at = queued_.find(tag);
  if (at == nullptr) return false;
  Queue& queue = queues_[static_cast<std::size_t>(at->klass)];
  queue.items[static_cast<std::size_t>(at->index - queue.front_index)]
      .cancelled = true;
  queued_.erase(tag);
  drop_dead_front(queue);
  return true;
}

void TransferQueueSet::drop_dead_front(Queue& queue) {
  while (!queue.items.empty() && queue.items.front().cancelled) {
    queue.items.pop_front();
    ++queue.front_index;
  }
}

std::optional<TransferQueueSet::InFlight>* TransferQueueSet::slot_of(
    std::uint64_t tag) {
  for (std::optional<InFlight>& slot : in_flight_) {
    if (slot && slot->item.tag == tag) return &slot;
  }
  return nullptr;
}

bool TransferQueueSet::try_cancel_active(std::uint64_t tag) {
  std::optional<InFlight>* slot = slot_of(tag);
  if (slot == nullptr) return false;
  const bool cancelled = link_.cancel((*slot)->transfer);
  assert(cancelled);
  (void)cancelled;
  slot->reset();
  pump();
  return true;
}

int TransferQueueSet::pick_queue_for_class(int klass) const {
  // Own class first, then the nearest lower class with waiting work.
  for (int q = klass; q >= 0; --q) {
    if (!queues_[static_cast<std::size_t>(q)].items.empty()) return q;
  }
  return -1;
}

void TransferQueueSet::pump() {
  for (int klass = 0; klass < num_classes(); ++klass) {
    std::optional<InFlight>& slot = in_flight_[static_cast<std::size_t>(klass)];
    if (slot) continue;
    const int source = pick_queue_for_class(klass);
    if (source < 0) continue;

    Queue& queue = queues_[static_cast<std::size_t>(source)];
    const Item item = queue.items.front();
    queue.items.pop_front();
    ++queue.front_index;
    if (indexed_) queued_.erase(item.tag);
    drop_dead_front(queue);

    const int threads = tuner_.suggest(sim_.now());
    const cbs::net::TransferId id =
        link_.submit(item.bytes, threads, transfer_kind_, item.tag);
    slot = InFlight{item, id};
  }
}

void TransferQueueSet::on_transfer_done(std::uint64_t tag) {
  std::optional<InFlight>* slot = slot_of(tag);
  assert(slot != nullptr);
  slot->reset();
  pump();
}

std::vector<double> TransferQueueSet::backlog_bytes_per_class() const {
  std::vector<double> backlog(queues_.size(), 0.0);
  for (std::size_t q = 0; q < queues_.size(); ++q) {
    double queued = 0.0;
    for (const Item& item : queues_[q].items) {
      if (!item.cancelled) queued += item.bytes;
    }
    backlog[q] = queued;
  }
  // Summed from the live transfers, never kept as a running total: adding
  // and subtracting different sizes leaves a rounding residue that can go
  // negative once a class empties, and Algorithm 3's left-over shares then
  // leave [0, 1]. Ride-ups put several items of one class in flight, so
  // they are added in ascending tag order, whichever slots carry them.
  const Item* prev = nullptr;
  for (std::size_t n = active_items(); n > 0; --n) {
    const Item* next = nullptr;
    for (const std::optional<InFlight>& slot : in_flight_) {
      if (!slot || (prev != nullptr && slot->item.tag <= prev->tag)) continue;
      if (next == nullptr || slot->item.tag < next->tag) next = &slot->item;
    }
    backlog[static_cast<std::size_t>(next->klass)] += next->bytes;
    prev = next;
  }
  return backlog;
}

double TransferQueueSet::total_backlog_bytes() const {
  double total = 0.0;
  for (double b : backlog_bytes_per_class()) total += b;
  return total;
}

std::size_t TransferQueueSet::active_items() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(in_flight_.begin(), in_flight_.end(),
                    [](const std::optional<InFlight>& slot) {
                      return slot.has_value();
                    }));
}

bool TransferQueueSet::idle() const {
  return active_items() == 0 &&
         std::all_of(queues_.begin(), queues_.end(),
                     [](const Queue& q) { return q.items.empty(); });
}

std::vector<std::uint64_t> TransferQueueSet::queued_tags() const {
  std::vector<std::uint64_t> tags;
  for (const Queue& q : queues_) {
    for (const Item& item : q.items) {
      if (!item.cancelled) tags.push_back(item.tag);
    }
  }
  return tags;
}

std::size_t TransferQueueSet::tombstones() const {
  std::size_t count = 0;
  for (const Queue& q : queues_) {
    count += static_cast<std::size_t>(
        std::count_if(q.items.begin(), q.items.end(),
                      [](const Item& item) { return item.cancelled; }));
  }
  return count;
}

}  // namespace cbs::core
