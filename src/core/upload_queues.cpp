#include "core/upload_queues.hpp"

#include <algorithm>
#include <cassert>

namespace cbs::core {

TransferQueueSet::TransferQueueSet(cbs::sim::Simulation& sim,
                                   cbs::net::Link& link,
                                   cbs::net::ThreadTuner& tuner,
                                   std::uint32_t transfer_kind,
                                   int num_classes, int slots_per_class)
    : sim_(sim), link_(link), tuner_(tuner), transfer_kind_(transfer_kind) {
  assert(num_classes >= 1);
  assert(slots_per_class >= 1);
  queues_.resize(static_cast<std::size_t>(num_classes));
  slots_.assign(static_cast<std::size_t>(num_classes),
                std::vector<Slot>(static_cast<std::size_t>(slots_per_class)));
  // The slot policy bounds this set's concurrent transfers, so the link's
  // SoA pool can be sized once up front (shared links take the max).
  link_.reserve_transfers(
      static_cast<std::size_t>(num_classes) *
      static_cast<std::size_t>(slots_per_class));
}

TransferQueueSet::TransferQueueSet(cbs::sim::Simulation& dst,
                                   const TransferQueueSet& src,
                                   cbs::net::Link& link,
                                   cbs::net::ThreadTuner& tuner)
    : sim_(dst),
      link_(link),
      tuner_(tuner),
      transfer_kind_(src.transfer_kind_),
      queues_(src.queues_),
      slots_(src.slots_),
      active_(src.active_),
      active_count_(src.active_count_) {}

void TransferQueueSet::enqueue(std::uint64_t tag, double bytes, int klass) {
  assert(bytes > 0.0);
  assert(klass >= 0 && klass < num_classes());
  queues_[static_cast<std::size_t>(klass)].push_back(Item{tag, bytes, klass});
  pump();
}

bool TransferQueueSet::try_cancel(std::uint64_t tag) {
  for (auto& queue : queues_) {
    for (auto it = queue.begin(); it != queue.end(); ++it) {
      if (it->tag == tag) {
        queue.erase(it);
        return true;
      }
    }
  }
  return false;
}

void TransferQueueSet::release_slot(const ActiveItem& active) {
  slots_[static_cast<std::size_t>(active.slot_klass)][active.slot].busy = false;
  --active_count_;
}

bool TransferQueueSet::try_cancel_active(std::uint64_t tag) {
  auto it = active_.find(tag);
  if (it == active_.end()) return false;
  const ActiveItem active = it->second;
  active_.erase(it);
  const bool cancelled = link_.cancel(active.transfer);
  assert(cancelled);
  (void)cancelled;
  release_slot(active);
  pump();
  return true;
}

int TransferQueueSet::pick_queue_for_class(int klass) const {
  // Own class first, then the nearest lower class with waiting work.
  for (int q = klass; q >= 0; --q) {
    if (!queues_[static_cast<std::size_t>(q)].empty()) return q;
  }
  return -1;
}

void TransferQueueSet::pump() {
  for (int klass = 0; klass < num_classes(); ++klass) {
    auto& class_slots = slots_[static_cast<std::size_t>(klass)];
    for (std::size_t s = 0; s < class_slots.size(); ++s) {
      if (class_slots[s].busy) continue;
      const int source = pick_queue_for_class(klass);
      if (source < 0) break;

      Item item = queues_[static_cast<std::size_t>(source)].front();
      queues_[static_cast<std::size_t>(source)].pop_front();
      class_slots[s].busy = true;
      ++active_count_;

      const int threads = tuner_.suggest(sim_.now());
      const std::uint64_t tag = item.tag;
      const cbs::net::TransferId id =
          link_.submit(item.bytes, threads, transfer_kind_, tag);
      active_.emplace(tag, ActiveItem{item, klass, s, id});
    }
  }
}

void TransferQueueSet::on_transfer_done(std::uint64_t tag) {
  auto it = active_.find(tag);
  assert(it != active_.end());
  const ActiveItem done = it->second;
  active_.erase(it);
  release_slot(done);
  pump();
}

std::vector<double> TransferQueueSet::backlog_bytes_per_class() const {
  std::vector<double> backlog(queues_.size(), 0.0);
  for (std::size_t q = 0; q < queues_.size(); ++q) {
    double queued = 0.0;
    for (const Item& item : queues_[q]) queued += item.bytes;
    backlog[q] = queued;
  }
  // Summed from the live transfers, never kept as a running total: adding
  // and subtracting different sizes leaves a rounding residue that can go
  // negative once a class empties, and Algorithm 3's left-over shares then
  // leave [0, 1].
  for (const auto& [tag, active] : active_) {
    backlog[static_cast<std::size_t>(active.item.klass)] += active.item.bytes;
  }
  return backlog;
}

double TransferQueueSet::total_backlog_bytes() const {
  double total = 0.0;
  for (double b : backlog_bytes_per_class()) total += b;
  return total;
}

bool TransferQueueSet::idle() const {
  return active_count_ == 0 &&
         std::all_of(queues_.begin(), queues_.end(),
                     [](const std::deque<Item>& q) { return q.empty(); });
}

std::vector<std::uint64_t> TransferQueueSet::queued_tags() const {
  std::vector<std::uint64_t> tags;
  for (const auto& q : queues_) {
    for (const Item& item : q) tags.push_back(item.tag);
  }
  return tags;
}

}  // namespace cbs::core
