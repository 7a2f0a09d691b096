#include "simcore/event_queue.hpp"

#include <algorithm>
#include <cassert>

namespace cbs::sim {

namespace {

// EventId layout: generation in the high 32 bits, slot index in the low 32.
// Generations start at 1, so a default EventId{0} can never match a slot.
constexpr std::uint64_t pack_id(std::uint32_t gen, std::uint32_t slot) noexcept {
  return (static_cast<std::uint64_t>(gen) << 32) | slot;
}
constexpr std::uint32_t id_gen(std::uint64_t value) noexcept {
  return static_cast<std::uint32_t>(value >> 32);
}
constexpr std::uint32_t id_slot(std::uint64_t value) noexcept {
  return static_cast<std::uint32_t>(value);
}

}  // namespace

std::uint32_t EventQueue::acquire_slot() {
  if (!free_.empty()) {
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    return idx;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t idx) {
  slots_[idx].state = SlotState::kFree;
  free_.push_back(idx);
}

// 4-ary heap: parent of i is (i-1)/4, children are 4i+1..4i+4. Half the
// depth of a binary heap, so sift paths touch half as many cache lines;
// the extra sibling comparisons are over four adjacent POD records, which
// the prefetcher handles for free. This is where the engine's time goes,
// so the arity is a measured choice, not a style one.

void EventQueue::sift_up(std::size_t pos) {
  const HeapItem item = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!fires_before(item, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = item;
}

void EventQueue::sift_down(std::size_t pos) {
  const std::size_t n = heap_.size();
  const HeapItem item = heap_[pos];
  while (true) {
    const std::size_t first = 4 * pos + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + 4, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (fires_before(heap_[c], heap_[best])) best = c;
    }
    if (!fires_before(heap_[best], item)) break;
    heap_[pos] = heap_[best];
    pos = best;
  }
  heap_[pos] = item;
}

void EventQueue::heapify() {
  if (heap_.size() < 2) return;
  for (std::size_t i = (heap_.size() - 2) / 4 + 1; i-- > 0;) {
    sift_down(i);
  }
}

void EventQueue::reserve(std::size_t expected_events) {
  slots_.reserve(expected_events);
  heap_.reserve(expected_events);
  free_.reserve(expected_events);
}

EventId EventQueue::push(SimTime t, Event event) {
  return push_reserved(t, next_seq_++, event);
}

EventId EventQueue::push_reserved(SimTime t, std::uint64_t seq, Event event) {
  assert(is_valid_time(t) && "event time must be finite and non-negative");
  assert(seq > 0 && seq < next_seq_ && "seq must predate next_seq()");
  assert(seq < (1ULL << (64 - kSlotBits)) && "lifetime event limit");
  const std::uint32_t idx = acquire_slot();
  assert(idx < (1U << kSlotBits) && "too many concurrent events");
  Slot& slot = slots_[idx];
  ++slot.gen;
  slot.state = SlotState::kPending;
  slot.event = event;
  heap_.push_back(HeapItem{t, (seq << kSlotBits) | idx});
  sift_up(heap_.size() - 1);
  ++live_;
  return EventId{pack_id(slot.gen, idx)};
}

const Event* EventQueue::find(EventId id) const noexcept {
  const std::uint32_t idx = id_slot(id.value);
  if (idx >= slots_.size()) return nullptr;
  const Slot& slot = slots_[idx];
  if (slot.state != SlotState::kPending || slot.gen != id_gen(id.value)) {
    return nullptr;
  }
  return &slot.event;
}

bool EventQueue::cancel(EventId id) {
  if (find(id) == nullptr) return false;
  // Tombstone: the heap record stays until it surfaces or a compaction
  // sweeps it.
  slots_[id_slot(id.value)].state = SlotState::kCancelled;
  ++tombstones_;
  assert(live_ > 0);
  --live_;
  maybe_compact();
  return true;
}

std::size_t EventQueue::count_pending(TargetId target) const noexcept {
  std::size_t count = 0;
  for (const HeapItem& item : heap_) {
    const Slot& slot = slots_[item.slot()];
    if (slot.state == SlotState::kPending && slot.event.target == target) {
      ++count;
    }
  }
  return count;
}

void EventQueue::drop_cancelled_head() {
  while (!heap_.empty() &&
         slots_[heap_.front().slot()].state == SlotState::kCancelled) {
    release_slot(heap_.front().slot());
    --tombstones_;
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
  }
}

void EventQueue::maybe_compact() {
  // Compact when tombstones dominate: the heap then shrinks to the live
  // events, bounding memory on cancel-heavy workloads (burst-retraction
  // deadlines are armed per burst and almost always cancelled).
  if (tombstones_ < 64 || tombstones_ * 2 < heap_.size()) return;
  std::size_t kept = 0;
  for (const HeapItem& item : heap_) {
    if (slots_[item.slot()].state == SlotState::kCancelled) {
      release_slot(item.slot());
    } else {
      heap_[kept++] = item;
    }
  }
  heap_.resize(kept);
  tombstones_ = 0;
  heapify();
}

SimTime EventQueue::next_time() {
  drop_cancelled_head();
  return heap_.empty() ? kTimeInfinity : heap_.front().time;
}

EventQueue::Popped EventQueue::pop() {
  drop_cancelled_head();
  assert(!heap_.empty() && "pop() on empty EventQueue");
  const std::uint32_t idx = heap_.front().slot();
  assert(slots_[idx].state == SlotState::kPending);
  const Popped out{heap_.front().time, slots_[idx].event};
  release_slot(idx);
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  assert(live_ > 0);
  --live_;
  return out;
}

}  // namespace cbs::sim
