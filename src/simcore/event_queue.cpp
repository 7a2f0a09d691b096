#include "simcore/event_queue.hpp"

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

// 4-ary heap: parent of i is (i-1)/4, children are 4i+1..4i+4. Half the
// depth of a binary heap, so sift paths touch half as many cache lines;
// the extra sibling comparisons are over four adjacent 16-byte keys. This
// is where the engine's time goes, so the arity is a measured choice, not
// a style one. Every record move goes through put(), which keeps the
// record's slot pointing at its position.

void EventQueue::put(std::size_t pos, HeapItem item) noexcept {
  heap_[pos] = item;
  slots_[item.slot()].pos = static_cast<std::uint32_t>(pos);
}

void EventQueue::sift_up(std::size_t pos, HeapItem item) noexcept {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!(item.key < heap_[parent].key)) break;
    put(pos, heap_[parent]);
    pos = parent;
  }
  put(pos, item);
}

void EventQueue::place(std::size_t pos, HeapItem item) noexcept {
  if (pos > 0 && item.key < heap_[(pos - 1) / 4].key) {
    sift_up(pos, item);
    return;
  }
  // Floyd's descent: walk the hole at `pos` down the smaller children to a
  // leaf, then sift `item` up from there. The pick of the smallest of four
  // full children is a branchless two-round tournament.
  const std::size_t n = heap_.size();
  for (std::size_t first = 4 * pos + 1; first < n; first = 4 * pos + 1) {
    std::size_t best = first;
    if (first + 4 <= n) {
      const std::size_t a = first + (heap_[first + 1].key < heap_[first].key);
      const std::size_t b =
          first + 2 + (heap_[first + 3].key < heap_[first + 2].key);
      best = heap_[b].key < heap_[a].key ? b : a;
    } else {
      for (std::size_t c = first + 1; c < n; ++c) {
        if (heap_[c].key < heap_[best].key) best = c;
      }
    }
    put(pos, heap_[best]);
    pos = best;
  }
  sift_up(pos, item);
}

void EventQueue::remove_at(std::size_t pos) noexcept {
  const std::uint32_t idx = heap_[pos].slot();
  slots_[idx].pos = kNoPos;
  free_.push_back(idx);
  const HeapItem last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) place(pos, last);
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
  std::uint32_t idx = 0;
  if (free_.empty()) {
    idx = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    idx = free_.back();
    free_.pop_back();
  }
  assert(idx < (1U << kSlotBits) && "too many concurrent events");
  Slot& slot = slots_[idx];
  ++slot.gen;
  slot.event = event;
  heap_.emplace_back();
  sift_up(heap_.size() - 1, make_item(t, seq, idx));
  return EventId{pack_id(slot.gen, idx)};
}

const Event* EventQueue::find(EventId id) const noexcept {
  const std::uint32_t idx = id_slot(id.value);
  if (idx >= slots_.size()) return nullptr;
  const Slot& slot = slots_[idx];
  if (slot.pos == kNoPos || slot.gen != id_gen(id.value)) return nullptr;
  return &slot.event;
}

bool EventQueue::cancel(EventId id) {
  if (find(id) == nullptr) return false;
  remove_at(slots_[id_slot(id.value)].pos);
  return true;
}

bool EventQueue::reschedule(EventId id, SimTime t) {
  assert(is_valid_time(t) && "event time must be finite and non-negative");
  if (find(id) == nullptr) return false;
  const std::uint64_t seq = next_seq_++;
  assert(seq < (1ULL << (64 - kSlotBits)) && "lifetime event limit");
  const std::uint32_t idx = id_slot(id.value);
  place(slots_[idx].pos, make_item(t, seq, idx));
  return true;
}

std::size_t EventQueue::count_pending(TargetId target) const noexcept {
  std::size_t count = 0;
  for (const HeapItem& item : heap_) {
    if (slots_[item.slot()].event.target == target) ++count;
  }
  return count;
}

bool EventQueue::consistent() const noexcept {
  std::size_t pending = 0;
  for (const Slot& slot : slots_) pending += slot.pos != kNoPos;
  if (pending != heap_.size() || pending + free_.size() != slots_.size()) {
    return false;
  }
  for (std::size_t pos = 0; pos < heap_.size(); ++pos) {
    if (slots_[heap_[pos].slot()].pos != pos) return false;
    if (pos > 0 && heap_[pos].key < heap_[(pos - 1) / 4].key) return false;
  }
  return true;
}

EventQueue::Popped EventQueue::pop() {
  assert(!heap_.empty() && "pop() on empty EventQueue");
  const HeapItem top = heap_.front();
  const Popped out{top.when(), slots_[top.slot()].event};
  remove_at(0);
  return out;
}

}  // namespace cbs::sim
