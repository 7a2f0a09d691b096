#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace cbs::util {

/// A table keyed by an increasing per-owner id: the controller's jobs and
/// the belief's per-job records (by job seq), a transfer queue's tag index,
/// a link's transfers (by TransferId) and a store's objects (by
/// 2·seq + kind) and pending retries (by op id).
///
/// New keys mostly arrive in increasing order, entries leave in any order,
/// and a few come back below the lowest live key (a retracted burst
/// re-admitted to the IC). The table keeps
///
///  - the entries densely in one vector, in no particular order: an erase
///    moves the last entry into the hole (swap-remove);
///  - a contiguous slot index, one 32-bit dense position per key from the
///    lowest live key (`base_`) to the highest inserted. It starts at a
///    `head_` offset into its vector: erasing the lowest key advances the
///    head past every empty slot, and a key below `base_` takes the room
///    in front of the head (growing it when there is none).
///
/// So every find, insert and erase is O(1) amortized, with no binary
/// search and no shift of the entries. for_each_in_seq_order() walks the
/// slot index, O(highest − lowest live key).
///
/// A copy (every fork copies these tables) holds the live slot range only
/// and keeps room to grow, so a rollout's first inserts do not reallocate
/// the inherited backlog; a copy of an empty table allocates nothing.
/// References returned by find() and insert() are invalidated by the next
/// insert or erase.
template <typename T>
class SeqTable {
 public:
  SeqTable() = default;
  SeqTable(const SeqTable& other) : base_(other.base_) {
    if (other.empty()) return;
    entries_.reserve(std::max(other.entries_.capacity(),
                              other.entries_.size() + kCopyRoom));
    entries_.assign(other.entries_.begin(), other.entries_.end());
    const std::size_t span = other.slot_.size() - other.head_;
    slot_.reserve(span + std::max(span / 8, kCopySlotRoom));
    slot_.assign(other.slot_.begin() + other.live_offset(), other.slot_.end());
  }
  SeqTable& operator=(const SeqTable&) = delete;

  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// The entry of `seq`, or nullptr when the table holds none.
  [[nodiscard]] T* find(std::uint64_t seq) noexcept {
    const std::uint32_t pos = position(seq);
    return pos == kNone ? nullptr : &entries_[pos].value;
  }
  [[nodiscard]] const T* find(std::uint64_t seq) const noexcept {
    const std::uint32_t pos = position(seq);
    return pos == kNone ? nullptr : &entries_[pos].value;
  }
  /// The entry of `seq`, which the table must hold.
  [[nodiscard]] T& at(std::uint64_t seq) noexcept {
    T* entry = find(seq);
    assert(entry != nullptr && "SeqTable::at: missing seq");
    return *entry;
  }

  /// Adds a default entry under `seq`, which the table must not hold;
  /// returns it in place for the caller to fill.
  T& insert(std::uint64_t seq) {
    if (entries_.empty()) {
      slot_.clear();
      head_ = 0;
      base_ = seq;
    } else if (seq < base_) {
      const std::uint64_t below = base_ - seq;
      if (below > head_) grow_front(below);
      head_ -= static_cast<std::size_t>(below);
      base_ = seq;
    }
    const std::size_t index = index_of(seq);
    while (slot_.size() <= index) slot_.push_back(kNone);
    assert(slot_[index] == kNone && "SeqTable::insert: seq present");
    slot_[index] = static_cast<std::uint32_t>(entries_.size());
    Entry& entry = entries_.emplace_back();
    entry.seq = seq;
    return entry.value;
  }
  /// Adds `value` under `seq`, which the table must not hold.
  T& insert(std::uint64_t seq, T value) {
    T& entry = insert(seq);
    entry = std::move(value);
    return entry;
  }

  /// Removes the entry of `seq`; returns false when the table held none.
  bool erase(std::uint64_t seq) noexcept {
    const std::uint32_t pos = position(seq);
    if (pos == kNone) return false;
    slot_[index_of(seq)] = kNone;
    if (pos + 1 != entries_.size()) {
      entries_[pos] = std::move(entries_.back());
      slot_[index_of(entries_[pos].seq)] = pos;
    }
    entries_.pop_back();
    if (entries_.empty()) {
      slot_.clear();
      head_ = 0;
      return true;
    }
    while (slot_[head_] == kNone) {
      ++head_;
      ++base_;
    }
    // The dead prefix is dropped once it outgrows the live span, so the
    // index stays O(live span) however far the seqs advance.
    if (head_ > kMinDeadHead && head_ > 2 * (slot_.size() - head_)) {
      slot_.erase(slot_.begin(), slot_.begin() + live_offset());
      head_ = 0;
    }
    return true;
  }

  /// Calls `fn(seq, entry)` for every entry, in increasing seq order. The
  /// mutable walk lets `fn` change entries, but not insert or erase.
  template <typename Fn>
  void for_each_in_seq_order(Fn&& fn) const {
    for (std::size_t i = head_; i < slot_.size(); ++i) {
      if (slot_[i] == kNone) continue;
      const Entry& e = entries_[slot_[i]];
      fn(e.seq, e.value);
    }
  }
  template <typename Fn>
  void for_each_in_seq_order(Fn&& fn) {
    for (std::size_t i = head_; i < slot_.size(); ++i) {
      if (slot_[i] == kNone) continue;
      Entry& e = entries_[slot_[i]];
      fn(e.seq, e.value);
    }
  }

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;
  /// Dead head slots tolerated before compaction, so small tables never
  /// pay for it.
  static constexpr std::size_t kMinDeadHead = 64;
  /// Spare entries and slots a copy starts with at the least. A rollout
  /// horizon admits about 75 jobs, and new seqs may land past a gap of
  /// seqs that other tables hold, so the 4-byte slots get more room.
  static constexpr std::size_t kCopyRoom = 64;
  static constexpr std::size_t kCopySlotRoom = 256;

  struct Entry {
    std::uint64_t seq = 0;
    T value{};
  };

  [[nodiscard]] std::ptrdiff_t live_offset() const noexcept {
    return static_cast<std::ptrdiff_t>(head_);
  }
  /// The slot index of `seq`, which must be within the slot range.
  [[nodiscard]] std::size_t index_of(std::uint64_t seq) const noexcept {
    return head_ + static_cast<std::size_t>(seq - base_);
  }
  /// The dense position of `seq`, or kNone.
  [[nodiscard]] std::uint32_t position(std::uint64_t seq) const noexcept {
    if (seq < base_ || seq - base_ >= slot_.size() - head_) return kNone;
    return slot_[index_of(seq)];
  }
  /// Makes room for `below` more slots in front of the head, with as much
  /// again as the live span to spare: a run of re-admissions pays for one
  /// move of the index, not one per seq.
  void grow_front(std::uint64_t below) {
    const std::size_t room =
        static_cast<std::size_t>(below) + (slot_.size() - head_);
    slot_.insert(slot_.begin(), room - head_, kNone);
    head_ = room;
  }

  /// [0, size) live entries, densely.
  std::vector<Entry> entries_;
  /// Dense positions by seq: slot_[head_ + (seq − base_)]; kNone where no
  /// entry has that seq. Every slot before head_ is kNone.
  std::vector<std::uint32_t> slot_;
  std::size_t head_ = 0;
  std::uint64_t base_ = 0;  ///< the seq of slot_[head_]: the lowest live one
};

}  // namespace cbs::util
