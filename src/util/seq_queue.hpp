#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cbs::util {

/// A FIFO of seqs kept in increasing order: new seqs join at the back, and
/// one taken out earlier comes back at its sorted position (a retracted
/// burst re-admitted to the IC at its FCFS place).
///
/// The seqs sit contiguously in one vector from a `head_` offset: a pop
/// advances the head, and the dead head is dropped once it outgrows the
/// live range. A sorted insert is a binary search plus a move of the
/// shorter side, into the room before the head when the front is nearer.
/// A copy holds the live range only and keeps room to grow.
class SeqQueue {
 public:
  using const_iterator = std::vector<std::uint64_t>::const_iterator;

  SeqQueue() = default;
  SeqQueue(const SeqQueue& other) : head_(0) {
    const std::size_t n = other.size();
    seqs_.reserve(n + std::max(n / 8, kCopyRoom));
    seqs_.assign(other.begin(), other.end());
  }
  SeqQueue& operator=(const SeqQueue&) = delete;

  [[nodiscard]] bool empty() const noexcept { return head_ == seqs_.size(); }
  [[nodiscard]] std::size_t size() const noexcept {
    return seqs_.size() - head_;
  }
  [[nodiscard]] const_iterator begin() const noexcept {
    return seqs_.begin() + static_cast<std::ptrdiff_t>(head_);
  }
  [[nodiscard]] const_iterator end() const noexcept { return seqs_.end(); }
  [[nodiscard]] std::uint64_t front() const noexcept {
    assert(!empty());
    return seqs_[head_];
  }

  /// Appends `seq`, which must exceed every queued seq.
  void push_back(std::uint64_t seq) {
    assert(empty() || seqs_.back() < seq);
    seqs_.push_back(seq);
  }

  void pop_front() noexcept {
    assert(!empty());
    if (++head_ == seqs_.size()) {
      seqs_.clear();
      head_ = 0;
    } else if (head_ > kMinDeadHead && 2 * head_ > seqs_.size()) {
      seqs_.erase(seqs_.begin(), begin());
      head_ = 0;
    }
  }

  /// Queues `seq` at its sorted position; the queue must not hold it.
  void insert_sorted(std::uint64_t seq) {
    const auto pos = std::lower_bound(begin(), end(), seq);
    assert(pos == end() || *pos != seq);
    const auto before = static_cast<std::size_t>(pos - begin());
    if (head_ > 0 && before < size() - before) {
      // Nearer the front: slide the prefix one slot into the dead head.
      const auto first = seqs_.begin() + static_cast<std::ptrdiff_t>(head_);
      std::move(first, first + static_cast<std::ptrdiff_t>(before), first - 1);
      --head_;
      seqs_[head_ + before] = seq;
      return;
    }
    seqs_.insert(pos, seq);
  }

  /// Removes the seq at `pos`, an iterator of this queue.
  void erase(const_iterator pos) { seqs_.erase(pos); }

 private:
  /// Dead head slots tolerated before compaction, so short queues never
  /// pay for it.
  static constexpr std::size_t kMinDeadHead = 64;
  /// Spare slots a copy starts with at the least: a rollout horizon
  /// admits about 75 jobs, most of them to the IC.
  static constexpr std::size_t kCopyRoom = 128;

  std::vector<std::uint64_t> seqs_;  ///< [0, head_) dead, [head_, end) queued
  std::size_t head_ = 0;
};

}  // namespace cbs::util
