#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <iterator>
#include <tuple>
#include <utility>
#include <vector>

namespace cbs::util {

/// Sorted-vector map for the simulator's job tables.
///
/// The controllers key every table by a monotonically increasing sequence
/// id, look entries up by exact key on completion events, and iterate in
/// key order for determinism. `std::map` pays a node allocation plus
/// pointer-chasing on every one of those operations. This container keeps
/// the pairs in one contiguous sorted vector whose live range starts at a
/// `head_` offset:
///
///  - inserting an ever-increasing key is an amortized O(1) append (the
///    common case — sequence ids); out-of-order re-admissions (burst
///    retractions) shift the entries above the new key, which is rare;
///  - erasing entry i of n shifts the shorter side, O(min(i, n−i)): a
///    near-front erase (FIFO completion) moves the prefix one slot right and
///    bumps `head_`, so draining a table in key order is amortized O(1).
///    The dead head is compacted away once it is more than half the storage
///    (and more than `kMinDeadHead` slots);
///  - lookups are cache-friendly binary searches over the live range;
///  - iteration is in ascending key order, like `std::map`, so replacing
///    one with the other cannot change any deterministic output;
///  - a copy (every fork copies these tables) holds only the live entries,
///    with the source's spare capacity.
///
/// The deliberate difference from `std::map`: iterators AND references are
/// invalidated by every insert/erase. Callers must re-find after mutating —
/// the simulator's call sites were audited for this when the tables were
/// migrated (no reference is held across an insertion).
template <typename Key, typename Value>
class FlatMap {
 public:
  using value_type = std::pair<Key, Value>;
  using storage_type = std::vector<value_type>;
  using iterator = typename storage_type::iterator;
  using const_iterator = typename storage_type::const_iterator;

  FlatMap() = default;
  // Copies take the live range only and start with no dead head, but keep
  // the source's room to grow, so a copy's first inserts do not reallocate.
  FlatMap(const FlatMap& other) : data_(live_copy(other)), head_(0) {}
  FlatMap& operator=(const FlatMap& other) {
    if (this != &other) {
      data_ = live_copy(other);
      head_ = 0;
    }
    return *this;
  }
  FlatMap(FlatMap&& other) noexcept
      : data_(std::move(other.data_)), head_(std::exchange(other.head_, 0)) {
    other.data_.clear();
  }
  FlatMap& operator=(FlatMap&& other) noexcept {
    if (this != &other) {
      data_ = std::move(other.data_);
      head_ = std::exchange(other.head_, 0);
      other.data_.clear();
    }
    return *this;
  }

  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] std::size_t size() const noexcept {
    return data_.size() - head_;
  }
  void clear() noexcept {
    data_.clear();
    head_ = 0;
  }
  void reserve(std::size_t n) { data_.reserve(head_ + n); }

  [[nodiscard]] iterator begin() noexcept {
    return data_.begin() + live_offset();
  }
  [[nodiscard]] iterator end() noexcept { return data_.end(); }
  [[nodiscard]] const_iterator begin() const noexcept {
    return data_.begin() + live_offset();
  }
  [[nodiscard]] const_iterator end() const noexcept { return data_.end(); }

  [[nodiscard]] iterator find(const Key& key) {
    auto it = lower_bound(key);
    return (it != end() && it->first == key) ? it : end();
  }
  [[nodiscard]] const_iterator find(const Key& key) const {
    auto it = lower_bound(key);
    return (it != end() && it->first == key) ? it : end();
  }
  [[nodiscard]] bool contains(const Key& key) const {
    return find(key) != end();
  }

  /// Inserts `(key, Value(args...))` if absent; like std::map::emplace but
  /// the mapped value is only constructed on actual insertion.
  template <typename... Args>
  std::pair<iterator, bool> emplace(const Key& key, Args&&... args) {
    auto it = lower_bound(key);
    if (it != end() && it->first == key) return {it, false};
    it = data_.emplace(it, std::piecewise_construct, std::forward_as_tuple(key),
                       std::forward_as_tuple(std::forward<Args>(args)...));
    return {it, true};
  }

  Value& operator[](const Key& key) {
    auto it = lower_bound(key);
    if (it == end() || it->first != key) {
      it = data_.emplace(it, std::piecewise_construct,
                         std::forward_as_tuple(key), std::forward_as_tuple());
    }
    return it->second;
  }

  Value& at(const Key& key) {
    auto it = find(key);
    assert(it != end() && "FlatMap::at: missing key");
    return it->second;
  }
  const Value& at(const Key& key) const {
    auto it = find(key);
    assert(it != end() && "FlatMap::at: missing key");
    return it->second;
  }

  /// Returns the iterator to the entry after `pos`, as std::map does.
  iterator erase(iterator pos) {
    const auto live = begin();
    const auto index = static_cast<std::size_t>(pos - live);
    if (index >= size() - 1 - index) return data_.erase(pos);
    // Nearer the front: slide the prefix one slot right over `pos`; the
    // vacated first live slot becomes dead head.
    std::move_backward(live, pos, std::next(pos));
    ++head_;
    if (head_ > kMinDeadHead && 2 * head_ > data_.size()) {
      data_.erase(data_.begin(), data_.begin() + live_offset());
      head_ = 0;
    }
    return begin() + static_cast<std::ptrdiff_t>(index);
  }
  std::size_t erase(const Key& key) {
    auto it = find(key);
    if (it == end()) return 0;
    erase(it);
    return 1;
  }

 private:
  /// Dead head slots tolerated before compaction, so small tables never
  /// pay for it.
  static constexpr std::size_t kMinDeadHead = 64;

  [[nodiscard]] static storage_type live_copy(const FlatMap& other) {
    storage_type copy;
    copy.reserve(other.data_.capacity() - other.head_);
    copy.assign(other.begin(), other.end());
    return copy;
  }
  [[nodiscard]] std::ptrdiff_t live_offset() const noexcept {
    return static_cast<std::ptrdiff_t>(head_);
  }
  [[nodiscard]] iterator lower_bound(const Key& key) {
    return std::lower_bound(
        begin(), end(), key,
        [](const value_type& entry, const Key& k) { return entry.first < k; });
  }
  [[nodiscard]] const_iterator lower_bound(const Key& key) const {
    return std::lower_bound(
        begin(), end(), key,
        [](const value_type& entry, const Key& k) { return entry.first < k; });
  }

  storage_type data_;       ///< [0, head_) dead (moved-from), [head_, end) live
  std::size_t head_ = 0;
};

}  // namespace cbs::util
