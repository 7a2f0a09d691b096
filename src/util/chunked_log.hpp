#pragma once

#include <cstddef>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

namespace cbs::util {

/// Append-only log whose history is shared between copies.
///
/// The simulator records one entry per finished job (and, when asked, one
/// per pipeline-stage transition) and never edits an entry afterwards. A
/// world fork copies these logs, so a plain vector would make every fork
/// cost O(run length). This log instead keeps its entries in fixed-size
/// chunks:
///
///  - a full chunk is *sealed*: moved into a `shared_ptr<const vector>`
///    that is never written again, so every copy of the log can point at
///    the same chunk object;
///  - only the open tail (fewer than `ChunkSize` entries) is owned, so a
///    copy costs one pointer per sealed chunk plus the tail. The copy's
///    tail gets a full chunk of room, as the source's has, so appending to
///    it never reallocates;
///  - appending to a copy touches only the copy's own tail; the sealed
///    chunks it shares stay valid for as long as any copy holds them.
///
/// Iteration is in append order. There is no erase and no mutable access.
template <typename T, std::size_t ChunkSize = 256>
class ChunkedLog {
  static_assert(ChunkSize > 0, "ChunkedLog needs a positive chunk size");

 public:
  using Chunk = std::vector<T>;

  ChunkedLog() = default;
  ChunkedLog(const ChunkedLog& other) : sealed_(other.sealed_) {
    if (!other.tail_.empty()) {
      tail_.reserve(ChunkSize);
      tail_.assign(other.tail_.begin(), other.tail_.end());
    }
  }
  ChunkedLog& operator=(const ChunkedLog& other) {
    if (this != &other) *this = ChunkedLog(other);
    return *this;
  }
  ChunkedLog(ChunkedLog&&) noexcept = default;
  ChunkedLog& operator=(ChunkedLog&&) noexcept = default;

  /// Forward iterator over sealed chunks, then the tail.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator() = default;

    reference operator*() const { return *cur_; }
    pointer operator->() const { return cur_; }
    const_iterator& operator++() {
      if (++cur_ == end_) load(chunk_ + 1);
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator copy = *this;
      ++*this;
      return copy;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.cur_ == b.cur_;
    }

   private:
    friend class ChunkedLog;

    /// Positions on the first entry of chunk `chunk` (the tail when
    /// `chunk` is the sealed count), or at end when nothing is left.
    const_iterator(const ChunkedLog* log, std::size_t chunk) : log_(log) {
      load(chunk);
    }

    void load(std::size_t chunk) {
      chunk_ = chunk;
      const Chunk* data = nullptr;
      if (chunk < log_->sealed_.size()) {
        data = log_->sealed_[chunk].get();
      } else if (chunk == log_->sealed_.size() && !log_->tail_.empty()) {
        data = &log_->tail_;
      }
      cur_ = data == nullptr ? nullptr : data->data();
      end_ = data == nullptr ? nullptr : data->data() + data->size();
    }

    const ChunkedLog* log_ = nullptr;
    std::size_t chunk_ = 0;
    const T* cur_ = nullptr;  ///< nullptr at end
    const T* end_ = nullptr;
  };

  void push_back(T value) {
    if (tail_.capacity() == 0) tail_.reserve(ChunkSize);
    tail_.push_back(std::move(value));
    if (tail_.size() == ChunkSize) {
      sealed_.push_back(std::make_shared<const Chunk>(std::move(tail_)));
      tail_ = Chunk();
    }
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return sealed_.size() * ChunkSize + tail_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  /// Entry `index` in append order, in O(1); throws std::out_of_range
  /// past the end.
  [[nodiscard]] const T& at(std::size_t index) const {
    const std::size_t chunk = index / ChunkSize;
    if (chunk < sealed_.size()) return (*sealed_[chunk])[index % ChunkSize];
    return tail_.at(index - sealed_.size() * ChunkSize);
  }
  /// The newest entry. Precondition: !empty().
  [[nodiscard]] const T& back() const {
    return tail_.empty() ? sealed_.back()->back() : tail_.back();
  }

  [[nodiscard]] const_iterator begin() const { return const_iterator(this, 0); }
  [[nodiscard]] const_iterator end() const { return const_iterator(); }

  /// Iterator to entry `index` (end() when index == size()), in O(1).
  [[nodiscard]] const_iterator iterator_at(std::size_t index) const {
    if (index >= size()) return end();
    const_iterator it(this, index / ChunkSize);
    it.cur_ += index % ChunkSize;
    return it;
  }

  /// The whole log as one contiguous vector, in append order.
  [[nodiscard]] std::vector<T> to_vector() const {
    std::vector<T> out;
    out.reserve(size());
    for (const auto& chunk : sealed_) {
      out.insert(out.end(), chunk->begin(), chunk->end());
    }
    out.insert(out.end(), tail_.begin(), tail_.end());
    return out;
  }

  /// Number of sealed (shared, immutable) chunks.
  [[nodiscard]] std::size_t sealed_chunks() const noexcept {
    return sealed_.size();
  }
  /// Sealed chunk `i`: the same object in every copy that shares it.
  [[nodiscard]] const Chunk& sealed_chunk(std::size_t i) const {
    return *sealed_.at(i);
  }

 private:
  std::vector<std::shared_ptr<const Chunk>> sealed_;
  Chunk tail_;  ///< open chunk, always shorter than ChunkSize
};

}  // namespace cbs::util
