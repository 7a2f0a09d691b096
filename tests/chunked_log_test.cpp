// cbs::util::ChunkedLog: the append-only log a world fork shares. Sealed
// chunks are shared by every copy; each copy owns only its tail.

#include "util/chunked_log.hpp"

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace {

using Log = cbs::util::ChunkedLog<int, 4>;

std::vector<int> iterate(const Log& log) {
  std::vector<int> out;
  for (const int v : log) out.push_back(v);
  return out;
}

std::vector<int> iota(int first, int last) {
  std::vector<int> out;
  for (int v = first; v < last; ++v) out.push_back(v);
  return out;
}

TEST(ChunkedLogTest, EmptyLog) {
  const Log log;
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.begin(), log.end());
  EXPECT_EQ(log.iterator_at(0), log.end());
  EXPECT_TRUE(log.to_vector().empty());
  EXPECT_EQ(log.sealed_chunks(), 0u);
}

TEST(ChunkedLogTest, KeepsAppendOrderAcrossChunks) {
  Log log;
  for (int n = 1; n <= 13; ++n) {
    log.push_back(n - 1);
    EXPECT_EQ(log.size(), static_cast<std::size_t>(n));
    EXPECT_EQ(log.sealed_chunks(), static_cast<std::size_t>(n) / 4);
    EXPECT_EQ(iterate(log), iota(0, n));
    EXPECT_EQ(log.to_vector(), iota(0, n));
  }
}

TEST(ChunkedLogTest, IteratorAtStartsAnywhere) {
  Log log;
  for (int v = 0; v < 10; ++v) log.push_back(v);
  for (std::size_t i = 0; i <= log.size(); ++i) {
    std::vector<int> rest;
    for (auto it = log.iterator_at(i); it != log.end(); ++it) {
      rest.push_back(*it);
    }
    EXPECT_EQ(rest, iota(static_cast<int>(i), 10)) << "from " << i;
  }
  // A full last chunk with an empty tail: the end is still reachable.
  log.push_back(10);
  log.push_back(11);
  ASSERT_EQ(log.sealed_chunks(), 3u);
  EXPECT_EQ(log.iterator_at(12), log.end());
  EXPECT_EQ(*log.iterator_at(11), 11);
}

TEST(ChunkedLogTest, CopySharesSealedChunksAndAppendsIndependently) {
  Log parent;
  for (int v = 0; v < 10; ++v) parent.push_back(v);
  Log child = parent;
  ASSERT_EQ(child.sealed_chunks(), 2u);
  for (std::size_t i = 0; i < child.sealed_chunks(); ++i) {
    EXPECT_EQ(&child.sealed_chunk(i), &parent.sealed_chunk(i));
  }

  for (int v = 100; v < 107; ++v) child.push_back(v);
  for (int v = 200; v < 203; ++v) parent.push_back(v);

  std::vector<int> want_parent = iota(0, 10);
  for (int v = 200; v < 203; ++v) want_parent.push_back(v);
  std::vector<int> want_child = iota(0, 10);
  for (int v = 100; v < 107; ++v) want_child.push_back(v);
  EXPECT_EQ(parent.to_vector(), want_parent);
  EXPECT_EQ(iterate(parent), want_parent);
  EXPECT_EQ(child.to_vector(), want_child);
  EXPECT_EQ(iterate(child), want_child);
  // The chunks sealed before the copy are still the shared objects; the
  // ones sealed after belong to one side each.
  EXPECT_EQ(&child.sealed_chunk(1), &parent.sealed_chunk(1));
  ASSERT_EQ(parent.sealed_chunks(), 3u);
  ASSERT_EQ(child.sealed_chunks(), 4u);
  EXPECT_NE(&child.sealed_chunk(2), &parent.sealed_chunk(2));
}

TEST(ChunkedLogTest, CopyTailHasAFullChunkOfRoom) {
  // Appending to a fork's copy fills its tail in place until it seals.
  Log parent;
  for (int v = 0; v < 5; ++v) parent.push_back(v);  // one sealed, tail {4}
  Log copy(parent);
  Log assigned;
  assigned = parent;
  for (Log* log : {&copy, &assigned}) {
    const int* tail = &log->at(4);
    for (int v = 5; v < 7; ++v) {
      log->push_back(v);
      EXPECT_EQ(&log->at(4), tail) << "the copy's tail reallocated";
    }
    EXPECT_EQ(iterate(*log), iota(0, 7));
  }
}

TEST(ChunkedLogTest, CopyOutlivesItsSource) {
  auto source = std::make_unique<Log>();
  for (int v = 0; v < 9; ++v) source->push_back(v);
  Log copy = *source;
  source.reset();
  copy.push_back(9);
  EXPECT_EQ(copy.size(), 10u);
  EXPECT_EQ(iterate(copy), iota(0, 10));
}

TEST(ChunkedLogTest, AtAndBackReadAnyChunk) {
  Log log;
  for (int v = 0; v < 10; ++v) {
    log.push_back(v * 10);
    EXPECT_EQ(log.back(), v * 10);
  }
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log.at(i), static_cast<int>(i) * 10);
  }
  EXPECT_THROW((void)log.at(10), std::out_of_range);
  log.push_back(100);
  log.push_back(110);  // seals a chunk, leaving an empty tail
  EXPECT_EQ(log.back(), 110);
}

TEST(ChunkedLogTest, AssignmentReplacesContents) {
  Log a;
  Log b;
  for (int v = 0; v < 6; ++v) a.push_back(v);
  for (int v = 50; v < 53; ++v) b.push_back(v);
  b = a;
  EXPECT_EQ(b.to_vector(), iota(0, 6));
  a.push_back(6);
  EXPECT_EQ(b.size(), 6u);
}

}  // namespace
