// cbs::util::SeqTable and cbs::util::SeqQueue against reference containers:
// the controller's job table, the belief's per-job records, a transfer
// queue's tag index and the IC feed queue all rest on them.

#include "util/seq_queue.hpp"
#include "util/seq_table.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <iterator>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace {

using cbs::util::SeqQueue;
using cbs::util::SeqTable;

/// The table's entries as (seq, value) pairs, in the order it walks them.
std::vector<std::pair<std::uint64_t, int>> walk(const SeqTable<int>& table) {
  std::vector<std::pair<std::uint64_t, int>> out;
  table.for_each_in_seq_order(
      [&](std::uint64_t seq, int value) { out.emplace_back(seq, value); });
  return out;
}

std::vector<std::pair<std::uint64_t, int>> walk(
    const std::map<std::uint64_t, int>& reference) {
  return {reference.begin(), reference.end()};
}

TEST(SeqTableTest, FindsInsertsAndErases) {
  SeqTable<int> table;
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.find(1), nullptr);
  EXPECT_FALSE(table.erase(1));
  for (std::uint64_t seq = 10; seq < 20; ++seq) {
    table.insert(seq, static_cast<int>(seq) * 2);
  }
  EXPECT_EQ(table.size(), 10u);
  EXPECT_EQ(table.at(15), 30);
  EXPECT_EQ(table.find(9), nullptr);
  EXPECT_EQ(table.find(20), nullptr);
  table.at(15) = 7;
  EXPECT_EQ(*table.find(15), 7);
  EXPECT_NE(table.find(19), nullptr);
  EXPECT_EQ(table.find(25), nullptr);
}

TEST(SeqTableTest, EraseAtHeadMiddleAndTail) {
  SeqTable<int> table;
  std::map<std::uint64_t, int> reference;
  for (std::uint64_t seq = 1; seq <= 8; ++seq) {
    table.insert(seq, static_cast<int>(seq));
    reference.emplace(seq, static_cast<int>(seq));
  }
  for (const std::uint64_t seq : {1u, 5u, 8u, 2u}) {  // head, middle, tail
    EXPECT_TRUE(table.erase(seq)) << seq;
    reference.erase(seq);
    EXPECT_EQ(walk(table), walk(reference)) << "after erasing " << seq;
    EXPECT_EQ(table.find(seq), nullptr);
  }
  // The swap-remove kept every survivor reachable by its own seq.
  for (const auto& [seq, value] : reference) EXPECT_EQ(table.at(seq), value);
  // Emptied, the table starts over at any seq.
  for (const auto& [seq, value] : reference) table.erase(seq);
  EXPECT_TRUE(table.empty());
  EXPECT_TRUE(walk(table).empty());
  table.insert(3, 33);
  EXPECT_EQ(table.at(3), 33);
}

TEST(SeqTableTest, InsertBelowTheLowestLiveSeq) {
  // A re-admitted burst comes back below every job still in the table.
  SeqTable<int> table;
  for (std::uint64_t seq = 100; seq < 200; ++seq) {
    table.insert(seq, static_cast<int>(seq));
  }
  for (std::uint64_t seq = 100; seq < 150; ++seq) table.erase(seq);
  table.insert(120, -120);  // into the room the erases left
  table.insert(3, -3);      // far below it: the index grows at the front
  table.insert(2, -2);
  EXPECT_EQ(table.at(3), -3);
  EXPECT_EQ(table.at(2), -2);
  EXPECT_EQ(table.at(120), -120);
  EXPECT_EQ(table.at(150), 150);
  const auto entries = walk(table);
  ASSERT_EQ(entries.size(), 53u);
  EXPECT_EQ(entries[0], std::make_pair(std::uint64_t{2}, -2));
  EXPECT_EQ(entries[1], std::make_pair(std::uint64_t{3}, -3));
  EXPECT_EQ(entries[2], std::make_pair(std::uint64_t{120}, -120));
  EXPECT_EQ(entries[3], std::make_pair(std::uint64_t{150}, 150));
}

TEST(SeqTableTest, CopyIsIndependent) {
  SeqTable<int> source;
  for (std::uint64_t seq = 1; seq <= 300; ++seq) {
    source.insert(seq, static_cast<int>(seq));
  }
  for (std::uint64_t seq = 1; seq <= 200; ++seq) source.erase(seq);
  SeqTable<int> copy(source);
  EXPECT_EQ(walk(copy), walk(source));
  copy.erase(250);
  copy.insert(301, 1);
  copy.insert(5, 5);
  copy.at(260) = -1;
  EXPECT_EQ(source.at(250), 250);
  EXPECT_EQ(source.at(260), 260);
  EXPECT_EQ(source.find(301), nullptr);
  EXPECT_EQ(source.find(5), nullptr);
  EXPECT_EQ(source.size(), 100u);
  EXPECT_EQ(copy.size(), 101u);
  source.erase(300);
  EXPECT_EQ(copy.at(300), 300);
}

TEST(SeqTableTest, MatchesAMapUnderRandomChurn) {
  // The controller's pattern: seqs admitted in order, finished in any
  // order, a few re-admitted below the lowest live seq; a copy taken
  // midway must walk and find exactly what the source does.
  std::mt19937_64 rng(7);
  SeqTable<int> table;
  std::map<std::uint64_t, int> reference;
  std::vector<std::uint64_t> gone;
  std::uint64_t next = 1;
  for (int step = 0; step < 20000; ++step) {
    const unsigned op = static_cast<unsigned>(rng() % 10);
    if (op < 5 || reference.empty()) {
      table.insert(next, step);
      reference.emplace(next++, step);
    } else if (op < 9) {
      auto it = reference.begin();
      std::advance(it, static_cast<long>(rng() % reference.size()));
      ASSERT_TRUE(table.erase(it->first));
      gone.push_back(it->first);
      reference.erase(it);
    } else if (!gone.empty()) {
      const std::uint64_t seq = gone[rng() % gone.size()];
      if (reference.contains(seq)) continue;
      table.insert(seq, -step);
      reference.emplace(seq, -step);
    }
    ASSERT_EQ(table.size(), reference.size()) << "step " << step;
    if (step % 1000 == 0) {
      ASSERT_EQ(walk(table), walk(reference)) << "step " << step;
      const SeqTable<int> copy(table);
      ASSERT_EQ(walk(copy), walk(reference)) << "copy at step " << step;
    }
  }
  for (const auto& [seq, value] : reference) EXPECT_EQ(table.at(seq), value);
  for (const std::uint64_t seq : gone) {
    EXPECT_EQ(table.find(seq) != nullptr, reference.contains(seq)) << seq;
  }
}

std::vector<std::uint64_t> items(const SeqQueue& queue) {
  return {queue.begin(), queue.end()};
}

TEST(SeqQueueTest, KeepsFifoOrderAndSortedReadmissions) {
  SeqQueue queue;
  std::deque<std::uint64_t> reference;
  for (std::uint64_t seq = 1; seq <= 200; ++seq) {
    queue.push_back(seq * 10);
    reference.push_back(seq * 10);
  }
  for (int i = 0; i < 150; ++i) {  // past the compaction threshold
    EXPECT_EQ(queue.front(), reference.front());
    queue.pop_front();
    reference.pop_front();
  }
  // Near the front (slides into the dead head), near the back, and at
  // both ends.
  for (const std::uint64_t seq : {1515u, 1995u, 5u, 2005u, 1505u}) {
    queue.insert_sorted(seq);
    reference.insert(std::lower_bound(reference.begin(), reference.end(), seq),
                     seq);
    ASSERT_EQ(items(queue), std::vector<std::uint64_t>(reference.begin(),
                                                       reference.end()))
        << "after inserting " << seq;
  }
  const SeqQueue copy(queue);
  queue.erase(queue.begin() + 3);
  reference.erase(reference.begin() + 3);
  EXPECT_EQ(items(queue),
            std::vector<std::uint64_t>(reference.begin(), reference.end()));
  EXPECT_EQ(copy.size(), queue.size() + 1);
  while (!queue.empty()) {
    EXPECT_EQ(queue.front(), reference.front());
    queue.pop_front();
    reference.pop_front();
  }
  queue.insert_sorted(7);
  EXPECT_EQ(items(queue), std::vector<std::uint64_t>{7});
}

}  // namespace
