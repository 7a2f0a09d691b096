// cbs::util::SeqTable and cbs::util::SeqQueue against reference containers:
// the controller's job table, the belief's per-job records, a transfer
// queue's tag index, a link's transfers, a store's objects and the IC feed
// queue all rest on them.

#include "util/seq_queue.hpp"
#include "util/seq_table.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <iterator>
#include <map>
#include <random>
#include <string>
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

TEST(SeqTableTest, EraseReportsWhetherItHeldTheSeq) {
  SeqTable<int> table;
  table.insert(1, 10);
  table.insert(2, 20);
  EXPECT_TRUE(table.erase(1));
  EXPECT_FALSE(table.erase(1));   // already gone
  EXPECT_FALSE(table.erase(99));  // past the highest seq
  EXPECT_FALSE(table.erase(0));   // below the lowest live seq
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.at(2), 20);
}

TEST(SeqTableTest, OutOfOrderInsertsWalkInSeqOrder) {
  // Burst retraction re-admits jobs with older seqs than the table's
  // highest, so inserts land above, between and below the live ones.
  SeqTable<int> table;
  for (const std::uint64_t seq : {50u, 10u, 40u, 20u, 30u, 25u, 5u, 45u}) {
    table.insert(seq, static_cast<int>(seq) * 3);
  }
  std::vector<std::uint64_t> seqs;
  table.for_each_in_seq_order([&](std::uint64_t seq, int value) {
    seqs.push_back(seq);
    EXPECT_EQ(value, static_cast<int>(seq) * 3);
  });
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{5, 10, 20, 25, 30, 40, 45, 50}));
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

TEST(SeqTableTest, InsertBelowLeavesLaterEntriesFindable) {
  // References are invalidated by any insert, so callers re-find by seq;
  // that must recover every later entry unchanged, however often an insert
  // below the lowest live seq grows the index at its front.
  SeqTable<int> table;
  for (std::uint64_t seq = 1000; seq < 1010; ++seq) {
    table.insert(seq, static_cast<int>(seq) * 10);
  }
  for (std::uint64_t seq = 999; seq >= 900; --seq) {
    table.insert(seq, -static_cast<int>(seq));
    for (std::uint64_t later = 1000; later < 1010; ++later) {
      const int* entry = table.find(later);
      ASSERT_NE(entry, nullptr) << later << " after inserting " << seq;
      ASSERT_EQ(*entry, static_cast<int>(later) * 10);
    }
    ASSERT_EQ(table.at(seq), -static_cast<int>(seq));
  }
  EXPECT_EQ(table.size(), 110u);
  EXPECT_EQ(table.find(899), nullptr);
  EXPECT_EQ(walk(table).front(), std::make_pair(std::uint64_t{900}, -900));
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

TEST(SeqTableTest, IncreasingSeqsAppendAndWalkInOrder) {
  // A link's transfer ids and a store's retry ids only ever increase.
  SeqTable<double> table;
  for (std::uint64_t seq = 1; seq <= 1000; ++seq) {
    table.insert(seq, static_cast<double>(seq) * 0.5);
  }
  EXPECT_EQ(table.size(), 1000u);
  std::uint64_t expected = 1;
  table.for_each_in_seq_order([&](std::uint64_t seq, double value) {
    EXPECT_EQ(seq, expected);
    EXPECT_EQ(value, static_cast<double>(seq) * 0.5);
    ++expected;
  });
  EXPECT_EQ(expected, 1001u);
  EXPECT_NE(table.find(1), nullptr);
  EXPECT_NE(table.find(1000), nullptr);
  EXPECT_EQ(table.find(1001), nullptr);
}

TEST(SeqTableTest, MutableWalkChangesEntriesInPlace) {
  // A link's outage walk updates every transfer, in id order.
  SeqTable<int> table;
  for (const std::uint64_t seq : {4u, 9u, 2u, 7u}) {
    table.insert(seq, static_cast<int>(seq));
  }
  table.erase(9);
  std::vector<std::uint64_t> order;
  table.for_each_in_seq_order([&](std::uint64_t seq, int& value) {
    order.push_back(seq);
    value = -value;
  });
  EXPECT_EQ(order, (std::vector<std::uint64_t>{2, 4, 7}));
  EXPECT_EQ(walk(table), (std::vector<std::pair<std::uint64_t, int>>{
                             {2, -2}, {4, -4}, {7, -7}}));
}

/// A value that owns heap memory (so a stale or double-moved entry shows
/// under ASan) and counts its copies (so a test can tell how many entries
/// a copy of the table duplicated).
struct Tracked {
  static inline std::size_t copies = 0;

  std::string payload;

  Tracked() = default;
  explicit Tracked(std::string p) : payload(std::move(p)) {}
  Tracked(const Tracked& other) : payload(other.payload) { ++copies; }
  Tracked& operator=(const Tracked& other) {
    payload = other.payload;
    ++copies;
    return *this;
  }
  Tracked(Tracked&&) noexcept = default;
  Tracked& operator=(Tracked&&) noexcept = default;
  ~Tracked() = default;
};

/// Long enough to defeat the small-string buffer.
std::string long_label(std::uint64_t seq) {
  std::string label = "payload-for-seq-";
  label += std::to_string(seq);
  label += "-padded-past-the-sso-buffer";
  return label;
}

TEST(SeqTableTest, CopyHoldsOnlyLiveEntries) {
  SeqTable<Tracked> table;
  for (std::uint64_t seq = 1; seq <= 4000; ++seq) {
    table.insert(seq, Tracked(long_label(seq)));
  }
  for (std::uint64_t seq = 1; seq <= 3000; ++seq) ASSERT_TRUE(table.erase(seq));
  table.erase(3500);  // a hole in the middle of the live range

  Tracked::copies = 0;
  const SeqTable<Tracked> copy(table);
  EXPECT_EQ(Tracked::copies, 999u);
  ASSERT_EQ(copy.size(), 999u);
  std::uint64_t expected = 3001;
  copy.for_each_in_seq_order([&](std::uint64_t seq, const Tracked& value) {
    if (expected == 3500) ++expected;
    EXPECT_EQ(seq, expected);
    EXPECT_EQ(value.payload, long_label(seq));
    ++expected;
  });
  EXPECT_EQ(copy.find(3000), nullptr);
  EXPECT_EQ(copy.find(3500), nullptr);
}

TEST(SeqTableTest, CopyKeepsRoomToGrow) {
  // A fork's first inserts must not move the backlog it inherited.
  SeqTable<int> table;
  for (std::uint64_t seq = 1; seq <= 10; ++seq) {
    table.insert(seq, static_cast<int>(seq));
  }
  table.erase(1);
  table.erase(2);
  SeqTable<int> copy(table);
  const int* first = copy.find(3);
  for (std::uint64_t seq = 11; seq <= 74; ++seq) {
    copy.insert(seq, 0);
    ASSERT_EQ(copy.find(3), first) << "the copy reallocated at " << seq;
  }
  EXPECT_EQ(copy.size(), 72u);

  // A copy of an emptied table starts over at any seq.
  for (std::uint64_t seq = 3; seq <= 10; ++seq) table.erase(seq);
  SeqTable<int> empty(table);
  EXPECT_TRUE(empty.empty());
  empty.insert(5, 5);
  empty.insert(2, 2);
  EXPECT_EQ(walk(empty), (std::vector<std::pair<std::uint64_t, int>>{
                             {2, 2}, {5, 5}}));
}

using Model = std::map<std::uint64_t, std::string>;

void expect_same(const SeqTable<Tracked>& table, const Model& reference) {
  ASSERT_EQ(table.size(), reference.size());
  EXPECT_EQ(table.empty(), reference.empty());
  auto r = reference.begin();
  table.for_each_in_seq_order([&](std::uint64_t seq, const Tracked& value) {
    ASSERT_NE(r, reference.end());
    ASSERT_EQ(seq, r->first);
    ASSERT_EQ(value.payload, r->second);
    ++r;
  });
  EXPECT_EQ(r, reference.end());
}

TEST(SeqTableTest, RandomizedOpsMatchStdMap) {
  // A FIFO-shaped workload like the belief and controller tables, over
  // heap-owning values: seqs arrive in increasing order and mostly leave
  // from the front, with retractions re-inserting seqs below the current
  // front and erases at the back and in the middle. Every step is checked
  // against std::map.
  std::mt19937_64 rng(20101);
  SeqTable<Tracked> table;
  Model reference;
  std::uint64_t next = 1000000;
  for (int step = 0; step < 40000; ++step) {
    const auto op = rng() % 100;
    if (op < 40 || reference.empty()) {
      const std::uint64_t seq = next++;
      ASSERT_EQ(table.find(seq), nullptr);
      table.insert(seq, Tracked(long_label(seq)));
      reference.emplace(seq, long_label(seq));
    } else if (op < 45) {
      // Re-admission below the current front.
      const std::uint64_t seq = reference.begin()->first - 1 - rng() % 8;
      const bool fresh = reference.emplace(seq, long_label(seq)).second;
      EXPECT_EQ(table.find(seq) == nullptr, fresh) << seq;
      if (fresh) table.insert(seq, Tracked(long_label(seq)));
    } else if (op < 80) {
      const std::uint64_t seq = reference.begin()->first;
      EXPECT_TRUE(table.erase(seq));
      reference.erase(seq);
    } else if (op < 85) {
      const std::uint64_t seq = std::prev(reference.end())->first;
      EXPECT_TRUE(table.erase(seq));
      reference.erase(seq);
    } else if (op < 92) {
      auto r = reference.begin();
      std::advance(r, static_cast<std::ptrdiff_t>(rng() % reference.size()));
      EXPECT_TRUE(table.erase(r->first));
      EXPECT_FALSE(table.erase(r->first));
      reference.erase(r);
    } else if (op < 96) {
      auto r = reference.begin();
      std::advance(r, static_cast<std::ptrdiff_t>(rng() % reference.size()));
      EXPECT_EQ(table.at(r->first).payload, r->second);
      r->second += "+";
      table.find(r->first)->payload += "+";
      EXPECT_EQ(table.find(next), nullptr);
      EXPECT_EQ(table.find(reference.begin()->first - 100), nullptr);
    } else {
      expect_same(table, reference);
    }
    if (step % 997 == 0) {
      const SeqTable<Tracked> copy(table);
      expect_same(copy, reference);
    }
  }
  expect_same(table, reference);
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
