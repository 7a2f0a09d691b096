// Edge cases of cbs::util::FlatMap that the static-analysis audit leans
// on (DESIGN.md §11): the sorted-vector map replaced std::map in the
// controllers' job tables, and its deliberate contract difference —
// iterators AND references invalidated by every insert/erase — is policed
// by convention. These tests pin the behaviors that convention assumes.

#include "util/flat_map.hpp"

#include <cstdint>
#include <iterator>
#include <map>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace {

using cbs::util::FlatMap;

/// "j<k>" built by appending: GCC 12 at -O3 reports a false -Wrestrict on
/// the `const char* + std::string&&` overload.
std::string job_label(int k) {
  std::string label = "j";
  label += std::to_string(k);
  return label;
}

TEST(FlatMapTest, MonotonicAppendKeepsOrderAndLookups) {
  FlatMap<std::uint64_t, double> m;
  for (std::uint64_t k = 1; k <= 1000; ++k) m.emplace(k, static_cast<double>(k) * 0.5);
  EXPECT_EQ(m.size(), 1000u);
  std::uint64_t prev = 0;
  for (const auto& [k, v] : m) {
    EXPECT_LT(prev, k);
    EXPECT_DOUBLE_EQ(v, static_cast<double>(k) * 0.5);
    prev = k;
  }
  EXPECT_TRUE(m.contains(1));
  EXPECT_TRUE(m.contains(1000));
  EXPECT_FALSE(m.contains(1001));
}

TEST(FlatMapTest, NonMonotonicInsertEndsSorted) {
  // Burst retraction re-admits jobs with *older* sequence ids than the
  // table's current max — the out-of-order O(n) shift path.
  FlatMap<int, std::string> m;
  for (int k : {50, 10, 40, 20, 30, 25, 5, 45}) {
    m.emplace(k, job_label(k));
  }
  std::vector<int> keys;
  for (const auto& [k, v] : m) {
    keys.push_back(k);
    EXPECT_EQ(v, job_label(k));
  }
  EXPECT_EQ(keys, (std::vector<int>{5, 10, 20, 25, 30, 40, 45, 50}));
}

TEST(FlatMapTest, EraseDuringIterationViaReturnedIterator) {
  // The ONLY sanctioned erase-while-iterating pattern: continue from the
  // iterator erase() returns. Holding `it` across the erase is the misuse
  // the call-site audit looks for.
  FlatMap<int, int> m;
  for (int k = 0; k < 10; ++k) m.emplace(k, k * k);
  for (auto it = m.begin(); it != m.end();) {
    if (it->first % 2 == 0) {
      it = m.erase(it);
    } else {
      ++it;
    }
  }
  EXPECT_EQ(m.size(), 5u);
  for (const auto& [k, v] : m) {
    EXPECT_EQ(k % 2, 1);
    EXPECT_EQ(v, k * k);
  }
}

TEST(FlatMapTest, InsertBelowShiftsLaterEntries) {
  // Documents WHY references must be re-found after any insert: an
  // out-of-order insert shifts every later element one slot right, so a
  // remembered position silently points at a different entry.
  FlatMap<int, int> m;
  m.emplace(10, 100);
  m.emplace(20, 200);
  const auto pos = static_cast<std::size_t>(m.find(20) - m.begin());
  m.emplace(15, 150);  // shifts {20, 200} right
  EXPECT_NE((m.begin() + static_cast<std::ptrdiff_t>(pos))->first, 20);
  // The protocol — re-find after mutation — always recovers the entry.
  ASSERT_NE(m.find(20), m.end());
  EXPECT_EQ(m.find(20)->second, 200);
}

TEST(FlatMapTest, OperatorBracketInsertsDefaultAndFindsExisting) {
  FlatMap<int, int> m;
  m[7] = 70;
  EXPECT_EQ(m[7], 70);
  EXPECT_EQ(m[3], 0);  // default-constructed on first touch
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.begin()->first, 3);  // inserted below 7, still sorted
}

TEST(FlatMapTest, EmplaceExistingKeyDoesNotOverwrite) {
  FlatMap<int, int> m;
  auto [it1, inserted1] = m.emplace(5, 50);
  EXPECT_TRUE(inserted1);
  auto [it2, inserted2] = m.emplace(5, 999);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(it2->second, 50);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMapTest, EraseByKeyReportsCount) {
  FlatMap<int, int> m;
  m.emplace(1, 10);
  m.emplace(2, 20);
  EXPECT_EQ(m.erase(1), 1u);
  EXPECT_EQ(m.erase(1), 0u);
  EXPECT_EQ(m.erase(99), 0u);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_TRUE(m.contains(2));
}

TEST(FlatMapTest, ClearAndReserveRoundTrip) {
  FlatMap<int, int> m;
  m.reserve(64);
  for (int k = 0; k < 32; ++k) m.emplace(k, k);
  EXPECT_FALSE(m.empty());
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.find(0), m.end());
}

/// A mapped value that owns heap memory (so a stale or double-moved slot
/// shows under ASan) and counts its copies (so a test can tell how many
/// entries a FlatMap copy actually duplicated).
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

/// Long enough to defeat the small-string buffer, so every value is a heap
/// allocation.
std::string long_label(std::uint64_t k) {
  std::string label = "payload-for-key-";
  label += std::to_string(k);
  label += "-padded-past-the-sso-buffer";
  return label;
}

using Model = std::map<std::uint64_t, std::string>;

void expect_same(const FlatMap<std::uint64_t, Tracked>& m, const Model& ref) {
  ASSERT_EQ(m.size(), ref.size());
  EXPECT_EQ(m.empty(), ref.empty());
  auto r = ref.begin();
  for (const auto& [k, v] : m) {
    ASSERT_EQ(k, r->first);
    ASSERT_EQ(v.payload, r->second);
    ++r;
  }
}

TEST(FlatMapTest, RandomizedOpsMatchStdMap) {
  // A FIFO-shaped workload like the belief and controller tables: keys
  // arrive in increasing order and mostly leave from the front, with
  // retractions re-inserting keys below the current front and erases at
  // the back and in the middle. Every step is checked against std::map.
  std::mt19937_64 rng(20101);
  FlatMap<std::uint64_t, Tracked> m;
  Model ref;
  std::uint64_t next_key = 1000000;
  for (int step = 0; step < 40000; ++step) {
    const auto op = rng() % 100;
    if (op < 40 || ref.empty()) {
      const std::uint64_t k = next_key++;
      ASSERT_TRUE(m.emplace(k, long_label(k)).second);
      ref.emplace(k, long_label(k));
    } else if (op < 45) {
      // Re-admission below the current front.
      const std::uint64_t k = ref.begin()->first - 1 - rng() % 8;
      const bool fresh = ref.emplace(k, long_label(k)).second;
      EXPECT_EQ(m.emplace(k, long_label(k)).second, fresh);
    } else if (op < 80) {
      const std::uint64_t k = ref.begin()->first;
      EXPECT_EQ(m.erase(k), 1u);
      ref.erase(k);
    } else if (op < 85) {
      const std::uint64_t k = std::prev(ref.end())->first;
      EXPECT_EQ(m.erase(k), 1u);
      ref.erase(k);
    } else if (op < 92) {
      auto r = ref.begin();
      std::advance(r, static_cast<std::ptrdiff_t>(rng() % ref.size()));
      const std::uint64_t k = r->first;
      // Erase through the iterator; the returned one must be the successor.
      auto next = m.erase(m.find(k));
      r = ref.erase(r);
      if (r == ref.end()) {
        EXPECT_EQ(next, m.end());
      } else {
        ASSERT_NE(next, m.end());
        EXPECT_EQ(next->first, r->first);
      }
    } else if (op < 96) {
      auto r = ref.begin();
      std::advance(r, static_cast<std::ptrdiff_t>(rng() % ref.size()));
      EXPECT_EQ(m.at(r->first).payload, r->second);
      EXPECT_EQ(m[r->first].payload, r->second);
      r->second += "+";
      m[r->first].payload += "+";
      EXPECT_EQ(m.find(next_key), m.end());
      EXPECT_FALSE(m.contains(ref.begin()->first - 100));
    } else {
      expect_same(m, ref);
    }
    if (step % 997 == 0) {
      const FlatMap<std::uint64_t, Tracked> copy(m);
      expect_same(copy, ref);
      FlatMap<std::uint64_t, Tracked> assigned;
      assigned.emplace(1, long_label(1));
      assigned = m;
      expect_same(assigned, ref);
    }
  }
  expect_same(m, ref);
}

TEST(FlatMapTest, CopiesHoldOnlyLiveEntries) {
  // 3000 front erases of 4000 entries: the dead head passes half the
  // storage, so the map compacts (at least once) on the way.
  FlatMap<std::uint64_t, Tracked> m;
  for (std::uint64_t k = 1; k <= 4000; ++k) m.emplace(k, long_label(k));
  for (std::uint64_t k = 1; k <= 300; ++k) ASSERT_EQ(m.erase(k), 1u);

  // Many front erases, no compaction yet: 300 dead slots are not copied.
  Tracked::copies = 0;
  FlatMap<std::uint64_t, Tracked> copy(m);
  EXPECT_EQ(Tracked::copies, 3700u);
  EXPECT_EQ(copy.size(), 3700u);
  EXPECT_EQ(copy.begin()->first, 301u);

  for (std::uint64_t k = 301; k <= 3000; ++k) ASSERT_EQ(m.erase(k), 1u);
  Tracked::copies = 0;
  copy = m;
  EXPECT_EQ(Tracked::copies, 1000u);
  ASSERT_EQ(copy.size(), 1000u);
  std::uint64_t expected = 3001;
  for (const auto& [k, v] : copy) {
    EXPECT_EQ(k, expected);
    EXPECT_EQ(v.payload, long_label(expected));
    ++expected;
  }

  // The source keeps working after compaction: re-insert below its front,
  // then drain it from the front.
  m.emplace(7, long_label(7));
  EXPECT_EQ(m.begin()->first, 7u);
  while (!m.empty()) m.erase(m.begin());
  EXPECT_EQ(m.begin(), m.end());
  EXPECT_EQ(copy.size(), 1000u);

  // A moved-from map is empty and reusable.
  FlatMap<std::uint64_t, Tracked> moved(std::move(copy));
  EXPECT_EQ(moved.size(), 1000u);
  EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
  copy.emplace(5, long_label(5));
  EXPECT_EQ(copy.size(), 1u);
}

TEST(FlatMapTest, CopyKeepsTheSourcesRoomToGrow) {
  // A fork's copy must not reallocate on its first inserts: it reserves
  // the source's capacity less the dead head, though it copies only the
  // live entries.
  FlatMap<std::uint64_t, int> m;
  m.reserve(100);
  for (std::uint64_t k = 1; k <= 10; ++k) m.emplace(k, static_cast<int>(k));
  ASSERT_EQ(m.erase(1), 1u);
  ASSERT_EQ(m.erase(2), 1u);  // two dead head slots

  FlatMap<std::uint64_t, int> copy(m);
  FlatMap<std::uint64_t, int> assigned;
  assigned = m;
  for (FlatMap<std::uint64_t, int>* map : {&copy, &assigned}) {
    ASSERT_EQ(map->size(), 8u);
    const auto* first = &*map->begin();
    for (std::uint64_t k = 11; k <= 98; ++k) {
      map->emplace(k, 0);
      ASSERT_EQ(&*map->begin(), first) << "the copy reallocated at " << k;
    }
    EXPECT_EQ(map->size(), 96u);
  }
}

}  // namespace
