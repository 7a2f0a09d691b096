// Edge cases of cbs::util::FlatMap that the static-analysis audit leans
// on (DESIGN.md §11): the sorted-vector map replaced std::map in the
// controllers' job tables, and its deliberate contract difference —
// iterators AND references invalidated by every insert/erase — is policed
// by convention. These tests pin the behaviors that convention assumes.

#include "util/flat_map.hpp"

#include <cstdint>
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

}  // namespace
