#include "util/id_map.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace webmon {
namespace {

TEST(FlatIdMapTest, InsertFindEraseBasics) {
  FlatIdMap<uint32_t> map;
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.Find(7), nullptr);
  map.Insert(7, 70);
  map.Insert(8, 80);
  EXPECT_EQ(map.size(), 2u);
  ASSERT_NE(map.Find(7), nullptr);
  EXPECT_EQ(*map.Find(7), 70u);
  ASSERT_NE(map.Find(8), nullptr);
  EXPECT_EQ(*map.Find(8), 80u);
  // Insert on an existing key overwrites in place.
  map.Insert(7, 71);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(*map.Find(7), 71u);
  EXPECT_TRUE(map.Erase(7));
  EXPECT_EQ(map.Find(7), nullptr);
  EXPECT_FALSE(map.Erase(7));
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(*map.Find(8), 80u);
}

TEST(FlatIdMapTest, FindThroughConstReference) {
  FlatIdMap<int> map;
  map.Insert(3, -3);
  const FlatIdMap<int>& cref = map;
  ASSERT_NE(cref.Find(3), nullptr);
  EXPECT_EQ(*cref.Find(3), -3);
  EXPECT_EQ(cref.Find(4), nullptr);
}

TEST(FlatIdMapTest, MatchesReferenceMapUnderRandomChurn) {
  // Differential check of the open-addressing table — in particular the
  // backward-shift deletion, whose displaced-slot reasoning is the part a
  // unit test of single operations can't exercise — against
  // std::unordered_map over a long random insert/overwrite/erase/find/
  // find-or-insert trace with a deliberately small key range to force probe
  // collisions.
  FlatIdMap<uint64_t> map;
  std::unordered_map<uint64_t, uint64_t> reference;
  Rng rng(99);
  for (int step = 0; step < 60000; ++step) {
    const uint64_t key = rng.UniformU64(512);
    switch (rng.UniformU64(5)) {
      case 0:
      case 1: {
        const uint64_t value = rng.UniformU64(1u << 30);
        map.Insert(key, value);
        reference[key] = value;
        break;
      }
      case 2: {
        const bool erased = map.Erase(key);
        EXPECT_EQ(erased, reference.erase(key) > 0) << "key " << key;
        break;
      }
      case 3: {
        // A created entry is value-initialized, also in a slot an erased
        // entry left its value in.
        const auto [value, created] = map.FindOrInsert(key);
        auto it = reference.find(key);
        EXPECT_EQ(created, it == reference.end()) << "key " << key;
        EXPECT_EQ(*value, created ? 0 : it->second) << "key " << key;
        *value = rng.UniformU64(1u << 30);
        reference[key] = *value;
        break;
      }
      default: {
        const uint64_t* found = map.Find(key);
        auto it = reference.find(key);
        if (it == reference.end()) {
          EXPECT_EQ(found, nullptr) << "key " << key;
        } else {
          ASSERT_NE(found, nullptr) << "key " << key;
          EXPECT_EQ(*found, it->second) << "key " << key;
        }
        break;
      }
    }
    ASSERT_EQ(map.size(), reference.size());
  }
  // Full sweep at the end: every surviving key maps to the right value and
  // ForEach visits each exactly once.
  size_t visited = 0;
  map.ForEach([&](uint64_t key, uint64_t value) {
    auto it = reference.find(key);
    ASSERT_NE(it, reference.end()) << "key " << key;
    EXPECT_EQ(value, it->second) << "key " << key;
    ++visited;
  });
  EXPECT_EQ(visited, reference.size());
}

TEST(FlatIdMapTest, ReserveThenStablePopulationNeverRehashes) {
  FlatIdMap<uint64_t> map;
  map.Reserve(10000);
  const int64_t rehashes_after_reserve = map.rehashes();
  for (uint64_t i = 0; i < 10000; ++i) map.Insert(i, i * 2);
  EXPECT_EQ(map.rehashes(), rehashes_after_reserve);
  // Steady churn at a stable population: erases free exactly the slots the
  // inserts refill (backward-shift deletion leaves no tombstones), so the
  // table never grows again — the zero-steady-state-allocation guarantee
  // the cancel path relies on.
  uint64_t next = 10000;
  for (int round = 0; round < 20000; ++round) {
    ASSERT_TRUE(map.Erase(next - 10000));
    map.Insert(next, next * 2);
    ++next;
  }
  EXPECT_EQ(map.rehashes(), rehashes_after_reserve);
  EXPECT_EQ(map.size(), 10000u);
  for (uint64_t i = next - 10000; i < next; ++i) {
    ASSERT_NE(map.Find(i), nullptr) << "key " << i;
    EXPECT_EQ(*map.Find(i), i * 2);
  }
}

TEST(FlatIdMapTest, GrowsFromEmptyWithoutReserve) {
  FlatIdMap<uint64_t> map;
  for (uint64_t i = 0; i < 5000; ++i) map.Insert(i, i + 1);
  EXPECT_GT(map.rehashes(), 0);
  for (uint64_t i = 0; i < 5000; ++i) {
    ASSERT_NE(map.Find(i), nullptr) << "key " << i;
    EXPECT_EQ(*map.Find(i), i + 1);
  }
}

TEST(FlatIdMapTest, ClearKeepsCapacityForRefill) {
  // Per-chronon scratch use (Random's draw table): clear, then refill with
  // a different key set of the same size — no growth, no stale keys.
  FlatIdMap<double> map;
  for (uint64_t i = 0; i < 3000; ++i) map.Insert(i, 0.5);
  const int64_t rehashes = map.rehashes();
  for (int round = 1; round <= 5; ++round) {
    map.Clear();
    EXPECT_TRUE(map.empty());
    const uint64_t base = static_cast<uint64_t>(round) * 3000;
    for (uint64_t i = base; i < base + 3000; ++i) map.Insert(i, 1.0 * round);
    EXPECT_EQ(map.size(), 3000u);
    EXPECT_EQ(map.Find(base - 1), nullptr) << "stale key survived Clear";
    ASSERT_NE(map.Find(base), nullptr);
    EXPECT_EQ(*map.Find(base), 1.0 * round);
  }
  EXPECT_EQ(map.rehashes(), rehashes);
}

}  // namespace
}  // namespace webmon
