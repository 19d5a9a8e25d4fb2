#include "util/event_ring.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/arena.h"

namespace webmon {
namespace {

std::vector<int64_t> DrainToVector(EventRing<int64_t>& ring, int64_t bucket) {
  std::vector<int64_t> out;
  ring.Drain(bucket, [&](int64_t v) { out.push_back(v); });
  return out;
}

TEST(EventRingTest, DrainVisitsPushOrderAcrossChunks) {
  Arena arena;
  EventRing<int64_t> ring(&arena, 4);
  const int64_t n = static_cast<int64_t>(ring.kChunkCapacity) * 3 + 7;
  for (int64_t i = 0; i < n; ++i) ring.Push(2, i);
  EXPECT_EQ(ring.Size(2), static_cast<size_t>(n));
  const std::vector<int64_t> got = DrainToVector(ring, 2);
  ASSERT_EQ(got.size(), static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) EXPECT_EQ(got[static_cast<size_t>(i)], i);
  EXPECT_TRUE(ring.Empty(2));
}

TEST(EventRingTest, CompactRequiresHalfDead) {
  Arena arena;
  EventRing<int64_t> ring(&arena, 2);
  for (int64_t i = 0; i < 10; ++i) ring.Push(0, i);
  // 4 of 10 dead: below the threshold, nothing happens.
  for (int i = 0; i < 4; ++i) ring.NoteDead(0);
  EXPECT_EQ(ring.NotedDead(0), 4u);
  EXPECT_FALSE(ring.CompactIfStale(0, [](int64_t v) { return v >= 4; }));
  EXPECT_EQ(ring.Size(0), 10u);
  // The fifth dead note tips it over.
  ring.NoteDead(0);
  EXPECT_TRUE(ring.CompactIfStale(0, [](int64_t v) { return v >= 5; }));
  EXPECT_EQ(ring.Size(0), 5u);
  EXPECT_EQ(ring.NotedDead(0), 0u);
  EXPECT_EQ(DrainToVector(ring, 0), (std::vector<int64_t>{5, 6, 7, 8, 9}));
}

TEST(EventRingTest, CompactionPreservesPushOrderAcrossChunkBoundaries) {
  Arena arena;
  EventRing<int64_t> ring(&arena, 1);
  const int64_t n = static_cast<int64_t>(ring.kChunkCapacity) * 4;
  for (int64_t i = 0; i < n; ++i) ring.Push(0, i);
  // Kill every even item (half the bucket) and compact: survivors must be
  // the odd items in their original relative order, repacked across fewer
  // chunks.
  for (int64_t i = 0; i < n / 2; ++i) ring.NoteDead(0);
  ASSERT_TRUE(ring.CompactIfStale(0, [](int64_t v) { return v % 2 == 1; }));
  EXPECT_EQ(ring.Size(0), static_cast<size_t>(n / 2));
  const std::vector<int64_t> got = DrainToVector(ring, 0);
  ASSERT_EQ(got.size(), static_cast<size_t>(n / 2));
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], static_cast<int64_t>(2 * i + 1));
  }
}

TEST(EventRingTest, CompactionRecyclesChunksInsteadOfAllocating) {
  Arena arena;
  EventRing<int64_t> ring(&arena, 1);
  const int64_t n = static_cast<int64_t>(ring.kChunkCapacity) * 8;
  for (int64_t i = 0; i < n; ++i) ring.Push(0, i);
  const int64_t chunks_after_fill = ring.chunks_allocated();
  // Kill everything, compact (releases every chunk), refill: the freed
  // chunks must be reused, not re-carved from the arena.
  for (int64_t i = 0; i < n; ++i) ring.NoteDead(0);
  ASSERT_TRUE(ring.CompactIfStale(0, [](int64_t) { return false; }));
  EXPECT_EQ(ring.Size(0), 0u);
  EXPECT_TRUE(ring.Empty(0));
  for (int64_t i = 0; i < n; ++i) ring.Push(0, i);
  EXPECT_EQ(ring.chunks_allocated(), chunks_after_fill);
  EXPECT_EQ(ring.Size(0), static_cast<size_t>(n));
}

TEST(EventRingTest, CompactEmptyBucketIsANoOp) {
  Arena arena;
  EventRing<int64_t> ring(&arena, 1);
  EXPECT_FALSE(ring.CompactIfStale(0, [](int64_t) { return true; }));
  EXPECT_EQ(ring.Size(0), 0u);
}

TEST(EventRingTest, DrainResetsDeadCounters) {
  Arena arena;
  EventRing<int64_t> ring(&arena, 1);
  for (int64_t i = 0; i < 6; ++i) ring.Push(0, i);
  ring.NoteDead(0);
  ring.NoteDead(0);
  EXPECT_EQ(ring.NotedDead(0), 2u);
  ring.Drain(0, [](int64_t) {});
  EXPECT_EQ(ring.NotedDead(0), 0u);
}

TEST(EventRingTest, SteadyCancelChurnIsAmortizedFlat) {
  Arena arena;
  EventRing<int64_t> ring(&arena, 1);
  // Rolling population with continuous NoteDead + CompactIfStale pressure:
  // after warm-up the chunk count must stop growing — compaction's chunk
  // recycling is what keeps cancel-heavy runs allocation-free.
  int64_t next = 0;
  for (int64_t i = 0; i < 512; ++i) ring.Push(0, next++);
  int64_t dead_floor = 0;  // values below this are dead
  int64_t warm_chunks = 0;
  for (int round = 0; round < 200; ++round) {
    if (round == 20) warm_chunks = ring.chunks_allocated();
    for (int64_t i = 0; i < 64; ++i) ring.Push(0, next++);
    dead_floor += 64;
    for (int64_t i = 0; i < 64; ++i) ring.NoteDead(0);
    ring.CompactIfStale(0, [&](int64_t v) { return v >= dead_floor; });
  }
  EXPECT_GT(warm_chunks, 0);
  EXPECT_EQ(ring.chunks_allocated(), warm_chunks);
}

}  // namespace
}  // namespace webmon
