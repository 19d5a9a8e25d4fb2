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

TEST(EventRingTest, VisitKeepsTheItemsInPushOrder) {
  Arena arena;
  EventRing<int64_t> ring(&arena, 2);
  const int64_t n = static_cast<int64_t>(ring.kChunkCapacity) * 2 + 3;
  for (int64_t i = 0; i < n; ++i) ring.Push(1, i);
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<int64_t> seen;
    ring.Visit(1, [&](int64_t v) { seen.push_back(v); });
    ASSERT_EQ(seen.size(), static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) EXPECT_EQ(seen[static_cast<size_t>(i)], i);
    EXPECT_EQ(ring.Size(1), static_cast<size_t>(n));
  }
  ring.Visit(0, [](int64_t) { ADD_FAILURE() << "empty bucket visited"; });
  const std::vector<int64_t> drained = DrainToVector(ring, 1);
  EXPECT_EQ(drained.size(), static_cast<size_t>(n));
}

TEST(EventRingTest, FilterKeepsPushOrderWithoutADeadThreshold) {
  Arena arena;
  EventRing<int64_t> ring(&arena, 1);
  const int64_t n = static_cast<int64_t>(ring.kChunkCapacity) * 4;
  for (int64_t i = 0; i < n; ++i) ring.Push(0, i);
  ring.NoteDead(0);
  // One item in ten goes, far below CompactIfStale's half: Filter runs
  // anyway, calls keep once per item in push order, and clears the note.
  std::vector<int64_t> asked;
  const size_t removed = ring.Filter(0, [&](int64_t v) {
    asked.push_back(v);
    return v % 10 != 0;
  });
  ASSERT_EQ(asked.size(), static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) EXPECT_EQ(asked[static_cast<size_t>(i)], i);
  EXPECT_EQ(removed, static_cast<size_t>((n + 9) / 10));
  EXPECT_EQ(ring.Size(0), static_cast<size_t>(n) - removed);
  EXPECT_EQ(ring.NotedDead(0), 0u);
  std::vector<int64_t> expected;
  for (int64_t i = 0; i < n; ++i) {
    if (i % 10 != 0) expected.push_back(i);
  }
  std::vector<int64_t> visited;
  ring.Visit(0, [&](int64_t v) { visited.push_back(v); });
  EXPECT_EQ(visited, expected);
  EXPECT_EQ(DrainToVector(ring, 0), expected);
}

TEST(EventRingTest, FilterRecyclesEmptiedChunks) {
  Arena arena;
  EventRing<int64_t> ring(&arena, 2);
  const int64_t n = static_cast<int64_t>(ring.kChunkCapacity) * 6;
  for (int64_t i = 0; i < n; ++i) ring.Push(0, i);
  const int64_t chunks_after_fill = ring.chunks_allocated();
  // Keep the first chunk's worth: the other five chunks go to the free
  // list, and refilling another bucket takes them instead of the arena.
  const int64_t keep_below = static_cast<int64_t>(ring.kChunkCapacity);
  EXPECT_EQ(ring.Filter(0, [&](int64_t v) { return v < keep_below; }),
            static_cast<size_t>(n - keep_below));
  for (int64_t i = 0; i < n - keep_below; ++i) ring.Push(1, i);
  EXPECT_EQ(ring.chunks_allocated(), chunks_after_fill);
  // Emptying a bucket releases its last chunk too.
  EXPECT_EQ(ring.Filter(0, [](int64_t) { return false; }),
            static_cast<size_t>(keep_below));
  EXPECT_TRUE(ring.Empty(0));
  EXPECT_EQ(ring.Filter(0, [](int64_t) { return true; }), 0u);
  for (int64_t i = 0; i < keep_below; ++i) ring.Push(0, i);
  EXPECT_EQ(ring.chunks_allocated(), chunks_after_fill);
  EXPECT_EQ(DrainToVector(ring, 0).size(), static_cast<size_t>(keep_below));
  EXPECT_EQ(DrainToVector(ring, 1).size(),
            static_cast<size_t>(n - keep_below));
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
