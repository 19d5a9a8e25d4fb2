#include "util/arena.h"

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/event_ring.h"

namespace webmon {
namespace {

bool IsAligned(const void* p, size_t align) {
  return reinterpret_cast<uintptr_t>(p) % align == 0;
}

TEST(ArenaTest, AllocationsAreAlignedAndDisjoint) {
  Arena arena;
  char* a = static_cast<char*>(arena.Allocate(13, 1));
  char* b = static_cast<char*>(arena.Allocate(13, 8));
  int64_t* c = arena.AllocateArray<int64_t>(4);
  EXPECT_TRUE(IsAligned(b, 8));
  EXPECT_TRUE(IsAligned(c, alignof(int64_t)));
  // Write through every pointer; no overlap means all values survive.
  std::memset(a, 0xAA, 13);
  std::memset(b, 0xBB, 13);
  for (int i = 0; i < 4; ++i) c[i] = i;
  EXPECT_EQ(static_cast<unsigned char>(a[12]), 0xAA);
  EXPECT_EQ(static_cast<unsigned char>(b[0]), 0xBB);
  EXPECT_EQ(c[3], 3);
  EXPECT_EQ(arena.allocation_count(), 3);
  EXPECT_EQ(arena.cumulative_bytes(), 13u + 13u + 4 * sizeof(int64_t));
}

TEST(ArenaTest, ZeroSizeAllocationsAreValidAndCounted) {
  Arena arena;
  void* a = arena.Allocate(0, 8);
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(IsAligned(a, 8));
  void* b = arena.Allocate(0, 8);
  ASSERT_NE(b, nullptr);
  // Zero-size allocations consume no space and may alias.
  EXPECT_EQ(a, b);
  EXPECT_EQ(arena.allocation_count(), 2);
  EXPECT_EQ(arena.live_bytes(), 0u);
}

TEST(ArenaTest, OverAlignedAllocations) {
  struct alignas(64) CacheLine {
    char data[64];
  };
  Arena arena;
  arena.Allocate(1, 1);  // misalign the cursor first
  CacheLine* line = arena.AllocateArray<CacheLine>(3);
  ASSERT_NE(line, nullptr);
  EXPECT_TRUE(IsAligned(line, 64));
  void* big = arena.Allocate(256, 128);
  EXPECT_TRUE(IsAligned(big, 128));
}

TEST(ArenaTest, OversizedRequestGetsDedicatedBlock) {
  Arena arena(/*min_block_bytes=*/1024);
  void* small = arena.Allocate(64);
  void* big = arena.Allocate(1 << 20);  // far beyond the block size
  ASSERT_NE(small, nullptr);
  ASSERT_NE(big, nullptr);
  std::memset(big, 0x5C, 1 << 20);
  EXPECT_GE(arena.bytes_reserved(), size_t{1} << 20);
  EXPECT_GE(arena.blocks_allocated(), 2u);
}

TEST(ArenaTest, ResetThenReuseReturnsIdenticalPointers) {
  Arena arena;
  std::vector<void*> first;
  for (int i = 0; i < 100; ++i) first.push_back(arena.Allocate(96, 16));
  const size_t blocks = arena.blocks_allocated();
  const size_t high_water = arena.high_water_bytes();

  arena.Reset();
  EXPECT_EQ(arena.live_bytes(), 0u);
  // An identical allocation sequence replays the identical addresses, and
  // no new blocks are requested from the heap.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(arena.Allocate(96, 16), first[static_cast<size_t>(i)]) << i;
  }
  EXPECT_EQ(arena.blocks_allocated(), blocks);
  EXPECT_EQ(arena.high_water_bytes(), high_water);
  EXPECT_EQ(arena.allocation_count(), 200);
}

TEST(ArenaTest, HighWaterTracksPeakAcrossResets) {
  Arena arena;
  arena.Allocate(1000);
  arena.Allocate(1000);
  EXPECT_EQ(arena.high_water_bytes(), 2000u);
  arena.Reset();
  arena.Allocate(500);
  EXPECT_EQ(arena.live_bytes(), 500u);
  EXPECT_EQ(arena.high_water_bytes(), 2000u);  // peak is sticky
}

TEST(ArenaAllocatorTest, WorksWithVectorAndComparesByArena) {
  Arena arena_a;
  Arena arena_b;
  ArenaAllocator<int> alloc_a(&arena_a);
  ArenaAllocator<int> alloc_a2(&arena_a);
  ArenaAllocator<int> alloc_b(&arena_b);
  EXPECT_TRUE(alloc_a == alloc_a2);
  EXPECT_TRUE(alloc_a != alloc_b);

  std::vector<int, ArenaAllocator<int>> v(alloc_a);
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  EXPECT_EQ(v[999], 999);
  EXPECT_GT(arena_a.allocation_count(), 0);
  EXPECT_EQ(arena_b.allocation_count(), 0);
}

TEST(ArenaAllocatorTest, PropagatesThroughContainerMoves) {
  Arena arena;
  ArenaAllocator<int> alloc(&arena);
  std::vector<int, ArenaAllocator<int>> v(alloc);
  v.assign(100, 7);

  // Move construction: the new container adopts the same arena.
  std::vector<int, ArenaAllocator<int>> moved(std::move(v));
  EXPECT_EQ(moved.get_allocator().arena(), &arena);
  EXPECT_EQ(moved.size(), 100u);
  EXPECT_EQ(moved[99], 7);

  // Move assignment across arenas: propagate_on_container_move_assignment
  // carries the source allocator over, so the target ends up on `arena`.
  Arena other_arena;
  ArenaAllocator<int> other_alloc(&other_arena);
  std::vector<int, ArenaAllocator<int>> target(other_alloc);
  target.assign(5, 1);
  const int64_t count_before = arena.allocation_count();
  target = std::move(moved);
  EXPECT_EQ(target.get_allocator().arena(), &arena);
  EXPECT_EQ(target.size(), 100u);
  EXPECT_EQ(target[0], 7);
  // The move stole storage — no fresh arena allocation happened.
  EXPECT_EQ(arena.allocation_count(), count_before);

  // Rebinding to another value type shares the same arena.
  ArenaAllocator<double> rebound(target.get_allocator());
  EXPECT_EQ(rebound.arena(), &arena);
}

TEST(EventRingTest, DrainsInPushOrder) {
  Arena arena;
  EventRing<int> ring(&arena, 8);
  for (int i = 0; i < 200; ++i) ring.Push(3, i);
  ring.Push(5, -1);
  EXPECT_EQ(ring.Size(3), 200u);
  EXPECT_FALSE(ring.Empty(3));
  EXPECT_TRUE(ring.Empty(0));

  std::vector<int> seen;
  ring.Drain(3, [&](int v) { seen.push_back(v); });
  ASSERT_EQ(seen.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(seen[static_cast<size_t>(i)], i);
  EXPECT_TRUE(ring.Empty(3));
  EXPECT_EQ(ring.Size(5), 1u);
}

TEST(EventRingTest, RecyclesChunksInSteadyState) {
  Arena arena;
  EventRing<int64_t> ring(&arena, 4);
  // Warm-up: establish the chunk population.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 500; ++i) ring.Push(round % 4, i);
    ring.Drain(round % 4, [](int64_t) {});
  }
  const int64_t chunks = ring.chunks_allocated();
  const int64_t arena_allocs = arena.allocation_count();
  // Steady state: same load, zero new chunks, zero arena growth.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 500; ++i) ring.Push(round % 4, i);
    ring.Drain(round % 4, [](int64_t) {});
  }
  EXPECT_EQ(ring.chunks_allocated(), chunks);
  EXPECT_EQ(arena.allocation_count(), arena_allocs);
}

TEST(EventRingTest, VisitorMayPushDuringDrain) {
  Arena arena;
  EventRing<int> ring(&arena, 4);
  for (int i = 0; i < 100; ++i) ring.Push(0, i);
  std::vector<int> seen;
  ring.Drain(0, [&](int v) {
    seen.push_back(v);
    ring.Push(1, v + 1000);  // cascade to a later bucket
    ring.Push(0, v + 2000);  // re-arm the bucket being drained
  });
  EXPECT_EQ(seen.size(), 100u);  // re-armed items are NOT visited this drain
  EXPECT_EQ(ring.Size(1), 100u);
  EXPECT_EQ(ring.Size(0), 100u);
  std::vector<int> rearmed;
  ring.Drain(0, [&](int v) { rearmed.push_back(v); });
  ASSERT_EQ(rearmed.size(), 100u);
  EXPECT_EQ(rearmed[0], 2000);
  EXPECT_EQ(rearmed[99], 2099);
}

}  // namespace
}  // namespace webmon
