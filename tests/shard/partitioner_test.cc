// Property tests for the deterministic profile partitioner
// (shard/partitioner.h): every resource assigned exactly once, the
// cross-shard CEI count matching a naive per-CEI reference, and plan
// stability under re-partition of an identical spec.

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "shard/partitioner.h"
#include "util/rng.h"

namespace webmon {
namespace {

// Random workload generator shared by the properties: mostly-uniform
// resource draws plus a hot set that welds CEIs into one big component.
std::vector<ShardCeiSpec> RandomSpecs(uint32_t num_resources, int num_ceis,
                                      int max_rank, double hot_prob,
                                      uint64_t seed) {
  Rng rng(seed);
  std::vector<ShardCeiSpec> specs;
  specs.reserve(static_cast<size_t>(num_ceis));
  for (int c = 0; c < num_ceis; ++c) {
    ShardCeiSpec spec;
    spec.id = static_cast<CeiId>(c);
    spec.arrival = static_cast<Chronon>(rng.UniformU64(100));
    const int rank = 1 + static_cast<int>(
                             rng.UniformU64(static_cast<uint64_t>(max_rank)));
    for (int e = 0; e < rank; ++e) {
      const bool hot = rng.UniformDouble() < hot_prob;
      const auto r = static_cast<ResourceId>(
          hot ? rng.UniformU64(std::min<uint32_t>(num_resources, 8))
              : rng.UniformU64(num_resources));
      spec.eis.emplace_back(r, spec.arrival, spec.arrival + 5);
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

// The naive reference: a CEI is cross-shard iff its EIs' owning shards are
// not all equal.
int64_t NaiveCrossShardCount(const PartitionPlan& plan,
                             const std::vector<ShardCeiSpec>& specs) {
  int64_t cross = 0;
  for (const ShardCeiSpec& spec : specs) {
    std::set<uint32_t> shards;
    for (const auto& [r, s, f] : spec.eis) {
      shards.insert(plan.shard_of_resource[r]);
    }
    if (shards.size() > 1) ++cross;
  }
  return cross;
}

void CheckPartitionInvariants(const PartitionPlan& plan,
                              uint32_t num_resources, uint32_t num_shards) {
  ASSERT_EQ(plan.num_resources, num_resources);
  ASSERT_EQ(plan.num_shards, num_shards);
  ASSERT_EQ(plan.shard_of_resource.size(), num_resources);
  ASSERT_EQ(plan.local_id.size(), num_resources);
  ASSERT_EQ(plan.resources_of_shard.size(), num_shards);

  // Every resource assigned exactly once: the per-shard lists partition
  // [0, n), and shard_of_resource / local_id invert them.
  std::vector<int> seen(num_resources, 0);
  for (uint32_t s = 0; s < num_shards; ++s) {
    const std::vector<ResourceId>& owned = plan.resources_of_shard[s];
    EXPECT_TRUE(std::is_sorted(owned.begin(), owned.end()));
    for (uint32_t l = 0; l < owned.size(); ++l) {
      const ResourceId r = owned[l];
      ASSERT_LT(r, num_resources);
      ++seen[r];
      EXPECT_EQ(plan.shard_of_resource[r], s);
      EXPECT_EQ(plan.local_id[r], l);
    }
  }
  for (uint32_t r = 0; r < num_resources; ++r) {
    EXPECT_EQ(seen[r], 1) << "resource " << r << " assigned " << seen[r]
                          << " times";
  }
}

TEST(PartitionerTest, EveryResourceAssignedExactlyOnce) {
  for (const uint32_t shards : {1u, 2u, 4u, 8u}) {
    const auto specs = RandomSpecs(500, 300, 3, 0.1, /*seed=*/7 + shards);
    auto plan = PartitionResources(500, shards, specs);
    ASSERT_TRUE(plan.ok()) << plan.status();
    CheckPartitionInvariants(*plan, 500, shards);
  }
}

TEST(PartitionerTest, AssignsIdleResourcesToo) {
  // No CEI mentions any resource: the round-robin fallback must still
  // produce a complete partition.
  auto plan = PartitionResources(97, 4, {});
  ASSERT_TRUE(plan.ok()) << plan.status();
  CheckPartitionInvariants(*plan, 97, 4);
  EXPECT_EQ(plan->stats.cross_shard_ceis, 0);
}

TEST(PartitionerTest, CrossShardCountMatchesNaiveReference) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    for (const uint32_t shards : {2u, 4u, 8u}) {
      const auto specs = RandomSpecs(400, 500, 4, 0.15, seed);
      auto plan = PartitionResources(400, shards, specs);
      ASSERT_TRUE(plan.ok()) << plan.status();
      EXPECT_EQ(plan->stats.cross_shard_ceis,
                NaiveCrossShardCount(*plan, specs));
      // ShardsTouched agrees with the same reference per CEI.
      for (const ShardCeiSpec& spec : specs) {
        std::set<uint32_t> shards_of;
        for (const auto& [r, s, f] : spec.eis) {
          shards_of.insert(plan->shard_of_resource[r]);
        }
        EXPECT_EQ(plan->ShardsTouched(spec), shards_of.size());
      }
    }
  }
}

TEST(PartitionerTest, SingleShardHasNoCrossShardCeis) {
  const auto specs = RandomSpecs(200, 300, 4, 0.2, /*seed=*/11);
  auto plan = PartitionResources(200, 1, specs);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->stats.cross_shard_ceis, 0);
}

TEST(PartitionerTest, StableUnderRepartition) {
  const auto specs = RandomSpecs(300, 400, 3, 0.1, /*seed=*/23);
  for (const uint32_t shards : {2u, 4u, 8u}) {
    auto a = PartitionResources(300, shards, specs);
    auto b = PartitionResources(300, shards, specs);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    EXPECT_EQ(a->shard_of_resource, b->shard_of_resource);
    EXPECT_EQ(a->local_id, b->local_id);
    EXPECT_EQ(a->resources_of_shard, b->resources_of_shard);
    EXPECT_EQ(a->stats.cross_shard_ceis, b->stats.cross_shard_ceis);
    EXPECT_EQ(a->stats.eis_per_shard, b->stats.eis_per_shard);
  }
}

TEST(PartitionerTest, CoLocatesSmallComponents) {
  // Disjoint 2-resource CEIs: each pair is its own component, so no CEI
  // should ever be split.
  std::vector<ShardCeiSpec> specs;
  for (uint32_t c = 0; c < 50; ++c) {
    ShardCeiSpec spec;
    spec.id = c;
    spec.eis.emplace_back(static_cast<ResourceId>(2 * c), 0, 5);
    spec.eis.emplace_back(static_cast<ResourceId>(2 * c + 1), 0, 5);
    specs.push_back(std::move(spec));
  }
  auto plan = PartitionResources(100, 4, specs);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->stats.cross_shard_ceis, 0);
  // Load stays balanced: every shard owns some resources.
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_GT(plan->stats.resources_per_shard[s], 0);
  }
}

// ShardsTouched is exact for a CEI wider than any fixed dedup buffer: 301
// EIs over 300 single-resource shards, the last EI revisiting a shard first
// seen after the 256th.
TEST(PartitionerTest, ShardsTouchedIsExactForWideCeis) {
  constexpr uint32_t kShards = 300;
  ShardCeiSpec wide;
  for (ResourceId r = 0; r < kShards; ++r) wide.eis.emplace_back(r, 0, 5);
  wide.eis.emplace_back(kShards - 1, 0, 5);
  auto plan = PartitionResources(kShards, kShards, {wide});
  ASSERT_TRUE(plan.ok()) << plan.status();
  CheckPartitionInvariants(*plan, kShards, kShards);
  EXPECT_EQ(plan->ShardsTouched(wide), kShards);
  EXPECT_EQ(plan->stats.cross_shard_ceis, 1);
  // Narrow CEIs on the same plan take the inline path.
  ShardCeiSpec narrow;
  narrow.eis = {{0, 0, 5}, {1, 0, 5}, {0, 1, 6}};
  EXPECT_EQ(plan->ShardsTouched(narrow), 2u);
  EXPECT_EQ(plan->ShardsTouched(ShardCeiSpec{}), 0u);
}

TEST(PartitionerTest, RejectsInvalidShardCounts) {
  EXPECT_FALSE(PartitionResources(10, 0, {}).ok());
  EXPECT_FALSE(PartitionResources(10, 11, {}).ok());
  EXPECT_TRUE(PartitionResources(10, 10, {}).ok());
}

}  // namespace
}  // namespace webmon
