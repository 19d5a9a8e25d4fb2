// Replay identity of the sharded tier (shard/sharded_run.h): the merged
// run is a pure function of (config, workload) — byte-identical whether
// the shards execute serially or on parallel lanes, at every shard count
// and every policy — plus the budget-split invariant (per chronon the
// shard slices sum exactly to the global budget).

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "online/arrival_log.h"
#include "policy/policy_factory.h"
#include "shard/event_stream.h"
#include "shard/sharded_run.h"
#include "util/rng.h"

namespace webmon {
namespace {

// A workload exercising every stream record kind: windowed arrivals, a
// push stream, and mid-epoch cancels of a sample of earlier arrivals.
ShardedWorkload MakeWorkload(uint32_t num_resources, Chronon horizon,
                             int arrivals_per_chronon, uint64_t seed) {
  Rng rng(seed);
  ShardedWorkload workload;
  CeiId next_id = 0;
  for (Chronon t = 0; t < horizon; ++t) {
    for (int a = 0; a < arrivals_per_chronon; ++a) {
      ShardCeiSpec spec;
      spec.id = next_id++;
      spec.arrival = t;
      spec.weight = 1.0 + 0.5 * static_cast<double>(spec.id % 3);
      const int rank = 1 + static_cast<int>(rng.UniformU64(3));
      spec.required =
          rank > 1 && rng.UniformDouble() < 0.2 ? 1 : 0;  // some k-of-n
      const Chronon finish = std::min<Chronon>(t + 11, horizon - 1);
      for (int e = 0; e < rank; ++e) {
        const bool hot = rng.UniformDouble() < 0.15;
        const auto r = static_cast<ResourceId>(
            hot ? rng.UniformU64(4) : rng.UniformU64(num_resources));
        spec.eis.emplace_back(r, t, finish);
      }
      workload.ceis.push_back(std::move(spec));
    }
    if (t % 3 == 0) {
      workload.pushes.emplace_back(
          t, static_cast<ResourceId>(rng.UniformU64(num_resources)));
    }
    if (t > 5 && t % 4 == 0) {
      // Cancel a recent arrival (possibly already terminal — the runtime
      // must tolerate both).
      const CeiId victim = next_id - 1 - rng.UniformU64(
                               std::min<uint64_t>(next_id, 12));
      workload.cancels.emplace_back(t, victim);
    }
  }
  return workload;
}

std::string Fingerprint(const ShardedRunResult& result) {
  std::string out = SerializeAggregateResult(result.aggregate);
  for (const ShardStream& stream : result.streams) {
    out += SerializeShardStream(stream);
  }
  for (const ArrivalLog& log : result.arrival_logs) {
    out += SerializeArrivalLog(log);
  }
  return out;
}

ShardedRunConfig BaseConfig(uint32_t num_resources, Chronon horizon) {
  ShardedRunConfig config;
  config.num_resources = num_resources;
  config.num_shards = 1;
  config.horizon = horizon;
  config.global_budget = BudgetVector::Uniform(8);
  return config;
}

TEST(ShardedRunTest, ReplayIdentityAcrossShardCountsAndPolicies) {
  constexpr uint32_t kResources = 120;
  constexpr Chronon kHorizon = 48;
  const ShardedWorkload workload =
      MakeWorkload(kResources, kHorizon, /*arrivals_per_chronon=*/4,
                   /*seed=*/77);
  for (const std::string& policy : KnownPolicyNames()) {
    for (const uint32_t shards : {1u, 2u, 4u, 8u}) {
      ShardedRunConfig config = BaseConfig(kResources, kHorizon);
      config.num_shards = shards;
      config.policy = policy;
      config.parallel_shards = false;
      auto serial = RunSharded(config, workload);
      ASSERT_TRUE(serial.ok())
          << policy << " @" << shards << ": " << serial.status();
      config.parallel_shards = true;
      auto parallel = RunSharded(config, workload);
      ASSERT_TRUE(parallel.ok())
          << policy << " @" << shards << ": " << parallel.status();
      EXPECT_EQ(Fingerprint(*serial), Fingerprint(*parallel))
          << policy << " @" << shards
          << ": parallel shard execution diverged from serial";
      // The audited invariant: no chronon's fleet spend exceeds the
      // global budget (the aggregator would have failed the run).
      EXPECT_LE(serial->aggregate.max_chronon_spend, 8);
      // Every CEI is accounted for at every shard count.
      EXPECT_EQ(serial->aggregate.total_ceis,
                static_cast<int64_t>(workload.ceis.size()));
    }
  }
}

// The per-shard log contract (sharded_run.h): replaying shard s's arrival
// log on a lone proxy over s's owned resources, under s's budget slice and
// a fresh policy, reissues exactly the probes s's stream records, chronon
// by chronon and in issue order, once local ids map back to global ones.
TEST(ShardedRunTest, EachShardArrivalLogReplaysToItsStreamProbes) {
  constexpr uint32_t kResources = 120;
  constexpr Chronon kHorizon = 48;
  const ShardedWorkload workload =
      MakeWorkload(kResources, kHorizon, /*arrivals_per_chronon=*/4,
                   /*seed=*/77);
  for (const std::string& policy : KnownPolicyNames()) {
    for (const uint32_t shards : {1u, 2u, 4u}) {
      ShardedRunConfig config = BaseConfig(kResources, kHorizon);
      config.num_shards = shards;
      config.policy = policy;
      auto run = RunSharded(config, workload);
      ASSERT_TRUE(run.ok()) << policy << " @" << shards << ": "
                            << run.status();
      auto plan = PartitionResources(kResources, shards, workload.ceis);
      ASSERT_TRUE(plan.ok()) << plan.status();
      auto budgets = SplitShardBudgets(config.global_budget, *plan, kHorizon);
      ASSERT_TRUE(budgets.ok()) << budgets.status();
      ASSERT_EQ(run->arrival_logs.size(), shards);
      ASSERT_EQ(run->streams.size(), shards);
      for (uint32_t s = 0; s < shards; ++s) {
        const std::vector<ResourceId>& owned = plan->resources_of_shard[s];
        auto shard_policy = MakePolicy(config.policy, config.policy_seed);
        ASSERT_TRUE(shard_policy.ok());
        auto replay = ReplayArrivalLog(
            run->arrival_logs[s], static_cast<uint32_t>(owned.size()),
            kHorizon, (*budgets)[s], std::move(*shard_policy),
            config.scheduler_options);
        ASSERT_TRUE(replay.ok())
            << policy << " @" << shards << " shard " << s << ": "
            << replay.status();
        std::vector<std::pair<Chronon, ResourceId>> replayed;
        for (Chronon t = 0; t < kHorizon; ++t) {
          for (const ResourceId local : replay->schedule.ProbesAt(t)) {
            replayed.emplace_back(t, owned[local]);
          }
        }
        std::vector<std::pair<Chronon, ResourceId>> streamed;
        for (const ShardEvent& event : run->streams[s].events) {
          if (event.kind == ShardEventKind::kProbe) {
            streamed.emplace_back(event.chronon, event.resource);
          }
        }
        EXPECT_FALSE(streamed.empty()) << policy << " @" << shards
                                       << " shard " << s;
        EXPECT_EQ(replayed, streamed)
            << policy << " @" << shards << " shard " << s
            << ": the replayed log probes differently from the stream";
      }
    }
  }
}

TEST(ShardedRunTest, ShardCountLeavesSingleShardSemanticsIntact) {
  // The 1-shard sharded run is the plain scheduler in a wrapper: every
  // CEI lands on shard 0 and nothing is cross-shard.
  const ShardedWorkload workload = MakeWorkload(80, 32, 3, /*seed=*/5);
  ShardedRunConfig config = BaseConfig(80, 32);
  auto run = RunSharded(config, workload);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->aggregate.cross_shard_ceis, 0);
  EXPECT_EQ(run->streams.size(), 1u);
  EXPECT_EQ(run->fragments_submitted,
            static_cast<int64_t>(workload.ceis.size()));
}

TEST(ShardedRunTest, UniformBudgetSplitsSumToGlobalEveryChronon) {
  const ShardedWorkload workload = MakeWorkload(90, 24, 3, /*seed=*/13);
  auto plan = PartitionResources(90, 4, workload.ceis);
  ASSERT_TRUE(plan.ok()) << plan.status();
  for (const int64_t global : {1, 5, 7, 64}) {
    auto split =
        SplitShardBudgets(BudgetVector::Uniform(global), *plan, /*horizon=*/24);
    ASSERT_TRUE(split.ok()) << split.status();
    ASSERT_EQ(split->size(), 4u);
    for (Chronon t = 0; t < 24; ++t) {
      int64_t sum = 0;
      for (const BudgetVector& b : *split) sum += b.At(t);
      EXPECT_EQ(sum, global) << "chronon " << t;
    }
  }
}

TEST(ShardedRunTest, PerChrononBudgetSplitsSumToGlobalEveryChronon) {
  const ShardedWorkload workload = MakeWorkload(90, 16, 3, /*seed=*/17);
  auto plan = PartitionResources(90, 3, workload.ceis);
  ASSERT_TRUE(plan.ok()) << plan.status();
  std::vector<int64_t> per_chronon;
  for (Chronon t = 0; t < 16; ++t) per_chronon.push_back(1 + (t * 5) % 11);
  const BudgetVector global = BudgetVector::PerChronon(per_chronon);
  auto split = SplitShardBudgets(global, *plan, /*horizon=*/16);
  ASSERT_TRUE(split.ok()) << split.status();
  for (Chronon t = 0; t < 16; ++t) {
    int64_t sum = 0;
    for (const BudgetVector& b : *split) sum += b.At(t);
    EXPECT_EQ(sum, global.At(t)) << "chronon " << t;
  }
}

TEST(ShardedRunTest, RejectsInvalidConfigs) {
  const ShardedWorkload workload = MakeWorkload(50, 16, 2, /*seed=*/3);
  {
    ShardedRunConfig config = BaseConfig(50, 16);
    config.num_shards = 0;
    EXPECT_FALSE(RunSharded(config, workload).ok());
  }
  {
    ShardedRunConfig config = BaseConfig(50, 16);
    config.policy = "no-such-policy";
    EXPECT_FALSE(RunSharded(config, workload).ok());
  }
  {
    ShardedRunConfig config = BaseConfig(50, 0);
    EXPECT_FALSE(RunSharded(config, workload).ok());
  }
}

TEST(ShardedRunTest, UnsortedWorkloadIsRejected) {
  ShardedWorkload workload = MakeWorkload(50, 16, 2, /*seed=*/3);
  std::swap(workload.ceis.front().arrival, workload.ceis.back().arrival);
  ShardedRunConfig config = BaseConfig(50, 16);
  EXPECT_FALSE(RunSharded(config, workload).ok());
}

}  // namespace
}  // namespace webmon
