// Aggregator semantics (shard/aggregator.h) on hand-built shard streams:
// AND capture across shards, the cancel-before-availability drain order,
// the per-chronon global budget audit, and the AND cross-check tying the
// capture mask to the shards' fragment lifecycles.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "shard/aggregator.h"
#include "shard/partitioner.h"

namespace webmon {
namespace {

ShardCeiSpec MakeCei(CeiId id, Chronon arrival,
                     std::vector<std::tuple<ResourceId, Chronon, Chronon>> eis,
                     uint32_t required = 0, double weight = 1.0) {
  ShardCeiSpec spec;
  spec.id = id;
  spec.arrival = arrival;
  spec.weight = weight;
  spec.required = required;
  spec.eis = std::move(eis);
  return spec;
}

// Builds one shard's stream with dense sequence numbers. Callers append
// records in nondecreasing chronon order.
class StreamBuilder {
 public:
  StreamBuilder(uint32_t shard_id, uint32_t num_shards,
                uint32_t num_resources, Chronon horizon) {
    stream_.shard_id = shard_id;
    stream_.num_shards = num_shards;
    stream_.num_resources = num_resources;
    stream_.horizon = horizon;
  }
  StreamBuilder& Probe(Chronon t, ResourceId r) {
    Next(t, ShardEventKind::kProbe).resource = r;
    return *this;
  }
  StreamBuilder& Push(Chronon t, ResourceId r) {
    Next(t, ShardEventKind::kPush).resource = r;
    return *this;
  }
  StreamBuilder& Capture(Chronon t, CeiId c) {
    Next(t, ShardEventKind::kCapture).cei = c;
    return *this;
  }
  StreamBuilder& Cancel(Chronon t, CeiId c) {
    Next(t, ShardEventKind::kCancel).cei = c;
    return *this;
  }
  StreamBuilder& Spend(Chronon t, int64_t attempts) {
    Next(t, ShardEventKind::kSpend).attempts = attempts;
    return *this;
  }
  ShardStream Build() const { return stream_; }

 private:
  ShardEvent& Next(Chronon t, ShardEventKind kind) {
    ShardEvent e;
    e.seq = stream_.events.size();
    e.chronon = t;
    e.kind = kind;
    stream_.events.push_back(e);
    return stream_.events.back();
  }
  ShardStream stream_;
};

PartitionPlan PlanFor(uint32_t num_resources, uint32_t num_shards,
                      const std::vector<ShardCeiSpec>& ceis) {
  auto plan = PartitionResources(num_resources, num_shards, ceis);
  EXPECT_TRUE(plan.ok()) << plan.status();
  return *plan;
}

TEST(AggregatorTest, SingleShardAndCapture) {
  const std::vector<ShardCeiSpec> ceis = {
      MakeCei(10, 0, {{0, 0, 5}, {1, 0, 5}})};
  const PartitionPlan plan = PlanFor(2, 1, ceis);
  const ShardStream stream = StreamBuilder(0, 1, 2, 10)
                                 .Probe(0, 0)
                                 .Spend(0, 1)
                                 .Probe(2, 1)
                                 .Capture(2, 10)
                                 .Spend(2, 1)
                                 .Build();
  auto result =
      AggregateShardStreams({stream}, ceis, plan, BudgetVector::Uniform(2));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->total_ceis, 1);
  EXPECT_EQ(result->ceis_captured, 1);
  EXPECT_EQ(result->cross_shard_ceis, 0);
  EXPECT_EQ(result->probes, 2);
  EXPECT_EQ(result->total_attempts, 2);
  EXPECT_EQ(result->max_chronon_spend, 1);
  EXPECT_DOUBLE_EQ(result->completeness, 1.0);
  ASSERT_EQ(result->captures.size(), 1u);
  EXPECT_EQ(result->captures[0], std::make_pair(Chronon{2}, CeiId{10}));
}

TEST(AggregatorTest, AndSemanticsSpanShards) {
  // One CEI over two resources forced onto two shards (2 resources, 2
  // shards: the component must split). Each shard captures its own
  // fragment; only the aggregator sees the whole CEI complete.
  const std::vector<ShardCeiSpec> ceis = {
      MakeCei(5, 0, {{0, 0, 8}, {1, 0, 8}})};
  const PartitionPlan plan = PlanFor(2, 2, ceis);
  ASSERT_EQ(plan.stats.cross_shard_ceis, 1);
  const uint32_t shard_of_r0 = plan.shard_of_resource[0];
  const uint32_t shard_of_r1 = plan.shard_of_resource[1];
  ASSERT_NE(shard_of_r0, shard_of_r1);
  const ShardStream a = StreamBuilder(shard_of_r0, 2, 2, 10)
                            .Probe(1, 0)
                            .Capture(1, 5)
                            .Spend(1, 1)
                            .Build();
  const ShardStream b = StreamBuilder(shard_of_r1, 2, 2, 10)
                            .Probe(4, 1)
                            .Capture(4, 5)
                            .Spend(4, 1)
                            .Build();
  // Streams in either order merge identically.
  auto ab =
      AggregateShardStreams({a, b}, ceis, plan, BudgetVector::Uniform(1));
  auto ba =
      AggregateShardStreams({b, a}, ceis, plan, BudgetVector::Uniform(1));
  ASSERT_TRUE(ab.ok()) << ab.status();
  ASSERT_TRUE(ba.ok()) << ba.status();
  EXPECT_EQ(SerializeAggregateResult(*ab), SerializeAggregateResult(*ba));
  EXPECT_EQ(ab->ceis_captured, 1);
  EXPECT_EQ(ab->cross_shard_ceis, 1);
  EXPECT_EQ(ab->cross_shard_captured, 1);
  // The CEI completes when the SECOND fragment's availability lands.
  ASSERT_EQ(ab->captures.size(), 1u);
  EXPECT_EQ(ab->captures[0].first, 4);
}

TEST(AggregatorTest, PartialCrossShardCaptureDoesNotComplete) {
  const std::vector<ShardCeiSpec> ceis = {
      MakeCei(5, 0, {{0, 0, 8}, {1, 0, 8}})};
  const PartitionPlan plan = PlanFor(2, 2, ceis);
  const uint32_t shard_of_r0 = plan.shard_of_resource[0];
  const uint32_t other = 1 - shard_of_r0;
  const ShardStream a = StreamBuilder(shard_of_r0, 2, 2, 10)
                            .Probe(1, 0)
                            .Capture(1, 5)
                            .Spend(1, 1)
                            .Build();
  const ShardStream b = StreamBuilder(other, 2, 2, 10).Build();
  auto result =
      AggregateShardStreams({a, b}, ceis, plan, BudgetVector::Uniform(1));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->ceis_captured, 0);
  EXPECT_EQ(result->cross_shard_captured, 0);
  EXPECT_TRUE(result->captures.empty());
}

TEST(AggregatorTest, CancelDrainsBeforeAvailabilityInTheSameChronon) {
  // The cancel record lands at the SAME chronon as the availability that
  // would have completed the CEI — and on a LATER shard in (shard, seq)
  // order. Phase 1 must still apply it first: a CEI cancelled at T cannot
  // complete at T.
  const std::vector<ShardCeiSpec> ceis = {MakeCei(7, 0, {{0, 0, 8}})};
  const PartitionPlan plan = PlanFor(1, 1, ceis);
  const ShardStream stream = StreamBuilder(0, 1, 1, 10)
                                 .Probe(3, 0)
                                 .Cancel(3, 7)
                                 .Spend(3, 1)
                                 .Build();
  auto result =
      AggregateShardStreams({stream}, ceis, plan, BudgetVector::Uniform(1));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->ceis_captured, 0);
  EXPECT_EQ(result->ceis_cancelled, 1);
  EXPECT_TRUE(result->captures.empty());
}

TEST(AggregatorTest, KOfNRequiresOnlyKCaptures) {
  const std::vector<ShardCeiSpec> ceis = {
      MakeCei(3, 0, {{0, 0, 8}, {1, 0, 8}, {2, 0, 8}}, /*required=*/2)};
  const PartitionPlan plan = PlanFor(3, 1, ceis);
  const ShardStream stream = StreamBuilder(0, 1, 3, 10)
                                 .Probe(1, 0)
                                 .Spend(1, 1)
                                 .Probe(2, 2)
                                 .Capture(2, 3)
                                 .Spend(2, 1)
                                 .Build();
  auto result =
      AggregateShardStreams({stream}, ceis, plan, BudgetVector::Uniform(1));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->ceis_captured, 1);
  ASSERT_EQ(result->captures.size(), 1u);
  EXPECT_EQ(result->captures[0].first, 2);
}

TEST(AggregatorTest, ArrivalGatesAvailability) {
  // Availability before the CEI's arrival chronon must not capture.
  const std::vector<ShardCeiSpec> ceis = {MakeCei(1, 5, {{0, 0, 8}})};
  const PartitionPlan plan = PlanFor(1, 1, ceis);
  const ShardStream early = StreamBuilder(0, 1, 1, 10)
                                .Probe(2, 0)
                                .Spend(2, 1)
                                .Build();
  auto result =
      AggregateShardStreams({early}, ceis, plan, BudgetVector::Uniform(1));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->ceis_captured, 0);
}

TEST(AggregatorTest, BudgetAuditRejectsFleetOverspend) {
  // Two shards each spend 2 attempts at chronon 0; the global budget is 3.
  const std::vector<ShardCeiSpec> ceis = {
      MakeCei(5, 0, {{0, 0, 8}, {1, 0, 8}})};
  const PartitionPlan plan = PlanFor(2, 2, ceis);
  const ShardStream a =
      StreamBuilder(0, 2, 2, 10).Spend(0, 2).Build();
  const ShardStream b =
      StreamBuilder(1, 2, 2, 10).Spend(0, 2).Build();
  auto result =
      AggregateShardStreams({a, b}, ceis, plan, BudgetVector::Uniform(3));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  // At budget 4 the same streams pass.
  auto ok = AggregateShardStreams({a, b}, ceis, plan, BudgetVector::Uniform(4));
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->max_chronon_spend, 4);
}

TEST(AggregatorTest, SpendOverflowIsRejectedNotWrapped) {
  // Each stream passes AuditShardStream on its own (one positive spend per
  // chronon), but their sum does not fit in int64_t. Wrapped, it would be
  // negative and pass the global-budget audit.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::vector<ShardCeiSpec> ceis = {
      MakeCei(5, 0, {{0, 0, 8}, {1, 0, 8}})};
  const PartitionPlan plan = PlanFor(2, 2, ceis);
  const ShardStream a = StreamBuilder(0, 2, 2, 10).Spend(0, kMax).Build();
  const ShardStream b = StreamBuilder(1, 2, 2, 10).Spend(0, kMax).Build();
  auto same_chronon =
      AggregateShardStreams({a, b}, ceis, plan, BudgetVector::Uniform(4));
  ASSERT_FALSE(same_chronon.ok());
  EXPECT_EQ(same_chronon.status().code(), StatusCode::kFailedPrecondition);

  // Within budget at every chronon, but the run total overflows.
  const std::vector<ShardCeiSpec> one = {MakeCei(5, 0, {{0, 0, 8}})};
  const PartitionPlan single = PlanFor(1, 1, one);
  const ShardStream twice =
      StreamBuilder(0, 1, 1, 10).Spend(0, kMax).Spend(1, kMax).Build();
  auto total =
      AggregateShardStreams({twice}, one, single, BudgetVector::Uniform(kMax));
  ASSERT_FALSE(total.ok());
  EXPECT_EQ(total.status().code(), StatusCode::kFailedPrecondition);
}

TEST(AggregatorTest, AndCrossCheckCatchesMissingFragmentCapture) {
  // The probe completes the mask, but the shard never claimed its fragment
  // captured — an inconsistent stream the cross-check must reject.
  const std::vector<ShardCeiSpec> ceis = {MakeCei(9, 0, {{0, 0, 8}})};
  const PartitionPlan plan = PlanFor(1, 1, ceis);
  const ShardStream inconsistent = StreamBuilder(0, 1, 1, 10)
                                       .Probe(1, 0)
                                       .Spend(1, 1)
                                       .Build();
  auto result = AggregateShardStreams({inconsistent}, ceis, plan,
                                      BudgetVector::Uniform(1));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST(AggregatorTest, RejectsMalformedInputs) {
  const std::vector<ShardCeiSpec> ceis = {MakeCei(1, 0, {{0, 0, 8}})};
  const PartitionPlan plan = PlanFor(2, 2, ceis);
  const ShardStream s0 = StreamBuilder(0, 2, 2, 10).Build();
  const ShardStream s1 = StreamBuilder(1, 2, 2, 10).Build();
  // Wrong stream count.
  EXPECT_FALSE(
      AggregateShardStreams({s0}, ceis, plan, BudgetVector::Uniform(1)).ok());
  // Two streams claiming the same shard.
  EXPECT_FALSE(
      AggregateShardStreams({s0, s0}, ceis, plan, BudgetVector::Uniform(1))
          .ok());
  // Unknown CEI in a lifecycle record.
  const ShardStream bad_cancel =
      StreamBuilder(0, 2, 2, 10).Cancel(0, 999).Build();
  EXPECT_FALSE(AggregateShardStreams({bad_cancel, s1}, ceis, plan,
                                     BudgetVector::Uniform(1))
                   .ok());
}

TEST(AggregatorTest, RejectsNonFiniteOrNonPositiveWeights) {
  const ShardStream stream = StreamBuilder(0, 1, 2, 10).Build();
  for (const double weight : {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(), 0.0,
                              -2.0}) {
    const std::vector<ShardCeiSpec> ceis = {
        MakeCei(1, 0, {{0, 0, 8}}), MakeCei(2, 0, {{1, 0, 8}}, 0, weight)};
    const PartitionPlan plan = PlanFor(2, 1, ceis);
    auto result =
        AggregateShardStreams({stream}, ceis, plan, BudgetVector::Uniform(1));
    ASSERT_FALSE(result.ok()) << weight;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << weight;
  }
}

TEST(AggregatorTest, SerializationIsDeterministic) {
  const std::vector<ShardCeiSpec> ceis = {
      MakeCei(10, 0, {{0, 0, 5}}), MakeCei(11, 0, {{1, 0, 5}}, 0, 2.5)};
  const PartitionPlan plan = PlanFor(2, 1, ceis);
  const ShardStream stream = StreamBuilder(0, 1, 2, 10)
                                 .Probe(0, 0)
                                 .Capture(0, 10)
                                 .Spend(0, 1)
                                 .Build();
  auto a =
      AggregateShardStreams({stream}, ceis, plan, BudgetVector::Uniform(1));
  auto b =
      AggregateShardStreams({stream}, ceis, plan, BudgetVector::Uniform(1));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(SerializeAggregateResult(*a), SerializeAggregateResult(*b));
  // Weighted completeness reflects the weights: 1.0 of 3.5 captured.
  EXPECT_DOUBLE_EQ(a->completeness, 0.5);
  EXPECT_DOUBLE_EQ(a->weighted_completeness, 1.0 / 3.5);
}

}  // namespace
}  // namespace webmon
