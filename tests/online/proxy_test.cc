#include "online/proxy.h"

#include <limits>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "policy/policy_factory.h"

namespace webmon {
namespace {

std::unique_ptr<Policy> Mrsf() {
  auto policy = MakePolicy("mrsf");
  EXPECT_TRUE(policy.ok());
  return std::move(*policy);
}

TEST(ProxyTest, SubmitAndCapture) {
  Proxy proxy(2, 10, BudgetVector::Uniform(1), Mrsf());
  auto id = proxy.Submit({{0, 0, 3}, {1, 2, 6}});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 0u);
  while (!proxy.Done()) {
    ASSERT_TRUE(proxy.Tick().ok());
  }
  EXPECT_EQ(proxy.stats().ceis_captured, 1);
  EXPECT_DOUBLE_EQ(proxy.CompletenessSoFar(), 1.0);
}

TEST(ProxyTest, TickReturnsProbedResources) {
  Proxy proxy(2, 5, BudgetVector::Uniform(2), Mrsf());
  ASSERT_TRUE(proxy.Submit({{0, 0, 0}}).ok());
  ASSERT_TRUE(proxy.Submit({{1, 0, 0}}).ok());
  auto probed = proxy.Tick();
  ASSERT_TRUE(probed.ok());
  EXPECT_EQ(probed->size(), 2u);
}

TEST(ProxyTest, SubmitMidEpoch) {
  Proxy proxy(1, 10, BudgetVector::Uniform(1), Mrsf());
  ASSERT_TRUE(proxy.Tick().ok());
  ASSERT_TRUE(proxy.Tick().ok());
  EXPECT_EQ(proxy.now(), 2);
  ASSERT_TRUE(proxy.Submit({{0, 2, 5}}).ok());
  while (!proxy.Done()) {
    ASSERT_TRUE(proxy.Tick().ok());
  }
  EXPECT_EQ(proxy.stats().ceis_captured, 1);
}

TEST(ProxyTest, PastWindowsAreClamped) {
  Proxy proxy(1, 10, BudgetVector::Uniform(1), Mrsf());
  ASSERT_TRUE(proxy.Tick().ok());
  ASSERT_TRUE(proxy.Tick().ok());
  ASSERT_TRUE(proxy.Tick().ok());  // now = 3
  // Window [0, 8] is clamped to [3, 8]; still capturable.
  ASSERT_TRUE(proxy.Submit({{0, 0, 8}}).ok());
  while (!proxy.Done()) {
    ASSERT_TRUE(proxy.Tick().ok());
  }
  EXPECT_EQ(proxy.stats().ceis_captured, 1);
}

TEST(ProxyTest, FullyPastNeedDies) {
  Proxy proxy(1, 10, BudgetVector::Uniform(1), Mrsf());
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(proxy.Tick().ok());
  int expired = 0;
  proxy.set_on_cei_expired([&](CeiId) { ++expired; });
  // Window [0, 2] lies entirely in the past: start is clamped to 5 > 2,
  // which Submit rejects as an invalid need.
  auto id = proxy.Submit({{0, 0, 2}});
  EXPECT_FALSE(id.ok());
}

TEST(ProxyTest, EmptySubmitRejected) {
  Proxy proxy(1, 10, BudgetVector::Uniform(1), Mrsf());
  EXPECT_EQ(proxy.Submit({}).status().code(), StatusCode::kInvalidArgument);
}

TEST(ProxyTest, RejectsAfterHorizon) {
  Proxy proxy(1, 2, BudgetVector::Uniform(1), Mrsf());
  ASSERT_TRUE(proxy.Tick().ok());
  ASSERT_TRUE(proxy.Tick().ok());
  EXPECT_TRUE(proxy.Done());
  EXPECT_EQ(proxy.Tick().status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(proxy.Submit({{0, 0, 1}}).status().code(),
            StatusCode::kOutOfRange);
}

TEST(ProxyTest, CapturedCallbackReportsId) {
  Proxy proxy(1, 5, BudgetVector::Uniform(1), Mrsf());
  std::vector<CeiId> captured;
  proxy.set_on_cei_captured([&](CeiId id) { captured.push_back(id); });
  auto id = proxy.Submit({{0, 0, 2}});
  ASSERT_TRUE(id.ok());
  while (!proxy.Done()) ASSERT_TRUE(proxy.Tick().ok());
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0], *id);
}

// --- Submit validation (negative paths) ------------------------------------

TEST(ProxyValidationTest, ReversedWindowRejected) {
  Proxy proxy(2, 10, BudgetVector::Uniform(1), Mrsf());
  // Raw start > finish is caller error, rejected before any clamping.
  EXPECT_EQ(proxy.Submit({{0, 7, 3}}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ProxyValidationTest, UnknownResourceRejected) {
  Proxy proxy(2, 10, BudgetVector::Uniform(1), Mrsf());
  EXPECT_EQ(proxy.Submit({{2, 0, 5}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(proxy.Submit({{0, 0, 5}, {99, 0, 5}}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ProxyValidationTest, RequiredLargerThanRankRejected) {
  Proxy proxy(2, 10, BudgetVector::Uniform(1), Mrsf());
  EXPECT_EQ(proxy.Submit({{0, 0, 5}, {1, 0, 5}}, 1.0, 3).status().code(),
            StatusCode::kInvalidArgument);
  // required == |eis| is the AND boundary and stays valid.
  EXPECT_TRUE(proxy.Submit({{0, 0, 5}, {1, 0, 5}}, 1.0, 2).ok());
}

TEST(ProxyValidationTest, NonPositiveWeightRejected) {
  Proxy proxy(1, 10, BudgetVector::Uniform(1), Mrsf());
  EXPECT_EQ(proxy.Submit({{0, 0, 5}}, 0.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(proxy.Submit({{0, 0, 5}}, -2.5).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ProxyValidationTest, NonFiniteWeightRejected) {
  Proxy proxy(1, 10, BudgetVector::Uniform(1), Mrsf());
  for (const double weight : {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(proxy.Submit({{0, 0, 5}}, weight).status().code(),
              StatusCode::kInvalidArgument)
        << weight;
  }
  EXPECT_TRUE(proxy.Submit({{0, 0, 5}}, 1e308).ok());
  while (!proxy.Done()) ASSERT_TRUE(proxy.Tick().ok());
  EXPECT_EQ(proxy.ingestion_stats().submits_rejected, 3);
  EXPECT_EQ(proxy.arrival_log().size(), 1u);
}

TEST(ProxyValidationTest, WindowBeyondHorizonRejected) {
  Proxy proxy(1, 10, BudgetVector::Uniform(1), Mrsf());
  // Start past the last chronon: the clamped window is empty.
  EXPECT_EQ(proxy.Submit({{0, 10, 20}}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ProxyValidationTest, RejectionsConsumeNoIdsAndAreNotLogged) {
  Proxy proxy(2, 10, BudgetVector::Uniform(1), Mrsf());
  EXPECT_FALSE(proxy.Submit({}).ok());
  EXPECT_FALSE(proxy.Submit({{0, 7, 3}}).ok());
  EXPECT_FALSE(proxy.Submit({{5, 0, 5}}).ok());
  auto id = proxy.Submit({{0, 0, 5}});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 0u) << "rejected submissions must not burn CEI ids";
  while (!proxy.Done()) ASSERT_TRUE(proxy.Tick().ok());
  EXPECT_EQ(proxy.ingestion_stats().submits_rejected, 3);
  EXPECT_EQ(proxy.ingestion_stats().submits_accepted, 1);
  ASSERT_EQ(proxy.arrival_log().size(), 1u);
  EXPECT_EQ(proxy.arrival_log()[0].assigned_id, 0u);
}

TEST(ProxyValidationTest, PushValidation) {
  Proxy proxy(2, 3, BudgetVector::Uniform(1), Mrsf());
  EXPECT_EQ(proxy.Push(2).code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(proxy.Push(1).ok());
  while (!proxy.Done()) ASSERT_TRUE(proxy.Tick().ok());
  EXPECT_EQ(proxy.Push(0).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(proxy.ingestion_stats().pushes_accepted, 1);
  EXPECT_EQ(proxy.ingestion_stats().pushes_rejected, 2);
}

// --- Arrival log & ingestion stats -----------------------------------------

TEST(ProxyTest, ArrivalLogRecordsEffectiveChronons) {
  Proxy proxy(2, 10, BudgetVector::Uniform(1), Mrsf());
  ASSERT_TRUE(proxy.Submit({{0, 0, 9}}).ok());
  ASSERT_TRUE(proxy.Tick().ok());
  ASSERT_TRUE(proxy.Tick().ok());
  ASSERT_TRUE(proxy.Push(1).ok());
  ASSERT_TRUE(proxy.Submit({{1, 2, 9}}).ok());
  while (!proxy.Done()) ASSERT_TRUE(proxy.Tick().ok());

  const ArrivalLog& log = proxy.arrival_log();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].effective, 0);
  EXPECT_EQ(log[0].kind, ArrivalKind::kSubmit);
  EXPECT_EQ(log[1].effective, 2);
  EXPECT_EQ(log[1].kind, ArrivalKind::kPush);
  EXPECT_EQ(log[1].resource, 1u);
  EXPECT_EQ(log[2].effective, 2);
  EXPECT_EQ(log[2].seq, 2u);
  // The raw payload is logged pre-clamp.
  EXPECT_EQ(log[2].eis,
            (std::vector<std::tuple<ResourceId, Chronon, Chronon>>{
                {1, 2, 9}}));
  EXPECT_EQ(proxy.ingestion_stats().drain_batches, 2);
  EXPECT_EQ(proxy.ingestion_stats().max_batch, 2);
  EXPECT_EQ(proxy.stats().drain_batches, 2);
  EXPECT_EQ(proxy.stats().drained_arrivals, 2);
}

TEST(ProxyTest, TakeArrivalLogReleasesOnlyTheFinishedLog) {
  Proxy proxy(2, 4, BudgetVector::Uniform(1), Mrsf());
  ASSERT_TRUE(proxy.Submit({{0, 0, 3}}).ok());
  ASSERT_TRUE(proxy.Tick().ok());
  EXPECT_EQ(proxy.TakeArrivalLog().status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(proxy.Push(1).ok());
  while (!proxy.Done()) ASSERT_TRUE(proxy.Tick().ok());
  const ArrivalLog recorded = proxy.arrival_log();
  auto taken = proxy.TakeArrivalLog();
  ASSERT_TRUE(taken.ok()) << taken.status();
  EXPECT_EQ(*taken, recorded);
  EXPECT_EQ(taken->size(), 2u);
  EXPECT_TRUE(proxy.arrival_log().empty());
}

// --- Callback ordering & reentrancy ----------------------------------------

TEST(ProxyCallbackTest, CapturesFireInActivationOrder) {
  Proxy proxy(1, 5, BudgetVector::Uniform(1), Mrsf());
  std::vector<CeiId> captured;
  proxy.set_on_cei_captured([&](CeiId id) { captured.push_back(id); });
  auto a = proxy.Submit({{0, 0, 4}});
  auto b = proxy.Submit({{0, 0, 4}});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // One probe of resource 0 captures both needs; the callbacks fire in
  // submission (= activation) order within the chronon.
  ASSERT_TRUE(proxy.Tick().ok());
  ASSERT_EQ(captured, (std::vector<CeiId>{*a, *b}));
}

TEST(ProxyCallbackTest, CallbackMaySubmitWithoutDeadlock) {
  Proxy proxy(1, 10, BudgetVector::Uniform(1), Mrsf());
  std::vector<CeiId> captured;
  proxy.set_on_cei_captured([&](CeiId id) {
    captured.push_back(id);
    if (captured.size() == 1) {
      // Reentrant ingestion from inside Tick(): lands in the mailbox and
      // takes effect at the NEXT chronon.
      const Chronon base = proxy.now() + 1;
      EXPECT_TRUE(proxy.Submit({{0, base, base + 3}}).ok());
    }
  });
  ASSERT_TRUE(proxy.Submit({{0, 0, 3}}).ok());
  while (!proxy.Done()) ASSERT_TRUE(proxy.Tick().ok());
  ASSERT_EQ(captured.size(), 2u);
  ASSERT_EQ(proxy.arrival_log().size(), 2u);
  EXPECT_EQ(proxy.arrival_log()[1].effective,
            proxy.arrival_log()[0].effective + 1)
      << "a callback submission takes effect the chronon after the capture";
}

TEST(ProxyCallbackTest, CallbackTickFailsInsteadOfDeadlocking) {
  Proxy proxy(1, 10, BudgetVector::Uniform(1), Mrsf());
  Status reentrant = Status::OK();
  bool fired = false;
  proxy.set_on_cei_captured([&](CeiId) {
    fired = true;
    reentrant = proxy.Tick().status();
  });
  ASSERT_TRUE(proxy.Submit({{0, 0, 3}}).ok());
  while (!proxy.Done()) ASSERT_TRUE(proxy.Tick().ok());
  ASSERT_TRUE(fired);
  EXPECT_EQ(reentrant.code(), StatusCode::kFailedPrecondition)
      << "Tick() from a callback must fail, never deadlock";
}

TEST(ProxyCallbackTest, ExpiryCallbackMaySubmitReplacement) {
  Proxy proxy(2, 10, BudgetVector::Uniform(1), Mrsf());
  std::vector<CeiId> expired;
  std::vector<CeiId> captured;
  proxy.set_on_cei_captured([&](CeiId id) { captured.push_back(id); });
  proxy.set_on_cei_expired([&](CeiId id) {
    expired.push_back(id);
    if (expired.size() == 1) {
      const Chronon base = proxy.now() + 1;
      EXPECT_TRUE(proxy.Submit({{0, base, base + 5}}).ok());
    }
  });
  // Two needs, both on chronon 0, budget 1: one captures, one expires.
  ASSERT_TRUE(proxy.Submit({{0, 0, 0}}).ok());
  ASSERT_TRUE(proxy.Submit({{1, 0, 0}}).ok());
  while (!proxy.Done()) ASSERT_TRUE(proxy.Tick().ok());
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(captured.size(), 2u)
      << "the replacement submitted from the expiry callback must be "
         "scheduled and captured";
}

TEST(ProxyTest, ScheduleAccessible) {
  Proxy proxy(2, 5, BudgetVector::Uniform(1), Mrsf());
  ASSERT_TRUE(proxy.Submit({{1, 0, 4}}).ok());
  while (!proxy.Done()) ASSERT_TRUE(proxy.Tick().ok());
  EXPECT_GE(proxy.schedule().TotalProbes(), 1);
  EXPECT_TRUE(proxy.schedule().ProbedInRange(1, 0, 4));
}

}  // namespace
}  // namespace webmon
