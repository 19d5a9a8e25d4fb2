#include "online/proxy.h"

#include <limits>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "online/arrival_log.h"
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

// The log is built from fixed-size records on demand: a submit's id,
// weight and `required` are read back from its stored Cei, and so are its
// windows unless Submit clamped them, in which case the windows the
// producer passed are kept. Over several chronons of clamped and unclamped
// submits (k-of-n, non-unit weights), pushes, cancels and rejections, the
// built log must equal a hand-built one at every point, survive the text
// round trip, and come out of TakeArrivalLog once.
TEST(ProxyTest, MaterializedLogKeepsRawWindowsAndOrder) {
  using Windows = std::vector<std::tuple<ResourceId, Chronon, Chronon>>;
  Proxy proxy(4, 12, BudgetVector::Uniform(1), Mrsf());
  ArrivalLog expected;
  auto submit = [&](Chronon effective, const Windows& eis, double weight,
                    uint32_t required) {
    auto id = proxy.Submit(eis, weight, required);
    ASSERT_TRUE(id.ok()) << id.status();
    ArrivalEvent event;
    event.seq = expected.size();
    event.effective = effective;
    event.kind = ArrivalKind::kSubmit;
    event.eis = eis;
    event.weight = weight;
    event.required = required;
    event.assigned_id = *id;
    expected.push_back(event);
  };
  auto push = [&](Chronon effective, ResourceId resource) {
    ASSERT_TRUE(proxy.Push(resource).ok());
    ArrivalEvent event;
    event.seq = expected.size();
    event.effective = effective;
    event.kind = ArrivalKind::kPush;
    event.resource = resource;
    expected.push_back(event);
  };
  auto cancel = [&](Chronon effective, CeiId id) {
    ASSERT_TRUE(proxy.Cancel(id).ok());
    ArrivalEvent event;
    event.seq = expected.size();
    event.effective = effective;
    event.kind = ArrivalKind::kCancel;
    event.assigned_id = id;
    expected.push_back(event);
  };

  // Chronon 0: a window finishing past the horizon (clamped), then an
  // unclamped submit and a push.
  submit(0, {{0, 0, 5}, {1, 2, 30}}, 1.0, 0);
  submit(0, {{2, 0, 3}}, 2.5, 0);
  push(0, 3);
  ASSERT_TRUE(proxy.Tick().ok());
  // Chronon 1: a 2-of-3 submit starting in the past (clamped), a cancel of
  // the unclamped submit, and a one-chronon window.
  submit(1, {{0, 0, 4}, {1, 1, 6}, {3, 5, 9}}, 0.1, 2);
  cancel(1, 1);
  submit(1, {{1, 1, 1}}, 1.0, 0);
  ASSERT_TRUE(proxy.Tick().ok());
  EXPECT_EQ(proxy.arrival_log(), expected);
  ASSERT_TRUE(proxy.Tick().ok());  // chronon 2 is empty
  // Chronon 3: rejected submits whose first window was clamped leave
  // nothing behind; a window ending exactly at the horizon is not clamped.
  EXPECT_FALSE(proxy.Submit({{0, 0, 5}, {9, 3, 5}}).ok());
  EXPECT_FALSE(proxy.Submit({{0, 0, 5}, {1, 7, 3}}, 3.0, 1).ok());
  push(3, 0);
  submit(3, {{2, 3, 11}}, 1.0, 0);
  submit(3, {{3, 1, 20}, {0, 4, 4}}, 7.0, 1);
  cancel(3, 2);
  // Undrained events, clamped submit included, are not in the log yet.
  EXPECT_EQ(proxy.arrival_log(),
            ArrivalLog(expected.begin(), expected.begin() + 6));
  while (!proxy.Done()) ASSERT_TRUE(proxy.Tick().ok());

  const ArrivalLog log = proxy.arrival_log();
  EXPECT_EQ(log, expected);
  auto parsed = ParseArrivalLog(SerializeArrivalLog(log));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, expected);
  auto taken = proxy.TakeArrivalLog();
  ASSERT_TRUE(taken.ok()) << taken.status();
  EXPECT_EQ(*taken, expected);
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
