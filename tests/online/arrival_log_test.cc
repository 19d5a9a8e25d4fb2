// Text serialization of the arrival log (format "webmon-arrivals 2"):
// bit-exact round-trips, the golden byte pin the format doc promises,
// version-1 compatibility, and the structural audit's negative paths.

#include "online/arrival_log.h"

#include <memory>
#include <string>
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

ArrivalEvent Submit(uint64_t seq, Chronon effective, CeiId id, double weight,
                    uint32_t required,
                    std::vector<std::tuple<ResourceId, Chronon, Chronon>> eis) {
  ArrivalEvent event;
  event.seq = seq;
  event.effective = effective;
  event.kind = ArrivalKind::kSubmit;
  event.assigned_id = id;
  event.weight = weight;
  event.required = required;
  event.eis = std::move(eis);
  return event;
}

ArrivalEvent Push(uint64_t seq, Chronon effective, ResourceId resource) {
  ArrivalEvent event;
  event.seq = seq;
  event.effective = effective;
  event.kind = ArrivalKind::kPush;
  event.resource = resource;
  return event;
}

ArrivalEvent Cancel(uint64_t seq, Chronon effective, CeiId id) {
  ArrivalEvent event;
  event.seq = seq;
  event.effective = effective;
  event.kind = ArrivalKind::kCancel;
  event.assigned_id = id;
  return event;
}

// The exact bytes a scripted proxy run serializes to. Any change to this
// string is a format bump, not a refactor (online/arrival_log.h).
TEST(ArrivalLogGoldenTest, SerializedBytesArePinned) {
  Proxy proxy(3, 10, BudgetVector::Uniform(1), Mrsf());
  ASSERT_TRUE(proxy.Submit({{0, 0, 9}, {1, 2, 6}}).ok());
  ASSERT_TRUE(proxy.Submit({{2, 1, 4}}, 2.5, 1).ok());
  ASSERT_TRUE(proxy.Tick().ok());
  ASSERT_TRUE(proxy.Push(1).ok());
  ASSERT_TRUE(proxy.Cancel(1).ok());
  ASSERT_TRUE(proxy.Submit({{0, 3, 7}}, 0.1).ok());
  ASSERT_TRUE(proxy.Tick().ok());

  const std::string expected =
      "webmon-arrivals 2\n"
      "submit 0 0 0 1 0 2 0 0 9 1 2 6\n"
      "submit 1 0 1 2.5 1 1 2 1 4\n"
      "push 2 1 1\n"
      "cancel 3 1 1\n"
      "submit 4 1 2 0.10000000000000001 0 1 0 3 7\n";
  EXPECT_EQ(SerializeArrivalLog(proxy.arrival_log()), expected);

  auto parsed = ParseArrivalLog(expected);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), proxy.arrival_log().size());
  for (size_t i = 0; i < parsed->size(); ++i) {
    EXPECT_TRUE((*parsed)[i] == proxy.arrival_log()[i]) << "record " << i;
  }
}

TEST(ArrivalLogTest, HandBuiltLogRoundTripsBitExactly) {
  // Extreme weights and wide windows: the %.17g encoding must round-trip
  // every double bit for bit.
  const ArrivalLog log = {
      Submit(0, 0, 0, 1.0 / 3.0, 2, {{0, 0, 1000000}, {7, 3, 12}, {2, 5, 5}}),
      Push(3, 1, 4294967295u),
      Submit(4, 1, 1, 1e-300, 0, {{1, 0, 0}}),
      Cancel(9, 2, 0),
      Submit(12, 5, 2, 12345.678900000001, 1, {{3, 4, 9}}),
      Cancel(13, 7, 2),
  };
  EXPECT_TRUE(AuditArrivalLog(log).ok());
  auto parsed = ParseArrivalLog(SerializeArrivalLog(log));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), log.size());
  for (size_t i = 0; i < log.size(); ++i) {
    EXPECT_TRUE((*parsed)[i] == log[i]) << "record " << i;
  }
}

TEST(ArrivalLogTest, VersionOneStillParses) {
  const std::string v1 =
      "webmon-arrivals 1\n"
      "submit 0 0 0 1.5 0 1 0 0 4\n"
      "push 1 2 3\n";
  auto parsed = ParseArrivalLog(v1);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0].kind, ArrivalKind::kSubmit);
  EXPECT_EQ((*parsed)[0].weight, 1.5);
  EXPECT_EQ((*parsed)[1].kind, ArrivalKind::kPush);
  EXPECT_EQ((*parsed)[1].resource, 3u);
}

TEST(ArrivalLogTest, CancelRecordRejectedUnderVersionOne) {
  const std::string v1 =
      "webmon-arrivals 1\n"
      "submit 0 0 0 1 0 1 0 0 4\n"
      "cancel 1 1 0\n";
  auto parsed = ParseArrivalLog(v1);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("format version 2"),
            std::string::npos)
      << parsed.status();
}

TEST(ArrivalLogTest, MalformedInputsRejected) {
  EXPECT_FALSE(ParseArrivalLog("").ok()) << "missing header";
  EXPECT_FALSE(ParseArrivalLog("bogus header\n").ok());
  EXPECT_FALSE(ParseArrivalLog("webmon-arrivals 3\n").ok())
      << "future versions must be refused, not misread";
  const std::string header = "webmon-arrivals 2\n";
  EXPECT_FALSE(ParseArrivalLog(header + "frob 0 0 1\n").ok())
      << "unknown record kind";
  EXPECT_FALSE(ParseArrivalLog(header + "submit 0 0 0 1 0 2 0 0 9\n").ok())
      << "submit declaring more windows than it carries";
  EXPECT_FALSE(ParseArrivalLog(header + "submit 0 0 0 1\n").ok())
      << "truncated submit";
  EXPECT_FALSE(ParseArrivalLog(header + "push 0 0\n").ok())
      << "truncated push";
  EXPECT_FALSE(ParseArrivalLog(header + "cancel 0 0\n").ok())
      << "truncated cancel";
  EXPECT_FALSE(ParseArrivalLog(header + "push 0 0 1 7\n").ok())
      << "trailing fields";
  EXPECT_FALSE(
      ParseArrivalLog(header + "submit 0 0 0 1 0 1 0 0 4 9\n").ok())
      << "trailing fields after the declared windows";
}

TEST(ArrivalLogTest, HugeDeclaredWindowCountIsAStatusNotAnAllocation) {
  // A submit record's EI count is untrusted: this one declares 2^31
  // windows and carries one. The parser must reject it as truncated
  // instead of reserving 48 GiB for windows that are not there.
  auto parsed = ParseArrivalLog(
      "webmon-arrivals 2\nsubmit 0 0 0 1 0 2147483648 0 0 5\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(ArrivalLogAuditTest, RejectsStructuralViolations) {
  // Sequence numbers must strictly increase.
  EXPECT_FALSE(AuditArrivalLog({Submit(5, 0, 0, 1.0, 0, {{0, 0, 1}}),
                                Push(5, 1, 0)})
                   .ok());
  // Effective chronons must not decrease.
  EXPECT_FALSE(AuditArrivalLog({Push(0, 4, 0), Push(1, 3, 0)}).ok());
  // Submits assign dense ids in order.
  EXPECT_FALSE(
      AuditArrivalLog({Submit(0, 0, 1, 1.0, 0, {{0, 0, 1}})}).ok());
  EXPECT_FALSE(AuditArrivalLog({Submit(0, 0, 0, 1.0, 0, {{0, 0, 1}}),
                                Submit(1, 0, 2, 1.0, 0, {{0, 0, 1}})})
                   .ok());
  // A submit must carry at least one window.
  EXPECT_FALSE(AuditArrivalLog({Submit(0, 0, 0, 1.0, 0, {})}).ok());
  // Cancels name a previously assigned id...
  EXPECT_FALSE(AuditArrivalLog({Cancel(0, 0, 0)}).ok());
  EXPECT_FALSE(AuditArrivalLog({Submit(0, 0, 0, 1.0, 0, {{0, 0, 1}}),
                                Cancel(1, 1, 1)})
                   .ok());
  // ...at most once.
  EXPECT_FALSE(AuditArrivalLog({Submit(0, 0, 0, 1.0, 0, {{0, 0, 1}}),
                                Cancel(1, 1, 0), Cancel(2, 2, 0)})
                   .ok());
  // The well-formed variant of all of the above passes.
  EXPECT_TRUE(AuditArrivalLog({Submit(0, 0, 0, 1.0, 0, {{0, 0, 1}}),
                               Submit(1, 0, 1, 1.0, 0, {{0, 0, 1}}),
                               Push(2, 1, 0), Cancel(3, 1, 0),
                               Cancel(4, 2, 1)})
                  .ok());
}

}  // namespace
}  // namespace webmon
