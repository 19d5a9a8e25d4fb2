#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "policy/m_edf.h"
#include "policy/mrsf.h"
#include "policy/random_policy.h"
#include "policy/round_robin.h"
#include "policy/s_edf.h"
#include "policy/wic.h"
#include "util/rng.h"

namespace webmon {
namespace {

Cei MakeCei(std::vector<std::tuple<ResourceId, Chronon, Chronon>> specs,
            CeiId id = 0) {
  Cei cei;
  cei.id = id;
  EiId next = id * 100;
  for (const auto& [r, s, f] : specs) {
    ExecutionInterval ei;
    ei.id = next++;
    ei.resource = r;
    ei.start = s;
    ei.finish = f;
    cei.eis.push_back(ei);
  }
  return cei;
}

TEST(CandidateTest, SEdfValueCountsRemainingChronons) {
  ExecutionInterval ei;
  ei.start = 5;
  ei.finish = 14;
  EXPECT_EQ(SEdfValue(ei, 10), 5);
  EXPECT_EQ(SEdfValue(ei, 14), 1);  // last chance
  EXPECT_EQ(SEdfValue(ei, 5), 10);
}

TEST(CandidateTest, MEdfSiblingValueUsesFullLengthWhenInactive) {
  ExecutionInterval ei;
  ei.start = 20;
  ei.finish = 33;
  // Not yet active at chronon 10: value is the interval's full length.
  EXPECT_EQ(MEdfSiblingValue(ei, 10), 14);
  // Active: deadline distance.
  EXPECT_EQ(MEdfSiblingValue(ei, 25), 9);
}

TEST(CeiStateTest, TracksCapturesAndResidual) {
  const Cei cei = MakeCei({{0, 0, 2}, {1, 3, 5}, {2, 6, 8}});
  CeiState state(&cei);
  EXPECT_FALSE(state.Started());
  EXPECT_FALSE(state.Complete());
  EXPECT_EQ(state.Residual(), 3u);
  state.SetCaptured(0);
  state.num_captured = 1;
  EXPECT_TRUE(state.Started());
  EXPECT_EQ(state.Residual(), 2u);
  state.SetCaptured(1);
  state.SetCaptured(2);
  state.num_captured = 3;
  EXPECT_TRUE(state.Complete());
}

TEST(SEdfPolicyTest, ValueIsDeadlineDistance) {
  const Cei cei = MakeCei({{0, 5, 14}});
  CeiState state(&cei);
  CandidateEi cand{&state, 0};
  SEdfPolicy policy;
  EXPECT_DOUBLE_EQ(policy.Value(cand, 10), 5.0);
  EXPECT_EQ(policy.name(), "S-EDF");
  EXPECT_EQ(policy.level(), Policy::Level::kIndividualEi);
}

TEST(MrsfPolicyTest, ValueIsResidualEiCount) {
  const Cei cei = MakeCei({{0, 0, 5}, {1, 0, 5}, {2, 0, 5}, {3, 0, 5}});
  CeiState state(&cei);
  MrsfPolicy policy;
  CandidateEi cand{&state, 0};
  EXPECT_DOUBLE_EQ(policy.Value(cand, 0), 4.0);
  state.SetCaptured(1);
  state.num_captured = 1;
  EXPECT_DOUBLE_EQ(policy.Value(cand, 0), 3.0);
  EXPECT_EQ(policy.level(), Policy::Level::kRank);
}

TEST(MEdfPolicyTest, SumsUncapturedSiblingChronons) {
  const Cei cei = MakeCei({{0, 10, 14}, {1, 16, 21}, {2, 23, 27}, {3, 30, 35}});
  CeiState state(&cei);
  MEdfPolicy policy;
  CandidateEi cand{&state, 0};
  // At chronon 10: 5 (active) + 6 + 5 + 6 (full lengths) = 22.
  EXPECT_DOUBLE_EQ(policy.Value(cand, 10), 22.0);
  // Capturing a sibling removes its term.
  state.SetCaptured(3);
  state.num_captured = 1;
  EXPECT_DOUBLE_EQ(policy.Value(cand, 10), 16.0);
  EXPECT_EQ(policy.level(), Policy::Level::kMultiEi);
}

TEST(MEdfPolicyTest, ActiveSiblingCountedFromNow) {
  const Cei cei = MakeCei({{0, 0, 9}, {1, 0, 19}});
  CeiState state(&cei);
  MEdfPolicy policy;
  CandidateEi cand{&state, 0};
  // At chronon 5: (9-5+1) + (19-5+1) = 5 + 15 = 20.
  EXPECT_DOUBLE_EQ(policy.Value(cand, 5), 20.0);
}

TEST(WicPolicyTest, PrefersResourceWithMostPendingEis) {
  const Cei a = MakeCei({{0, 0, 5}}, 1);
  const Cei b = MakeCei({{0, 0, 5}}, 2);
  const Cei c = MakeCei({{1, 0, 5}}, 3);
  CeiState sa(&a);
  CeiState sb(&b);
  CeiState sc(&c);
  std::vector<CandidateEi> active{{&sa, 0}, {&sb, 0}, {&sc, 0}};
  WicPolicy policy;
  policy.BeginChronon(active, 0);
  // Resource 0 has utility 2, resource 1 has 1; lower cost = preferred.
  EXPECT_LT(policy.Value(active[0], 0), policy.Value(active[2], 0));
  EXPECT_DOUBLE_EQ(policy.Value(active[0], 0), -2.0);
  EXPECT_DOUBLE_EQ(policy.Value(active[2], 0), -1.0);
}

TEST(WicPolicyTest, UnknownResourceHasZeroUtility) {
  const Cei a = MakeCei({{0, 0, 5}});
  CeiState sa(&a);
  WicPolicy policy;
  policy.BeginChronon({}, 0);
  CandidateEi cand{&sa, 0};
  EXPECT_DOUBLE_EQ(policy.Value(cand, 0), 0.0);
}

TEST(RandomPolicyTest, StableWithinChronon) {
  const Cei a = MakeCei({{0, 0, 5}}, 1);
  CeiState sa(&a);
  std::vector<CandidateEi> active{{&sa, 0}};
  RandomPolicy policy(7);
  policy.BeginChronon(active, 0);
  const double v1 = policy.Value(active[0], 0);
  const double v2 = policy.Value(active[0], 0);
  EXPECT_EQ(v1, v2);
}

TEST(RandomPolicyTest, DeterministicAcrossInstances) {
  const Cei a = MakeCei({{0, 0, 5}}, 1);
  CeiState sa(&a);
  std::vector<CandidateEi> active{{&sa, 0}};
  RandomPolicy p1(7);
  RandomPolicy p2(7);
  p1.BeginChronon(active, 0);
  p2.BeginChronon(active, 0);
  EXPECT_EQ(p1.Value(active[0], 0), p2.Value(active[0], 0));
}

TEST(RoundRobinPolicyTest, PrefersLeastRecentlyProbed) {
  const Cei a = MakeCei({{0, 0, 9}}, 1);
  const Cei b = MakeCei({{1, 0, 9}}, 2);
  CeiState sa(&a);
  CeiState sb(&b);
  CandidateEi ca{&sa, 0};
  CandidateEi cb{&sb, 0};
  RoundRobinPolicy policy;
  // Initially equal deadlines; after probing resource 0 it becomes costly.
  policy.NotifyProbed(0, 3);
  EXPECT_GT(policy.Value(ca, 4), policy.Value(cb, 4));
}

// A random live candidate as the rank scan sees it at chronon `now`: its
// own window contains now, and its CEI keeps the scheduler's invariant —
// every uncaptured, unfailed sibling ends at or after now. Siblings are
// captured, failed (window closed before now; k-of-n only), not yet
// started, or active, some of those closing before the valuation chronon.
struct FloorCase {
  Cei cei;
  uint32_t cand = 0;
  Chronon now = 0;
  Chronon t = 0;
  std::vector<int> kinds;  // per EI: 0 active, 1 captured, 2 failed, 3 later
};

FloorCase RandomFloorCase(Rng& rng) {
  FloorCase c;
  const auto rank = static_cast<uint32_t>(rng.UniformInt(1, 6));
  c.now = rng.UniformInt(20, 60);
  c.cand = static_cast<uint32_t>(rng.UniformU64(rank));
  const bool k_of_n = rank > 1 && rng.Bernoulli(0.5);
  c.cei.required =
      k_of_n ? static_cast<uint32_t>(rng.UniformInt(1, rank - 1)) : 0;
  const size_t required = k_of_n ? c.cei.required : rank;
  size_t captured = 0;
  size_t failed = 0;
  for (uint32_t i = 0; i < rank; ++i) {
    ExecutionInterval ei;
    ei.id = static_cast<EiId>(i);
    ei.resource = static_cast<ResourceId>(i);
    int kind = 0;
    if (i != c.cand) {
      kind = static_cast<int>(rng.UniformU64(4));
      // Keep the CEI live: unsatisfied, and repairable.
      if (kind == 1 && captured + 1 >= required) kind = 0;
      if (kind == 2 && rank - (failed + 1) < required) kind = 0;
    }
    switch (kind) {
      case 1:  // captured at some chronon of its window, at or before now
        ei.finish = rng.UniformInt(c.now - 15, c.now + 15);
        ei.start = std::min(ei.finish, c.now) - rng.UniformInt(0, 10);
        ++captured;
        break;
      case 2:  // closed uncaptured before now
        ei.finish = rng.UniformInt(c.now - 15, c.now - 1);
        ei.start = ei.finish - rng.UniformInt(0, 10);
        ++failed;
        break;
      case 3:  // not yet started
        ei.start = rng.UniformInt(c.now + 1, c.now + 30);
        ei.finish = ei.start + rng.UniformInt(0, 10);
        break;
      default:  // active: may close soon, even before the valuation chronon
        ei.start = rng.UniformInt(c.now - 10, c.now);
        ei.finish = c.now + rng.UniformInt(0, rng.Bernoulli(0.5) ? 3 : 20);
        break;
    }
    c.cei.eis.push_back(ei);
    c.kinds.push_back(kind);
  }
  // Valued at now pushed by a fault shrink of at most 19, never past the
  // candidate's own window.
  const Chronon finish = c.cei.eis[c.cand].finish;
  c.t = std::min(c.now + rng.UniformInt(0, rng.Bernoulli(0.5) ? 0 : 19),
                 finish);
  return c;
}

CeiState StateFor(const FloorCase& c) {
  CeiState state(&c.cei);
  for (uint32_t i = 0; i < c.kinds.size(); ++i) {
    if (c.kinds[i] == 1) {
      state.SetCaptured(i);
      ++state.num_captured;
    } else if (c.kinds[i] == 2) {
      state.SetFailed(i);
      ++state.num_failed;
    }
  }
  return state;
}

// The rank scan skips Value for a candidate whose ValueFloor already loses
// to its board, so a floor above Value changes the schedule. Checked here
// in every build type, not only by the scan's debug check.
TEST(ValueFloorTest, NeverExceedsTheValueOverRandomLiveStates) {
  Rng rng(26);
  MEdfPolicy medf;
  SEdfPolicy sedf;
  int finite = 0;
  int shrunk_below_siblings = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const FloorCase c = RandomFloorCase(rng);
    CeiState state = StateFor(c);
    const CandidateEi cand{&state, c.cand};
    ASSERT_TRUE(cand.IsLive());
    ASSERT_TRUE(cand.ei().Contains(c.now));
    const Chronon finish = cand.ei().finish;
    const double floor = medf.ValueFloor(cand, finish, c.t, c.now);
    const double value = medf.Value(cand, c.t);
    ASSERT_LE(floor, value) << "trial " << trial << " rank "
                            << c.cei.eis.size() << " now " << c.now << " t "
                            << c.t;
    if (std::isfinite(floor)) {
      ++finite;
      // The sibling terms the floor must not assume positive: a window
      // closing after now but before t.
      for (size_t i = 0; i < c.kinds.size(); ++i) {
        if (i != c.cand && c.kinds[i] == 0 && c.cei.eis[i].finish < c.t) {
          ++shrunk_below_siblings;
          break;
        }
      }
    } else {
      EXPECT_GT(state.num_failed, 0u);
    }
    EXPECT_EQ(sedf.ValueFloor(cand, finish, c.t, c.now), sedf.Value(cand, c.t))
        << "trial " << trial;
  }
  // Most states bound, and many have a sibling closing before t.
  EXPECT_GT(finite, 10000);
  EXPECT_GT(shrunk_below_siblings, 1000);
}

TEST(ValueFloorTest, MEdfFloorIsExactWhenEverySiblingCountsDownFromNow) {
  // At t = now with every uncaptured sibling active, each term is its own
  // deadline distance, and the floor counts each sibling as 1: exact when
  // every sibling closes at now. (2 of 3 needed.)
  Cei cei = MakeCei({{0, 0, 9}, {1, 3, 5}, {2, 4, 5}});
  cei.required = 2;
  CeiState state(&cei);
  MEdfPolicy policy;
  const CandidateEi cand{&state, 0};
  EXPECT_DOUBLE_EQ(policy.ValueFloor(cand, 9, 5, 5), 7.0);
  EXPECT_DOUBLE_EQ(policy.Value(cand, 5), 7.0);
  // Shrunk by 2 (t = 7): the siblings closing at 5 count -1 each.
  EXPECT_DOUBLE_EQ(policy.ValueFloor(cand, 9, 7, 5), 1.0);
  EXPECT_DOUBLE_EQ(policy.Value(cand, 7), 1.0);
  // A failed sibling leaves no bound.
  state.SetFailed(1);
  state.num_failed = 1;
  EXPECT_EQ(policy.ValueFloor(cand, 9, 5, 5),
            -std::numeric_limits<double>::infinity());
}

TEST(ValueFloorTest, PoliciesWithoutAFloorKeepTheDefault) {
  const Cei cei = MakeCei({{0, 0, 9}, {1, 0, 9}});
  CeiState state(&cei);
  const CandidateEi cand{&state, 0};
  MrsfPolicy mrsf;
  WicPolicy wic;
  RoundRobinPolicy round_robin;
  RandomPolicy draws(7);
  for (const Policy* policy :
       std::initializer_list<const Policy*>{&mrsf, &wic, &round_robin,
                                            &draws}) {
    EXPECT_EQ(policy->ValueFloor(cand, 9, 0, 0),
              -std::numeric_limits<double>::infinity())
        << policy->name();
  }
}

TEST(PolicyLevelToStringTest, CoversAll) {
  EXPECT_STREQ(PolicyLevelToString(Policy::Level::kIndividualEi),
               "individual-EI");
  EXPECT_STREQ(PolicyLevelToString(Policy::Level::kRank), "rank");
  EXPECT_STREQ(PolicyLevelToString(Policy::Level::kMultiEi), "multi-EI");
}

}  // namespace
}  // namespace webmon
