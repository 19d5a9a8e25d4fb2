#include "model/schedule.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace webmon {
namespace {

TEST(BudgetVectorTest, UniformEverywhere) {
  const auto b = BudgetVector::Uniform(3);
  EXPECT_EQ(b.At(0), 3);
  EXPECT_EQ(b.At(999), 3);
  EXPECT_EQ(b.Max(100), 3);
  EXPECT_TRUE(b.is_uniform());
}

TEST(BudgetVectorDeathTest, NegativeBudgetsViolateTheContract) {
  // Probe capacities are non-negative by contract (WEBMON_CHECK, active in
  // every build type); a negative budget is a programming error, not a
  // value to clamp.
  EXPECT_DEATH(BudgetVector::Uniform(-5), "CHECK failed");
  EXPECT_DEATH(BudgetVector::PerChronon({1, -2, 3}), "CHECK failed");
}

TEST(BudgetVectorTest, NegativeChrononGetsZero) {
  EXPECT_EQ(BudgetVector::Uniform(2).At(-1), 0);
}

TEST(BudgetVectorTest, PerChrononLookup) {
  const auto b = BudgetVector::PerChronon({1, 0, 2});
  EXPECT_EQ(b.At(0), 1);
  EXPECT_EQ(b.At(1), 0);
  EXPECT_EQ(b.At(2), 2);
  EXPECT_EQ(b.At(3), 0);  // beyond the vector
  EXPECT_FALSE(b.is_uniform());
}

TEST(BudgetVectorTest, PerChrononMaxWithinEpoch) {
  const auto b = BudgetVector::PerChronon({1, 5, 2});
  EXPECT_EQ(b.Max(3), 5);
  EXPECT_EQ(b.Max(1), 1);  // only chronon 0 considered
}

TEST(ScheduleTest, AddAndQueryProbes) {
  Schedule s(3, 10);
  EXPECT_TRUE(s.AddProbe(1, 4).ok());
  EXPECT_TRUE(s.Probed(1, 4));
  EXPECT_FALSE(s.Probed(1, 5));
  EXPECT_FALSE(s.Probed(0, 4));
  EXPECT_EQ(s.TotalProbes(), 1);
}

TEST(ScheduleTest, DuplicateProbeRejected) {
  Schedule s(3, 10);
  EXPECT_TRUE(s.AddProbe(1, 4).ok());
  EXPECT_EQ(s.AddProbe(1, 4).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(s.TotalProbes(), 1);
}

TEST(ScheduleTest, OutOfRangeRejected) {
  Schedule s(3, 10);
  EXPECT_EQ(s.AddProbe(3, 0).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(s.AddProbe(0, 10).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(s.AddProbe(0, -1).code(), StatusCode::kOutOfRange);
}

TEST(ScheduleTest, ProbedInRange) {
  Schedule s(2, 20);
  ASSERT_TRUE(s.AddProbe(0, 10).ok());
  EXPECT_TRUE(s.ProbedInRange(0, 5, 15));
  EXPECT_TRUE(s.ProbedInRange(0, 10, 10));
  EXPECT_FALSE(s.ProbedInRange(0, 0, 9));
  EXPECT_FALSE(s.ProbedInRange(0, 11, 19));
  EXPECT_FALSE(s.ProbedInRange(1, 5, 15));
  EXPECT_FALSE(s.ProbedInRange(0, 15, 5));  // inverted range
}

TEST(ScheduleTest, ViewsStayConsistent) {
  Schedule s(3, 5);
  ASSERT_TRUE(s.AddProbe(2, 1).ok());
  ASSERT_TRUE(s.AddProbe(0, 1).ok());
  ASSERT_TRUE(s.AddProbe(2, 3).ok());
  EXPECT_EQ(s.ProbesAt(1).size(), 2u);
  EXPECT_EQ(s.ProbesAt(2).size(), 0u);
  const auto& of2 = s.ProbesOf(2);
  ASSERT_EQ(of2.size(), 2u);
  EXPECT_EQ(of2[0], 1);
  EXPECT_EQ(of2[1], 3);
}

TEST(ScheduleTest, OutOfRangeViewsEmpty) {
  Schedule s(2, 5);
  EXPECT_TRUE(s.ProbesAt(-1).empty());
  EXPECT_TRUE(s.ProbesAt(5).empty());
  EXPECT_TRUE(s.ProbesOf(2).empty());
}

TEST(ScheduleTest, CheckFeasible) {
  Schedule s(3, 4);
  ASSERT_TRUE(s.AddProbe(0, 0).ok());
  ASSERT_TRUE(s.AddProbe(1, 0).ok());
  EXPECT_TRUE(s.CheckFeasible(BudgetVector::Uniform(2)).ok());
  EXPECT_EQ(s.CheckFeasible(BudgetVector::Uniform(1)).code(),
            StatusCode::kFailedPrecondition);
}

// The probe set as a naive ordered set of (resource, chronon) pairs.
using NaiveSchedule = std::set<std::pair<ResourceId, Chronon>>;

// Checks every query of `s` against `naive` over the whole instance, never
// probed resources and out-of-range coordinates included.
void ExpectMatchesNaive(const Schedule& s, const NaiveSchedule& naive,
                        uint32_t resources, Chronon chronons) {
  EXPECT_EQ(s.TotalProbes(), static_cast<int64_t>(naive.size()));
  std::vector<std::vector<Chronon>> of(resources + 1);
  std::vector<std::vector<ResourceId>> at(static_cast<size_t>(chronons) + 1);
  for (const auto& [r, t] : naive) {
    of[r].push_back(t);
    at[static_cast<size_t>(t)].push_back(r);
  }
  for (ResourceId r = 0; r <= resources; ++r) {
    ASSERT_EQ(s.ProbesOf(r), of[r]) << "resource " << r;
    for (Chronon t = -1; t <= chronons; ++t) {
      EXPECT_EQ(s.Probed(r, t), naive.count({r, t}) == 1)
          << "resource " << r << " chronon " << t;
    }
    for (Chronon from = -2; from <= chronons + 1; from += 3) {
      for (Chronon to = from - 1; to <= chronons + 1; to += 2) {
        const auto it = naive.lower_bound({r, from});
        const bool expected = from <= to && it != naive.end() &&
                              it->first == r && it->second <= to;
        EXPECT_EQ(s.ProbedInRange(r, from, to), expected)
            << "resource " << r << " range [" << from << ", " << to << "]";
      }
    }
  }
  for (Chronon t = -1; t <= chronons; ++t) {
    std::vector<ResourceId> probes = s.ProbesAt(t);
    std::sort(probes.begin(), probes.end());
    const std::vector<ResourceId> expected =
        t < 0 ? std::vector<ResourceId>{} : at[static_cast<size_t>(t)];
    EXPECT_EQ(probes, expected) << "chronon " << t;
  }
}

// Differential test against the naive set: random probes in chronon order
// (as the scheduler records them) and in random order, with duplicates and
// out-of-range coordinates, then a copy that must stay independent.
TEST(ScheduleTest, MatchesNaiveSetOnRandomInserts) {
  constexpr uint32_t kResources = 40;
  constexpr Chronon kChronons = 30;
  for (const bool in_order : {true, false}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(testing::Message() << "in_order " << in_order << " seed "
                                      << seed);
      Rng rng(seed);
      std::vector<std::pair<int64_t, Chronon>> probes;
      for (int i = 0; i < 600; ++i) {
        // Resources in [0, kResources + 2), chronons in [-2, kChronons + 2):
        // a few of each fall outside the instance. Few distinct
        // coordinates, so duplicates are common.
        probes.emplace_back(rng.UniformInt(0, kResources + 1),
                            rng.UniformInt(-2, kChronons + 1));
      }
      if (in_order) {
        std::stable_sort(probes.begin(), probes.end(),
                         [](const auto& a, const auto& b) {
                           return a.second < b.second;
                         });
      }
      Schedule s(kResources, kChronons);
      NaiveSchedule naive;
      Schedule copy(kResources, kChronons);
      NaiveSchedule naive_copy;
      for (size_t i = 0; i < probes.size(); ++i) {
        const auto r = static_cast<ResourceId>(probes[i].first);
        const Chronon t = probes[i].second;
        const bool in_range =
            r < kResources && t >= 0 && t < kChronons;
        const StatusCode expected =
            !in_range                  ? StatusCode::kOutOfRange
            : naive.insert({r, t}).second ? StatusCode::kOk
                                          : StatusCode::kAlreadyExists;
        ASSERT_EQ(s.AddProbe(r, t).code(), expected)
            << "probe " << i << " (" << r << ", " << t << ")";
        if (i == probes.size() / 2) {
          copy = s;
          naive_copy = naive;
        }
      }
      ExpectMatchesNaive(s, naive, kResources, kChronons);
      ExpectMatchesNaive(copy, naive_copy, kResources, kChronons);
      // The copy owns its lists: probing it leaves the original alone.
      for (ResourceId r = 0; r < kResources; ++r) {
        for (Chronon t = 0; t < kChronons; t += 7) {
          const bool fresh = naive_copy.insert({r, t}).second;
          EXPECT_EQ(copy.AddProbe(r, t).ok(), fresh);
        }
      }
      ExpectMatchesNaive(copy, naive_copy, kResources, kChronons);
      ExpectMatchesNaive(s, naive, kResources, kChronons);
      const Schedule constructed(s);
      ExpectMatchesNaive(constructed, naive, kResources, kChronons);
    }
  }
}

}  // namespace
}  // namespace webmon
