// The worked examples of paper Section IV-A (Figures 6 and 7), executed
// end-to-end through the online scheduler: each policy must make exactly the
// decision the paper derives.

#include <gtest/gtest.h>

#include "model/completeness.h"
#include "online/online_scheduler.h"
#include "policy/m_edf.h"
#include "policy/mrsf.h"
#include "policy/s_edf.h"

#include "../test_util.h"

namespace webmon {
namespace {

using testing_util::MakeProblem;

// Paper Example 1 / Figure 6: a CEI with four EIs valued at chronon T = 10.
//   S-EDF  = 5   (remaining chronons of the active EI)
//   MRSF   = 4   (remaining EIs)
//   M-EDF  = 22  (total chronons of all remaining EIs)
TEST(PaperExample1, AllThreeValues) {
  Cei cei;
  EiId next = 0;
  for (auto [r, s, f] : std::initializer_list<std::tuple<int, int, int>>{
           {0, 10, 14}, {1, 16, 21}, {2, 23, 27}, {3, 30, 35}}) {
    ExecutionInterval ei;
    ei.id = next++;
    ei.resource = static_cast<ResourceId>(r);
    ei.start = s;
    ei.finish = f;
    cei.eis.push_back(ei);
  }
  CeiState state(&cei);
  CandidateEi cand{&state, 0};
  const Chronon t = 10;
  EXPECT_DOUBLE_EQ(SEdfPolicy().Value(cand, t), 5.0);
  EXPECT_DOUBLE_EQ(MrsfPolicy().Value(cand, t), 4.0);
  EXPECT_DOUBLE_EQ(MEdfPolicy().Value(cand, t), 22.0);
}

// Paper Example 2 / Figure 7: two candidate CEIs at chronon T with C_T = 1
// and preemption allowed. CEI_1 has 4 EIs with the first two captured; CEI_2
// has 3 EIs, none captured.
//   S-EDF: EI_1 deadline 5 vs EI_2 deadline 6 -> sticks with CEI_1.
//   MRSF:  residual 2 vs 3 -> sticks with CEI_1.
//   M-EDF: remaining chronons 19 vs 16 -> preempts CEI_1, probes EI_2.
class PaperExample2 : public ::testing::Test {
 protected:
  // Chronon T = 10. Resources: CEI_1 uses 0..3, CEI_2 uses 4..6.
  // CEI_1: EI_a [0,5], EI_b [2,8] (captured before T), EI_c [6,14] active
  //        (S-EDF 5), EI_d [20,33] inactive (length 14) -> 5 + 14 = 19.
  // CEI_2: EI_e [9,15] active (S-EDF 6), EI_f [18,22] (5), EI_g [25,29] (5)
  //        -> 6 + 5 + 5 = 16.
  ProblemInstance MakeInstance() {
    return MakeProblem(
        7, 40, 1,
        {{{{0, 0, 5}, {1, 2, 8}, {2, 6, 14}, {3, 20, 33}}},
         {{{4, 9, 15}, {5, 18, 22}, {6, 25, 29}}}});
  }

  // Drives the scheduler to chronon 10 with a per-chronon budget crafted so
  // the first two EIs of CEI_1 get captured (probes at chronons 0 and 2) and
  // nothing else happens before T = 10.
  // Returns the resource probed at T = 10.
  ResourceId DecisionAt10(Policy* policy) {
    const auto problem = MakeInstance();
    // Budget: 1 at chronons 0, 2 and 10; 0 elsewhere.
    std::vector<int64_t> budgets(40, 0);
    budgets[0] = budgets[2] = budgets[10] = 1;
    SchedulerOptions scheduler_options;
    scheduler_options.preemptive = true;
    OnlineScheduler scheduler(problem.num_resources(), 40,
                              BudgetVector::PerChronon(budgets), policy,
                              scheduler_options);
    std::vector<std::vector<const Cei*>> arrivals(40);
    for (const Cei* cei : problem.AllCeis()) {
      arrivals[static_cast<size_t>(cei->arrival)].push_back(cei);
    }
    std::vector<ResourceId> probed;
    ResourceId at10 = 9999;
    for (Chronon t = 0; t < 40; ++t) {
      for (const Cei* cei : arrivals[static_cast<size_t>(t)]) {
        EXPECT_TRUE(scheduler.AddArrival(cei, t).ok());
      }
      EXPECT_TRUE(scheduler.Step(t, nullptr, &probed).ok());
      if (t == 0 || t == 2) {
        // Sanity: the setup probes CEI_1's first two EIs.
        EXPECT_EQ(probed.size(), 1u);
      }
      if (t == 10) {
        EXPECT_EQ(probed.size(), 1u);
        if (!probed.empty()) at10 = probed[0];
        break;
      }
    }
    return at10;
  }
};

TEST_F(PaperExample2, SetupCapturesFirstTwoEis) {
  // At chronons 0 and 2 only CEI_1's EI_a / EI_b are active (EI_e starts at
  // 9), so any policy probes resources 0 then 1.
  SEdfPolicy policy;
  const auto problem = MakeInstance();
  std::vector<int64_t> budgets(40, 0);
  budgets[0] = budgets[2] = 1;
  OnlineScheduler scheduler(problem.num_resources(), 40,
                            BudgetVector::PerChronon(budgets), &policy,
                            SchedulerOptions{});
  std::vector<std::vector<const Cei*>> arrivals(40);
  for (const Cei* cei : problem.AllCeis()) {
    arrivals[static_cast<size_t>(cei->arrival)].push_back(cei);
  }
  std::vector<ResourceId> probed;
  for (Chronon t = 0; t <= 2; ++t) {
    for (const Cei* cei : arrivals[static_cast<size_t>(t)]) {
      ASSERT_TRUE(scheduler.AddArrival(cei, t).ok());
    }
    ASSERT_TRUE(scheduler.Step(t, nullptr, &probed).ok());
  }
  EXPECT_EQ(scheduler.stats().eis_captured, 2);
}

TEST_F(PaperExample2, SEdfSticksWithCei1) {
  SEdfPolicy policy;
  EXPECT_EQ(DecisionAt10(&policy), 2u);  // EI_c's resource
}

TEST_F(PaperExample2, MrsfSticksWithCei1) {
  MrsfPolicy policy;
  EXPECT_EQ(DecisionAt10(&policy), 2u);
}

TEST_F(PaperExample2, MEdfPreemptsAndProbesCei2) {
  MEdfPolicy policy;
  EXPECT_EQ(DecisionAt10(&policy), 4u);  // EI_e's resource
}

// Cross-check the values the decision rests on.
TEST_F(PaperExample2, UnderlyingValues) {
  const auto problem = MakeInstance();
  const Cei& cei1 = problem.profiles()[0].ceis[0];
  const Cei& cei2 = problem.profiles()[1].ceis[0];
  CeiState s1(&cei1);
  s1.SetCaptured(0);
  s1.SetCaptured(1);
  s1.num_captured = 2;
  CeiState s2(&cei2);

  CandidateEi e1{&s1, 2};  // EI_c
  CandidateEi e2{&s2, 0};  // EI_e
  const Chronon t = 10;
  EXPECT_DOUBLE_EQ(SEdfPolicy().Value(e1, t), 5.0);
  EXPECT_DOUBLE_EQ(SEdfPolicy().Value(e2, t), 6.0);
  EXPECT_DOUBLE_EQ(MrsfPolicy().Value(e1, t), 2.0);
  EXPECT_DOUBLE_EQ(MrsfPolicy().Value(e2, t), 3.0);
  EXPECT_DOUBLE_EQ(MEdfPolicy().Value(e1, t), 19.0);
  EXPECT_DOUBLE_EQ(MEdfPolicy().Value(e2, t), 16.0);
}

}  // namespace
}  // namespace webmon
