#include "model/problem.h"

#include <limits>

#include <gtest/gtest.h>

#include "../test_util.h"

namespace webmon {
namespace {

using testing_util::MakeProblem;

TEST(ProblemBuilderTest, AssignsSequentialIds) {
  ProblemBuilder builder(3, 10, BudgetVector::Uniform(1));
  builder.BeginProfile();
  auto c0 = builder.AddCei({{0, 0, 1}, {1, 2, 3}});
  auto c1 = builder.AddCei({{2, 4, 5}});
  builder.BeginProfile();
  auto c2 = builder.AddCei({{0, 6, 7}});
  ASSERT_TRUE(c0.ok());
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  EXPECT_EQ(*c0, 0u);
  EXPECT_EQ(*c1, 1u);
  EXPECT_EQ(*c2, 2u);

  auto problem = builder.Build();
  ASSERT_TRUE(problem.ok());
  EXPECT_EQ(problem->profiles().size(), 2u);
  EXPECT_EQ(problem->profiles()[0].id, 0u);
  EXPECT_EQ(problem->profiles()[1].id, 1u);
  // EI ids are globally unique and sequential.
  EXPECT_EQ(problem->profiles()[0].ceis[0].eis[0].id, 0u);
  EXPECT_EQ(problem->profiles()[0].ceis[0].eis[1].id, 1u);
  EXPECT_EQ(problem->profiles()[1].ceis[0].eis[0].id, 3u);
}

TEST(ProblemBuilderTest, DefaultArrivalIsEarliestStart) {
  ProblemBuilder builder(3, 10, BudgetVector::Uniform(1));
  builder.BeginProfile();
  ASSERT_TRUE(builder.AddCei({{0, 5, 6}, {1, 2, 8}}).ok());
  auto problem = builder.Build();
  ASSERT_TRUE(problem.ok());
  EXPECT_EQ(problem->profiles()[0].ceis[0].arrival, 2);
}

TEST(ProblemBuilderTest, ExplicitArrivalKept) {
  ProblemBuilder builder(3, 10, BudgetVector::Uniform(1));
  builder.BeginProfile();
  ASSERT_TRUE(builder.AddCei({{0, 5, 6}}, 1).ok());
  auto problem = builder.Build();
  ASSERT_TRUE(problem.ok());
  EXPECT_EQ(problem->profiles()[0].ceis[0].arrival, 1);
}

TEST(ProblemBuilderTest, AddCeiBeforeBeginProfileFails) {
  ProblemBuilder builder(3, 10, BudgetVector::Uniform(1));
  EXPECT_EQ(builder.AddCei({{0, 0, 1}}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ProblemBuilderTest, EmptyCeiRejected) {
  ProblemBuilder builder(3, 10, BudgetVector::Uniform(1));
  builder.BeginProfile();
  EXPECT_EQ(builder.AddCei({}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ProblemValidateTest, ResourceOutOfRange) {
  ProblemBuilder builder(2, 10, BudgetVector::Uniform(1));
  builder.BeginProfile();
  ASSERT_TRUE(builder.AddCei({{2, 0, 1}}).ok());
  EXPECT_EQ(builder.Build().status().code(), StatusCode::kOutOfRange);
}

TEST(ProblemValidateTest, StartAfterFinishRejected) {
  ProblemBuilder builder(2, 10, BudgetVector::Uniform(1));
  builder.BeginProfile();
  ASSERT_TRUE(builder.AddCei({{0, 5, 3}}).ok());
  EXPECT_FALSE(builder.Build().ok());
}

TEST(ProblemValidateTest, EiOutsideEpochRejected) {
  ProblemBuilder builder(2, 10, BudgetVector::Uniform(1));
  builder.BeginProfile();
  ASSERT_TRUE(builder.AddCei({{0, 8, 12}}).ok());
  EXPECT_EQ(builder.Build().status().code(), StatusCode::kOutOfRange);
}

TEST(ProblemValidateTest, ArrivalAfterEiExpiryRejected) {
  ProblemBuilder builder(2, 10, BudgetVector::Uniform(1));
  builder.BeginProfile();
  // Second EI's window [0,2] has fully passed by arrival 5.
  ASSERT_TRUE(builder.AddCei({{0, 5, 8}, {1, 0, 2}}, 5).ok());
  EXPECT_EQ(builder.Build().status().code(), StatusCode::kInvalidArgument);
}

TEST(ProblemValidateTest, NonFiniteOrNonPositiveWeightRejected) {
  for (const double weight : {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(), 0.0,
                              -1.0}) {
    ProblemBuilder builder(2, 10, BudgetVector::Uniform(1));
    builder.BeginProfile();
    ASSERT_TRUE(builder.AddCei({{0, 0, 5}}, -1, weight).ok());
    EXPECT_EQ(builder.Build().status().code(), StatusCode::kInvalidArgument)
        << weight;
  }
  ProblemBuilder builder(2, 10, BudgetVector::Uniform(1));
  builder.BeginProfile();
  ASSERT_TRUE(builder.AddCei({{0, 0, 5}}, -1, 2.5).ok());
  EXPECT_TRUE(builder.Build().ok());
}

TEST(ProblemInstanceTest, Counters) {
  const auto problem = MakeProblem(
      4, 10, 1,
      {{{{0, 0, 1}}, {{1, 2, 3}, {2, 4, 5}}},
       {{{3, 6, 7}, {0, 8, 9}, {1, 0, 9}}}});
  EXPECT_EQ(problem.TotalCeis(), 3);
  EXPECT_EQ(problem.TotalEis(), 6);
  EXPECT_EQ(problem.Rank(), 3u);
  EXPECT_EQ(problem.AllCeis().size(), 3u);
}

TEST(ProblemInstanceTest, IntraResourceOverlapFlag) {
  const auto with = MakeProblem(2, 10, 1, {{{{0, 0, 5}, {0, 3, 8}}}});
  EXPECT_TRUE(with.HasIntraResourceOverlap());
  const auto without = MakeProblem(2, 10, 1, {{{{0, 0, 5}, {1, 3, 8}}}});
  EXPECT_FALSE(without.HasIntraResourceOverlap());
}

TEST(ProblemInstanceTest, UnitWidthFlag) {
  const auto p1 = MakeProblem(2, 10, 1, {{{{0, 3, 3}, {1, 5, 5}}}});
  EXPECT_TRUE(p1.IsUnitWidth());
  const auto wide = MakeProblem(2, 10, 1, {{{{0, 3, 4}}}});
  EXPECT_FALSE(wide.IsUnitWidth());
}

TEST(ProblemInstanceTest, SummaryMentionsCounts) {
  const auto problem = MakeProblem(4, 10, 1, {{{{0, 0, 1}}}});
  const std::string s = problem.Summary();
  EXPECT_NE(s.find("n=4"), std::string::npos);
  EXPECT_NE(s.find("K=10"), std::string::npos);
  EXPECT_NE(s.find("CEIs=1"), std::string::npos);
}

TEST(ProblemInstanceTest, ZeroChrononEpochInvalid) {
  ProblemInstance p(1, 0, BudgetVector::Uniform(1));
  EXPECT_FALSE(p.Validate().ok());
}

}  // namespace
}  // namespace webmon
