#include "model/serialize.h"

#include <cstdio>

#include <gtest/gtest.h>

#include "../test_util.h"

namespace webmon {
namespace {

using testing_util::MakeProblem;

ProblemInstance RichInstance() {
  ProblemBuilder builder(4, 20, BudgetVector::Uniform(2));
  builder.BeginProfile();
  EXPECT_TRUE(builder.AddCei({{0, 0, 4}, {1, 5, 9}}, 0, 2.5, 1).ok());
  EXPECT_TRUE(builder.AddCei({{2, 3, 7}}).ok());
  builder.BeginProfile();
  EXPECT_TRUE(builder.AddCei({{3, 10, 19}, {0, 12, 15}}, 8).ok());
  auto built = builder.Build();
  EXPECT_TRUE(built.ok());
  return std::move(built).value();
}

void ExpectStructurallyEqual(const ProblemInstance& a,
                             const ProblemInstance& b) {
  EXPECT_EQ(a.num_resources(), b.num_resources());
  EXPECT_EQ(a.num_chronons(), b.num_chronons());
  ASSERT_EQ(a.profiles().size(), b.profiles().size());
  for (size_t p = 0; p < a.profiles().size(); ++p) {
    ASSERT_EQ(a.profiles()[p].ceis.size(), b.profiles()[p].ceis.size());
    for (size_t c = 0; c < a.profiles()[p].ceis.size(); ++c) {
      const Cei& ca = a.profiles()[p].ceis[c];
      const Cei& cb = b.profiles()[p].ceis[c];
      EXPECT_EQ(ca.arrival, cb.arrival);
      EXPECT_EQ(ca.weight, cb.weight);
      EXPECT_EQ(ca.required, cb.required);
      ASSERT_EQ(ca.eis.size(), cb.eis.size());
      for (size_t e = 0; e < ca.eis.size(); ++e) {
        EXPECT_EQ(ca.eis[e].resource, cb.eis[e].resource);
        EXPECT_EQ(ca.eis[e].start, cb.eis[e].start);
        EXPECT_EQ(ca.eis[e].finish, cb.eis[e].finish);
      }
    }
  }
}

TEST(SerializeTest, RoundTripPreservesStructure) {
  const ProblemInstance original = RichInstance();
  auto parsed = ProblemFromText(ProblemToText(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ExpectStructurallyEqual(original, *parsed);
}

TEST(SerializeTest, PerChrononBudgetRoundTrips) {
  ProblemInstance original(2, 3, BudgetVector::PerChronon({1, 0, 2}));
  Profile p;
  p.id = 0;
  Cei cei;
  cei.id = 0;
  cei.profile = 0;
  ExecutionInterval ei;
  ei.id = 0;
  ei.resource = 0;
  ei.start = 0;
  ei.finish = 2;
  cei.eis.push_back(ei);
  p.ceis.push_back(cei);
  original.mutable_profiles().push_back(p);
  ASSERT_TRUE(original.Validate().ok());

  auto parsed = ProblemFromText(ProblemToText(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->budget().At(0), 1);
  EXPECT_EQ(parsed->budget().At(1), 0);
  EXPECT_EQ(parsed->budget().At(2), 2);
}

TEST(SerializeTest, EmptyInstanceRoundTrips) {
  ProblemInstance original(3, 5, BudgetVector::Uniform(1));
  ASSERT_TRUE(original.Validate().ok());
  auto parsed = ProblemFromText(ProblemToText(original));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->TotalCeis(), 0);
  EXPECT_EQ(parsed->num_resources(), 3u);
}

TEST(SerializeTest, CommentsAndBlankLinesIgnored) {
  const std::string text =
      "webmon-problem 1\n"
      "# a comment\n"
      "resources 2\n"
      "\n"
      "chronons 10\n"
      "budget uniform 1\n"
      "profile\n"
      "cei 0 1 0\n"
      "ei 0 0 5\n";
  auto parsed = ProblemFromText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->TotalCeis(), 1);
}

TEST(SerializeTest, MalformedInputsRejected) {
  EXPECT_FALSE(ProblemFromText("").ok());
  EXPECT_FALSE(ProblemFromText("webmon-problem 2\n").ok());
  EXPECT_FALSE(
      ProblemFromText("webmon-problem 1\nresources 2\n").ok());
  // cei before profile.
  EXPECT_FALSE(
      ProblemFromText("webmon-problem 1\nresources 2\nchronons 10\n"
                      "budget uniform 1\ncei 0 1 0\nei 0 0 5\n")
          .ok());
  // ei before cei.
  EXPECT_FALSE(
      ProblemFromText("webmon-problem 1\nresources 2\nchronons 10\n"
                      "budget uniform 1\nprofile\nei 0 0 5\n")
          .ok());
  // cei with no EIs.
  EXPECT_FALSE(
      ProblemFromText("webmon-problem 1\nresources 2\nchronons 10\n"
                      "budget uniform 1\nprofile\ncei 0 1 0\n")
          .ok());
  // unknown line.
  EXPECT_FALSE(
      ProblemFromText("webmon-problem 1\nresources 2\nchronons 10\n"
                      "budget uniform 1\nfrobnicate\n")
          .ok());
  // bad per-chronon budget arity.
  EXPECT_FALSE(
      ProblemFromText("webmon-problem 1\nresources 2\nchronons 3\n"
                      "budget perchronon 1 1\n")
          .ok());
  // invalid instance (resource out of range) caught by validation.
  EXPECT_FALSE(
      ProblemFromText("webmon-problem 1\nresources 1\nchronons 10\n"
                      "budget uniform 1\nprofile\ncei 0 1 0\nei 5 0 5\n")
          .ok());
}

TEST(SerializeTest, NegativeBudgetsAreInputErrors) {
  // Budgets are probe capacities: a negative one is an input error, never
  // the BudgetVector CHECK that would abort the process.
  auto uniform = ProblemFromText(
      "webmon-problem 1\nresources 2\nchronons 3\nbudget uniform -1\n");
  ASSERT_FALSE(uniform.ok());
  EXPECT_EQ(uniform.status().code(), StatusCode::kInvalidArgument);
  auto per_chronon = ProblemFromText(
      "webmon-problem 1\nresources 2\nchronons 3\n"
      "budget perchronon 1 -2 1\n");
  ASSERT_FALSE(per_chronon.ok());
  EXPECT_EQ(per_chronon.status().code(), StatusCode::kInvalidArgument);
  auto first = ProblemFromText(
      "webmon-problem 1\nresources 2\nchronons 3\n"
      "budget perchronon -1 0 0\n");
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kInvalidArgument);
  // Zero stays a legal capacity.
  EXPECT_TRUE(ProblemFromText("webmon-problem 1\nresources 2\nchronons 3\n"
                              "budget perchronon 0 0 0\n")
                  .ok());
}

TEST(SerializeTest, FileRoundTrip) {
  const ProblemInstance original = RichInstance();
  const std::string path = ::testing::TempDir() + "/webmon_problem_test.txt";
  ASSERT_TRUE(SaveProblemToFile(original, path).ok());
  auto loaded = LoadProblemFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectStructurallyEqual(original, *loaded);
  std::remove(path.c_str());
}

TEST(SerializeTest, LoadMissingFileFails) {
  EXPECT_EQ(LoadProblemFromFile("/nonexistent/p.txt").status().code(),
            StatusCode::kIOError);
}

}  // namespace
}  // namespace webmon
