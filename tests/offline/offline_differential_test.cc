// Differential suite: the optimized offline solvers against the frozen
// pre-optimization references (offline/reference_solvers.h). The perf pass
// promised *provably unchanged results*, so any divergence — in values or
// in the schedule bytes — on random instances is a bug in one of them.
// Also holds the thread-count-invariance contract for the parallel exact
// search and the local-ratio rank-bound property test.

#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "model/completeness.h"
#include "offline/exact_solver.h"
#include "offline/offline_approx.h"
#include "offline/reference_solvers.h"
#include "util/rng.h"

#include "../test_util.h"

namespace webmon {
namespace {

void ExpectSchedulesIdentical(const Schedule& a, const Schedule& b) {
  ASSERT_EQ(a.num_resources(), b.num_resources());
  ASSERT_EQ(a.num_chronons(), b.num_chronons());
  EXPECT_EQ(a.TotalProbes(), b.TotalProbes());
  for (ResourceId r = 0; r < a.num_resources(); ++r) {
    EXPECT_EQ(a.ProbesOf(r), b.ProbesOf(r)) << "probes differ on resource "
                                            << r;
  }
}

// Small random instance the reference exact solver can still chew through.
// Mixed ranks, windows, and (for every third CEI) non-unit weights.
ProblemInstance RandomInstance(Rng& rng, int num_resources,
                               Chronon num_chronons, int num_ceis,
                               int max_rank, int64_t budget) {
  ProblemBuilder builder(static_cast<uint32_t>(num_resources), num_chronons,
                         BudgetVector::Uniform(budget));
  for (int c = 0; c < num_ceis; ++c) {
    builder.BeginProfile();
    std::vector<std::tuple<ResourceId, Chronon, Chronon>> eis;
    const int rank =
        1 + static_cast<int>(rng.UniformU64(static_cast<uint64_t>(max_rank)));
    for (int e = 0; e < rank; ++e) {
      const auto r = static_cast<ResourceId>(
          rng.UniformU64(static_cast<uint64_t>(num_resources)));
      const auto s = static_cast<Chronon>(
          rng.UniformU64(static_cast<uint64_t>(num_chronons)));
      const auto f = std::min<Chronon>(
          s + static_cast<Chronon>(rng.UniformU64(3)), num_chronons - 1);
      eis.emplace_back(r, s, f);
    }
    const double weight = (c % 3 == 0) ? 1.0 + 0.5 * (c % 5) : 1.0;
    auto cei = builder.AddCei(eis, /*arrival=*/-1, weight);
    EXPECT_TRUE(cei.ok());
  }
  auto problem = builder.Build();
  EXPECT_TRUE(problem.ok());
  return *std::move(problem);
}

TEST(OfflineDifferentialTest, ExactMatchesReferenceAcrossRandomInstances) {
  Rng rng(0xD1FF);
  for (int trial = 0; trial < 200; ++trial) {
    const auto problem = RandomInstance(rng, 3, 8, 5, 2, 1);
    auto optimized = SolveExact(problem);
    auto reference = SolveExactReference(problem);
    ASSERT_TRUE(optimized.ok()) << optimized.status();
    ASSERT_TRUE(reference.ok()) << reference.status();
    // Bitwise value equality, not approximate: the bound/prune machinery
    // must never perturb a double.
    EXPECT_EQ(optimized->captured_weight, reference->captured_weight)
        << "trial " << trial;
    EXPECT_EQ(optimized->captured_ceis, reference->captured_ceis)
        << "trial " << trial;
    EXPECT_EQ(optimized->completeness, reference->completeness)
        << "trial " << trial;
    EXPECT_EQ(optimized->weighted_completeness,
              reference->weighted_completeness)
        << "trial " << trial;
    ExpectSchedulesIdentical(optimized->schedule, reference->schedule);
  }
}

TEST(OfflineDifferentialTest, ExactMatchesReferenceWithWiderBudgets) {
  Rng rng(0xD1FF + 1);
  for (int trial = 0; trial < 60; ++trial) {
    const auto problem = RandomInstance(rng, 4, 6, 5, 3, 2);
    auto optimized = SolveExact(problem);
    auto reference = SolveExactReference(problem);
    ASSERT_TRUE(optimized.ok()) << optimized.status();
    ASSERT_TRUE(reference.ok()) << reference.status();
    EXPECT_EQ(optimized->captured_weight, reference->captured_weight)
        << "trial " << trial;
    ExpectSchedulesIdentical(optimized->schedule, reference->schedule);
  }
}

TEST(OfflineDifferentialTest, LocalRatioMatchesReference) {
  Rng rng(0x10CA);
  for (int trial = 0; trial < 200; ++trial) {
    const auto problem = RandomInstance(rng, 4, 12, 10, 3, 1 + trial % 2);
    for (const bool transform : {false, true}) {
      OfflineApproxOptions options;
      options.transform_to_p1 = transform;
      auto optimized = SolveOfflineApprox(problem, options);
      auto reference = SolveOfflineApproxReference(problem, options);
      ASSERT_TRUE(optimized.ok()) << optimized.status();
      ASSERT_TRUE(reference.ok()) << reference.status();
      EXPECT_EQ(optimized->committed_ceis, reference->committed_ceis)
          << "trial " << trial << " transform " << transform;
      EXPECT_EQ(optimized->completeness, reference->completeness)
          << "trial " << trial << " transform " << transform;
      ExpectSchedulesIdentical(optimized->schedule, reference->schedule);
    }
  }
}

TEST(OfflineDifferentialTest, GreedyMatchesReference) {
  Rng rng(0x62EE);
  for (int trial = 0; trial < 200; ++trial) {
    const auto problem = RandomInstance(rng, 4, 12, 10, 3, 1 + trial % 2);
    for (const bool share : {false, true}) {
      OfflineGreedyOptions options;
      options.allow_shared_probes = share;
      auto optimized = SolveOfflineGreedy(problem, options);
      auto reference = SolveOfflineGreedyReference(problem, options);
      ASSERT_TRUE(optimized.ok()) << optimized.status();
      ASSERT_TRUE(reference.ok()) << reference.status();
      EXPECT_EQ(optimized->committed_ceis, reference->committed_ceis)
          << "trial " << trial << " share " << share;
      EXPECT_EQ(optimized->completeness, reference->completeness)
          << "trial " << trial << " share " << share;
      ExpectSchedulesIdentical(optimized->schedule, reference->schedule);
    }
  }
}

// P^[1] rank-k property: on unit-width instances whose EIs occupy globally
// distinct (resource, chronon) slots (so probe sharing cannot widen the
// gap between the machine model and the true optimum), the local-ratio
// selection is within the paper's rank-dependent factor of the exact
// optimum: committed * (2k + 1) >= OPT.
TEST(OfflineDifferentialTest, LocalRatioRespectsRankBoundOnP1Instances) {
  Rng rng(0xBA12);
  for (int trial = 0; trial < 60; ++trial) {
    const int k = 1 + trial % 3;  // exact rank of every CEI
    const int num_resources = 4;
    const Chronon num_chronons = 8;
    // Globally unique (resource, chronon) slots: shuffle the full grid and
    // deal k slots to each CEI.
    std::vector<std::pair<ResourceId, Chronon>> slots;
    for (ResourceId r = 0; r < static_cast<ResourceId>(num_resources); ++r) {
      for (Chronon t = 0; t < num_chronons; ++t) slots.emplace_back(r, t);
    }
    rng.Shuffle(slots);
    const int num_ceis = static_cast<int>(slots.size()) / k >= 8
                             ? 8
                             : static_cast<int>(slots.size()) / k;
    ProblemBuilder builder(num_resources, num_chronons,
                           BudgetVector::Uniform(1));
    size_t next_slot = 0;
    for (int c = 0; c < num_ceis; ++c) {
      builder.BeginProfile();
      std::vector<std::tuple<ResourceId, Chronon, Chronon>> eis;
      for (int e = 0; e < k; ++e) {
        const auto [r, t] = slots[next_slot++];
        eis.emplace_back(r, t, t);  // unit width: P^[1]
      }
      ASSERT_TRUE(builder.AddCei(eis).ok());
    }
    auto problem = builder.Build();
    ASSERT_TRUE(problem.ok());

    auto exact = SolveExact(*problem);
    auto lr = SolveOfflineApprox(*problem);
    ASSERT_TRUE(exact.ok()) << exact.status();
    ASSERT_TRUE(lr.ok()) << lr.status();
    EXPECT_GE(lr->committed_ceis * (2 * k + 1), exact->captured_ceis)
        << "trial " << trial << " rank " << k;
  }
}

}  // namespace
}  // namespace webmon
