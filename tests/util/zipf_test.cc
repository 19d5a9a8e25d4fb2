#include "util/zipf.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace webmon {
namespace {

TEST(ZipfTest, RejectsZeroN) {
  EXPECT_FALSE(ZipfSampler::Create(0, 1.0).ok());
}

TEST(ZipfTest, RejectsNegativeTheta) {
  EXPECT_FALSE(ZipfSampler::Create(10, -0.1).ok());
}

TEST(ZipfTest, RejectsNanTheta) {
  EXPECT_FALSE(
      ZipfSampler::Create(10, std::numeric_limits<double>::quiet_NaN()).ok());
}

// The guide table only narrows the search: every variate must map to
// exactly what std::lower_bound over the whole CDF returns, also at the
// CDF's own entries and at the guide buckets' edges.
TEST(ZipfTest, GuideTableMatchesFullBinarySearch) {
  for (const uint32_t n : {1u, 2u, 1000u, 200000u, 1000000u}) {
    for (const double theta : {0.0, 0.3, 0.8, 1.2}) {
      auto sampler = ZipfSampler::Create(n, theta);
      ASSERT_TRUE(sampler.ok());
      const std::vector<double>& cdf = sampler->cdf();
      ASSERT_EQ(cdf.size(), n);
      int mismatches = 0;
      const auto check = [&](double u) {
        const auto want = static_cast<uint32_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin() + 1);
        if (sampler->SampleAt(u) != want && ++mismatches <= 5) {
          ADD_FAILURE() << "n " << n << " theta " << theta << " u " << u
                        << ": " << sampler->SampleAt(u) << " vs " << want;
        }
      };
      Rng rng(n * 31 + static_cast<uint64_t>(theta * 10));
      for (int i = 0; i < 100000; ++i) {
        Rng copy = rng;
        const double u = rng.UniformDouble();
        check(u);
        // Sample draws the same variate.
        const auto want = static_cast<uint32_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin() + 1);
        if (sampler->Sample(copy) != want) ++mismatches;
      }
      for (const double c : cdf) check(c);
      for (uint32_t b = 0; b <= 1024; ++b) check(b / 1024.0);
      for (uint32_t b = 0; b <= 32768; b += 7) check(b / 32768.0);
      EXPECT_EQ(mismatches, 0) << "n " << n << " theta " << theta;
    }
  }
}

TEST(ZipfTest, ThetaZeroIsUniform) {
  auto sampler = ZipfSampler::Create(4, 0.0);
  ASSERT_TRUE(sampler.ok());
  for (uint32_t i = 1; i <= 4; ++i) {
    EXPECT_NEAR(sampler->Probability(i), 0.25, 1e-12);
  }
}

TEST(ZipfTest, ProbabilitiesSumToOne) {
  auto sampler = ZipfSampler::Create(100, 1.37);
  ASSERT_TRUE(sampler.ok());
  double sum = 0;
  for (uint32_t i = 1; i <= 100; ++i) sum += sampler->Probability(i);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfTest, ProbabilityOutOfRangeIsZero) {
  auto sampler = ZipfSampler::Create(5, 1.0);
  ASSERT_TRUE(sampler.ok());
  EXPECT_EQ(sampler->Probability(0), 0.0);
  EXPECT_EQ(sampler->Probability(6), 0.0);
}

TEST(ZipfTest, SkewFavorsSmallIndices) {
  auto sampler = ZipfSampler::Create(50, 1.0);
  ASSERT_TRUE(sampler.ok());
  EXPECT_GT(sampler->Probability(1), sampler->Probability(2));
  EXPECT_GT(sampler->Probability(2), sampler->Probability(10));
  EXPECT_GT(sampler->Probability(10), sampler->Probability(50));
}

TEST(ZipfTest, SamplesInRange) {
  auto sampler = ZipfSampler::Create(7, 0.8);
  ASSERT_TRUE(sampler.ok());
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const uint32_t v = sampler->Sample(rng);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 7u);
  }
}

TEST(ZipfTest, SampleIndexIsZeroBased) {
  auto sampler = ZipfSampler::Create(3, 0.0);
  ASSERT_TRUE(sampler.ok());
  Rng rng(6);
  for (int i = 0; i < 300; ++i) {
    EXPECT_LT(sampler->SampleIndex(rng), 3u);
  }
}

TEST(ZipfTest, EmpiricalMatchesPmf) {
  auto sampler = ZipfSampler::Create(10, 1.37);
  ASSERT_TRUE(sampler.ok());
  Rng rng(7);
  std::vector<int> counts(11, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[sampler->Sample(rng)];
  for (uint32_t i = 1; i <= 10; ++i) {
    const double freq = static_cast<double>(counts[i]) / n;
    EXPECT_NEAR(freq, sampler->Probability(i), 0.005) << "value " << i;
  }
}

TEST(ZipfTest, SingleValueDegenerate) {
  auto sampler = ZipfSampler::Create(1, 2.0);
  ASSERT_TRUE(sampler.ok());
  Rng rng(8);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sampler->Sample(rng), 1u);
  EXPECT_EQ(sampler->Probability(1), 1.0);
}

// Parameterized sweep: the empirical mean should decrease as theta grows
// (more mass on small values).
class ZipfSkewSweep : public ::testing::TestWithParam<double> {};

TEST_P(ZipfSkewSweep, MeanDecreasesWithSkewBaseline) {
  const double theta = GetParam();
  auto uniform = ZipfSampler::Create(20, 0.0);
  auto skewed = ZipfSampler::Create(20, theta);
  ASSERT_TRUE(uniform.ok());
  ASSERT_TRUE(skewed.ok());
  Rng rng(9);
  double mean_u = 0;
  double mean_s = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    mean_u += uniform->Sample(rng);
    mean_s += skewed->Sample(rng);
  }
  mean_u /= n;
  mean_s /= n;
  EXPECT_LT(mean_s, mean_u);
}

INSTANTIATE_TEST_SUITE_P(Skews, ZipfSkewSweep,
                         ::testing::Values(0.3, 0.5, 1.0, 1.37, 2.0));

}  // namespace
}  // namespace webmon
