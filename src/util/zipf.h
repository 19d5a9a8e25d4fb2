// Zipf-distributed sampling over {1, ..., n}.
//
// The paper's workload generator uses two Zipf distributions: Zipf(beta, k)
// for the rank (complexity) of each profile and Zipf(alpha, n) for the
// resources each CEI refers to (Section V-A.2). theta = 0 degenerates to the
// uniform distribution U[1, n]; larger theta skews probability mass toward
// small indices ("popular" items).

#ifndef WEBMON_UTIL_ZIPF_H_
#define WEBMON_UTIL_ZIPF_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"
#include "util/status.h"

namespace webmon {

/// Samples from P(X = i) = (1/i^theta) / H(n, theta) for i in {1..n}.
///
/// Inverts a precomputed CDF exactly (no approximation): a draw u returns
/// the first index whose CDF entry is >= u, as std::lower_bound over the
/// whole CDF would. A guide table of at most 2^15 + 2 entries narrows each
/// search to the CDF entries between two neighbouring guide entries, so a
/// draw stays cheap at n = 10^6 (a full search there costs ~20 dependent
/// reads spread over 8 MB). Construction is O(n).
class ZipfSampler {
 public:
  /// Creates a sampler; fails if n == 0 or theta < 0.
  static StatusOr<ZipfSampler> Create(uint32_t n, double theta);

  /// Draws an index in {1, ..., n} (1-based, matching the paper's notation).
  uint32_t Sample(Rng& rng) const { return SampleAt(rng.UniformDouble()); }

  /// The value Sample returns for the uniform variate `u` in [0, 1]: the
  /// smallest i with cdf()[i - 1] >= u.
  uint32_t SampleAt(double u) const;

  /// Draws a 0-based index in {0, ..., n-1}.
  uint32_t SampleIndex(Rng& rng) const { return Sample(rng) - 1; }

  /// Exact probability of drawing value `i` (1-based).
  double Probability(uint32_t i) const;

  uint32_t n() const { return n_; }
  double theta() const { return theta_; }
  /// cdf()[i] = P(X <= i + 1), non-decreasing; cdf().back() == 1.
  const std::vector<double>& cdf() const { return cdf_; }

 private:
  // Guide buckets: the smallest power of two >= n, capped here.
  static constexpr uint32_t kMaxGuideBuckets = uint32_t{1} << 15;

  ZipfSampler(uint32_t n, double theta, std::vector<double> cdf);

  // The guide bucket of a value x in [0, 1]: floor(x * m) for the bucket
  // count m, a power of two, so the product is exact. Monotone in x, and
  // the same function at construction and at lookup — which is all the
  // guide table's exactness argument needs (zipf.cc).
  size_t Bucket(double x) const {
    return static_cast<size_t>(x * static_cast<double>(buckets_));
  }

  uint32_t n_;
  double theta_;
  std::vector<double> cdf_;
  uint32_t buckets_;
  // guide_[b], b in [0, m], is the first index i with Bucket(cdf_[i]) >= b;
  // guide_[m + 1] = n - 1. The answer for a draw in bucket b lies in
  // [guide_[b], guide_[b + 1]].
  std::vector<uint32_t> guide_;
};

}  // namespace webmon

#endif  // WEBMON_UTIL_ZIPF_H_
