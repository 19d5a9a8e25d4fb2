#include "util/zipf.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/check.h"

namespace webmon {

StatusOr<ZipfSampler> ZipfSampler::Create(uint32_t n, double theta) {
  if (n == 0) {
    return Status::InvalidArgument("ZipfSampler: n must be positive");
  }
  if (!(theta >= 0.0)) {  // also rejects NaN
    return Status::InvalidArgument("ZipfSampler: theta must be >= 0");
  }
  std::vector<double> cdf(n);
  double sum = 0.0;
  for (uint32_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
    cdf[i - 1] = sum;
  }
  for (auto& c : cdf) c /= sum;
  cdf.back() = 1.0;  // guard against floating point shortfall
  return ZipfSampler(n, theta, std::move(cdf));
}

ZipfSampler::ZipfSampler(uint32_t n, double theta, std::vector<double> cdf)
    : n_(n),
      theta_(theta),
      cdf_(std::move(cdf)),
      buckets_(n >= kMaxGuideBuckets ? kMaxGuideBuckets : std::bit_ceil(n)),
      guide_(buckets_ + size_t{2}) {
  // Bucket(cdf_.back()) = Bucket(1) = buckets_, so the walk stops inside
  // the CDF for every b.
  uint32_t i = 0;
  for (uint32_t b = 0; b <= buckets_; ++b) {
    while (Bucket(cdf_[i]) < b) ++i;
    guide_[b] = i;
  }
  guide_[buckets_ + 1] = n - 1;
}

uint32_t ZipfSampler::SampleAt(double u) const {
  WEBMON_DCHECK(u >= 0.0 && u <= 1.0) << "variate " << u << " outside [0, 1]";
  // The answer a (the first i with cdf_[i] >= u) lies in [lo, hi] for the
  // draw's bucket b = Bucket(u), because Bucket is monotone and the CDF is
  // non-decreasing:
  //   lo = guide_[b]: every i < lo has Bucket(cdf_[i]) < b = Bucket(u), so
  //     cdf_[i] < u (cdf_[i] >= u would give Bucket(cdf_[i]) >= b);
  //   hi = guide_[b + 1]: Bucket(cdf_[hi]) > Bucket(u), so cdf_[hi] > u;
  //     for b = buckets_ (u = 1), hi = n - 1 and cdf_[hi] = 1 = u.
  // lower_bound over [lo, hi) returns a, or hi when a = hi.
  const size_t b = Bucket(u);
  const auto first = cdf_.begin() + guide_[b];
  const auto last = cdf_.begin() + guide_[b + 1];
  return static_cast<uint32_t>(std::lower_bound(first, last, u) -
                               cdf_.begin()) +
         1;
}

double ZipfSampler::Probability(uint32_t i) const {
  if (i == 0 || i > n_) return 0.0;
  const double lower = (i == 1) ? 0.0 : cdf_[i - 2];
  return cdf_[i - 1] - lower;
}

}  // namespace webmon
