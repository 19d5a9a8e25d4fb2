#include "policy/wic.h"

namespace webmon {

void WicPolicy::BeginChronon(const std::vector<CandidateEi>& active,
                             Chronon /*now*/) {
  for (ResourceId r : touched_) utility_[r] = 0;
  touched_.clear();
  for (const auto& cand : active) {
    if (!cand.IsLive()) continue;
    // Uniform urgency: each pending EI contributes 1 unit of utility to its
    // resource.
    const ResourceId r = cand.ei().resource;
    if (r >= utility_.size()) utility_.resize(r + size_t{1}, 0);
    // hotpath-alloc-ok: retained capacity
    if (utility_[r]++ == 0) touched_.push_back(r);
  }
}

double WicPolicy::Value(const CandidateEi& cand, Chronon /*now*/) const {
  const ResourceId r = cand.ei().resource;
  const uint32_t utility = r < utility_.size() ? utility_[r] : 0;
  return -static_cast<double>(utility);
}

}  // namespace webmon
