#include "policy/round_robin.h"

namespace webmon {

double RoundRobinPolicy::Value(const CandidateEi& cand, Chronon now) const {
  const ResourceId r = cand.ei().resource;
  const Chronon last = r < last_probed_.size() ? last_probed_[r] : -1;
  // Recently probed resources cost more; never-probed resources cost least.
  // A small deadline term breaks ties toward urgent intervals.
  const double recency = static_cast<double>(last + 1);
  const double deadline =
      static_cast<double>(SEdfValue(cand.ei(), now));
  return recency * 1e6 + deadline;
}

void RoundRobinPolicy::NotifyProbed(ResourceId resource, Chronon now) {
  if (resource >= last_probed_.size()) {
    last_probed_.resize(resource + size_t{1}, -1);
  }
  last_probed_[resource] = now;
}

}  // namespace webmon
