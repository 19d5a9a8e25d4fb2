// Round-robin policy: another non-paper baseline. Cycles deterministically
// over resources, preferring the resource least recently probed; within a
// resource, earlier deadlines first.

#ifndef WEBMON_POLICY_ROUND_ROBIN_H_
#define WEBMON_POLICY_ROUND_ROBIN_H_

#include <string>
#include <vector>

#include "policy/policy.h"

namespace webmon {

/// Least-recently-probed-resource-first selection.
class RoundRobinPolicy final : public Policy {
 public:
  std::string name() const override { return "RoundRobin"; }
  Level level() const override { return Level::kIndividualEi; }

  double Value(const CandidateEi& cand, Chronon now) const override;

  /// Advances the rotation when the scheduler probes `resource`.
  void NotifyProbed(ResourceId resource, Chronon now) override;

 private:
  // last_probed_[r] = chronon of the latest probe of resource r, -1 if
  // never; grown on demand (resources past the end were never probed).
  std::vector<Chronon> last_probed_;
};

}  // namespace webmon

#endif  // WEBMON_POLICY_ROUND_ROBIN_H_
