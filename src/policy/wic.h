// WIC baseline: reimplementation of the prior-art single-resource Web
// monitor of Pandey et al. [3], per the paper's Section V-A.3 setup.
//
// WIC assigns each resource an accumulated utility — the sum over its
// currently active, uncaptured EIs of urgency * p_ij — and probes the
// resources with the maximum accumulated utility each chronon. Following the
// paper's configuration we use uniform urgency (1 per EI) and p_ij = 1 when
// the resource has something to capture at T_j, which is exactly when an
// active EI exists on it; `life` (overwrite vs time-window-append(w)) is
// already encoded in the EI lengths by the workload generator. WIC is
// individual-EI level: it is blind to CEI structure.

#ifndef WEBMON_POLICY_WIC_H_
#define WEBMON_POLICY_WIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "policy/policy.h"

namespace webmon {

/// Maximum-accumulated-utility-per-resource policy.
class WicPolicy final : public Policy {
 public:
  std::string name() const override { return "WIC"; }
  Level level() const override { return Level::kIndividualEi; }

  /// Counts this chronon's live active EIs per resource (the utility).
  void BeginChronon(const std::vector<CandidateEi>& active,
                    Chronon now) override;

  /// Cost = -utility(resource): the scheduler's ascending pick becomes
  /// WIC's max-utility pick. Fractional deadline tiebreak keeps choices
  /// deterministic without affecting the utility ordering.
  double Value(const CandidateEi& cand, Chronon now) const override;

 private:
  // utility_[r] = live active EIs on resource r this chronon. Grown on
  // demand and never shrunk; touched_ lists the resources counted this
  // chronon so the next one resets O(touched), not O(resources), and a
  // steady-state chronon allocates nothing.
  std::vector<uint32_t> utility_;
  std::vector<ResourceId> touched_;
};

}  // namespace webmon

#endif  // WEBMON_POLICY_WIC_H_
