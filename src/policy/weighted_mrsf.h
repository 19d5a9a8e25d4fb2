// W-MRSF: utility-weighted MRSF (the paper's Section VII extension).
//
// "Such utilities can further help to construct better prioritized
// policies": W-MRSF divides the MRSF residual by the parent CEI's client
// utility, so a high-utility CEI is probed before an equally-complete
// low-utility one. With unit weights it degenerates to MRSF exactly.

#ifndef WEBMON_POLICY_WEIGHTED_MRSF_H_
#define WEBMON_POLICY_WEIGHTED_MRSF_H_

#include <string>

#include "policy/policy.h"

namespace webmon {

/// Minimal residual-per-utility first.
class WeightedMrsfPolicy final : public Policy {
 public:
  std::string name() const override { return "W-MRSF"; }
  Level level() const override { return Level::kRank; }
  double Value(const CandidateEi& cand, Chronon now) const override;
  /// Residual / utility is `now`-independent like MRSF's residual, so
  /// values stay valid between capture events and the scheduler can rank
  /// from an ordered index.
  bool ValueStableBetweenCaptures() const override { return true; }
};

}  // namespace webmon

#endif  // WEBMON_POLICY_WEIGHTED_MRSF_H_
