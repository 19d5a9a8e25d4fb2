// M-EDF: Multi Interval EDF (paper Section IV-A).
//
// A multi-EI-level policy: the value of an EI is the sum, over all
// not-yet-captured EIs of its parent CEI, of their S-EDF terms — i.e. the
// total number of usable chronons remaining in the CEI. CEIs with fewer
// total remaining chronons are less likely to collide with other CEIs later,
// so they are probed first. Proposition 3: equivalent to MRSF on P^[1]
// (unit-width) instances.

#ifndef WEBMON_POLICY_M_EDF_H_
#define WEBMON_POLICY_M_EDF_H_

#include <string>

#include "policy/policy.h"

namespace webmon {

/// Fewest-total-remaining-chronons-first.
class MEdfPolicy final : public Policy {
 public:
  std::string name() const override { return "M-EDF"; }
  Level level() const override { return Level::kMultiEi; }
  double Value(const CandidateEi& cand, Chronon now) const override;
  /// While no sibling has failed: the candidate's own term finish - t + 1
  /// plus 1 - (t - now) per other uncaptured sibling. Every such sibling
  /// ends at or after `now` (the scheduler fails windows as they close),
  /// so its term at t is at least that much; a sibling that has not
  /// started by t contributes its full length, at least 1. A failed
  /// sibling's term finish - t + 1 can be any negative number (k-of-n CEIs
  /// outlive failures), so then there is no bound: -infinity.
  double ValueFloor(const CandidateEi& cand, Chronon finish, Chronon t,
                    Chronon now) const override;
};

}  // namespace webmon

#endif  // WEBMON_POLICY_M_EDF_H_
