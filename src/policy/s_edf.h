// S-EDF: Single Interval Early Deadline First (paper Section IV-A).
//
// An individual-EI-level policy: prefers the active EI with the fewest
// remaining chronons until its deadline, S-EDF(I, T) = I.T_f - T + 1.
// Proposition 1: optimal when rank(P) = 1 and there is no intra-resource
// overlap.

#ifndef WEBMON_POLICY_S_EDF_H_
#define WEBMON_POLICY_S_EDF_H_

#include <string>

#include "policy/policy.h"

namespace webmon {

/// Earliest-deadline-first over single execution intervals.
class SEdfPolicy final : public Policy {
 public:
  std::string name() const override { return "S-EDF"; }
  Level level() const override { return Level::kIndividualEi; }
  double Value(const CandidateEi& cand, Chronon now) const override;
  /// Exact: finish - t + 1, read from the scheduler's cached window end.
  double ValueFloor(const CandidateEi& cand, Chronon finish, Chronon t,
                    Chronon now) const override;
};

}  // namespace webmon

#endif  // WEBMON_POLICY_S_EDF_H_
