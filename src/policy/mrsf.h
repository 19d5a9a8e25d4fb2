// MRSF: Minimal Residual Stub First (paper Section IV-A).
//
// A rank-level policy: prefers EIs whose parent CEI has the fewest EIs left
// to capture — such CEIs are closest to completion, hence most likely to pay
// off. The paper writes the value as rank(p) - sum of captured indicators;
// its Proposition 3 derivation identifies rank(p) with |eta|, so we use the
// residual |eta| - captured(eta), which equals the paper's formula whenever
// every CEI of the profile has the profile's rank (the setting of all the
// paper's experiments) and matches the stated intuition in general.
// Proposition 2: l-competitive with l = max_eta sum_{I in eta} |I| when
// there is no intra-resource overlap.

#ifndef WEBMON_POLICY_MRSF_H_
#define WEBMON_POLICY_MRSF_H_

#include <string>

#include "policy/policy.h"

namespace webmon {

/// Fewest-residual-EIs-first.
class MrsfPolicy final : public Policy {
 public:
  std::string name() const override { return "MRSF"; }
  Level level() const override { return Level::kRank; }
  double Value(const CandidateEi& cand, Chronon now) const override;
  /// The residual ignores `now` entirely; it moves only on captures, so the
  /// scheduler can rank from an ordered index that it re-keys on captures.
  bool ValueStableBetweenCaptures() const override { return true; }
};

}  // namespace webmon

#endif  // WEBMON_POLICY_MRSF_H_
