// Policy interface for online probe selection (paper Section IV-A).
//
// At every chronon the online scheduler asks the configured policy to rank
// the active candidate EIs and greedily takes up to C_j of them (with
// resource dedup). All paper policies prefer the candidate with MINIMAL
// value, so Value() is a cost: lower is more urgent.
//
// Policies are classified by how much of the profile hierarchy they inspect:
//   kIndividualEi — only the single EI (S-EDF, WIC);
//   kRank         — the parent CEI's residual rank (MRSF);
//   kMultiEi      — all sibling EIs of the parent CEI (M-EDF).

#ifndef WEBMON_POLICY_POLICY_H_
#define WEBMON_POLICY_POLICY_H_

#include <memory>
#include <string>
#include <vector>

#include "model/types.h"
#include "policy/candidate.h"

namespace webmon {

/// Abstract probe-selection policy.
class Policy {
 public:
  /// Information level used by the policy (paper's three-level
  /// classification).
  enum class Level {
    kIndividualEi,
    kRank,
    kMultiEi,
  };

  virtual ~Policy() = default;

  /// Short identifier used in reports, e.g. "S-EDF".
  virtual std::string name() const = 0;

  /// The classification level.
  virtual Level level() const = 0;

  /// Called once per chronon before any Value() calls, with the active
  /// candidate EIs in activation order. Stateful policies (WIC's
  /// per-resource utility, Random's per-candidate draws) precompute here;
  /// the default does nothing.
  ///
  /// The online scheduler passes its own active list, not a copy, before
  /// the chronon's compaction prunes it: entries whose IsLive() is false
  /// (captured, failed, or of a CEI that completed, died, or was cancelled)
  /// may still be present and must be skipped. The live entries are
  /// exactly the activated, uncaptured EIs of live CEIs whose window
  /// contains `now`, in activation order. On its ordered-index path (a
  /// policy that declares ValueStableBetweenCaptures(), see below) the
  /// scheduler keeps no activation-ordered list and passes an empty one;
  /// MRSF and W-MRSF do not override BeginChronon.
  virtual void BeginChronon(const std::vector<CandidateEi>& active,
                            Chronon now);

  /// Cost of probing `cand` at chronon `now`; the scheduler picks candidates
  /// in ascending Value order. Ties are broken by earlier deadline, then by
  /// EI id, to keep runs deterministic. Value must not mutate policy state
  /// (enforced by const). NotifyProbed is invoked after ranking.
  virtual double Value(const CandidateEi& cand, Chronon now) const = 0;

  /// A lower bound on Value(cand, t), cheap enough to test before Value:
  /// the scan path's bounded top-C selection asks it once its board is
  /// full and skips Value for a candidate whose floor already loses to the
  /// board's worst entry (docs/PERFORMANCE.md "Top-C selection"). Called
  /// during the rank phase of chronon `now` with a live candidate, its own
  /// window end `finish` (== cand.ei().finish) and the chronon it is valued
  /// at, now <= t <= finish (t exceeds now by its resource's fault
  /// deadline shrink). It may rely on the scheduler invariant that every
  /// uncaptured, unfailed EI of a live CEI has finish >= now, and must then
  /// never exceed Value(cand, t) — a floor that does changes the schedule.
  /// The default, -infinity, never skips a Value call.
  virtual double ValueFloor(const CandidateEi& cand, Chronon finish,
                            Chronon t, Chronon now) const;

  /// True iff Value(cand, now) is independent of `now` and changes only
  /// when cand.state's capture progress changes (e.g. MRSF's residual
  /// rank). With uniform costs and no fault injector the scheduler then
  /// keeps every activated EI in an ordered index and calls Value only when
  /// the EI is activated and again each time its CEI captures one of its
  /// EIs, instead of for every live candidate each chronon; otherwise it
  /// values candidates each chronon like any other policy. The default
  /// (false) always revalues each chronon.
  virtual bool ValueStableBetweenCaptures() const { return false; }

  /// Called by the scheduler after it decides to probe `resource` at `now`.
  /// Lets history-sensitive policies (round-robin) advance their state; the
  /// default does nothing.
  virtual void NotifyProbed(ResourceId resource, Chronon now);
};

/// Returns the canonical spelling of `level`.
const char* PolicyLevelToString(Policy::Level level);

}  // namespace webmon

#endif  // WEBMON_POLICY_POLICY_H_
