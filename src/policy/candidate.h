// Runtime candidate state shared between policies and the online scheduler.
//
// At chronon T_j the proxy holds a set of candidate CEIs, cands(eta) —
// those that arrived at or before T_j and are neither fully captured nor
// dead — and the bag of their EIs, cands(I) (paper Section IV, Appendix A).
// CeiState tracks, per candidate CEI, which of its EIs have been captured so
// far; CandidateEi is a cheap handle to one EI of one candidate CEI.

#ifndef WEBMON_POLICY_CANDIDATE_H_
#define WEBMON_POLICY_CANDIDATE_H_

#include <cstdint>

#include "model/cei.h"
#include "util/check.h"
#include "util/small_bitset.h"

namespace webmon {

/// Mutable per-CEI scheduling state. Owned by the online scheduler; policies
/// only read it.
///
/// Layout matters here: the scheduler's ranking pass tests liveness for
/// every active EI every chronon, so the hot fields (counts, dead flag, the
/// capture/failure bit words for ranks <= 64) are plain inline members that
/// land together, RequiredCaptures()/eis.size() are memoized at construction
/// (the Cei is immutable), and the per-EI flags are SmallBitsets instead of
/// heap-backed vector<bool>s (docs/PERFORMANCE.md "Memory & sustained
/// throughput").
struct CeiState {
  explicit CeiState(const Cei* cei_def)
      : cei((WEBMON_CHECK(cei_def != nullptr), cei_def)),
        required_captures(cei_def->RequiredCaptures()),
        num_eis(cei_def->eis.size()),
        captured(cei_def->eis.size()),
        failed(cei_def->eis.size()) {}

  /// The immutable CEI definition.
  const Cei* cei;
  /// Running count of captured EIs (== count of true in `captured`).
  size_t num_captured = 0;
  /// Running count of failed EIs (== count of true in `failed`).
  size_t num_failed = 0;
  /// Memoized cei->RequiredCaptures() (the Cei never changes).
  size_t required_captures;
  /// Memoized cei->eis.size().
  size_t num_eis;
  /// Set when the CEI can no longer be satisfied: more EIs failed than the
  /// subset semantics tolerate, or the client cancelled it mid-epoch.
  bool dead = false;
  /// Set (together with `dead`) when the CEI was removed by a client cancel
  /// rather than by expiry — distinguishes the terminal states for the
  /// lifecycle audit without adding a branch to the hot liveness checks.
  bool cancelled = false;
  /// The scheduler's position of this state in its state table. Scheduler
  /// bookkeeping: the ordered candidate index keys its per-state generation
  /// words by it.
  uint32_t index = 0;
  /// The chronon the scheduler registered this CEI at (AddArrival's `now`).
  /// Scheduler bookkeeping: cancellation uses it to tell whether an EI was
  /// admitted straight to the active index (start <= admitted_at) or parked
  /// in its start chronon's pending bucket.
  Chronon admitted_at = 0;
  /// captured[i] == true iff cei->eis[i] has been captured.
  SmallBitset captured;
  /// failed[i] == true iff cei->eis[i]'s window expired uncaptured.
  SmallBitset failed;

  /// True iff enough EIs are captured to satisfy the CEI (all of them under
  /// the paper's baseline AND semantics; `required` of them under the
  /// Section VII "alternatives" extension).
  bool Complete() const { return num_captured >= required_captures; }

  /// True iff at least one EI has been captured (used by non-preemptive
  /// policies to prioritize previously probed CEIs).
  bool Started() const { return num_captured > 0; }

  /// Number of EI captures still needed to satisfy the CEI.
  size_t Residual() const {
    return required_captures > num_captured
               ? required_captures - num_captured
               : 0;
  }

  /// True iff too many EIs have failed for the CEI ever to complete.
  bool BeyondRepair() const {
    return num_eis - num_failed < required_captures;
  }
};

/// Handle to one EI of one candidate CEI.
struct CandidateEi {
  CeiState* state = nullptr;
  uint32_t ei_index = 0;

  const ExecutionInterval& ei() const {
    WEBMON_DCHECK(state != nullptr);
    WEBMON_DCHECK_LT(ei_index, state->cei->eis.size());
    return state->cei->eis[ei_index];
  }
  bool IsCaptured() const { return state->captured[ei_index]; }

  /// True iff this candidate may still be probed some chronon: its CEI is
  /// live and unsatisfied, the EI itself uncaptured and unfailed. The
  /// scheduler marks EIs failed as their windows close, so for an entry of
  /// the active list liveness needs no window check.
  bool IsLive() const {
    return !state->dead && !state->Complete() && !state->captured[ei_index] &&
           !state->failed[ei_index];
  }

  /// True iff this candidate may legally be probed at chronon `now`: it is
  /// live and `now` lies inside the EI's window. The scheduler DCHECKs this
  /// before every probe (candidate legality contract).
  bool IsLegalAt(Chronon now) const {
    return state != nullptr && IsLive() && ei().Contains(now);
  }
};

/// S-EDF deadline value of a single EI at chronon `now`: the number of
/// remaining chronons until the interval closes, I.T_f - T + 1
/// (paper Section IV-A). Exposed here because M-EDF reuses it.
inline Chronon SEdfValue(const ExecutionInterval& ei, Chronon now) {
  return ei.finish - now + 1;
}

/// The per-sibling term of M-EDF: for an already-active EI this is its S-EDF
/// deadline from `now`; for a not-yet-active EI the paper evaluates the EDF
/// "with T = 0" relative to the interval, i.e. its full length. Both cases
/// collapse to finish - max(now, start) + 1, the number of chronons of the
/// EI that are still usable — matching the paper's Examples 1 and 2, where
/// M-EDF "accumulates the number of chronons of all remaining EIs".
inline Chronon MEdfSiblingValue(const ExecutionInterval& ei, Chronon now) {
  const Chronon effective_now = now > ei.start ? now : ei.start;
  return ei.finish - effective_now + 1;
}

}  // namespace webmon

#endif  // WEBMON_POLICY_CANDIDATE_H_
