// Runtime candidate state shared between policies and the online scheduler.
//
// At chronon T_j the proxy holds a set of candidate CEIs, cands(eta) —
// those that arrived at or before T_j and are neither fully captured nor
// dead — and the bag of their EIs, cands(I) (paper Section IV, Appendix A).
// CeiState tracks, per candidate CEI, which of its EIs have been captured or
// have failed so far; CandidateEi is a cheap handle to one EI of one
// candidate CEI.

#ifndef WEBMON_POLICY_CANDIDATE_H_
#define WEBMON_POLICY_CANDIDATE_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "model/cei.h"
#include "util/check.h"

namespace webmon {

/// Mutable per-CEI scheduling state. Owned by the online scheduler; policies
/// only read it.
///
/// Layout matters here: the rank scan reads the state of every live
/// candidate EI every chronon, so everything IsLive, Complete, Started,
/// BeyondRepair, the policies' value floors and M-EDF's Value read of the
/// state shares one 64-byte cache line: the 32-bit counters (memoized at
/// construction, the Cei is immutable), the flags, and the capture and
/// failure words of EIs 0-63. A CEI wider than 64 EIs keeps both sets'
/// words beyond EI 63 in one owned spill block, allocated at construction
/// and only for such CEIs (docs/PERFORMANCE.md "Memory & sustained
/// throughput").
struct alignas(64) CeiState {
  explicit CeiState(const Cei* cei_def);
  CeiState(const CeiState& other);
  CeiState& operator=(const CeiState& other);
  /// A moved-from state may only be assigned to or destroyed.
  CeiState(CeiState&& other) noexcept = default;
  CeiState& operator=(CeiState&& other) noexcept = default;

  /// The immutable CEI definition.
  const Cei* cei;
  /// Running count of captured EIs (== number of Captured(i)).
  uint32_t num_captured = 0;
  /// Running count of failed EIs (== number of Failed(i)).
  uint32_t num_failed = 0;
  /// Memoized cei->RequiredCaptures() (the Cei never changes).
  uint32_t required_captures;
  /// Memoized cei->eis.size().
  uint32_t num_eis;
  /// Set when the CEI can no longer be satisfied: more EIs failed than the
  /// subset semantics tolerate, or the client cancelled it mid-epoch.
  bool dead = false;
  /// Set (together with `dead`) when the CEI was removed by a client cancel
  /// rather than by expiry — distinguishes the terminal states for the
  /// lifecycle audit without adding a branch to the hot liveness checks.
  bool cancelled = false;
  /// The scheduler's position of this state in its state table. Scheduler
  /// bookkeeping: the ordered candidate index keys its per-state generation
  /// words by it, and terminal-state reclamation its release chronons.
  uint32_t index = 0;
  /// The chronon the scheduler registered this CEI at (AddArrival's `now`).
  /// Scheduler bookkeeping: cancellation uses it to tell whether an EI was
  /// admitted straight to the active index (start <= admitted_at) or parked
  /// in its start chronon's pending bucket.
  Chronon admitted_at = 0;

  /// True iff cei->eis[i] has been captured.
  bool Captured(uint32_t i) const {
    return (Word(kCaptured, i) & Bit(i)) != 0;
  }
  /// True iff cei->eis[i]'s window expired uncaptured.
  bool Failed(uint32_t i) const { return (Word(kFailed, i) & Bit(i)) != 0; }
  /// True iff cei->eis[i] is captured or failed.
  bool Spent(uint32_t i) const {
    return ((Word(kCaptured, i) | Word(kFailed, i)) & Bit(i)) != 0;
  }
  /// Set the bit only; the caller keeps num_captured / num_failed.
  void SetCaptured(uint32_t i) { MutableWord(kCaptured, i) |= Bit(i); }
  void SetFailed(uint32_t i) { MutableWord(kFailed, i) |= Bit(i); }

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

 private:
  enum BitSet : uint32_t { kCaptured = 0, kFailed = 1 };
  static uint64_t Bit(uint32_t i) { return uint64_t{1} << (i & 63); }
  // Words per set beyond the inline one.
  size_t SpillWords() const { return (num_eis - 1) / 64; }
  uint64_t Word(BitSet set, uint32_t i) const {
    WEBMON_DCHECK_LT(i, num_eis);
    return i < 64 ? words_[set] : spill_[set * SpillWords() + (i >> 6) - 1];
  }
  uint64_t& MutableWord(BitSet set, uint32_t i) {
    WEBMON_DCHECK_LT(i, num_eis);
    return i < 64 ? words_[set] : spill_[set * SpillWords() + (i >> 6) - 1];
  }

  // The capture and failure words of EIs 0-63.
  uint64_t words_[2] = {0, 0};
  // CEIs wider than 64 EIs only: the capture words beyond the inline one,
  // then the failure words, SpillWords() each.
  std::unique_ptr<uint64_t[]> spill_;
};
static_assert(sizeof(CeiState) == 64, "CeiState must fill one cache line");
static_assert(alignof(CeiState) == 64, "CeiState must start a cache line");

/// Handle to one EI of one candidate CEI.
struct CandidateEi {
  CeiState* state = nullptr;
  uint32_t ei_index = 0;

  const ExecutionInterval& ei() const {
    WEBMON_DCHECK(state != nullptr);
    WEBMON_DCHECK_LT(ei_index, state->cei->eis.size());
    return state->cei->eis[ei_index];
  }
  bool IsCaptured() const { return state->Captured(ei_index); }

  /// True iff this candidate may still be probed some chronon: its CEI is
  /// live and unsatisfied, the EI itself uncaptured and unfailed. The
  /// scheduler marks EIs failed as their windows close, so for an entry of
  /// the active list liveness needs no window check.
  bool IsLive() const {
    return !state->dead && !state->Complete() && !state->Spent(ei_index);
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
