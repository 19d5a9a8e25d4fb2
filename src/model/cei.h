// Complex execution interval (CEI): a conjunction of EIs.
//
// A CEI eta = {I_1, ..., I_l} is captured iff every one of its EIs is
// captured (AND semantics, paper Section III-A). |eta| is the number of EIs
// and is the CEI's contribution to its profile's rank.

#ifndef WEBMON_MODEL_CEI_H_
#define WEBMON_MODEL_CEI_H_

#include <cmath>
#include <string>
#include <vector>

#include "model/interval.h"
#include "model/types.h"

namespace webmon {

/// A complex execution interval. Passive data; helpers do not enforce
/// invariants (ProblemInstance::Validate does).
struct Cei {
  /// Unique id within the problem instance.
  CeiId id = 0;
  /// Owning profile (index into ProblemInstance::profiles()).
  ProfileId profile = 0;
  /// The member execution intervals. Non-empty in a valid instance.
  std::vector<ExecutionInterval> eis;
  /// Chronon at which the online proxy learns about this CEI. In an offline
  /// setting this is irrelevant; online it defaults to the earliest EI start
  /// (the proxy cannot act on an EI before its start anyway).
  Chronon arrival = 0;
  /// Client utility of capturing this CEI (the paper's Section VII "profile
  /// utilities" extension). 1 recovers the unweighted objective of Eq. 1.
  double weight = 1.0;
  /// Minimum number of EIs that must be captured to satisfy this CEI (the
  /// paper's Section VII "alternatives" extension). 0 means ALL EIs — the
  /// paper's baseline AND semantics. Must be <= |eis| in a valid instance.
  uint32_t required = 0;

  /// |eta|: the number of execution intervals.
  size_t Rank() const { return eis.size(); }

  /// Number of EI captures needed to satisfy this CEI: `required` when set,
  /// otherwise all of them.
  size_t RequiredCaptures() const {
    return required == 0 ? eis.size() : required;
  }

  /// Earliest start chronon over all EIs; kInvalidChronon when empty.
  Chronon EarliestStart() const;

  /// Latest finish chronon over all EIs; kInvalidChronon when empty.
  Chronon LatestFinish() const;

  /// Sum over EIs of |I| — the "total chronons" quantity used by the M-EDF
  /// intuition and by the competitive bound of Proposition 2.
  Chronon TotalChronons() const;

  /// True iff two EIs of this CEI refer to the same resource and overlap in
  /// time (intra-resource overlap, Section III-A). The theoretical bounds
  /// (Props. 1, 2) assume instances without such overlaps.
  bool HasIntraResourceOverlap() const;

  /// True iff every EI has width exactly one chronon (the P^[1] class of
  /// Proposition 3).
  bool IsUnitWidth() const;

  /// "CEI{id p=.. arrival=.. k EIs}" for diagnostics.
  std::string ToString() const;
};

/// True iff `weight` is a usable CEI utility: finite and positive. A NaN
/// weight would break the strict order W-MRSF ranks by (NaN compares false
/// both ways), and neither NaN nor an infinity survives the arrival log's
/// text form, so every entry point (ProblemInstance::Validate,
/// Proxy::Submit, AggregateShardStreams) rejects the rest.
inline bool IsValidWeight(double weight) {
  return std::isfinite(weight) && weight > 0.0;
}

/// Terminal-state audit of a CEI's life inside the online scheduler. A CEI
/// moves kUnknown -> kPending on arrival and then reaches exactly one of the
/// three terminal states; the scheduler's per-outcome counters
/// (ceis_captured / ceis_expired / ceis_cancelled) partition the terminal
/// population, which the churn tests assert as an accounting closure.
enum class CeiLifecycle : uint8_t {
  /// Never registered with the scheduler (or rejected on submission).
  kUnknown = 0,
  /// Registered and still schedulable (some EIs may already be captured).
  kPending = 1,
  /// Satisfied: RequiredCaptures() of its EIs were captured.
  kCaptured = 2,
  /// Dead by expiry: too many EI windows closed uncaptured.
  kExpired = 3,
  /// Dead by client cancellation (Proxy::Cancel).
  kCancelled = 4,
};

/// Stable lower-case name for logs and test diagnostics.
constexpr const char* CeiLifecycleName(CeiLifecycle lifecycle) {
  switch (lifecycle) {
    case CeiLifecycle::kPending:
      return "pending";
    case CeiLifecycle::kCaptured:
      return "captured";
    case CeiLifecycle::kExpired:
      return "expired";
    case CeiLifecycle::kCancelled:
      return "cancelled";
    case CeiLifecycle::kUnknown:
      break;
  }
  return "unknown";
}

}  // namespace webmon

#endif  // WEBMON_MODEL_CEI_H_
