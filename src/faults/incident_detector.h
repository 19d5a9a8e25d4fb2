// Online fleet-incident detection from probe outcomes alone.
//
// The scheduler never receives an oracle signal that a correlated incident
// started (in the spirit of Mahmoody et al., adaptive probing schedules for
// rapid event detection): all it sees is its own attempt stream. The
// IncidentDetector turns that stream into a per-domain fleet breaker:
//   * a windowed failure-rate estimator aggregates the recent attempts to
//     each incident domain's covered resources,
//   * once the window holds enough attempts and their failure rate crosses
//     the open threshold, the domain's fleet breaker OPENS — the scheduler
//     deprioritizes every covered resource, redirecting the budget to
//     unaffected work,
//   * while open, one pseudo-randomly chosen covered resource is re-probed
//     every reprobe_interval chronons (the end-of-incident trial); enough
//     consecutive successful trials CLOSE the breaker again.
// All state is a pure function of (options, chronon sequence, attempt
// stream), so runs replay byte-identically and the
// auditor (AuditIncidentRun) can re-derive every decision from the attempt
// log.
//
// The detector is shared between OnlineScheduler (which feeds it live
// outcomes) and the audit layer (which replays a recorded log against it);
// it lives in src/faults because it needs the FaultSpec's domain coverage,
// never the injector's chain state.

#ifndef WEBMON_FAULTS_INCIDENT_DETECTOR_H_
#define WEBMON_FAULTS_INCIDENT_DETECTOR_H_

#include <cstdint>
#include <vector>

#include "faults/fault_model.h"
#include "model/probe_outcome.h"
#include "model/types.h"
#include "util/status.h"

namespace webmon {

/// Detector-side counters (the scheduler folds them into SchedulerStats).
struct IncidentDetectorStats {
  /// Fleet-breaker open / close transitions across all domains.
  int64_t opens = 0;
  int64_t closes = 0;
};

class IncidentDetector {
 public:
  /// Resolves `spec.incidents` coverage against `resources` in
  /// [0, num_resources); domains without a covered resource are inert.
  /// Only the incident_* fields of `options` are consulted.
  IncidentDetector(const FaultSpec& spec, uint32_t num_resources,
                   const FaultHandlingOptions& options);

  /// Advances the detector to chronon `now` (catching up over gaps one
  /// chronon at a time, so stepping patterns cannot change decisions):
  /// evicts window entries older than incident_window, evaluates the open
  /// condition per domain, and selects this chronon's trial resources.
  /// Call before consulting Suppressed()/OpenFor() for `now`.
  void BeginChronon(Chronon now);

  /// Folds one issued attempt into the windows of every covering domain;
  /// trial outcomes drive the close counter. Call for every attempt, after
  /// BeginChronon(now).
  void RecordAttempt(ResourceId resource, Chronon now, bool success);

  /// True iff the fleet breaker of `domain` is open.
  bool Open(size_t domain) const { return domains_[domain].open; }
  /// True iff the fleet breaker of any domain is open. While none is,
  /// Suppressed() is false for every resource.
  bool AnyOpen() const { return open_domains_ > 0; }
  /// True iff some domain covers `resource`. Suppressed() is always false
  /// for an uncovered resource.
  bool Covers(ResourceId resource) const {
    return !coverage_.DomainsCovering(resource).empty();
  }
  /// True iff `domain` is open and scheduled an end-of-incident trial for
  /// the current chronon; `*resource` receives the trial member. The
  /// scheduler issues the trial probe itself — the detector only picks it.
  bool TrialDue(size_t domain, ResourceId* resource) const;
  /// True iff any domain covering `resource` is open.
  bool OpenFor(ResourceId resource) const;
  /// True iff `resource` must be withheld at the current chronon: a
  /// covering domain is open and the resource is not the trial of any open
  /// covering domain.
  bool Suppressed(ResourceId resource) const;

  size_t num_domains() const { return domains_.size(); }
  const IncidentDetectorStats& stats() const { return stats_; }

 private:
  // Per-chronon aggregate of the attempts a domain's members received.
  struct WindowEntry {
    int32_t attempts = 0;
    int32_t failures = 0;
  };
  struct Domain {
    std::vector<ResourceId> members;  // resolved coverage, sorted
    // Chronon-indexed ring of the last incident_window + 1 chronons'
    // aggregates: chronon t lives in slot t % window.size(). Sized once in
    // the constructor; AdvanceOne(t) evicts the slot it is about to reuse
    // (chronon t - window.size()), so the tick never allocates.
    std::vector<WindowEntry> window;
    int64_t window_attempts = 0;
    int64_t window_failures = 0;
    bool open = false;
    Chronon opened_at = 0;
    int32_t trial_successes = 0;
    // The trial resource selected for the current chronon; valid iff
    // trial_chronon equals the BeginChronon cursor.
    ResourceId trial_resource = 0;
    Chronon trial_chronon = -1;
  };

  void AdvanceOne(Chronon t);

  FaultHandlingOptions options_;
  std::vector<Domain> domains_;
  DomainCoverage coverage_;
  // Domains whose breaker is open: +1 when AdvanceOne opens one, -1 when a
  // trial in RecordAttempt closes one.
  size_t open_domains_ = 0;
  Chronon cursor_ = -1;
  IncidentDetectorStats stats_;
};

/// Derived counters of an incident audit; attempt-log evaluated.
struct IncidentAuditReport {
  /// Attempts tagged kDetectorOpen (fleet-breaker trials).
  int64_t trial_attempts = 0;
  /// Fleet-breaker open transitions the replay derived.
  int64_t opens = 0;
};

/// Replays `attempts` against a fresh IncidentDetector (the same pure state
/// machine the scheduler ran) and verifies the incident contract:
///   * the kDetectorOpen tag of every attempt matches the replayed
///     detector's belief at issue time,
///   * no attempt was issued to a resource the fleet breaker suppressed —
///     while a covering domain is open, only its trial resource may be
///     probed.
/// Returns OK iff every invariant holds; `report` (optional) receives the
/// derived counters to cross-check SchedulerStats. Specs without incident
/// domains audit trivially (every tag must be 0).
Status AuditIncidentRun(const FaultSpec& spec, uint32_t num_resources,
                        const std::vector<ProbeAttempt>& attempts,
                        const FaultHandlingOptions& options,
                        IncidentAuditReport* report = nullptr);

}  // namespace webmon

#endif  // WEBMON_FAULTS_INCIDENT_DETECTOR_H_
