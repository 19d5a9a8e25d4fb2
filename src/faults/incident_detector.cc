#include "faults/incident_detector.h"

#include <algorithm>
#include <sstream>
#include <string>

#include "util/check.h"
#include "util/rng.h"

namespace webmon {

IncidentDetector::IncidentDetector(const FaultSpec& spec,
                                   uint32_t num_resources,
                                   const FaultHandlingOptions& options)
    : options_(options), coverage_(spec.incidents, num_resources) {
  if (spec.incidents.empty()) return;
  domains_.resize(spec.incidents.size());
  const size_t slots =
      static_cast<size_t>(std::max<Chronon>(options_.incident_window, 1)) + 1;
  for (Domain& domain : domains_) domain.window.resize(slots);
  for (uint32_t r = 0; r < num_resources; ++r) {
    for (uint32_t d : coverage_.DomainsCovering(r)) {
      domains_[d].members.push_back(r);
    }
  }
}

void IncidentDetector::AdvanceOne(Chronon t) {
  for (size_t d = 0; d < domains_.size(); ++d) {
    Domain& domain = domains_[d];
    if (domain.members.empty()) continue;
    // Evict chronon t - (incident_window + 1), the only entry that ages out
    // at t (every chronon is advanced through), freeing its slot for t.
    WindowEntry& expired =
        domain.window[static_cast<size_t>(t) % domain.window.size()];
    domain.window_attempts -= expired.attempts;
    domain.window_failures -= expired.failures;
    expired = WindowEntry{};
    if (!domain.open) {
      if (domain.window_attempts >= options_.incident_min_attempts &&
          static_cast<double>(domain.window_failures) >=
              options_.incident_open_threshold *
                  static_cast<double>(domain.window_attempts)) {
        domain.open = true;
        domain.opened_at = t;
        domain.trial_successes = 0;
        ++open_domains_;
        ++stats_.opens;
      }
    }
    if (domain.open) {
      const Chronon interval =
          std::max<Chronon>(options_.incident_reprobe_interval, 1);
      if ((t - domain.opened_at) % interval == 0) {
        // Pseudo-random but deterministic trial choice: a pure function of
        // (jitter_seed, domain, chronon), so replays pick the same member
        // while successive trials spread over the domain.
        uint64_t state = options_.jitter_seed ^
                         (0x94D049BB133111EBULL * (d + 1)) ^
                         (static_cast<uint64_t>(t) << 17);
        const uint64_t draw = SplitMix64Next(state);
        domain.trial_resource =
            domain.members[draw % domain.members.size()];
        domain.trial_chronon = t;
      }
    }
  }
}

void IncidentDetector::BeginChronon(Chronon now) {
  WEBMON_CHECK(now > cursor_)
      << "incident detector chronons must strictly increase";
  // Catch up one chronon at a time: eviction can raise the windowed rate
  // (old successes aging out), so the open condition must be evaluated at
  // every chronon regardless of the caller's stepping pattern.
  while (cursor_ < now) AdvanceOne(++cursor_);
}

void IncidentDetector::RecordAttempt(ResourceId resource, Chronon now,
                                     bool success) {
  WEBMON_CHECK(now == cursor_)
      << "RecordAttempt must follow BeginChronon for the same chronon";
  for (uint32_t d : coverage_.DomainsCovering(resource)) {
    Domain& domain = domains_[d];
    WindowEntry& entry =
        domain.window[static_cast<size_t>(now) % domain.window.size()];
    ++entry.attempts;
    ++domain.window_attempts;
    if (!success) {
      ++entry.failures;
      ++domain.window_failures;
    }
    if (domain.open && domain.trial_chronon == now &&
        domain.trial_resource == resource) {
      if (success) {
        if (++domain.trial_successes >= options_.incident_close_successes) {
          // Close and forget the incident-era window: the stale failures
          // must not instantly re-open the breaker.
          domain.open = false;
          --open_domains_;
          domain.trial_successes = 0;
          std::fill(domain.window.begin(), domain.window.end(),
                    WindowEntry{});
          domain.window_attempts = 0;
          domain.window_failures = 0;
          ++stats_.closes;
        }
      } else {
        domain.trial_successes = 0;
      }
    }
  }
}

bool IncidentDetector::TrialDue(size_t domain, ResourceId* resource) const {
  const Domain& d = domains_[domain];
  if (!d.open || d.trial_chronon != cursor_) return false;
  *resource = d.trial_resource;
  return true;
}

bool IncidentDetector::OpenFor(ResourceId resource) const {
  for (uint32_t d : coverage_.DomainsCovering(resource)) {
    if (domains_[d].open) return true;
  }
  return false;
}

bool IncidentDetector::Suppressed(ResourceId resource) const {
  bool any_open = false;
  for (uint32_t d : coverage_.DomainsCovering(resource)) {
    const Domain& domain = domains_[d];
    if (!domain.open) continue;
    any_open = true;
    if (domain.trial_chronon == cursor_ &&
        domain.trial_resource == resource) {
      return false;  // this chronon's end-of-incident trial goes through
    }
  }
  return any_open;
}

Status AuditIncidentRun(const FaultSpec& spec, uint32_t num_resources,
                        const std::vector<ProbeAttempt>& attempts,
                        const FaultHandlingOptions& options,
                        IncidentAuditReport* report) {
  auto fail = [](const ProbeAttempt& a, const std::string& what) {
    std::ostringstream os;
    os << "incident audit: attempt (resource " << a.resource << ", chronon "
       << a.chronon << "): " << what;
    return Status::FailedPrecondition(os.str());
  };
  if (spec.incidents.empty() || !options.incident_detection) {
    // Without domains (or with detection off) no attempt may carry the
    // detector tag.
    for (const ProbeAttempt& a : attempts) {
      if ((a.incident & ProbeAttempt::kDetectorOpen) != 0) {
        return fail(a, "tagged kDetectorOpen without an active detector");
      }
    }
    if (report != nullptr) *report = IncidentAuditReport{};
    return Status::OK();
  }
  IncidentDetector detector(spec, num_resources, options);
  IncidentAuditReport derived;
  Chronon cursor = -1;
  for (const ProbeAttempt& a : attempts) {
    if (a.chronon < cursor) {
      return fail(a, "attempt log not in chronon order");
    }
    if (a.chronon > cursor) {
      cursor = a.chronon;
      detector.BeginChronon(cursor);
    }
    const bool open = detector.OpenFor(a.resource);
    const bool tagged = (a.incident & ProbeAttempt::kDetectorOpen) != 0;
    if (open != tagged) {
      return fail(a, open ? "missing kDetectorOpen tag (detector was open)"
                          : "tagged kDetectorOpen but the detector was "
                            "closed");
    }
    if (detector.Suppressed(a.resource)) {
      return fail(a, "issued while the fleet breaker suppressed the "
                     "resource (not this chronon's trial)");
    }
    if (tagged) ++derived.trial_attempts;
    detector.RecordAttempt(a.resource, a.chronon,
                           ProbeSucceeded(a.outcome));
  }
  derived.opens = detector.stats().opens;
  if (report != nullptr) *report = derived;
  return Status::OK();
}

}  // namespace webmon
