// Deterministic, seed-driven per-resource failure model for probes.
//
// Four failure mechanisms, each configurable per resource (netdata treats
// collection failures as first-class state; we model the causes):
//   * transient errors — independent Bernoulli failure per attempt,
//   * burst outages — a Gilbert-Elliott two-state chain per resource whose
//     bad state fails probes with high probability; the chain advances once
//     per chronon regardless of probing, so the outage pattern of a run is
//     a function of (spec, seed) alone,
//   * rate limiting — a fixed window of W chronons aligned to the epoch
//     start admits at most M attempts; the rest are rejected,
//   * timeouts — the probe's latency exceeds the chronon, so the reply
//     cannot count (the chronon is the indivisible scheduling unit).
// All randomness is derived from one 64-bit seed with independent streams
// per resource, and FaultSpec serializes to a line-oriented text format, so
// every fault-injected experiment is exactly reproducible.

#ifndef WEBMON_FAULTS_FAULT_MODEL_H_
#define WEBMON_FAULTS_FAULT_MODEL_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "model/probe_outcome.h"
#include "model/types.h"
#include "util/id_map.h"
#include "util/rng.h"
#include "util/status.h"

namespace webmon {

/// Failure behavior of one resource. The default-constructed profile is the
/// ideal network: every probe succeeds.
struct ResourceFaultProfile {
  /// Bernoulli failure probability per attempt while the resource is in the
  /// good state of its outage chain.
  double transient_error_prob = 0.0;
  /// Probability an attempt's latency exceeds the chronon (drawn before the
  /// error draws: a timed-out probe never reports an error).
  double timeout_prob = 0.0;
  /// Gilbert-Elliott chain: per-chronon probability of entering the bad
  /// state from good, and of leaving it again.
  double outage_enter_prob = 0.0;
  double outage_exit_prob = 1.0;
  /// Failure probability per attempt while in the bad state.
  double outage_fail_prob = 1.0;
  /// Fixed-window rate limiter: at most rate_limit_max attempts per window
  /// of rate_limit_window chronons (windows aligned to chronon 0).
  /// rate_limit_window == 0 disables the limiter.
  Chronon rate_limit_window = 0;
  int64_t rate_limit_max = 0;

  /// True iff this profile can never fail a probe.
  bool IsIdeal() const;
  Status Validate() const;

  friend bool operator==(const ResourceFaultProfile& a,
                         const ResourceFaultProfile& b);
};

/// One named fleet-level incident domain: a shared upstream (CDN, ISP,
/// data center) modeled as its own Gilbert-Elliott chain. While the chain
/// is in its bad state, probes to every covered resource fail with
/// `fail_prob` — composed on top of (before) the per-resource profiles, so
/// outages correlate across the domain's members. The chain advances once
/// per chronon on its own RNG stream regardless of probing; the incident
/// pattern of a run is a function of (spec, seed) alone.
struct IncidentDomain {
  /// Domain label ("cdn-east"); unique within a spec, no whitespace.
  std::string name;
  /// Explicit member resources (kept sorted and deduplicated).
  std::vector<ResourceId> members;
  /// Modulo selector: when stride > 0, also covers every resource r with
  /// r % stride == offset (a cheap way to spread a domain over a fleet of
  /// unknown size). 0 disables the selector.
  uint32_t stride = 0;
  uint32_t offset = 0;
  /// Per-chronon probability of entering / leaving the bad state.
  double enter_prob = 0.0;
  double exit_prob = 1.0;
  /// Failure probability per attempt to a covered resource while bad.
  double fail_prob = 1.0;

  /// True iff the domain covers `resource`.
  bool Covers(ResourceId resource) const;
  /// True iff this domain can never fail a probe.
  bool IsIdeal() const;
  Status Validate() const;

  friend bool operator==(const IncidentDomain& a, const IncidentDomain& b);
};

/// Resource -> covering incident domains, resolved once and stored flat:
/// the indices of the domains covering resource r are ids[offsets[r] ..
/// offsets[r+1]), ascending. The FaultInjector resolves it once and the
/// IncidentDetector watching the same run reads the injector's table.
class DomainCoverage {
 public:
  /// Empty coverage: every resource is uncovered.
  DomainCoverage() = default;
  /// Resolves `domains` against the resources in [0, num_resources).
  DomainCoverage(const std::vector<IncidentDomain>& domains,
                 uint32_t num_resources);

  /// Indices of the domains covering `resource` (empty when out of range).
  std::span<const uint32_t> DomainsCovering(ResourceId resource) const {
    if (resource + size_t{1} >= offsets_.size()) return {};
    return {ids_.data() + offsets_[resource],
            ids_.data() + offsets_[resource + 1]};
  }

  /// The number of domains resolved (covering a resource or not).
  size_t num_domains() const { return num_domains_; }

 private:
  size_t num_domains_ = 0;
  // num_resources + 1 prefix offsets into ids_; empty without domains.
  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> ids_;
};

/// Failure model of a whole resource fleet: a default profile plus
/// per-resource overrides.
struct FaultSpec {
  ResourceFaultProfile defaults;
  std::map<ResourceId, ResourceFaultProfile> overrides;
  /// Fleet-level incident domains, in declaration order.
  std::vector<IncidentDomain> incidents;
  /// Cap on the total budget the scheduler may spend on retries — attempts
  /// issued to a resource with a live failure streak — over one run, in
  /// budget units (cost units under the varying-cost extension). Once
  /// spent, resources with a live streak stop being offered to the policy
  /// for the rest of the run; the budget flows to fresh work instead.
  /// Negative = unlimited.
  double retry_budget = -1.0;

  /// The profile governing `resource`.
  const ResourceFaultProfile& For(ResourceId resource) const;
  /// True iff no resource can ever fail.
  bool IsIdeal() const;
  Status Validate() const;
};

/// Serializes `spec` to the versioned line-oriented text format:
///   webmon-faults 1
///   retrybudget <units>           (only when a cap is set)
///   default transient <p> timeout <p> outage <enter> <exit> <fail>
///           ratelimit <window> <max>
///   resource <id> transient <p> ... (same fields)
///   incident <name> enter <p> exit <p> fail <p> every <stride> offset <k>
///           members <id>...   (selector and/or members; members read the
///           rest of the line, so they must come last)
std::string FaultSpecToText(const FaultSpec& spec);
/// Parses the text format; the result is validated.
StatusOr<FaultSpec> FaultSpecFromText(const std::string& text);
Status SaveFaultSpecToFile(const FaultSpec& spec, const std::string& path);
StatusOr<FaultSpec> LoadFaultSpecFromFile(const std::string& path);

/// The stateful injector: one per experiment run. Decides the outcome of
/// every probe attempt. Deterministic: two runs with the same (spec, seed,
/// attempt sequence) produce the same outcomes, and the outage chain of a
/// resource depends only on the chronon, never on how often it was probed.
/// A resource's state (its two streams, seeded from (seed, resource), and
/// its chain and rate-limit window) is created on its first OnProbe or
/// InOutage, so the injector's footprint follows the touched resources and
/// the order or chronon of first touches changes no draw.
class FaultInjector {
 public:
  FaultInjector(FaultSpec spec, uint32_t num_resources, uint64_t seed);

  /// Makes room for `resources` touched resources, so the first touches of
  /// that many never grow the state table (the scheduler calls it with
  /// min(num_resources, SchedulerSizingHints::expected_attempts)).
  void Reserve(size_t resources) { states_.Reserve(resources); }

  /// Outcome of probing `resource` at chronon `t`. Chronons must be
  /// non-decreasing per resource (the scheduler's chronon loop guarantees
  /// this). CHECK-fails on an out-of-range resource.
  ProbeOutcome OnProbe(ResourceId resource, Chronon t);

  /// True iff `resource` is in the bad (outage) state at chronon `t`;
  /// advances its chain to `t`. Diagnostics and tests.
  bool InOutage(ResourceId resource, Chronon t);

  /// True iff incident domain `domain` (index into spec().incidents) is in
  /// its bad state at chronon `t`; advances the fleet chain to `t`.
  /// Ground truth — the scheduler's detector must never consult this for
  /// scheduling decisions, only for the detected/missed-window counters.
  bool FleetIncidentActive(size_t domain, Chronon t);

  /// True iff any incident domain covering `resource` is active at `t`.
  bool ResourceInIncident(ResourceId resource, Chronon t);

  /// Indices into spec().incidents of the domains covering `resource`.
  std::span<const uint32_t> DomainsCovering(ResourceId resource) const {
    return coverage_.DomainsCovering(resource);
  }
  /// The resolved resource -> covering-domains table (empty without
  /// incident domains).
  const DomainCoverage& coverage() const { return coverage_; }

  size_t num_incident_domains() const { return domains_.size(); }

  const FaultSpec& spec() const { return spec_; }
  uint64_t seed() const { return seed_; }
  uint32_t num_resources() const { return num_resources_; }

 private:
  struct ResourceState {
    Rng probe_rng;
    Rng chain_rng;
    bool in_bad_state = false;
    Chronon chain_advanced_to = -1;
    Chronon rate_window_index = -1;
    int64_t rate_window_attempts = 0;
  };

  struct DomainState {
    Rng chain_rng;
    bool active = false;
    Chronon chain_advanced_to = -1;
  };

  // The state of `resource`, created and seeded on its first touch.
  // CHECK-fails on an out-of-range resource.
  ResourceState& TouchState(ResourceId resource);
  void AdvanceChain(ResourceState& state, const ResourceFaultProfile& profile,
                    Chronon t);
  void AdvanceDomain(size_t domain, Chronon t);

  FaultSpec spec_;
  uint64_t seed_;
  uint32_t num_resources_;
  // Touched resources only: a resource without an entry has drawn nothing
  // yet, exactly as a state seeded at construction would have.
  FlatIdMap<ResourceState> states_;
  // Fleet incident chains, one per spec().incidents entry, plus the
  // resource -> covering-domains index.
  std::vector<DomainState> domains_;
  DomainCoverage coverage_;
};

}  // namespace webmon

#endif  // WEBMON_FAULTS_FAULT_MODEL_H_
