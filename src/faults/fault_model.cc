#include "faults/fault_model.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>

#include "util/check.h"

namespace webmon {

namespace {

bool IsProb(double p) { return p >= 0.0 && p <= 1.0; }

Status ValidateProfile(const ResourceFaultProfile& p, const std::string& who) {
  if (!IsProb(p.transient_error_prob) || !IsProb(p.timeout_prob) ||
      !IsProb(p.outage_enter_prob) || !IsProb(p.outage_exit_prob) ||
      !IsProb(p.outage_fail_prob)) {
    return Status::InvalidArgument(who +
                                   ": probabilities must lie in [0, 1]");
  }
  if (p.rate_limit_window < 0) {
    return Status::InvalidArgument(who + ": rate_limit_window must be >= 0");
  }
  if (p.rate_limit_window > 0 && p.rate_limit_max < 0) {
    return Status::InvalidArgument(who + ": rate_limit_max must be >= 0");
  }
  if (p.outage_enter_prob > 0.0 && p.outage_exit_prob == 0.0) {
    return Status::InvalidArgument(
        who + ": an outage that can be entered must be exitable "
              "(outage_exit_prob > 0)");
  }
  return Status::OK();
}

}  // namespace

bool ResourceFaultProfile::IsIdeal() const {
  return transient_error_prob == 0.0 && timeout_prob == 0.0 &&
         (outage_enter_prob == 0.0 || outage_fail_prob == 0.0) &&
         rate_limit_window == 0;
}

Status ResourceFaultProfile::Validate() const {
  return ValidateProfile(*this, "fault profile");
}

bool operator==(const ResourceFaultProfile& a, const ResourceFaultProfile& b) {
  return a.transient_error_prob == b.transient_error_prob &&
         a.timeout_prob == b.timeout_prob &&
         a.outage_enter_prob == b.outage_enter_prob &&
         a.outage_exit_prob == b.outage_exit_prob &&
         a.outage_fail_prob == b.outage_fail_prob &&
         a.rate_limit_window == b.rate_limit_window &&
         a.rate_limit_max == b.rate_limit_max;
}

bool IncidentDomain::Covers(ResourceId resource) const {
  if (stride > 0 && resource % stride == offset) return true;
  return std::binary_search(members.begin(), members.end(), resource);
}

bool IncidentDomain::IsIdeal() const {
  return enter_prob == 0.0 || fail_prob == 0.0;
}

Status IncidentDomain::Validate() const {
  const std::string who = "incident domain '" + name + "'";
  if (name.empty()) {
    return Status::InvalidArgument("incident domains need a name");
  }
  for (char c : name) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      return Status::InvalidArgument(who + ": name must not contain "
                                     "whitespace");
    }
  }
  if (!IsProb(enter_prob) || !IsProb(exit_prob) || !IsProb(fail_prob)) {
    return Status::InvalidArgument(who +
                                   ": probabilities must lie in [0, 1]");
  }
  if (enter_prob > 0.0 && exit_prob == 0.0) {
    return Status::InvalidArgument(
        who + ": an incident that can start must be exitable "
              "(exit_prob > 0)");
  }
  if (members.empty() && stride == 0) {
    return Status::InvalidArgument(who + ": must cover at least one "
                                   "resource (members or a selector)");
  }
  if (stride > 0 && offset >= stride) {
    return Status::InvalidArgument(who + ": selector offset must be < "
                                   "stride");
  }
  if (!std::is_sorted(members.begin(), members.end()) ||
      std::adjacent_find(members.begin(), members.end()) != members.end()) {
    return Status::InvalidArgument(who + ": members must be sorted and "
                                   "unique");
  }
  return Status::OK();
}

bool operator==(const IncidentDomain& a, const IncidentDomain& b) {
  return a.name == b.name && a.members == b.members && a.stride == b.stride &&
         a.offset == b.offset && a.enter_prob == b.enter_prob &&
         a.exit_prob == b.exit_prob && a.fail_prob == b.fail_prob;
}

DomainCoverage::DomainCoverage(const std::vector<IncidentDomain>& domains,
                               uint32_t num_resources) {
  if (domains.empty()) return;
  offsets_.reserve(size_t{num_resources} + 1);
  offsets_.push_back(0);
  for (uint32_t r = 0; r < num_resources; ++r) {
    for (size_t d = 0; d < domains.size(); ++d) {
      if (domains[d].Covers(r)) ids_.push_back(static_cast<uint32_t>(d));
    }
    offsets_.push_back(static_cast<uint32_t>(ids_.size()));
  }
}

const ResourceFaultProfile& FaultSpec::For(ResourceId resource) const {
  auto it = overrides.find(resource);
  return it == overrides.end() ? defaults : it->second;
}

bool FaultSpec::IsIdeal() const {
  if (!defaults.IsIdeal()) return false;
  for (const auto& [resource, profile] : overrides) {
    (void)resource;
    if (!profile.IsIdeal()) return false;
  }
  for (const IncidentDomain& domain : incidents) {
    if (!domain.IsIdeal()) return false;
  }
  return true;
}

Status FaultSpec::Validate() const {
  WEBMON_RETURN_IF_ERROR(ValidateProfile(defaults, "default profile"));
  for (const auto& [resource, profile] : overrides) {
    std::ostringstream who;
    who << "resource " << resource;
    WEBMON_RETURN_IF_ERROR(ValidateProfile(profile, who.str()));
  }
  for (size_t d = 0; d < incidents.size(); ++d) {
    WEBMON_RETURN_IF_ERROR(incidents[d].Validate());
    for (size_t e = 0; e < d; ++e) {
      if (incidents[e].name == incidents[d].name) {
        return Status::InvalidArgument("duplicate incident domain '" +
                                       incidents[d].name + "'");
      }
    }
  }
  if (std::isnan(retry_budget)) {
    return Status::InvalidArgument("retry_budget must not be NaN");
  }
  return Status::OK();
}

namespace {

void AppendProfile(std::ostream& os, const ResourceFaultProfile& p) {
  os << "transient " << p.transient_error_prob << " timeout " << p.timeout_prob
     << " outage " << p.outage_enter_prob << " " << p.outage_exit_prob << " "
     << p.outage_fail_prob << " ratelimit " << p.rate_limit_window << " "
     << p.rate_limit_max;
}

Status ParseProfile(std::istringstream& in, ResourceFaultProfile& p,
                    int line_no) {
  std::string key;
  auto fail = [line_no](const std::string& what) {
    std::ostringstream os;
    os << "fault spec line " << line_no << ": " << what;
    return Status::InvalidArgument(os.str());
  };
  while (in >> key) {
    if (key == "transient") {
      if (!(in >> p.transient_error_prob)) return fail("bad transient value");
    } else if (key == "timeout") {
      if (!(in >> p.timeout_prob)) return fail("bad timeout value");
    } else if (key == "outage") {
      if (!(in >> p.outage_enter_prob >> p.outage_exit_prob >>
            p.outage_fail_prob)) {
        return fail("outage needs <enter> <exit> <fail>");
      }
    } else if (key == "ratelimit") {
      if (!(in >> p.rate_limit_window >> p.rate_limit_max)) {
        return fail("ratelimit needs <window> <max>");
      }
    } else {
      return fail("unknown field '" + key + "'");
    }
  }
  return Status::OK();
}

Status ParseIncident(std::istringstream& in, IncidentDomain& domain,
                     int line_no) {
  auto fail = [line_no](const std::string& what) {
    std::ostringstream os;
    os << "fault spec line " << line_no << ": " << what;
    return Status::InvalidArgument(os.str());
  };
  if (!(in >> domain.name)) return fail("incident needs a name");
  std::string key;
  while (in >> key) {
    if (key == "enter") {
      if (!(in >> domain.enter_prob)) return fail("bad enter value");
    } else if (key == "exit") {
      if (!(in >> domain.exit_prob)) return fail("bad exit value");
    } else if (key == "fail") {
      if (!(in >> domain.fail_prob)) return fail("bad fail value");
    } else if (key == "every") {
      if (!(in >> domain.stride)) return fail("bad every value");
    } else if (key == "offset") {
      if (!(in >> domain.offset)) return fail("bad offset value");
    } else if (key == "members") {
      // Members run to the end of the line, so they must come last.
      ResourceId id = 0;
      while (in >> id) domain.members.push_back(id);
      if (!in.eof()) return fail("bad member id");
      // total-order: operator< on integer resource ids; duplicates are
      // erased right below, and equal elements are indistinguishable.
      std::sort(domain.members.begin(), domain.members.end());
      domain.members.erase(
          std::unique(domain.members.begin(), domain.members.end()),
          domain.members.end());
    } else {
      return fail("unknown incident field '" + key + "'");
    }
  }
  return Status::OK();
}

}  // namespace

std::string FaultSpecToText(const FaultSpec& spec) {
  std::ostringstream os;
  os << "webmon-faults 1\n";
  if (spec.retry_budget >= 0.0) {
    os << "retrybudget " << spec.retry_budget << "\n";
  }
  os << "default ";
  AppendProfile(os, spec.defaults);
  os << "\n";
  for (const auto& [resource, profile] : spec.overrides) {
    os << "resource " << resource << " ";
    AppendProfile(os, profile);
    os << "\n";
  }
  for (const IncidentDomain& domain : spec.incidents) {
    os << "incident " << domain.name << " enter " << domain.enter_prob
       << " exit " << domain.exit_prob << " fail " << domain.fail_prob;
    if (domain.stride > 0) {
      os << " every " << domain.stride << " offset " << domain.offset;
    }
    if (!domain.members.empty()) {
      // Members last: the parser reads ids greedily to the end of the line.
      os << " members";
      for (ResourceId r : domain.members) os << " " << r;
    }
    os << "\n";
  }
  return os.str();
}

StatusOr<FaultSpec> FaultSpecFromText(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("fault spec is empty");
  }
  {
    std::istringstream header(line);
    std::string magic;
    int version = 0;
    if (!(header >> magic >> version) || magic != "webmon-faults" ||
        version != 1) {
      return Status::InvalidArgument(
          "fault spec must start with 'webmon-faults 1'");
    }
  }
  FaultSpec spec;
  int line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream fields(line);
    std::string kind;
    if (!(fields >> kind) || kind.empty() || kind[0] == '#') continue;
    if (kind == "default") {
      WEBMON_RETURN_IF_ERROR(ParseProfile(fields, spec.defaults, line_no));
    } else if (kind == "retrybudget") {
      if (!(fields >> spec.retry_budget)) {
        std::ostringstream os;
        os << "fault spec line " << line_no << ": bad retrybudget value";
        return Status::InvalidArgument(os.str());
      }
    } else if (kind == "resource") {
      ResourceId resource = 0;
      if (!(fields >> resource)) {
        std::ostringstream os;
        os << "fault spec line " << line_no << ": resource needs an id";
        return Status::InvalidArgument(os.str());
      }
      ResourceFaultProfile profile = spec.defaults;
      WEBMON_RETURN_IF_ERROR(ParseProfile(fields, profile, line_no));
      spec.overrides[resource] = profile;
    } else if (kind == "incident") {
      IncidentDomain domain;
      WEBMON_RETURN_IF_ERROR(ParseIncident(fields, domain, line_no));
      spec.incidents.push_back(std::move(domain));
    } else {
      std::ostringstream os;
      os << "fault spec line " << line_no << ": unknown record '" << kind
         << "'";
      return Status::InvalidArgument(os.str());
    }
  }
  WEBMON_RETURN_IF_ERROR(spec.Validate());
  return spec;
}

Status SaveFaultSpecToFile(const FaultSpec& spec, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << FaultSpecToText(spec);
  out.flush();
  if (!out) return Status::IOError("failed writing " + path);
  return Status::OK();
}

StatusOr<FaultSpec> LoadFaultSpecFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return FaultSpecFromText(buffer.str());
}

FaultInjector::FaultInjector(FaultSpec spec, uint32_t num_resources,
                             uint64_t seed)
    : spec_(std::move(spec)), seed_(seed), num_resources_(num_resources) {
  WEBMON_CHECK(spec_.Validate().ok())
      << "FaultInjector built from an invalid spec: "
      << spec_.Validate().ToString();
  if (!spec_.incidents.empty()) {
    domains_.resize(spec_.incidents.size());
    for (size_t d = 0; d < spec_.incidents.size(); ++d) {
      // Fleet chains get their own stream family (a different mixing
      // constant than the per-resource streams) so a domain never shares
      // randomness with the resources it covers.
      uint64_t stream = seed ^ (0xBF58476D1CE4E5B9ULL * (d + 1));
      domains_[d].chain_rng = Rng(SplitMix64Next(stream));
    }
    coverage_ = DomainCoverage(spec_.incidents, num_resources);
  }
}

void FaultInjector::AdvanceDomain(size_t domain, Chronon t) {
  const IncidentDomain& spec = spec_.incidents[domain];
  DomainState& state = domains_[domain];
  if (spec.enter_prob == 0.0 && !state.active) {
    state.chain_advanced_to = std::max(state.chain_advanced_to, t);
    return;
  }
  while (state.chain_advanced_to < t) {
    ++state.chain_advanced_to;
    if (state.active) {
      if (state.chain_rng.Bernoulli(spec.exit_prob)) state.active = false;
    } else if (state.chain_rng.Bernoulli(spec.enter_prob)) {
      state.active = true;
    }
  }
}

bool FaultInjector::FleetIncidentActive(size_t domain, Chronon t) {
  WEBMON_CHECK_LT(domain, domains_.size())
      << "fault injector asked about an unknown incident domain";
  AdvanceDomain(domain, t);
  return domains_[domain].active;
}

bool FaultInjector::ResourceInIncident(ResourceId resource, Chronon t) {
  for (uint32_t d : DomainsCovering(resource)) {
    if (FleetIncidentActive(d, t)) return true;
  }
  return false;
}

void FaultInjector::AdvanceChain(ResourceState& state,
                                 const ResourceFaultProfile& profile,
                                 Chronon t) {
  if (profile.outage_enter_prob == 0.0 && !state.in_bad_state) {
    // The chain can never leave the good state: skip the draws entirely
    // (and keep chain_advanced_to moving so a later override can't warp).
    state.chain_advanced_to = t;
    return;
  }
  while (state.chain_advanced_to < t) {
    ++state.chain_advanced_to;
    if (state.in_bad_state) {
      if (state.chain_rng.Bernoulli(profile.outage_exit_prob)) {
        state.in_bad_state = false;
      }
    } else if (state.chain_rng.Bernoulli(profile.outage_enter_prob)) {
      state.in_bad_state = true;
    }
  }
}

FaultInjector::ResourceState& FaultInjector::TouchState(ResourceId resource) {
  WEBMON_CHECK_LT(resource, num_resources_)
      << "fault injector asked about an unknown resource";
  // hotpath-alloc-ok: first touch only; pre-sized through Reserve
  auto [state, created] = states_.FindOrInsert(resource);
  if (created) {
    // Independent streams per resource: mixing the resource id through
    // SplitMix64 decorrelates neighbours, and separate probe/chain streams
    // keep the outage pattern independent of how often a resource is
    // probed. Whenever the state is created, its chain starts before
    // chronon 0, so AdvanceChain replays the draws of a state seeded at
    // construction.
    uint64_t stream = seed_ ^ (0x9E3779B97F4A7C15ULL * (resource + 1));
    state->probe_rng = Rng(SplitMix64Next(stream));
    state->chain_rng = Rng(SplitMix64Next(stream));
  }
  return *state;
}

bool FaultInjector::InOutage(ResourceId resource, Chronon t) {
  ResourceState& state = TouchState(resource);
  AdvanceChain(state, spec_.For(resource), t);
  return state.in_bad_state;
}

ProbeOutcome FaultInjector::OnProbe(ResourceId resource, Chronon t) {
  ResourceState& state = TouchState(resource);
  const ResourceFaultProfile& profile = spec_.For(resource);
  // Draw order is part of the determinism contract: fleet incident first
  // (the probe never reaches the server, so the rate limiter does not see
  // it), then rate limit (no RNG), timeout, and the outage/transient draw.
  // While no covering domain is active, no randomness is consumed, so a
  // spec whose incidents never fire stays byte-identical to one without
  // incident lines.
  for (uint32_t d : DomainsCovering(resource)) {
    if (FleetIncidentActive(d, t) &&
        state.probe_rng.Bernoulli(spec_.incidents[d].fail_prob)) {
      return ProbeOutcome::kIncident;
    }
  }
  if (profile.IsIdeal()) {
    // Fast path: an ideal resource never consumes randomness, so attaching
    // an all-zero injector is pay-for-use.
    return ProbeOutcome::kSuccess;
  }
  if (profile.rate_limit_window > 0) {
    const Chronon window = t / profile.rate_limit_window;
    if (window != state.rate_window_index) {
      state.rate_window_index = window;
      state.rate_window_attempts = 0;
    }
    ++state.rate_window_attempts;
    if (state.rate_window_attempts > profile.rate_limit_max) {
      return ProbeOutcome::kRateLimited;
    }
  }
  if (profile.timeout_prob > 0.0 &&
      state.probe_rng.Bernoulli(profile.timeout_prob)) {
    return ProbeOutcome::kTimeout;
  }
  AdvanceChain(state, profile, t);
  if (state.in_bad_state) {
    if (state.probe_rng.Bernoulli(profile.outage_fail_prob)) {
      return ProbeOutcome::kOutage;
    }
  } else if (profile.transient_error_prob > 0.0 &&
             state.probe_rng.Bernoulli(profile.transient_error_prob)) {
    return ProbeOutcome::kTransientError;
  }
  return ProbeOutcome::kSuccess;
}

}  // namespace webmon
