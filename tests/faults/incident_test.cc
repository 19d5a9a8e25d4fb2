// Fleet incidents end to end: the injector's correlated incident domains,
// the spec text format and validation, the online IncidentDetector (fleet
// breaker), incident-aware scheduling with its audit, and the determinism
// contracts (dormant incidents are byte-identical, any thread count
// replays identically).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "model/schedule_audit.h"

#include "faults/fault_model.h"
#include "faults/incident_detector.h"
#include "online/run.h"
#include "policy/policy_factory.h"
#include "sim/experiment.h"
#include "util/rng.h"

#include "../test_util.h"

namespace webmon {
namespace {

ProblemInstance RandomInstance(Rng& rng, uint32_t n, Chronon k,
                               int64_t budget, uint32_t num_ceis) {
  ProblemBuilder builder(n, k, BudgetVector::Uniform(budget));
  for (uint32_t c = 0; c < num_ceis; ++c) {
    builder.BeginProfile();
    const uint32_t rank = 1 + static_cast<uint32_t>(rng.UniformU64(3));
    std::vector<std::tuple<ResourceId, Chronon, Chronon>> eis;
    for (uint32_t e = 0; e < rank; ++e) {
      const ResourceId r = static_cast<ResourceId>(rng.UniformU64(n));
      const Chronon s =
          static_cast<Chronon>(rng.UniformU64(static_cast<uint64_t>(k)));
      const Chronon f = std::min<Chronon>(
          s + 1 + static_cast<Chronon>(rng.UniformU64(4)), k - 1);
      eis.emplace_back(r, s, std::max(s, f));
    }
    EXPECT_TRUE(builder.AddCei(eis).ok());
  }
  auto built = builder.Build();
  EXPECT_TRUE(built.ok()) << built.status();
  return std::move(built).value();
}

IncidentDomain Domain(std::string name, double enter, double exit,
                      double fail) {
  IncidentDomain d;
  d.name = std::move(name);
  d.enter_prob = enter;
  d.exit_prob = exit;
  d.fail_prob = fail;
  return d;
}

// ---------------------------------------------------------------------------
// Spec model: text round-trip and validation rejection paths.
// ---------------------------------------------------------------------------

TEST(IncidentSpecTest, TextRoundTripWithIncidents) {
  FaultSpec spec;
  spec.defaults.transient_error_prob = 0.05;
  spec.retry_budget = 12.5;
  IncidentDomain backbone = Domain("backbone", 0.005, 0.02, 0.98);
  backbone.stride = 2;
  backbone.offset = 1;
  IncidentDomain cdn = Domain("cdn-eu", 0.01, 0.1, 1.0);
  cdn.members = {3, 17, 42};
  spec.incidents = {backbone, cdn};
  ASSERT_TRUE(spec.Validate().ok());

  auto parsed = FaultSpecFromText(FaultSpecToText(spec));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed->defaults == spec.defaults);
  EXPECT_EQ(parsed->retry_budget, spec.retry_budget);
  ASSERT_EQ(parsed->incidents.size(), 2u);
  EXPECT_TRUE(parsed->incidents[0] == spec.incidents[0]);
  EXPECT_TRUE(parsed->incidents[1] == spec.incidents[1]);
}

TEST(IncidentSpecTest, ValidateRejectsBadDomains) {
  auto reject = [](IncidentDomain d) {
    FaultSpec spec;
    spec.incidents = {std::move(d)};
    EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument)
        << spec.incidents[0].name;
  };

  IncidentDomain base = Domain("ok", 0.1, 0.2, 0.9);
  base.members = {1};

  {  // Probabilities outside [0, 1].
    IncidentDomain d = base;
    d.enter_prob = 1.5;
    reject(d);
    d = base;
    d.exit_prob = -0.1;
    reject(d);
    d = base;
    d.fail_prob = 2.0;
    reject(d);
  }
  {  // Enterable but never exitable: the incident would last forever.
    IncidentDomain d = base;
    d.enter_prob = 0.5;
    d.exit_prob = 0.0;
    reject(d);
  }
  {  // Empty coverage.
    IncidentDomain d = Domain("empty", 0.1, 0.2, 1.0);
    reject(d);
  }
  {  // Selector offset out of range.
    IncidentDomain d = base;
    d.stride = 3;
    d.offset = 3;
    reject(d);
  }
  {  // Unsorted / duplicate members.
    IncidentDomain d = base;
    d.members = {5, 3};
    reject(d);
    d.members = {3, 3};
    reject(d);
  }
  {  // Nameless and whitespace names.
    IncidentDomain d = base;
    d.name.clear();
    reject(d);
    d.name = "two words";
    reject(d);
  }
}

TEST(IncidentSpecTest, ValidateRejectsDuplicateDomainNames) {
  FaultSpec spec;
  IncidentDomain d = Domain("backbone", 0.1, 0.2, 1.0);
  d.members = {0};
  spec.incidents = {d, d};
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(IncidentSpecTest, ParserRejectsMalformedIncidentLines) {
  const char* kBad[] = {
      // Probability out of range.
      "webmon-faults 1\nincident a enter 1.5 exit 0.2 fail 1 members 1\n",
      // Unknown key.
      "webmon-faults 1\nincident a flavor 0.5 members 1\n",
      // Missing value.
      "webmon-faults 1\nincident a enter\n",
      // No coverage at all.
      "webmon-faults 1\nincident a enter 0.1 exit 0.2 fail 1\n",
      // Garbage member id.
      "webmon-faults 1\nincident a enter 0.1 exit 0.2 fail 1 members x\n",
  };
  for (const char* text : kBad) {
    EXPECT_EQ(FaultSpecFromText(text).status().code(),
              StatusCode::kInvalidArgument)
        << text;
  }
}

// ---------------------------------------------------------------------------
// Injector: correlated failures, draw-order determinism, pay-for-use.
// ---------------------------------------------------------------------------

TEST(IncidentInjectorTest, ActiveDomainFailsCoveredProbes) {
  FaultSpec spec;
  IncidentDomain d = Domain("fleet", 0.2, 0.3, 1.0);
  d.stride = 1;  // covers everyone
  spec.incidents = {d};
  ASSERT_TRUE(spec.Validate().ok());

  FaultInjector injector(spec, 4, 77);
  int64_t active_chronons = 0;
  for (Chronon t = 0; t < 200; ++t) {
    const bool active = injector.FleetIncidentActive(0, t);
    for (ResourceId r = 0; r < 4; ++r) {
      const ProbeOutcome outcome = injector.OnProbe(r, t);
      // fail_prob 1: while the chain is bad every covered probe fails with
      // kIncident; otherwise the ideal profiles always succeed.
      EXPECT_EQ(outcome,
                active ? ProbeOutcome::kIncident : ProbeOutcome::kSuccess)
          << "chronon " << t << " resource " << r;
      EXPECT_EQ(injector.ResourceInIncident(r, t), active);
    }
    if (active) ++active_chronons;
  }
  // The chain actually toggled with these parameters and seed.
  EXPECT_GT(active_chronons, 0);
  EXPECT_LT(active_chronons, 200);
}

TEST(IncidentInjectorTest, UncoveredResourcesAreUnaffected) {
  FaultSpec with_incident;
  with_incident.defaults.transient_error_prob = 0.3;
  IncidentDomain d = Domain("solo", 0.5, 0.5, 1.0);
  d.members = {0};
  with_incident.incidents = {d};

  FaultSpec without = with_incident;
  without.incidents.clear();

  FaultInjector a(with_incident, 3, 99);
  FaultInjector b(without, 3, 99);
  for (Chronon t = 0; t < 100; ++t) {
    for (ResourceId r = 1; r < 3; ++r) {
      EXPECT_EQ(a.OnProbe(r, t), b.OnProbe(r, t))
          << "chronon " << t << " resource " << r;
      EXPECT_FALSE(a.ResourceInIncident(r, t));
    }
  }
}

TEST(IncidentInjectorTest, DormantIncidentConsumesNoRandomness) {
  // enter 0: the domain can never activate. Its presence must not perturb
  // any per-resource draw — outcome streams match a spec without the
  // incident line, probe for probe.
  FaultSpec with_dormant;
  with_dormant.defaults.transient_error_prob = 0.25;
  with_dormant.defaults.outage_enter_prob = 0.05;
  with_dormant.defaults.outage_exit_prob = 0.3;
  IncidentDomain d = Domain("ghost", 0.0, 1.0, 1.0);
  d.stride = 1;
  with_dormant.incidents = {d};

  FaultSpec without = with_dormant;
  without.incidents.clear();

  FaultInjector a(with_dormant, 5, 4242);
  FaultInjector b(without, 5, 4242);
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const ResourceId r = static_cast<ResourceId>(rng.UniformU64(5));
    const Chronon t = static_cast<Chronon>(i / 5);
    EXPECT_EQ(a.OnProbe(r, t), b.OnProbe(r, t)) << "draw " << i;
  }
}

// ---------------------------------------------------------------------------
// Detector unit tests: open, trial cadence, close, suppression.
// ---------------------------------------------------------------------------

FaultSpec FleetOfFourSpec() {
  FaultSpec spec;
  IncidentDomain d = Domain("fleet", 0.1, 0.2, 1.0);
  d.stride = 1;
  spec.incidents = {d};
  return spec;
}

TEST(IncidentDetectorTest, OpensOnWindowedFailuresAndClosesOnTrials) {
  FaultHandlingOptions options;
  options.incident_min_attempts = 4;
  options.incident_open_threshold = 0.7;
  options.incident_reprobe_interval = 3;
  options.incident_close_successes = 2;
  IncidentDetector detector(FleetOfFourSpec(), 4, options);
  ASSERT_EQ(detector.num_domains(), 1u);

  // Two failing attempts per chronon: after chronon 1 the window holds 4
  // attempts at 100% failure — the breaker opens at chronon 2.
  for (Chronon t = 0; t < 2; ++t) {
    detector.BeginChronon(t);
    EXPECT_FALSE(detector.Open(0));
    detector.RecordAttempt(0, t, /*success=*/false);
    detector.RecordAttempt(1, t, /*success=*/false);
  }
  detector.BeginChronon(2);
  EXPECT_TRUE(detector.Open(0));
  EXPECT_EQ(detector.stats().opens, 1);

  // A trial is due immediately at the opening chronon, then every
  // reprobe_interval chronons. Non-trial members are suppressed; the trial
  // member is exempt.
  ResourceId trial = 0;
  ASSERT_TRUE(detector.TrialDue(0, &trial));
  EXPECT_FALSE(detector.Suppressed(trial));
  for (ResourceId r = 0; r < 4; ++r) {
    EXPECT_TRUE(detector.OpenFor(r));
    if (r != trial) {
      EXPECT_TRUE(detector.Suppressed(r));
    }
  }

  // Two consecutive successful trials close the breaker. Trials are due at
  // chronons 2, 5, 8, ...; off-cadence chronons have no trial.
  detector.RecordAttempt(trial, 2, /*success=*/true);
  EXPECT_TRUE(detector.Open(0));  // one success is not enough
  detector.BeginChronon(3);
  EXPECT_FALSE(detector.TrialDue(0, &trial));
  detector.BeginChronon(4);
  EXPECT_FALSE(detector.TrialDue(0, &trial));
  detector.BeginChronon(5);
  ASSERT_TRUE(detector.TrialDue(0, &trial));
  detector.RecordAttempt(trial, 5, /*success=*/true);
  EXPECT_FALSE(detector.Open(0));
  EXPECT_EQ(detector.stats().closes, 1);

  // Closing cleared the incident-era window: the stale failures cannot
  // re-open the breaker on the next chronon.
  detector.BeginChronon(6);
  EXPECT_FALSE(detector.Open(0));
  for (ResourceId r = 0; r < 4; ++r) EXPECT_FALSE(detector.Suppressed(r));
}

TEST(IncidentDetectorTest, FailedTrialResetsTheCloseCounter) {
  FaultHandlingOptions options;
  options.incident_min_attempts = 2;
  options.incident_open_threshold = 0.7;
  options.incident_reprobe_interval = 1;
  options.incident_close_successes = 2;
  IncidentDetector detector(FleetOfFourSpec(), 4, options);

  detector.BeginChronon(0);
  detector.RecordAttempt(0, 0, false);
  detector.RecordAttempt(1, 0, false);
  detector.BeginChronon(1);
  ASSERT_TRUE(detector.Open(0));

  // success, failure, success, success: only the last two count.
  ResourceId trial = 0;
  ASSERT_TRUE(detector.TrialDue(0, &trial));
  detector.RecordAttempt(trial, 1, true);
  detector.BeginChronon(2);
  ASSERT_TRUE(detector.TrialDue(0, &trial));
  detector.RecordAttempt(trial, 2, false);
  detector.BeginChronon(3);
  ASSERT_TRUE(detector.TrialDue(0, &trial));
  detector.RecordAttempt(trial, 3, true);
  EXPECT_TRUE(detector.Open(0));
  detector.BeginChronon(4);
  ASSERT_TRUE(detector.TrialDue(0, &trial));
  detector.RecordAttempt(trial, 4, true);
  EXPECT_FALSE(detector.Open(0));
}

TEST(IncidentDetectorTest, ChrononGapsMatchStepByStepAdvance) {
  // BeginChronon catches up one chronon at a time, so a caller that skips
  // idle chronons sees the same decisions as one that steps each chronon.
  FaultHandlingOptions options;
  options.incident_window = 4;
  options.incident_min_attempts = 3;
  IncidentDetector jumpy(FleetOfFourSpec(), 4, options);
  IncidentDetector steady(FleetOfFourSpec(), 4, options);

  steady.BeginChronon(0);
  jumpy.BeginChronon(0);
  for (ResourceId r = 0; r < 3; ++r) {
    steady.RecordAttempt(r, 0, false);
    jumpy.RecordAttempt(r, 0, false);
  }
  for (Chronon t = 1; t <= 10; ++t) steady.BeginChronon(t);
  jumpy.BeginChronon(10);  // one jump over the same span
  EXPECT_EQ(steady.Open(0), jumpy.Open(0));
  // Both opened at chronon 1, while the failures were still in the window.
  // Had the jumpy detector evaluated only at chronon 10 — after eviction —
  // it would have missed the open; the catch-up loop prevents exactly that.
  EXPECT_TRUE(jumpy.Open(0));
}

TEST(IncidentDetectorTest, TrialSelectionIsDeterministic) {
  FaultHandlingOptions options;
  options.incident_min_attempts = 2;
  options.incident_reprobe_interval = 1;
  IncidentDetector a(FleetOfFourSpec(), 4, options);
  IncidentDetector b(FleetOfFourSpec(), 4, options);

  for (IncidentDetector* det : {&a, &b}) {
    det->BeginChronon(0);
    det->RecordAttempt(0, 0, false);
    det->RecordAttempt(1, 0, false);
  }
  std::vector<ResourceId> trials_a, trials_b;
  for (Chronon t = 1; t <= 8; ++t) {
    a.BeginChronon(t);
    b.BeginChronon(t);
    ResourceId ra = 0, rb = 0;
    ASSERT_TRUE(a.TrialDue(0, &ra));
    ASSERT_TRUE(b.TrialDue(0, &rb));
    trials_a.push_back(ra);
    trials_b.push_back(rb);
    a.RecordAttempt(ra, t, false);
    b.RecordAttempt(rb, t, false);
  }
  EXPECT_EQ(trials_a, trials_b);
  // Successive trials spread over the domain rather than hammering one
  // member.
  EXPECT_GT(std::set<ResourceId>(trials_a.begin(), trials_a.end()).size(),
            1u);
}

TEST(IncidentDetectorTest, AnyOpenFollowsEveryDomainThroughCloseAndReopen) {
  // Two domains over a fleet of four, evens and odds. The scheduler skips
  // the detector in its rank scan while AnyOpen() is false, so the count
  // behind it must match the domains' breakers after every call that can
  // move one.
  FaultSpec spec;
  IncidentDomain evens = Domain("evens", 0.1, 0.2, 1.0);
  evens.stride = 2;
  IncidentDomain odds = Domain("odds", 0.1, 0.2, 1.0);
  odds.stride = 2;
  odds.offset = 1;
  spec.incidents = {evens, odds};
  FaultHandlingOptions options;
  options.incident_min_attempts = 2;
  options.incident_reprobe_interval = 1;
  options.incident_close_successes = 1;
  IncidentDetector detector(spec, 4, options);

  auto expect_any_open_matches = [&](const std::string& after) {
    bool any = false;
    for (size_t d = 0; d < detector.num_domains(); ++d) {
      any = any || detector.Open(d);
    }
    EXPECT_EQ(detector.AnyOpen(), any) << "after " << after;
  };
  auto begin = [&](Chronon t) {
    detector.BeginChronon(t);
    expect_any_open_matches("BeginChronon(" + std::to_string(t) + ")");
  };
  auto record = [&](ResourceId r, Chronon t, bool success) {
    detector.RecordAttempt(r, t, success);
    expect_any_open_matches("RecordAttempt(" + std::to_string(r) + ", " +
                            std::to_string(t) + ")");
  };

  // Both domains fail all their attempts and open at chronon 1.
  begin(0);
  for (ResourceId r = 0; r < 4; ++r) record(r, 0, false);
  begin(1);
  ASSERT_TRUE(detector.Open(0));
  ASSERT_TRUE(detector.Open(1));
  EXPECT_TRUE(detector.AnyOpen());

  // The chronon's trials go out ahead of its rank scan. The evens trial
  // closes its domain while the odds stay open...
  ResourceId trial = 0;
  ASSERT_TRUE(detector.TrialDue(0, &trial));
  record(trial, 1, true);
  EXPECT_FALSE(detector.Open(0));
  EXPECT_TRUE(detector.AnyOpen());
  // ...then the odds trial closes the last open domain. The rank scan of
  // the same chronon sees no open domain and no suppressed resource.
  ASSERT_TRUE(detector.TrialDue(1, &trial));
  record(trial, 1, true);
  EXPECT_FALSE(detector.AnyOpen());
  for (ResourceId r = 0; r < 4; ++r) EXPECT_FALSE(detector.Suppressed(r));
  // The walk's attempts of the same chronon.
  record(0, 1, true);
  record(1, 1, false);

  // The evens reopen, survive a failed trial and close again.
  begin(2);
  for (int i = 0; i < 3; ++i) record(2, 2, false);
  begin(3);
  ASSERT_TRUE(detector.Open(0));
  EXPECT_FALSE(detector.Open(1));
  EXPECT_TRUE(detector.AnyOpen());
  ASSERT_TRUE(detector.TrialDue(0, &trial));
  record(trial, 3, false);
  EXPECT_TRUE(detector.AnyOpen());
  begin(4);
  ASSERT_TRUE(detector.TrialDue(0, &trial));
  record(trial, 4, true);
  EXPECT_FALSE(detector.AnyOpen());
  EXPECT_EQ(detector.stats().opens, 3);
  EXPECT_EQ(detector.stats().closes, 3);
}

// ---------------------------------------------------------------------------
// DomainCoverage: the flat resource -> covering-domains table.
// ---------------------------------------------------------------------------

TEST(DomainCoverageTest, MatchesCoversForEveryResource) {
  IncidentDomain evens = Domain("evens", 0.1, 0.2, 1.0);
  evens.stride = 2;
  IncidentDomain thirds = Domain("thirds", 0.1, 0.2, 1.0);
  thirds.stride = 3;
  thirds.offset = 1;
  IncidentDomain listed = Domain("listed", 0.1, 0.2, 1.0);
  listed.members = {0, 5, 7, 40};  // 40 lies beyond the fleet
  IncidentDomain both = Domain("both", 0.1, 0.2, 1.0);
  both.stride = 5;
  both.offset = 4;
  both.members = {1, 4, 6};  // 4 is also selected by the stride
  const std::vector<IncidentDomain> domains = {evens, thirds, listed, both};

  constexpr uint32_t kResources = 30;
  const DomainCoverage coverage(domains, kResources);
  for (ResourceId r = 0; r < kResources; ++r) {
    std::vector<uint32_t> expected;
    for (uint32_t d = 0; d < domains.size(); ++d) {
      if (domains[d].Covers(r)) expected.push_back(d);
    }
    const std::span<const uint32_t> got = coverage.DomainsCovering(r);
    EXPECT_EQ(std::vector<uint32_t>(got.begin(), got.end()), expected)
        << "resource " << r;
  }
  // Overlaps resolve to every covering domain, in declaration order.
  const std::span<const uint32_t> four = coverage.DomainsCovering(4);
  EXPECT_EQ(std::vector<uint32_t>(four.begin(), four.end()),
            (std::vector<uint32_t>{0, 1, 3}));
  // Out-of-range resources are uncovered, even where a selector or member
  // list would match them.
  EXPECT_TRUE(coverage.DomainsCovering(kResources).empty());
  EXPECT_TRUE(coverage.DomainsCovering(40).empty());
  EXPECT_TRUE(coverage.DomainsCovering(~ResourceId{0}).empty());
  // Without domains nothing is covered.
  EXPECT_TRUE(DomainCoverage({}, kResources).DomainsCovering(0).empty());
  EXPECT_TRUE(DomainCoverage().DomainsCovering(0).empty());

  // The injector resolves the same table.
  FaultSpec spec;
  spec.incidents = domains;
  FaultInjector injector(spec, kResources, 1);
  for (ResourceId r = 0; r <= kResources; ++r) {
    const std::span<const uint32_t> a = coverage.DomainsCovering(r);
    const std::span<const uint32_t> b = injector.DomainsCovering(r);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "resource " << r;
  }
}

// ---------------------------------------------------------------------------
// Scheduler integration: stats, audit, and the determinism contracts.
// ---------------------------------------------------------------------------

TEST(IncidentSchedulerTest, SuppressionCountsLiveDemandNotTheFleet) {
  // incident_probes_suppressed counts live candidate EIs an open fleet
  // breaker withholds, not the resources it covers. One domain covers a
  // fleet of 10^5, every probe fails so the detector opens within a few
  // chronons and stays open, and only six needs are live: each chronon may
  // add at most six suppressions.
  constexpr uint32_t kResources = 100'000;
  constexpr Chronon k = 80;
  FaultSpec spec;
  spec.defaults.transient_error_prob = 1.0;
  IncidentDomain all = Domain("all", 0.0, 1.0, 1.0);  // never truly active
  all.stride = 1;
  spec.incidents = {all};
  FaultInjector injector(spec, kResources, 7);

  std::vector<Cei> ceis(6);
  for (size_t i = 0; i < ceis.size(); ++i) {
    ceis[i].id = static_cast<CeiId>(i);
    ExecutionInterval ei;
    ei.id = static_cast<EiId>(i);
    ei.resource = static_cast<ResourceId>(10 * (i + 1));
    ei.start = 0;
    ei.finish = k - 1;
    ceis[i].eis = {ei};
  }
  auto policy = MakePolicy("m-edf", 17);
  ASSERT_TRUE(policy.ok());
  SchedulerOptions options;
  options.fault_injector = &injector;
  OnlineScheduler scheduler(kResources, k, BudgetVector::Uniform(2),
                            policy->get(), options);
  for (const Cei& cei : ceis) ASSERT_TRUE(scheduler.AddArrival(&cei, 0).ok());

  int64_t open_chronons = 0;
  for (Chronon t = 0; t < k; ++t) {
    const int64_t before = scheduler.stats().incident_probes_suppressed;
    ASSERT_TRUE(scheduler.Step(t, nullptr).ok());
    const int64_t added =
        scheduler.stats().incident_probes_suppressed - before;
    EXPECT_LE(added, static_cast<int64_t>(ceis.size())) << "chronon " << t;
    if (scheduler.incident_detector()->Open(0)) ++open_chronons;
  }
  EXPECT_GT(open_chronons, k / 2);
  EXPECT_GT(scheduler.stats().incident_probes_suppressed, 0);
}

TEST(IncidentSchedulerTest, IncidentRunPopulatesStatsAndPassesAudits) {
  Rng rng(0x1DC1);
  FaultSpec spec;
  spec.defaults.transient_error_prob = 0.05;
  IncidentDomain d = Domain("backbone", 0.05, 0.05, 1.0);
  d.stride = 2;
  spec.incidents = {d};
  ASSERT_TRUE(spec.Validate().ok());

  const auto problem = RandomInstance(rng, 8, 200, 2, 60);
  FaultInjector injector(spec, problem.num_resources(), 0xFEE7);
  auto policy = MakePolicy("mrsf", 17);
  ASSERT_TRUE(policy.ok());
  SchedulerOptions options;
  options.fault_injector = &injector;
  auto run = RunOnline(problem, policy->get(), options);
  ASSERT_TRUE(run.ok()) << run.status();

  // The incident actually bit (ground truth) and the detector reacted.
  EXPECT_GT(run->stats.incident_chronons, 0);
  EXPECT_GT(run->stats.incident_openings, 0);
  EXPECT_GT(run->stats.incident_trial_probes, 0);
  EXPECT_GT(run->stats.incident_probes_suppressed, 0);
  EXPECT_GT(run->stats.incident_windows_detected +
                run->stats.incident_windows_missed,
            0);

  // Attempt tags: some attempt saw the ground-truth incident.
  bool any_gt = false;
  for (const auto& attempt : run->attempts) {
    if (attempt.incident & ProbeAttempt::kFleetIncident) any_gt = true;
  }
  EXPECT_TRUE(any_gt);

  // The incident audit re-derives every open/suppress/trial decision from
  // the log and its counters match the scheduler's.
  IncidentAuditReport report;
  auto audit = AuditIncidentRun(spec, problem.num_resources(), run->attempts,
                                options.fault_handling, &report);
  EXPECT_TRUE(audit.ok()) << audit;
  EXPECT_EQ(report.trial_attempts, run->stats.incident_trial_probes);
  EXPECT_EQ(report.opens, run->stats.incident_openings);
}

class IncidentIdentityAllPolicies
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(IncidentIdentityAllPolicies, DormantIncidentSpecIsByteIdentical) {
  // An ideal spec carrying a never-firing incident domain must schedule
  // byte-identically to the same spec without the incident line: the
  // detector is live but can never open (no failures), and the injector's
  // incident path draws no randomness.
  const auto& [policy_name, preemptive] = GetParam();
  Rng rng(0x1DE0 + (preemptive ? 1 : 0));
  for (int trial = 0; trial < 8; ++trial) {
    const uint32_t n = 2 + static_cast<uint32_t>(rng.UniformU64(3));
    const Chronon k = 8 + static_cast<Chronon>(rng.UniformU64(8));
    const int64_t c = 1 + static_cast<int64_t>(rng.UniformU64(2));
    const auto problem = RandomInstance(
        rng, n, k, c, 4 + static_cast<uint32_t>(rng.UniformU64(5)));

    FaultSpec dormant;  // ideal profiles
    IncidentDomain d = Domain("ghost", 0.0, 1.0, 1.0);
    d.stride = 1;
    dormant.incidents = {d};
    FaultSpec plain;  // no incidents at all

    std::vector<OnlineRunResult> runs;
    const FaultSpec* specs[2] = {&dormant, &plain};
    for (int i = 0; i < 2; ++i) {
      FaultInjector injector(*specs[i], problem.num_resources(), 321);
      auto policy = MakePolicy(policy_name, 17);
      ASSERT_TRUE(policy.ok());
      SchedulerOptions options;
      options.preemptive = preemptive;
      options.fault_injector = &injector;
      auto run = RunOnline(problem, policy->get(), options);
      ASSERT_TRUE(run.ok()) << run.status();
      runs.push_back(std::move(*run));
    }

    for (Chronon t = 0; t < k; ++t) {
      EXPECT_EQ(runs[0].schedule.ProbesAt(t), runs[1].schedule.ProbesAt(t))
          << policy_name << (preemptive ? " (P)" : " (NP)") << " trial "
          << trial << " chronon " << t;
    }
    // Attempt-for-attempt identity, incident tags included (operator==
    // compares the flags, which must all be 0).
    ASSERT_EQ(runs[0].attempts.size(), runs[1].attempts.size());
    for (size_t i = 0; i < runs[0].attempts.size(); ++i) {
      EXPECT_TRUE(runs[0].attempts[i] == runs[1].attempts[i])
          << policy_name << " trial " << trial << " attempt " << i;
    }
    EXPECT_EQ(runs[0].stats.incident_openings, 0);
    EXPECT_EQ(runs[0].stats.incident_chronons, 0);
    EXPECT_EQ(runs[0].stats.incident_trial_probes, 0);
    EXPECT_EQ(runs[0].stats.incident_probes_suppressed, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, IncidentIdentityAllPolicies,
    ::testing::Combine(::testing::Values("s-edf", "mrsf", "m-edf", "w-mrsf",
                                         "wic", "random", "round-robin"),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<std::string, bool>>& param) {
      std::string name = std::get<0>(param.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + (std::get<1>(param.param) ? "_P" : "_NP");
    });

TEST(IncidentSchedulerTest, DetectionRecoversCompletenessUnderLongIncidents) {
  // One repetition of bench_faults' incident ablation: the paper-baseline
  // workload under rare, long fleet incidents covering every even
  // resource. With detection on, the fleet breaker reroutes budget to the
  // unaffected half; with detection off, the scheduler keeps burning
  // budget on the dead resources. Everything is seeded, so the comparison
  // is exact, not statistical.
  ExperimentConfig config;
  config.trace_kind = TraceKind::kPoisson;
  config.poisson.num_resources = 1000;
  config.poisson.num_chronons = 1000;
  config.poisson.lambda = 20.0;
  config.profile_template =
      ProfileTemplate::AuctionWatch(1, /*exact_rank=*/true, /*window=*/10);
  config.profile_template.max_ei_length = 20;
  config.profile_template.random_window = true;
  config.workload.num_profiles = 100;
  config.workload.alpha = 0.3;
  config.workload.budget = 1;
  config.workload.distinct_resources = true;
  config.workload.sequential_rounds = true;
  config.repetitions = 1;
  config.seed = 31;
  config.fault_seed = 1031;
  config.fault_spec.defaults.transient_error_prob = 0.05;
  IncidentDomain d = Domain("backbone", 0.005, 0.02, 0.98);
  d.stride = 2;
  config.fault_spec.incidents = {d};

  std::vector<PolicyResult> results;
  for (const bool detection : {true, false}) {
    config.fault_handling.incident_detection = detection;
    auto result = RunExperiment(config, {{"m-edf", true}});
    ASSERT_TRUE(result.ok()) << result.status();
    results.push_back(result->policies[0]);
  }
  const PolicyResult& aware = results[0];
  const PolicyResult& oblivious = results[1];

  // Detection reacted: windows detected, probes suppressed, trials issued;
  // the oblivious run has no breaker activity at all.
  EXPECT_GT(aware.incident_windows_detected.mean(), 0.0);
  EXPECT_GT(aware.incident_probes_suppressed.mean(), 0.0);
  EXPECT_GT(aware.incident_trial_probes.mean(), 0.0);
  EXPECT_EQ(oblivious.incident_probes_suppressed.mean(), 0.0);
  EXPECT_EQ(oblivious.incident_trial_probes.mean(), 0.0);
  // ...and recovered completeness relative to the oblivious run.
  EXPECT_GT(aware.completeness.mean(), oblivious.completeness.mean());
}

TEST(IncidentSoakTest, LongCorrelatedIncidentRunSurvivesBothAudits) {
  Rng rng(0x50AC);
  FaultSpec spec;
  spec.defaults.transient_error_prob = 0.1;
  spec.defaults.timeout_prob = 0.02;
  IncidentDomain backbone = Domain("backbone", 0.01, 0.05, 0.95);
  backbone.stride = 3;
  IncidentDomain cdn = Domain("cdn", 0.02, 0.1, 1.0);
  cdn.members = {1, 4, 7, 10};
  spec.incidents = {backbone, cdn};
  ASSERT_TRUE(spec.Validate().ok());

  const auto problem = RandomInstance(rng, 30, 2000, 2, 400);
  FaultInjector injector(spec, problem.num_resources(), 0xC0FFEE);
  auto policy = MakePolicy("mrsf", 17);
  ASSERT_TRUE(policy.ok());
  SchedulerOptions options;
  options.fault_injector = &injector;
  auto run = RunOnline(problem, policy->get(), options);
  ASSERT_TRUE(run.ok()) << run.status();

  EXPECT_GT(run->stats.incident_chronons, 0);
  EXPECT_GT(run->stats.incident_openings, 0);

  IncidentAuditReport report;
  auto audit = AuditIncidentRun(spec, problem.num_resources(), run->attempts,
                                options.fault_handling, &report);
  EXPECT_TRUE(audit.ok()) << audit;
  EXPECT_EQ(report.trial_attempts, run->stats.incident_trial_probes);
  EXPECT_EQ(report.opens, run->stats.incident_openings);

  // The base fault audit must hold too: trials respect backoff/breaker
  // gates and the schedule matches the successful attempts — minus trial
  // successes that had no live EI to capture (pure health checks, absent
  // from the schedule by design).
  const int64_t successes =
      run->stats.probes_issued - run->stats.probes_failed;
  EXPECT_LE(run->schedule.TotalProbes(), successes);
  EXPECT_GE(run->schedule.TotalProbes(),
            successes - run->stats.incident_trial_probes);
  ScheduleAuditOptions schedule_options;
  schedule_options.expected_captured_ceis = run->stats.ceis_captured;
  schedule_options.expected_probes = run->schedule.TotalProbes();
  schedule_options.min_captured_eis = run->stats.eis_captured;
  FaultAuditReport fault_report;
  auto fault_audit =
      AuditFaultRun(problem, run->schedule, run->attempts,
                    options.fault_handling, schedule_options, &fault_report);
  EXPECT_TRUE(fault_audit.ok()) << fault_audit;
}

}  // namespace
}  // namespace webmon
