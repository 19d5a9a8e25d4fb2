// Fault-injected scheduler behavior: retry/backoff spacing, the circuit
// breaker lifecycle, budget accounting under failures, and the fault audit
// passing for every policy in both preemption modes.

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <vector>

#include "faults/fault_model.h"
#include "model/completeness.h"
#include "model/schedule_audit.h"
#include "online/run.h"
#include "policy/policy_factory.h"
#include "util/rng.h"

#include "../test_util.h"

namespace webmon {
namespace {

using testing_util::MakeProblemOneCeiPerProfile;

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

// ---------------------------------------------------------------------------
// Every policy, both modes: a flaky run passes the full fault audit and the
// scheduler's counters match what the auditor re-derives from the log.
// ---------------------------------------------------------------------------

class FaultAuditAllPolicies
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(FaultAuditAllPolicies, FlakyRunsSurviveTheAudit) {
  const auto& [policy_name, preemptive] = GetParam();
  Rng rng(0xFAB1 + (preemptive ? 1 : 0));
  FaultSpec spec;
  spec.defaults.transient_error_prob = 0.25;
  spec.defaults.timeout_prob = 0.05;
  spec.defaults.outage_enter_prob = 0.05;
  spec.defaults.outage_exit_prob = 0.3;

  for (int trial = 0; trial < 10; ++trial) {
    const uint32_t n = 2 + static_cast<uint32_t>(rng.UniformU64(3));
    const Chronon k = 10 + static_cast<Chronon>(rng.UniformU64(10));
    const int64_t c = 1 + static_cast<int64_t>(rng.UniformU64(2));
    const auto problem = RandomInstance(
        rng, n, k, c, 5 + static_cast<uint32_t>(rng.UniformU64(5)));

    FaultInjector injector(spec, problem.num_resources(),
                           0xD00D + static_cast<uint64_t>(trial));
    auto policy = MakePolicy(policy_name, 17);
    ASSERT_TRUE(policy.ok());
    SchedulerOptions options;
    options.preemptive = preemptive;
    options.fault_injector = &injector;
    auto run = RunOnline(problem, policy->get(), options);
    ASSERT_TRUE(run.ok()) << run.status();

    // The schedule holds exactly the successful probes.
    EXPECT_EQ(run->schedule.TotalProbes(),
              run->stats.probes_issued - run->stats.probes_failed);

    // Full fault audit: schedule/log agreement, budget on attempts,
    // backoff spacing, breaker gating — plus the base schedule audit.
    ScheduleAuditOptions schedule_options;
    schedule_options.expected_captured_ceis = run->stats.ceis_captured;
    schedule_options.expected_probes =
        run->stats.probes_issued - run->stats.probes_failed;
    schedule_options.min_captured_eis = run->stats.eis_captured;
    FaultAuditReport report;
    const Status audit =
        AuditFaultRun(problem, run->schedule, run->attempts,
                      options.fault_handling, schedule_options, &report);
    EXPECT_TRUE(audit.ok()) << audit << " for " << policy_name
                            << (preemptive ? " (P)" : " (NP)") << " trial "
                            << trial;

    // The auditor's independently derived counters must match the
    // scheduler's own.
    EXPECT_EQ(report.attempts, run->stats.probes_issued);
    EXPECT_EQ(report.failures, run->stats.probes_failed);
    EXPECT_EQ(report.successes,
              run->stats.probes_issued - run->stats.probes_failed);
    EXPECT_EQ(report.retries, run->stats.probes_retried);
    EXPECT_EQ(report.breaker_trips, run->stats.breaker_trips);
    // Uniform costs: every failed attempt lost exactly one budget unit.
    EXPECT_EQ(run->stats.budget_lost_to_failures,
              static_cast<double>(run->stats.probes_failed));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, FaultAuditAllPolicies,
    ::testing::Combine(::testing::Values("s-edf", "mrsf", "m-edf", "w-mrsf",
                                         "wic", "random", "round-robin"),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<std::string, bool>>& param) {
      std::string name = std::get<0>(param.param);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name + (std::get<1>(param.param) ? "_P" : "_NP");
    });

// ---------------------------------------------------------------------------
// Deterministic lifecycles on a single always-failing resource.
// ---------------------------------------------------------------------------

// Runs the scheduler chronon by chronon so per-step health is observable.
struct ManualRun {
  ManualRun(const ProblemInstance& problem, Policy* policy,
            SchedulerOptions options)
      : schedule(problem.num_resources(), problem.num_chronons()),
        scheduler(problem.num_resources(), problem.num_chronons(),
                  problem.budget(), policy, options) {
    for (const Cei* cei : problem.AllCeis()) {
      by_arrival[cei->arrival].push_back(cei);
    }
  }

  void StepTo(Chronon upto) {  // steps chronons (last, upto]
    for (Chronon t = last + 1; t <= upto; ++t) {
      for (const Cei* cei : by_arrival[t]) {
        ASSERT_TRUE(scheduler.AddArrival(cei, t).ok());
      }
      ASSERT_TRUE(scheduler.Step(t, &schedule).ok()) << "chronon " << t;
    }
    last = upto;
  }

  Schedule schedule;
  OnlineScheduler scheduler;
  std::map<Chronon, std::vector<const Cei*>> by_arrival;
  Chronon last = -1;
};

TEST(FaultSchedulerTest, AlwaysFailingResourceBacksOffThenTrips) {
  // One resource that fails every probe; one EI wanting it all epoch.
  const Chronon k = 40;
  const auto problem =
      MakeProblemOneCeiPerProfile(1, k, 1, {{{0, 0, k - 1}}});

  FaultSpec spec;
  spec.defaults.transient_error_prob = 1.0;
  FaultInjector injector(spec, 1, /*seed=*/1);

  auto policy = MakePolicy("s-edf");
  ASSERT_TRUE(policy.ok());
  SchedulerOptions options;
  options.fault_injector = &injector;
  options.fault_handling.backoff_jitter = false;  // exact spacing below
  ManualRun run(problem, policy->get(), options);
  run.StepTo(k - 1);

  // Pure exponential backoff (base 1, cap 8) then the breaker at the 4th
  // consecutive failure, cooldown 8 doubling per failed half-open trial:
  //   t=0 (streak 1), t=1 (+1), t=3 (+2), t=7 (+4, trips at threshold 4),
  //   t=15 (trial, re-open cooldown 16), t=31 (trial, re-open cooldown 32,
  //   next trial would be t=63 > epoch).
  const std::vector<Chronon> expected = {0, 1, 3, 7, 15, 31};
  const auto& log = run.scheduler.attempt_log();
  ASSERT_EQ(log.size(), expected.size());
  for (size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].resource, 0u);
    EXPECT_EQ(log[i].chronon, expected[i]) << "attempt " << i;
    EXPECT_EQ(log[i].outcome, ProbeOutcome::kTransientError);
  }

  const SchedulerStats& stats = run.scheduler.stats();
  EXPECT_EQ(stats.probes_issued, 6);
  EXPECT_EQ(stats.probes_failed, 6);
  EXPECT_EQ(stats.probes_retried, 5);  // every attempt after the first
  EXPECT_EQ(stats.breaker_trips, 3);   // t=7, t=15, t=31
  EXPECT_EQ(stats.budget_lost_to_failures, 6.0);
  EXPECT_EQ(stats.ceis_captured, 0);
  EXPECT_EQ(stats.ceis_expired, 1);
  EXPECT_EQ(run.schedule.TotalProbes(), 0);  // failures never capture

  const ResourceHealth health = run.scheduler.health(0);
  EXPECT_EQ(health.breaker, ResourceHealth::Breaker::kOpen);
  EXPECT_EQ(health.cooldown, 32);
  EXPECT_EQ(health.open_until, 63);
  EXPECT_GT(health.ewma_failure, 0.5);

  // The audit independently confirms the same lifecycle.
  FaultAuditReport report;
  const Status audit = AuditFaultRun(problem, run.schedule, log,
                                     options.fault_handling, {}, &report);
  EXPECT_TRUE(audit.ok()) << audit;
  EXPECT_EQ(report.breaker_trips, 3);
  EXPECT_EQ(report.retries, 5);
}

TEST(FaultSchedulerTest, PushesElsewhereDoNotChangeARetryCadence) {
  // A failed attempt marks its resource contacted for that chronon only.
  // Pushes to an unrelated resource make every later rank pass consult the
  // contacted mask, so a mark that outlived its chronon would withhold the
  // always-failing resource's retries; with the mask cleared, its attempts
  // match the push-free run exactly.
  const Chronon k = 40;
  const auto problem =
      MakeProblemOneCeiPerProfile(2, k, 1, {{{0, 0, k - 1}}});
  FaultSpec spec;
  spec.overrides[0].transient_error_prob = 1.0;
  std::vector<std::vector<ProbeAttempt>> logs;
  for (const bool pushes : {false, true}) {
    FaultInjector injector(spec, 2, /*seed=*/1);
    auto policy = MakePolicy("s-edf");
    ASSERT_TRUE(policy.ok());
    SchedulerOptions options;
    options.fault_injector = &injector;
    options.fault_handling.backoff_jitter = false;
    ManualRun run(problem, policy->get(), options);
    for (Chronon t = 0; t < k; ++t) {
      if (pushes) {
        ASSERT_TRUE(run.scheduler.AddPush(1, t).ok());
      }
      run.StepTo(t);
    }
    logs.push_back(run.scheduler.attempt_log());
  }
  ASSERT_EQ(logs[0].size(), 6u);  // t = 0, 1, 3, 7, then two half-open trials
  ASSERT_EQ(logs[0].size(), logs[1].size());
  for (size_t i = 0; i < logs[0].size(); ++i) {
    EXPECT_TRUE(logs[0][i] == logs[1][i]) << "attempt " << i;
  }
}

TEST(FaultSchedulerTest, RetryBudgetCapsTotalRetrySpend) {
  // Same always-failing single resource, but the spec caps retry spend at
  // 2 budget units: after the retries at t=1 and t=3 the budget is gone,
  // so the t=7 attempt (and everything later) is withheld even though the
  // backoff gate has elapsed.
  const Chronon k = 40;
  const auto problem =
      MakeProblemOneCeiPerProfile(1, k, 1, {{{0, 0, k - 1}}});

  FaultSpec spec;
  spec.defaults.transient_error_prob = 1.0;
  spec.retry_budget = 2.0;
  FaultInjector injector(spec, 1, /*seed=*/1);

  auto policy = MakePolicy("s-edf");
  ASSERT_TRUE(policy.ok());
  SchedulerOptions options;
  options.fault_injector = &injector;
  options.fault_handling.backoff_jitter = false;
  ManualRun run(problem, policy->get(), options);
  run.StepTo(k - 1);

  const std::vector<Chronon> expected = {0, 1, 3};
  const auto& log = run.scheduler.attempt_log();
  ASSERT_EQ(log.size(), expected.size());
  for (size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].chronon, expected[i]) << "attempt " << i;
  }

  const SchedulerStats& stats = run.scheduler.stats();
  EXPECT_EQ(stats.probes_issued, 3);
  EXPECT_EQ(stats.probes_retried, 2);
  EXPECT_EQ(stats.retry_budget_spent, 2.0);
  // Backoff after the t=3 failure gates until t=7; every chronon from
  // there on would have offered a retry and was withheld instead.
  EXPECT_EQ(stats.retries_suppressed, k - 7);
  EXPECT_EQ(stats.breaker_trips, 0);  // the 4th attempt never goes out

  // Suppression only removes attempts, so the audit contract still holds.
  const Status audit = AuditFaultRun(problem, run.schedule, log,
                                     options.fault_handling, {}, nullptr);
  EXPECT_TRUE(audit.ok()) << audit;
}

TEST(FaultSchedulerTest, RetryBudgetExhaustionMidChrononSkipsIssuance) {
  // Two always-failing resources, budget 2 per chronon, retry budget 1:
  // at t=1 both are due for a retry, the first one issued spends the whole
  // budget, and the second must be withheld inside the same chronon.
  const Chronon k = 6;
  const auto problem = MakeProblemOneCeiPerProfile(
      2, k, 2, {{{0, 0, k - 1}}, {{1, 0, k - 1}}});

  FaultSpec spec;
  spec.defaults.transient_error_prob = 1.0;
  spec.retry_budget = 1.0;
  FaultInjector injector(spec, 2, /*seed=*/1);

  auto policy = MakePolicy("s-edf");
  ASSERT_TRUE(policy.ok());
  SchedulerOptions options;
  options.fault_injector = &injector;
  options.fault_handling.backoff_jitter = false;
  ManualRun run(problem, policy->get(), options);
  run.StepTo(k - 1);

  const SchedulerStats& stats = run.scheduler.stats();
  // t=0: both first attempts (not retries). t=1: one retry spends the
  // budget, the other is suppressed mid-chronon.
  EXPECT_EQ(stats.probes_issued, 3);
  EXPECT_EQ(stats.probes_retried, 1);
  EXPECT_EQ(stats.retry_budget_spent, 1.0);
  EXPECT_GT(stats.retries_suppressed, 0);
  for (const ProbeAttempt& attempt : run.scheduler.attempt_log()) {
    EXPECT_LE(attempt.chronon, 1) << "retry issued after budget exhaustion";
  }
}

TEST(FaultSchedulerTest, RetrySuppressionCountsLiveDemandNotStreakedResources) {
  // retries_suppressed counts live candidate EIs the spent retry budget
  // withholds, not every resource that carries a failure streak. Phase 1
  // leaves 1,000 always-failing resources with a streak and then lets their
  // needs expire; in phase 2 only four needs are live, so each chronon may
  // add at most four suppressions although 1,000 streaked resources sit
  // available in a fleet of 10^5.
  constexpr uint32_t kResources = 100'000;
  constexpr Chronon kPhase2 = 20;
  constexpr Chronon k = 60;
  std::vector<testing_util::CeiSpec> ceis;
  for (ResourceId r = 0; r < 1000; ++r) ceis.push_back({{r, 0, kPhase2 - 1}});
  for (ResourceId r = 50'000; r < 50'004; ++r) {
    ceis.push_back({{r, kPhase2, k - 1}});
  }
  const auto problem = MakeProblemOneCeiPerProfile(kResources, k, 50, ceis);

  FaultSpec spec;
  spec.defaults.transient_error_prob = 1.0;
  spec.retry_budget = 0.0;  // spent from the start: no retry ever goes out
  FaultInjector injector(spec, kResources, /*seed=*/1);
  auto policy = MakePolicy("s-edf");
  ASSERT_TRUE(policy.ok());
  SchedulerOptions options;
  options.fault_injector = &injector;
  ManualRun run(problem, policy->get(), options);
  run.StepTo(kPhase2 - 1);
  EXPECT_EQ(run.scheduler.stats().probes_issued, 1000);

  int64_t phase2_suppressed = 0;
  for (Chronon t = kPhase2; t < k; ++t) {
    const int64_t before = run.scheduler.stats().retries_suppressed;
    run.StepTo(t);
    const int64_t added = run.scheduler.stats().retries_suppressed - before;
    EXPECT_LE(added, 4) << "chronon " << t;
    phase2_suppressed += added;
  }
  EXPECT_GT(phase2_suppressed, 0);
  EXPECT_EQ(run.scheduler.stats().probes_retried, 0);
}

TEST(FaultSchedulerTest, HalfOpenTrialSuccessClosesBreaker) {
  // Rate limiter: 1 attempt per 8-chronon window succeeds, the rest fail —
  // a deterministic fail-then-recover pattern. One new single-EI need per
  // chronon keeps demand alive after each success (a capture would
  // otherwise complete the only CEI and stop probing).
  const Chronon k = 40;
  std::vector<testing_util::CeiSpec> ceis;
  for (Chronon t = 0; t < k; ++t) {
    ceis.push_back({{0, t, k - 1}});
  }
  const auto problem = MakeProblemOneCeiPerProfile(1, k, 1, ceis);

  FaultSpec spec;
  spec.defaults.rate_limit_window = 8;
  spec.defaults.rate_limit_max = 1;
  FaultInjector injector(spec, 1, /*seed=*/1);

  auto policy = MakePolicy("s-edf");
  ASSERT_TRUE(policy.ok());
  SchedulerOptions options;
  options.fault_injector = &injector;
  options.fault_handling.backoff_jitter = false;
  options.fault_handling.breaker_failure_threshold = 2;
  options.fault_handling.breaker_cooldown = 3;
  ManualRun run(problem, policy->get(), options);

  // t=0 succeeds (window quota), t=1 fails (streak 1, backoff 1), t=2
  // fails (streak 2 = threshold): breaker opens for 3 chronons.
  run.StepTo(2);
  EXPECT_EQ(run.scheduler.health(0).breaker,
            ResourceHealth::Breaker::kOpen);
  EXPECT_EQ(run.scheduler.health(0).open_until, 5);
  EXPECT_EQ(run.scheduler.health(0).cooldown, 3);

  // t=5: half-open trial, still window 0 and over quota -> fails;
  // the breaker re-opens with the cooldown doubled to 6.
  run.StepTo(5);
  EXPECT_EQ(run.scheduler.health(0).breaker,
            ResourceHealth::Breaker::kOpen);
  EXPECT_EQ(run.scheduler.health(0).cooldown, 6);
  EXPECT_EQ(run.scheduler.health(0).open_until, 11);

  // t=11: half-open trial lands in window [8,16) with a fresh quota ->
  // succeeds, closing the breaker and resetting the cooldown.
  run.StepTo(11);
  EXPECT_EQ(run.scheduler.health(0).breaker,
            ResourceHealth::Breaker::kClosed);
  EXPECT_EQ(run.scheduler.health(0).cooldown, 0);
  EXPECT_EQ(run.scheduler.health(0).consecutive_failures, 0);
  EXPECT_TRUE(run.schedule.Probed(0, 11));

  run.StepTo(k - 1);
  const Status audit =
      AuditFaultRun(problem, run.schedule, run.scheduler.attempt_log(),
                    options.fault_handling, {}, nullptr);
  EXPECT_TRUE(audit.ok()) << audit;
}

TEST(FaultSchedulerTest, BudgetFlowsToHealthyResourceWhenFlakyOneIsGated) {
  // Two resources, budget 1. Resource 0 always fails; resource 1 is ideal.
  // While 0 is backed off / open, the budget must serve 1's EIs instead of
  // being wasted, so the CEI on resource 1 completes.
  const Chronon k = 30;
  const auto problem = MakeProblemOneCeiPerProfile(
      2, k, 1, {{{0, 0, k - 1}}, {{1, 0, k - 1}}});

  FaultSpec spec;
  spec.overrides[0].transient_error_prob = 1.0;
  FaultInjector injector(spec, 2, /*seed=*/9);

  auto policy = MakePolicy("s-edf");
  ASSERT_TRUE(policy.ok());
  SchedulerOptions options;
  options.fault_injector = &injector;
  auto run = RunOnline(problem, policy->get(), options);
  ASSERT_TRUE(run.ok()) << run.status();

  EXPECT_EQ(run->stats.ceis_captured, 1);  // the healthy resource's CEI
  EXPECT_GT(run->stats.probes_failed, 0);
  EXPECT_GT(run->stats.breaker_trips, 0);
  EXPECT_TRUE(CeiCaptured(*problem.AllCeis()[1], run->schedule));
  // Resource 1 must have been probed despite both EIs competing for the
  // same unit budget with equal deadlines.
  EXPECT_FALSE(run->schedule.ProbesOf(1).empty());
}

TEST(FaultSchedulerTest, AttemptLogAbsentWithoutInjector) {
  const auto problem = MakeProblemOneCeiPerProfile(1, 5, 1, {{{0, 0, 4}}});
  auto policy = MakePolicy("s-edf");
  ASSERT_TRUE(policy.ok());
  auto run = RunOnline(problem, policy->get(), {});
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->attempts.empty());
  EXPECT_EQ(run->stats.probes_failed, 0);
}

TEST(FaultSchedulerDeathTest, RejectsAnEpochBeyondTheGateChronons) {
  // The fault path keeps each resource's next probeable chronon in 32 bits,
  // so with an injector attached the constructor rejects a longer epoch,
  // before sizing anything from it, instead of truncating.
  FaultInjector injector(FaultSpec{}, 1, 1);
  auto policy = MakePolicy("m-edf");
  ASSERT_TRUE(policy.ok());
  SchedulerOptions options;
  options.fault_injector = &injector;
  const Chronon too_long = Chronon{std::numeric_limits<int32_t>::max()} + 1;
  EXPECT_DEATH(OnlineScheduler(1, too_long, BudgetVector::Uniform(1),
                               policy->get(), options),
               "32-bit gate chronons");
}

// ---------------------------------------------------------------------------
// The auditor rejects runs that violate the contract.
// ---------------------------------------------------------------------------

TEST(FaultAuditTest, RejectsFailedProbeInSchedule) {
  const auto problem = MakeProblemOneCeiPerProfile(1, 10, 1, {{{0, 0, 9}}});
  Schedule schedule(1, 10);
  ASSERT_TRUE(schedule.AddProbe(0, 0).ok());  // phantom capture
  const std::vector<ProbeAttempt> log = {
      {0, 0, ProbeOutcome::kTransientError}};
  const Status audit = AuditFaultRun(problem, schedule, log, {}, {}, nullptr);
  EXPECT_FALSE(audit.ok());
}

TEST(FaultAuditTest, RejectsRetryBeforeBackoff) {
  const auto problem = MakeProblemOneCeiPerProfile(1, 10, 1, {{{0, 0, 9}}});
  Schedule schedule(1, 10);
  // Failures at t=0 and t=1: fine. Failure at t=2 violates the streak-2
  // backoff of 2 chronons (earliest legal retry is t=3).
  const std::vector<ProbeAttempt> log = {
      {0, 0, ProbeOutcome::kTransientError},
      {0, 1, ProbeOutcome::kTransientError},
      {0, 2, ProbeOutcome::kTransientError}};
  const Status audit = AuditFaultRun(problem, schedule, log, {}, {}, nullptr);
  EXPECT_FALSE(audit.ok());
  EXPECT_NE(audit.message().find("backoff"), std::string::npos) << audit;
}

TEST(FaultAuditTest, RejectsProbeToOpenBreaker) {
  const auto problem = MakeProblemOneCeiPerProfile(1, 30, 2, {{{0, 0, 29}}});
  Schedule schedule(1, 30);
  FaultHandlingOptions fault;
  fault.breaker_failure_threshold = 2;
  fault.breaker_cooldown = 8;
  // Two failures trip the breaker at t=1 (open until t=9); an attempt at
  // t=5 probes an open breaker.
  const std::vector<ProbeAttempt> log = {
      {0, 0, ProbeOutcome::kTransientError},
      {0, 1, ProbeOutcome::kTransientError},
      {0, 5, ProbeOutcome::kTransientError}};
  const Status audit =
      AuditFaultRun(problem, schedule, log, fault, {}, nullptr);
  EXPECT_FALSE(audit.ok());
  EXPECT_NE(audit.message().find("open"), std::string::npos) << audit;
}

TEST(FaultAuditTest, RejectsAttemptsOverBudget) {
  // Budget 1 but two attempts in the same chronon (on different resources).
  const auto problem = MakeProblemOneCeiPerProfile(
      2, 10, 1, {{{0, 0, 9}}, {{1, 0, 9}}});
  Schedule schedule(2, 10);
  const std::vector<ProbeAttempt> log = {
      {0, 0, ProbeOutcome::kTransientError},
      {1, 0, ProbeOutcome::kTransientError}};
  const Status audit = AuditFaultRun(problem, schedule, log, {}, {}, nullptr);
  EXPECT_FALSE(audit.ok());
  EXPECT_NE(audit.message().find("budget"), std::string::npos) << audit;
}

TEST(FaultAuditTest, RejectsMissingSuccessfulProbe) {
  const auto problem = MakeProblemOneCeiPerProfile(1, 10, 1, {{{0, 0, 9}}});
  Schedule schedule(1, 10);  // empty, but the log has a success
  const std::vector<ProbeAttempt> log = {{0, 0, ProbeOutcome::kSuccess}};
  const Status audit = AuditFaultRun(problem, schedule, log, {}, {}, nullptr);
  EXPECT_FALSE(audit.ok());
}

}  // namespace
}  // namespace webmon
