// Golden fault run: a fixed instance, fault spec, and seed must reproduce
// the exact probe/failure/retry/breaker event sequence. Any change to the
// injector's draw order, the RNG streams, the backoff/breaker arithmetic,
// or the scheduler's greedy walk shows up here as a diff — bump the
// golden ONLY for an intentional, documented behavior change.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "faults/fault_model.h"
#include "faults/incident_detector.h"
#include "model/problem.h"
#include "model/schedule_audit.h"
#include "online/run.h"
#include "policy/m_edf.h"
#include "util/rng.h"

#include "../test_util.h"

namespace webmon {
namespace {

using testing_util::MakeProblemOneCeiPerProfile;

TEST(FaultGoldenTest, FixedSeedReproducesExactEventLog) {
  const auto problem = MakeProblemOneCeiPerProfile(
      3, 24, 1,
      {
          {{0, 0, 5}},
          {{1, 2, 8}, {2, 4, 10}},
          {{0, 6, 12}},
          {{2, 8, 16}},
          {{1, 12, 20}, {0, 14, 22}},
          {{2, 18, 23}},
      });

  FaultSpec spec;
  spec.defaults.transient_error_prob = 0.3;
  spec.defaults.timeout_prob = 0.1;
  spec.defaults.outage_enter_prob = 0.1;
  spec.defaults.outage_exit_prob = 0.5;
  FaultInjector injector(spec, problem.num_resources(), /*seed=*/42);

  MEdfPolicy policy;
  SchedulerOptions options;
  options.fault_injector = &injector;
  auto run = RunOnline(problem, &policy, options);
  ASSERT_TRUE(run.ok()) << run.status();

  std::ostringstream log;
  for (const ProbeAttempt& a : run->attempts) {
    log << "t=" << a.chronon << " r=" << a.resource << " "
        << ProbeOutcomeToString(a.outcome) << "\n";
  }
  const std::string kExpectedLog =
      "t=0 r=0 success\n"
      "t=2 r=1 transient-error\n"
      "t=3 r=1 success\n"
      "t=4 r=2 success\n"
      "t=6 r=0 outage\n"
      "t=7 r=0 success\n"
      "t=8 r=2 success\n"
      "t=12 r=1 success\n"
      "t=14 r=0 success\n"
      "t=18 r=2 success\n";
  EXPECT_EQ(log.str(), kExpectedLog);

  EXPECT_EQ(run->stats.probes_issued, 10);
  EXPECT_EQ(run->stats.probes_failed, 2);
  EXPECT_EQ(run->stats.probes_retried, 2);
  EXPECT_EQ(run->stats.breaker_trips, 0);
  EXPECT_EQ(run->stats.budget_lost_to_failures, 2.0);
  EXPECT_EQ(run->stats.ceis_captured, 6);
  EXPECT_EQ(run->schedule.TotalProbes(), 8);

  // The golden run also satisfies the full fault audit.
  const Status audit =
      AuditFaultRun(problem, run->schedule, run->attempts,
                    options.fault_handling, {}, nullptr);
  EXPECT_TRUE(audit.ok()) << audit;

  // Replaying with a fresh injector reproduces the identical log.
  FaultInjector replay_injector(spec, problem.num_resources(), /*seed=*/42);
  MEdfPolicy replay_policy;
  SchedulerOptions replay_options;
  replay_options.fault_injector = &replay_injector;
  auto replay = RunOnline(problem, &replay_policy, replay_options);
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay->attempts == run->attempts);
}

// Golden incident run: M-EDF under transients, timeouts and outages, a
// retry budget that runs out mid-run, and one incident domain whose fleet
// breaker opens, issues end-of-incident trials and closes. It pins every
// attempt with its incident flags, each chronon's probes and the gate
// counters, once at a uniform budget (the rank scan's bounded top-C board)
// and once with varying costs (its per-resource table). The instance is
// one on which the deadline shrink changes picks, so the shrink is pinned
// too.
struct IncidentGoldenRun {
  std::string log;
  SchedulerStats stats;
  int64_t detector_closes = 0;
};

ProblemInstance IncidentGoldenInstance() {
  constexpr uint32_t kResources = 10;
  constexpr Chronon kChronons = 48;
  Rng rng(12);
  ProblemBuilder builder(kResources, kChronons, BudgetVector::Uniform(2));
  for (int c = 0; c < 40; ++c) {
    builder.BeginProfile();
    const uint32_t rank = 1 + static_cast<uint32_t>(rng.UniformU64(3));
    std::vector<std::tuple<ResourceId, Chronon, Chronon>> eis;
    for (uint32_t e = 0; e < rank; ++e) {
      const auto r = static_cast<ResourceId>(rng.UniformU64(kResources));
      const auto s = static_cast<Chronon>(rng.UniformU64(kChronons));
      const Chronon f = std::min<Chronon>(
          s + 2 + static_cast<Chronon>(rng.UniformU64(6)), kChronons - 1);
      eis.emplace_back(r, s, std::max(s, f));
    }
    EXPECT_TRUE(builder.AddCei(eis).ok());
  }
  auto built = builder.Build();
  EXPECT_TRUE(built.ok()) << built.status();
  return std::move(built).value();
}

FaultSpec IncidentGoldenSpec() {
  FaultSpec spec;
  spec.defaults.transient_error_prob = 0.2;
  spec.defaults.timeout_prob = 0.05;
  spec.defaults.outage_enter_prob = 0.05;
  spec.defaults.outage_exit_prob = 0.3;
  spec.retry_budget = 14.0;
  IncidentDomain backbone;
  backbone.name = "backbone";
  backbone.stride = 2;
  backbone.enter_prob = 0.05;
  backbone.exit_prob = 0.15;
  backbone.fail_prob = 1.0;
  spec.incidents = {backbone};
  return spec;
}

SchedulerOptions IncidentGoldenOptions(bool varying_costs,
                                       Chronon deadline_shrink_cap) {
  SchedulerOptions options;
  options.fault_handling.breaker_failure_threshold = 2;
  options.fault_handling.deadline_shrink_cap = deadline_shrink_cap;
  options.fault_handling.incident_window = 8;
  options.fault_handling.incident_min_attempts = 4;
  options.fault_handling.incident_reprobe_interval = 2;
  if (varying_costs) {
    options.resource_costs = {1.0, 0.5, 1.5, 1.0, 0.5,
                              1.0, 1.5, 0.5, 1.0, 1.0};
  }
  return options;
}

// One line per chronon that issued an attempt: each attempt as
// resource:outcome (+D detector open, +I ground-truth incident), then the
// chronon's scheduled probes.
IncidentGoldenRun RunIncidentGolden(bool varying_costs,
                                    Chronon deadline_shrink_cap) {
  const ProblemInstance problem = IncidentGoldenInstance();
  const FaultSpec spec = IncidentGoldenSpec();
  FaultInjector injector(spec, problem.num_resources(), /*seed=*/87);
  MEdfPolicy policy;
  SchedulerOptions options =
      IncidentGoldenOptions(varying_costs, deadline_shrink_cap);
  options.fault_injector = &injector;
  auto run = RunOnline(problem, &policy, options);
  EXPECT_TRUE(run.ok()) << run.status();
  if (!run.ok()) return {};

  IncidentGoldenRun golden;
  golden.stats = run->stats;
  std::ostringstream log;
  size_t i = 0;
  for (Chronon t = 0; t < problem.num_chronons(); ++t) {
    if (i == run->attempts.size() || run->attempts[i].chronon != t) continue;
    log << "t=" << t;
    for (; i < run->attempts.size() && run->attempts[i].chronon == t; ++i) {
      const ProbeAttempt& a = run->attempts[i];
      log << " " << a.resource << ":" << ProbeOutcomeToString(a.outcome);
      if (a.incident & ProbeAttempt::kDetectorOpen) log << "+D";
      if (a.incident & ProbeAttempt::kFleetIncident) log << "+I";
    }
    std::vector<ResourceId> probes = run->schedule.ProbesAt(t);
    std::sort(probes.begin(), probes.end());
    log << " |";
    for (ResourceId r : probes) log << " " << r;
    log << "\n";
  }
  golden.log = log.str();

  // Replaying the log through a fresh detector shows the breaker closed.
  IncidentDetector detector(spec, problem.num_resources(),
                            options.fault_handling);
  Chronon cursor = -1;
  for (const ProbeAttempt& a : run->attempts) {
    if (a.chronon > cursor) detector.BeginChronon(cursor = a.chronon);
    detector.RecordAttempt(a.resource, a.chronon, ProbeSucceeded(a.outcome));
  }
  golden.detector_closes = detector.stats().closes;

  EXPECT_TRUE(AuditFaultRun(problem, run->schedule, run->attempts,
                            options.fault_handling, {}, nullptr)
                  .ok());
  EXPECT_TRUE(AuditIncidentRun(spec, problem.num_resources(), run->attempts,
                               options.fault_handling)
                  .ok());
  return golden;
}

TEST(FaultGoldenTest, IncidentRunOnTheBoundedBoard) {
  const IncidentGoldenRun run = RunIncidentGolden(false, 8);
  const std::string kExpectedLog =
      "t=0 0:success | 0\n"
      "t=1 4:success 7:transient-error | 4\n"
      "t=2 7:success 5:outage | 7\n"
      "t=3 5:success 1:success | 1 5\n"
      "t=4 7:success 8:success | 7 8\n"
      "t=7 7:transient-error |\n"
      "t=8 7:success 8:timeout | 7\n"
      "t=9 8:outage 0:success | 0\n"
      "t=10 5:success 4:success | 4 5\n"
      "t=11 7:success 0:transient-error | 7\n"
      "t=12 0:success 6:transient-error | 0\n"
      "t=13 4:success 6:transient-error | 4\n"
      "t=14 5:success 4:success | 4 5\n"
      "t=15 5:success | 5\n"
      "t=17 3:success 8:transient-error | 3\n"
      "t=18 2:success | 2\n"
      "t=20 2:incident+I |\n"
      "t=21 2:incident+I 3:success | 3\n"
      "t=22 9:success | 9\n"
      "t=24 7:transient-error |\n"
      "t=25 0:incident+D+I 7:success | 7\n"
      "t=27 0:success+D |\n"
      "t=29 0:success+D 4:transient-error |\n"
      "t=30 6:success 4:transient-error | 6\n"
      "t=31 5:outage |\n"
      "t=32 0:success 5:outage | 0\n"
      "t=33 8:transient-error 3:transient-error |\n"
      "t=36 9:success | 9\n"
      "t=37 1:success | 1\n"
      "t=38 0:success | 0\n"
      "t=39 0:incident+I |\n"
      "t=40 6:success | 6\n"
      "t=42 1:success | 1\n"
      "t=44 6:success | 6\n"
      "t=47 9:success | 9\n";
  EXPECT_EQ(run.log, kExpectedLog);
  EXPECT_EQ(run.stats.retries_suppressed, 32);
  EXPECT_EQ(run.stats.incident_probes_suppressed, 6);
  EXPECT_EQ(run.stats.incident_trial_probes, 3);
  EXPECT_EQ(run.stats.breaker_trips, 7);
  EXPECT_EQ(run.stats.probes_retried, 14);
  EXPECT_EQ(run.detector_closes, 1);
  // Without the deadline shrink the run picks differently.
  EXPECT_NE(RunIncidentGolden(false, 0).log, run.log);
}

TEST(FaultGoldenTest, IncidentRunInTableMode) {
  const IncidentGoldenRun run = RunIncidentGolden(true, 8);
  const std::string kExpectedLog =
      "t=0 0:success | 0\n"
      "t=1 4:success 7:transient-error | 4\n"
      "t=2 7:success 5:outage | 7\n"
      "t=3 5:success 1:success | 1 5\n"
      "t=4 7:success 8:success | 7 8\n"
      "t=7 7:transient-error |\n"
      "t=8 7:success 8:timeout | 7\n"
      "t=9 8:outage 0:success | 0\n"
      "t=10 5:success 4:success | 4 5\n"
      "t=11 7:success 0:transient-error | 7\n"
      "t=12 0:success | 0\n"
      "t=13 4:success 6:transient-error | 4\n"
      "t=14 6:transient-error 4:success | 4\n"
      "t=15 5:success | 5\n"
      "t=17 3:success 8:transient-error | 3\n"
      "t=18 2:success | 2\n"
      "t=20 2:incident+I |\n"
      "t=21 2:incident+I |\n"
      "t=22 3:success 9:success | 3 9\n"
      "t=24 7:transient-error |\n"
      "t=25 0:incident+D+I 7:success | 7\n"
      "t=27 0:success+D |\n"
      "t=29 0:success+D 4:transient-error |\n"
      "t=30 6:success 4:transient-error | 6\n"
      "t=31 5:outage |\n"
      "t=32 0:success 5:outage | 0\n"
      "t=33 8:transient-error 3:transient-error |\n"
      "t=34 3:outage |\n"
      "t=36 9:success | 9\n"
      "t=37 1:success | 1\n"
      "t=38 0:success | 0\n"
      "t=39 0:incident+I |\n"
      "t=40 6:success | 6\n"
      "t=42 1:success | 1\n"
      "t=44 6:success | 6\n"
      "t=47 9:success | 9\n";
  EXPECT_EQ(run.log, kExpectedLog);
  EXPECT_EQ(run.stats.retries_suppressed, 23);
  EXPECT_EQ(run.stats.incident_probes_suppressed, 6);
  EXPECT_EQ(run.stats.incident_trial_probes, 3);
  EXPECT_EQ(run.stats.breaker_trips, 8);
  EXPECT_EQ(run.stats.probes_retried, 15);
  EXPECT_EQ(run.detector_closes, 1);
  EXPECT_NE(RunIncidentGolden(true, 0).log, run.log);
}

}  // namespace
}  // namespace webmon
