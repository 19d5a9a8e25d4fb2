// Shared helpers for webmon tests.

#ifndef WEBMON_TESTS_TEST_UTIL_H_
#define WEBMON_TESTS_TEST_UTIL_H_

#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "model/problem.h"
#include "model/schedule_audit.h"
#include "online/online_scheduler.h"

namespace webmon {
namespace testing_util {

/// (resource, start, finish) triple describing one EI.
using EiSpec = std::tuple<ResourceId, Chronon, Chronon>;
/// A CEI is a list of EIs.
using CeiSpec = std::vector<EiSpec>;
/// A profile is a list of CEIs.
using ProfileSpec = std::vector<CeiSpec>;

/// Builds a validated instance from nested specs; aborts the test on error.
inline ProblemInstance MakeProblem(uint32_t num_resources,
                                   Chronon num_chronons, int64_t budget,
                                   const std::vector<ProfileSpec>& profiles) {
  ProblemBuilder builder(num_resources, num_chronons,
                         BudgetVector::Uniform(budget));
  for (const auto& profile : profiles) {
    builder.BeginProfile();
    for (const auto& cei : profile) {
      auto id = builder.AddCei(cei);
      EXPECT_TRUE(id.ok()) << id.status();
    }
  }
  auto built = builder.Build();
  EXPECT_TRUE(built.ok()) << built.status();
  return std::move(built).value();
}

/// Shorthand: one profile per CEI (each client has a single complex need).
inline ProblemInstance MakeProblemOneCeiPerProfile(
    uint32_t num_resources, Chronon num_chronons, int64_t budget,
    const std::vector<CeiSpec>& ceis) {
  std::vector<ProfileSpec> profiles;
  profiles.reserve(ceis.size());
  for (const auto& cei : ceis) profiles.push_back({cei});
  return MakeProblem(num_resources, num_chronons, budget, profiles);
}

/// Audits a scheduler run's emitted schedule against the instance it ran
/// on, cross-checking the scheduler's own counters: budget respected at
/// every chronon, every probe inside a live EI window, CEI/probe accounting
/// matching completeness.cc. Returns the audit status so callers can
/// EXPECT_TRUE(...ok()) with a useful message.
inline Status AuditRun(const ProblemInstance& problem,
                       const Schedule& schedule,
                       const SchedulerStats& stats) {
  ScheduleAuditOptions options;
  options.expected_captured_ceis = stats.ceis_captured;
  options.expected_probes = stats.probes_issued;
  options.min_captured_eis = stats.eis_captured;
  return AuditSchedule(problem, schedule, options);
}

/// Every SchedulerStats counter, none of the wall-clock phase seconds: what
/// two runs that must schedule identically agree on.
inline auto StatsCounters(const SchedulerStats& s) {
  return std::make_tuple(
      s.ceis_seen, s.ceis_captured, s.ceis_expired, s.ceis_cancelled,
      s.cancels_noop, s.eis_seen, s.eis_captured, s.probes_issued,
      s.pushes_delivered, s.drain_batches, s.drained_arrivals,
      s.probes_failed, s.probes_retried, s.retry_budget_spent,
      s.retries_suppressed, s.breaker_trips, s.budget_lost_to_failures,
      s.incident_openings, s.incident_windows_detected,
      s.incident_windows_missed, s.incident_chronons,
      s.incident_probes_suppressed, s.incident_trial_probes);
}

}  // namespace testing_util
}  // namespace webmon

#endif  // WEBMON_TESTS_TEST_UTIL_H_
