// Counter-based regression test for the steady-state allocation contract
// (docs/PERFORMANCE.md "Memory & sustained throughput"): after warm-up, an
// OnlineScheduler::Step performs ZERO heap allocations, with or without a
// fault injector — the per-chronon event buckets recycle through the
// EventRing free lists, the slot columns and ranking scratch have reached
// their high-water capacity, and nothing per-tick touches the heap.
//
// This test lives in its own binary: WEBMON_DEFINE_COUNTING_OPERATOR_NEW()
// replaces the process-global operator new/delete with counting versions,
// which must not leak into the main webmon_tests binary.

#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "faults/fault_model.h"
#include "model/cei.h"
#include "online/online_scheduler.h"
#include "online/proxy.h"
#include "policy/policy_factory.h"
#include "util/alloc_counter.h"
#include "util/rng.h"

WEBMON_DEFINE_COUNTING_OPERATOR_NEW();

namespace webmon {
namespace {

// Builds `per_chronon` rank-2 CEIs arriving at each chronon in
// [0, arrival_chronons), with windows long enough that the active set stays
// populated through the whole epoch.
std::vector<Cei> MakeWorkload(uint32_t num_resources, Chronon num_chronons,
                              Chronon arrival_chronons, int per_chronon,
                              uint64_t seed) {
  std::vector<Cei> ceis;
  ceis.reserve(static_cast<size_t>(arrival_chronons) *
               static_cast<size_t>(per_chronon));
  Rng rng(seed);
  CeiId next_cei = 0;
  EiId next_ei = 0;
  for (Chronon t = 0; t < arrival_chronons; ++t) {
    for (int a = 0; a < per_chronon; ++a) {
      Cei cei;
      cei.id = next_cei++;
      cei.arrival = t;
      for (int e = 0; e < 2; ++e) {
        ExecutionInterval ei;
        ei.id = next_ei++;
        ei.resource = static_cast<ResourceId>(rng.UniformU64(num_resources));
        ei.start = t + static_cast<Chronon>(rng.UniformU64(3));
        ei.finish = num_chronons - 1;  // full-epoch window: no expiries
        if (ei.start > num_chronons - 1) ei.start = num_chronons - 1;
        cei.eis.push_back(ei);
      }
      ceis.push_back(std::move(cei));
    }
  }
  return ceis;
}

// The tentpole contract, for every policy: once arrivals stop and the
// scratch capacities (the policies' own per-resource tables included) have
// warmed up, every subsequent fault-free Step allocates nothing at all.
class AllocSteadyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AllocSteadyTest, FaultFreeSteadyStateStepAllocatesNothing) {
  constexpr uint32_t kResources = 500;
  constexpr Chronon kChronons = 400;
  constexpr Chronon kArrivalChronons = 40;
  constexpr Chronon kWarmup = 60;
  constexpr Chronon kMeasured = 120;

  auto policy = MakePolicy(GetParam(), 17);
  ASSERT_TRUE(policy.ok()) << policy.status();
  const std::vector<Cei> ceis =
      MakeWorkload(kResources, kChronons, kArrivalChronons, 25, 1);

  OnlineScheduler scheduler(kResources, kChronons, BudgetVector::Uniform(4),
                            policy->get());
  size_t next = 0;
  for (Chronon t = 0; t < kWarmup; ++t) {
    while (next < ceis.size() && ceis[next].arrival == t) {
      ASSERT_TRUE(scheduler.AddArrival(&ceis[next], t).ok());
      ++next;
    }
    ASSERT_TRUE(scheduler.Step(t, nullptr, nullptr).ok());
  }
  ASSERT_GT(scheduler.NumActiveEis(), 0u)
      << "workload drained before the measured window — the test would "
         "vacuously pass";

  const AllocSnapshot before = SnapshotAllocCounters();
  for (Chronon t = kWarmup; t < kWarmup + kMeasured; ++t) {
    ASSERT_TRUE(scheduler.Step(t, nullptr, nullptr).ok());
  }
  const AllocSnapshot after = SnapshotAllocCounters();
  EXPECT_EQ(after.allocations - before.allocations, 0)
      << "steady-state fault-free Steps must not touch the heap; "
      << (after.bytes - before.bytes) << " bytes were allocated";
  EXPECT_GT(scheduler.stats().eis_captured, 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, AllocSteadyTest,
    ::testing::Values("s-edf", "m-edf", "mrsf", "w-mrsf", "wic", "random",
                      "round-robin"),
    [](const ::testing::TestParamInfo<std::string>& param) {
      std::string name = param.param;
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

// The same contract on the fault path: with the attempt log pre-sized
// through SchedulerSizingHints::expected_attempts, a steady-state Step
// allocates nothing whether the injector fails probes through
// transients and outages (backoff, breaker, deadline shrink, retries) or
// also runs a fleet incident domain (the detector's window ring,
// fleet-breaker gating and trials). The fault-free case is the test above.
enum class FaultConfig { kTransientsAndOutages, kIncidentDomain };

class AllocSteadyFaultTest
    : public ::testing::TestWithParam<std::tuple<std::string, FaultConfig>> {
};

TEST_P(AllocSteadyFaultTest, SteadyStateStepAllocatesNothing) {
  constexpr uint32_t kResources = 2000;
  constexpr Chronon kChronons = 400;
  constexpr Chronon kArrivalChronons = 40;
  constexpr Chronon kWarmup = 60;
  constexpr Chronon kMeasured = 120;
  const auto& [policy_name, config] = GetParam();

  FaultSpec spec;
  spec.defaults.transient_error_prob = 0.15;
  spec.defaults.timeout_prob = 0.05;
  spec.defaults.outage_enter_prob = 0.02;
  spec.defaults.outage_exit_prob = 0.3;
  if (config == FaultConfig::kIncidentDomain) {
    IncidentDomain domain;
    domain.name = "backbone";
    domain.stride = 2;
    domain.enter_prob = 0.05;
    domain.exit_prob = 0.1;
    domain.fail_prob = 1.0;
    spec.incidents.push_back(domain);
  }
  FaultInjector injector(spec, kResources, 0xA110C);

  auto policy = MakePolicy(policy_name, 17);
  ASSERT_TRUE(policy.ok()) << policy.status();
  const std::vector<Cei> ceis =
      MakeWorkload(kResources, kChronons, kArrivalChronons, 25, 1);
  SchedulerOptions options;
  options.fault_injector = &injector;
  options.sizing.expected_attempts = 4 * static_cast<size_t>(kChronons);
  OnlineScheduler scheduler(kResources, kChronons, BudgetVector::Uniform(4),
                            policy->get(), options);
  size_t next = 0;
  for (Chronon t = 0; t < kWarmup; ++t) {
    while (next < ceis.size() && ceis[next].arrival == t) {
      ASSERT_TRUE(scheduler.AddArrival(&ceis[next], t).ok());
      ++next;
    }
    ASSERT_TRUE(scheduler.Step(t, nullptr, nullptr).ok());
  }

  const SchedulerStats stats_before = scheduler.stats();
  const AllocSnapshot before = SnapshotAllocCounters();
  for (Chronon t = kWarmup; t < kWarmup + kMeasured; ++t) {
    ASSERT_TRUE(scheduler.Step(t, nullptr, nullptr).ok());
  }
  const AllocSnapshot after = SnapshotAllocCounters();
  EXPECT_EQ(after.allocations - before.allocations, 0);
  EXPECT_EQ(after.bytes - before.bytes, 0);

  // The measured window exercised the configuration's path, so the pass is
  // not vacuous.
  const SchedulerStats& stats = scheduler.stats();
  EXPECT_GT(scheduler.NumActiveEis(), 0u);
  EXPECT_GT(stats.eis_captured, stats_before.eis_captured);
  EXPECT_GT(stats.probes_failed, stats_before.probes_failed);
  if (config == FaultConfig::kIncidentDomain) {
    EXPECT_GT(stats.incident_trial_probes, stats_before.incident_trial_probes);
    EXPECT_GT(stats.incident_probes_suppressed,
              stats_before.incident_probes_suppressed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FaultConfigs, AllocSteadyFaultTest,
    ::testing::Combine(::testing::Values("s-edf", "m-edf", "mrsf", "w-mrsf",
                                         "wic", "random", "round-robin"),
                       ::testing::Values(FaultConfig::kTransientsAndOutages,
                                         FaultConfig::kIncidentDomain)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, FaultConfig>>&
           param) {
      std::string name = std::get<0>(param.param);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name + (std::get<1>(param.param) == FaultConfig::kIncidentDomain
                         ? "_incident_domain"
                         : "_transients_outages");
    });

// With ongoing arrivals the tick may still grow the slot columns and ring
// chunk populations toward their equilibrium high-water marks, but the
// per-chronon allocation rate must be O(1)-amortized (bounded total), not
// the legacy O(events)-per-tick churn.
TEST(AllocSteadyTest, OngoingArrivalsKeepStepAllocationsAmortizedConstant) {
  constexpr uint32_t kResources = 500;
  constexpr Chronon kChronons = 500;
  constexpr Chronon kWarmup = 150;
  constexpr int kPerChronon = 25;

  auto policy = MakePolicy("s-edf", 17);
  ASSERT_TRUE(policy.ok()) << policy.status();
  std::vector<Cei> ceis;
  {
    // Rolling windows so the active set reaches arrival/expiry equilibrium.
    Rng rng(2);
    CeiId next_cei = 0;
    EiId next_ei = 0;
    for (Chronon t = 0; t < kChronons; ++t) {
      for (int a = 0; a < kPerChronon; ++a) {
        Cei cei;
        cei.id = next_cei++;
        cei.arrival = t;
        for (int e = 0; e < 2; ++e) {
          ExecutionInterval ei;
          ei.id = next_ei++;
          ei.resource = static_cast<ResourceId>(rng.UniformU64(kResources));
          ei.start = t;
          ei.finish = std::min<Chronon>(t + 16, kChronons - 1);
          cei.eis.push_back(ei);
        }
        ceis.push_back(std::move(cei));
      }
    }
  }

  SchedulerOptions options;
  options.sizing.expected_active_eis = 4096;
  OnlineScheduler scheduler(kResources, kChronons, BudgetVector::Uniform(4),
                            policy->get(), options);
  size_t next = 0;
  int64_t step_allocs = 0;
  for (Chronon t = 0; t < kChronons; ++t) {
    while (next < ceis.size() && ceis[next].arrival == t) {
      ASSERT_TRUE(scheduler.AddArrival(&ceis[next], t).ok());
      ++next;
    }
    const AllocSnapshot before = SnapshotAllocCounters();
    ASSERT_TRUE(scheduler.Step(t, nullptr, nullptr).ok());
    const AllocSnapshot after = SnapshotAllocCounters();
    if (t >= kWarmup) step_allocs += after.allocations - before.allocations;
  }
  // The legacy bucket vectors allocated several times per chronon (~6/chr
  // at fleet scale); equilibrium wobble may still grow a capacity once in a
  // while, but the total over 350 chronons must stay a small constant.
  EXPECT_LE(step_allocs, 8)
      << "Step allocation rate regressed above O(1) amortized";
}

// Profile churn must not break the steady-state contract: a rolling
// population where every chronon admits new needs AND cancels the oldest
// still-live ones keeps ticking allocation-free once the slot columns and
// rings have reached their high-water capacities — a cancel only sets
// flags, and its ring entries are dropped where their buckets drain, which
// recycles their chunks. Without compact_terminal_states the id map keeps
// every id it is given, so `expected_ceis` pre-sizes it.
TEST(AllocSteadyTest, RollingInsertPlusCancelChurnStaysAllocationFree) {
  constexpr uint32_t kResources = 500;
  constexpr Chronon kChronons = 600;
  constexpr Chronon kWarmup = 200;
  constexpr int kPerChronon = 20;
  constexpr Chronon kWindow = 16;

  auto policy = MakePolicy("s-edf", 17);
  ASSERT_TRUE(policy.ok()) << policy.status();
  std::vector<Cei> ceis;
  {
    Rng rng(3);
    CeiId next_cei = 0;
    EiId next_ei = 0;
    for (Chronon t = 0; t < kChronons; ++t) {
      for (int a = 0; a < kPerChronon; ++a) {
        Cei cei;
        cei.id = next_cei++;
        cei.arrival = t;
        for (int e = 0; e < 2; ++e) {
          ExecutionInterval ei;
          ei.id = next_ei++;
          ei.resource = static_cast<ResourceId>(rng.UniformU64(kResources));
          ei.start = t;
          ei.finish = std::min<Chronon>(t + kWindow, kChronons - 1);
          cei.eis.push_back(ei);
        }
        ceis.push_back(std::move(cei));
      }
    }
  }

  SchedulerOptions options;
  options.sizing.expected_active_eis = 4096;
  options.sizing.expected_ceis = ceis.size();
  OnlineScheduler scheduler(kResources, kChronons, BudgetVector::Uniform(4),
                            policy->get(), options);
  // Cancel half of each chronon's cohort while it is still mid-window:
  // at chronon t, cancel the first kPerChronon/2 needs that arrived at
  // t - kWindow/2 (those not already captured are live candidates, so the
  // cancels exercise the full unwind, not the no-op path).
  std::vector<CeiId> cancel_batch;
  cancel_batch.reserve(kPerChronon / 2);
  size_t next = 0;
  int64_t tick_allocs = 0;
  for (Chronon t = 0; t < kChronons; ++t) {
    while (next < ceis.size() && ceis[next].arrival == t) {
      ASSERT_TRUE(scheduler.AddArrival(&ceis[next], t).ok());
      ++next;
    }
    cancel_batch.clear();
    const Chronon cohort = t - kWindow / 2;
    if (cohort >= 0) {
      const CeiId first = static_cast<CeiId>(cohort) * kPerChronon;
      for (int i = 0; i < kPerChronon / 2; ++i) {
        cancel_batch.push_back(first + static_cast<CeiId>(i));
      }
    }
    const AllocSnapshot before = SnapshotAllocCounters();
    ASSERT_TRUE(scheduler.RemoveCeiBatch(cancel_batch, t).ok());
    ASSERT_TRUE(scheduler.Step(t, nullptr, nullptr).ok());
    const AllocSnapshot after = SnapshotAllocCounters();
    if (t >= kWarmup) tick_allocs += after.allocations - before.allocations;
  }
  EXPECT_EQ(tick_allocs, 0)
      << "steady-state cancel+step ticks must not touch the heap";
  EXPECT_GT(scheduler.stats().ceis_cancelled, 0);
  EXPECT_GT(scheduler.stats().cancels_noop, 0)
      << "some cancelled cohort members should already be captured — the "
         "no-op path must also stay allocation-free";
  EXPECT_GT(scheduler.stats().eis_captured, 0);
}

// The proxy's write path at steady state. An accepted Submit allocates its
// CEI's one window vector, sized exactly, plus a share of the CEI store's
// deque blocks and of the cancel-flag table's doublings; the mailbox buffer
// it appends to is recycled from drain to drain, and the arrival log keeps
// a fixed-size record per event instead of a copy of the windows. Push and
// Cancel append only to that buffer. Tick is outside this budget: it
// returns a probe vector and appends the records in blocks.
TEST(AllocSteadyTest, ProxyWritePathStaysWithinItsAllocationBudget) {
  constexpr uint32_t kResources = 2000;
  constexpr Chronon kHorizon = 300;
  constexpr Chronon kWarmup = 60;
  constexpr Chronon kWindow = 8;
  constexpr Chronon kCancelDelay = 3;
  constexpr int kSubmitsPerChronon = 200;
  constexpr int kPushesPerChronon = 10;
  constexpr int kCancelsPerChronon = 40;  // of the cohort kCancelDelay back

  auto policy = MakePolicy("m-edf", 17);
  ASSERT_TRUE(policy.ok()) << policy.status();
  SchedulerOptions options;
  options.compact_terminal_states = true;
  Proxy proxy(kResources, kHorizon, BudgetVector::Uniform(4),
              std::move(*policy), options);
  Rng rng(5);
  std::vector<std::tuple<ResourceId, Chronon, Chronon>> eis;
  std::vector<CeiId> first_of_cohort;  // first CEI id submitted at t
  int64_t submits = 0;
  int64_t submit_allocs = 0;
  int64_t push_allocs = 0;
  int64_t cancel_allocs = 0;
  const Chronon last_arrival = kHorizon - kWindow;
  for (Chronon t = 0; t < last_arrival; ++t) {
    const bool measured = t >= kWarmup;
    if (t >= kCancelDelay) {
      const CeiId first = first_of_cohort[static_cast<size_t>(
          t - kCancelDelay)];
      for (int i = 0; i < kCancelsPerChronon; ++i) {
        const AllocSnapshot before = SnapshotAllocCounters();
        ASSERT_TRUE(proxy.Cancel(first + static_cast<CeiId>(i)).ok());
        const AllocSnapshot after = SnapshotAllocCounters();
        if (measured) cancel_allocs += after.allocations - before.allocations;
      }
    }
    for (int i = 0; i < kPushesPerChronon; ++i) {
      const auto resource = static_cast<ResourceId>(rng.UniformU64(kResources));
      const AllocSnapshot before = SnapshotAllocCounters();
      ASSERT_TRUE(proxy.Push(resource).ok());
      const AllocSnapshot after = SnapshotAllocCounters();
      if (measured) push_allocs += after.allocations - before.allocations;
    }
    for (int i = 0; i < kSubmitsPerChronon; ++i) {
      eis.clear();
      const int64_t rank = rng.UniformInt(1, 3);
      for (int64_t e = 0; e < rank; ++e) {
        eis.emplace_back(static_cast<ResourceId>(rng.UniformU64(kResources)),
                         t, t + kWindow - 1);
      }
      const AllocSnapshot before = SnapshotAllocCounters();
      StatusOr<CeiId> id = proxy.Submit(eis);
      const AllocSnapshot after = SnapshotAllocCounters();
      ASSERT_TRUE(id.ok()) << id.status();
      if (i == 0) first_of_cohort.push_back(*id);
      if (measured) {
        submit_allocs += after.allocations - before.allocations;
        ++submits;
      }
    }
    ASSERT_TRUE(proxy.Tick().ok());
  }
  ASSERT_GT(submits, 0);
  EXPECT_LE(static_cast<double>(submit_allocs) / static_cast<double>(submits),
            1.25)
      << submit_allocs << " allocations over " << submits << " submits";
  EXPECT_EQ(push_allocs, 0);
  EXPECT_EQ(cancel_allocs, 0);
  EXPECT_GT(proxy.stats().ceis_cancelled, 0);
  EXPECT_GT(proxy.stats().pushes_delivered, 0);
}

// Footprint of the per-resource tables: a Schedule, a FaultInjector and an
// injected OnlineScheduler over a million resources allocate in proportion
// to the resources a run touches (a few hundred here), beyond the
// scheduler's dense per-resource arrays: one 8-byte gate word and two
// 1-byte masks per resource, which the rank scan reads per candidate.
constexpr uint32_t kFleet = 1'000'000;
constexpr Chronon kFleetChronons = 100;
constexpr int64_t kTouchedBytes = int64_t{1} << 20;

FaultSpec FlakySpec() {
  FaultSpec spec;
  spec.defaults.transient_error_prob = 0.2;
  spec.defaults.timeout_prob = 0.05;
  spec.defaults.outage_enter_prob = 0.02;
  spec.defaults.outage_exit_prob = 0.3;
  return spec;
}

TEST(AllocFootprintTest, ScheduleAllocatesPerProbedResource) {
  Rng rng(7);
  const AllocSnapshot before = SnapshotAllocCounters();
  Schedule schedule(kFleet, kFleetChronons);
  for (Chronon t = 0; t < kFleetChronons; ++t) {
    for (int i = 0; i < 4; ++i) {
      const auto r = static_cast<ResourceId>(rng.UniformU64(kFleet));
      ASSERT_TRUE(schedule.AddProbe(r, t).ok());
    }
  }
  const AllocSnapshot after = SnapshotAllocCounters();
  EXPECT_EQ(schedule.TotalProbes(), 4 * kFleetChronons);
  EXPECT_LT(after.bytes - before.bytes, kTouchedBytes);
}

TEST(AllocFootprintTest, InjectorAllocatesPerTouchedResource) {
  Rng rng(8);
  const AllocSnapshot before = SnapshotAllocCounters();
  FaultInjector injector(FlakySpec(), kFleet, /*seed=*/0xF00D);
  int failures = 0;
  for (Chronon t = 0; t < kFleetChronons; ++t) {
    for (int i = 0; i < 4; ++i) {
      const auto r = static_cast<ResourceId>(rng.UniformU64(kFleet));
      failures += !ProbeSucceeded(injector.OnProbe(r, t));
      (void)injector.InOutage(r ^ 1, t);
    }
  }
  const AllocSnapshot after = SnapshotAllocCounters();
  EXPECT_GT(failures, 0);
  EXPECT_LT(after.bytes - before.bytes, kTouchedBytes);
}

TEST(AllocFootprintTest, InjectedSchedulerAllocatesPerAttemptedResource) {
  const std::vector<Cei> ceis =
      MakeWorkload(kFleet, kFleetChronons, /*arrival_chronons=*/50,
                   /*per_chronon=*/6, /*seed=*/9);
  FaultInjector injector(FlakySpec(), kFleet, /*seed=*/0xF00D);
  auto policy = MakePolicy("m-edf", 17);
  ASSERT_TRUE(policy.ok()) << policy.status();
  SchedulerOptions options;
  options.fault_injector = &injector;

  const AllocSnapshot before = SnapshotAllocCounters();
  OnlineScheduler scheduler(kFleet, kFleetChronons, BudgetVector::Uniform(4),
                            policy->get(), options);
  size_t next = 0;
  for (Chronon t = 0; t < kFleetChronons; ++t) {
    while (next < ceis.size() && ceis[next].arrival == t) {
      ASSERT_TRUE(scheduler.AddArrival(&ceis[next], t).ok());
      ++next;
    }
    ASSERT_TRUE(scheduler.Step(t, nullptr, nullptr).ok());
  }
  const AllocSnapshot after = SnapshotAllocCounters();
  EXPECT_GT(scheduler.stats().probes_issued, 300);
  EXPECT_GT(scheduler.stats().probes_failed, 0);
  const int64_t dense = int64_t{kFleet} * (8 + 1 + 1);
  EXPECT_LT(after.bytes - before.bytes, dense + kTouchedBytes);
}

// The counting operator new itself must observe this binary's allocations
// (meta-check that the macro is actually wired in).
TEST(AllocSteadyTest, CountingOperatorNewIsActive) {
  const AllocSnapshot before = SnapshotAllocCounters();
  std::vector<int>* v = new std::vector<int>(1024, 7);
  const AllocSnapshot after = SnapshotAllocCounters();
  delete v;
  EXPECT_GT(after.allocations, before.allocations);
  EXPECT_GT(after.bytes, before.bytes);
}

}  // namespace
}  // namespace webmon
