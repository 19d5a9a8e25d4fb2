// Determinism contract of the sharded parallel ranking phase
// (docs/PERFORMANCE.md): for every policy, both preemption modes, with and
// without fault injection, a run with num_threads > 1 must be byte-identical
// to the serial run — same probe stream per resource, same stats, same
// attempt log. The tsan CI job runs this suite to certify the ranking
// shards race-free under a real workload.

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "faults/fault_model.h"
#include "online/run.h"
#include "policy/policy_factory.h"
#include "util/rng.h"

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
      const auto r = static_cast<ResourceId>(rng.UniformU64(n));
      const auto s =
          static_cast<Chronon>(rng.UniformU64(static_cast<uint64_t>(k)));
      const Chronon f = std::min<Chronon>(
          s + static_cast<Chronon>(rng.UniformU64(6)), k - 1);
      eis.emplace_back(r, s, f);
    }
    EXPECT_TRUE(builder.AddCei(eis).ok());
  }
  auto built = builder.Build();
  EXPECT_TRUE(built.ok()) << built.status();
  return std::move(built).value();
}

FaultSpec FlakySpec() {
  FaultSpec spec;
  spec.defaults.transient_error_prob = 0.2;
  spec.defaults.timeout_prob = 0.05;
  spec.defaults.outage_enter_prob = 0.04;
  spec.defaults.outage_exit_prob = 0.3;
  return spec;
}

// Runs `problem` under `policy_name` with the given thread count (fresh
// policy and fresh injector per run, seeded identically, so the only
// varying input is num_threads).
OnlineRunResult RunWith(const ProblemInstance& problem,
                        const std::string& policy_name, bool preemptive,
                        bool faulty, int num_threads, uint64_t trial_seed) {
  auto policy = MakePolicy(policy_name, 17);
  EXPECT_TRUE(policy.ok());
  FaultInjector injector(FlakySpec(), problem.num_resources(), trial_seed);
  SchedulerOptions options;
  options.preemptive = preemptive;
  options.num_threads = num_threads;
  if (faulty) options.fault_injector = &injector;
  auto run = RunOnline(problem, policy->get(), options);
  EXPECT_TRUE(run.ok()) << run.status();
  return std::move(run).value();
}

void ExpectByteIdentical(const ProblemInstance& problem,
                         const OnlineRunResult& serial,
                         const OnlineRunResult& parallel, int threads,
                         const std::string& label) {
  EXPECT_EQ(serial.stats.probes_issued, parallel.stats.probes_issued)
      << label << " threads=" << threads;
  EXPECT_EQ(serial.stats.eis_captured, parallel.stats.eis_captured)
      << label << " threads=" << threads;
  EXPECT_EQ(serial.stats.ceis_captured, parallel.stats.ceis_captured)
      << label << " threads=" << threads;
  EXPECT_EQ(serial.stats.ceis_expired, parallel.stats.ceis_expired)
      << label << " threads=" << threads;
  EXPECT_EQ(serial.stats.probes_failed, parallel.stats.probes_failed)
      << label << " threads=" << threads;
  EXPECT_EQ(serial.stats.breaker_trips, parallel.stats.breaker_trips)
      << label << " threads=" << threads;
  // The probe stream itself, resource by resource, chronon by chronon.
  for (ResourceId r = 0; r < problem.num_resources(); ++r) {
    EXPECT_EQ(serial.schedule.ProbesOf(r), parallel.schedule.ProbesOf(r))
        << label << " resource " << r << " threads=" << threads;
  }
  // Attempt-by-attempt issue order (covers failed probes too).
  ASSERT_EQ(serial.attempts.size(), parallel.attempts.size())
      << label << " threads=" << threads;
  for (size_t i = 0; i < serial.attempts.size(); ++i) {
    EXPECT_TRUE(serial.attempts[i] == parallel.attempts[i])
        << label << " attempt " << i << " threads=" << threads;
  }
}

class SerialParallelIdentity
    : public ::testing::TestWithParam<std::tuple<std::string, bool, bool>> {};

TEST_P(SerialParallelIdentity, SchedulesAreByteIdentical) {
  const auto& [policy_name, preemptive, faulty] = GetParam();
  Rng rng(0x5EED ^ (preemptive ? 2 : 0) ^ (faulty ? 4 : 0));
  for (int trial = 0; trial < 6; ++trial) {
    const uint32_t n = 6 + static_cast<uint32_t>(rng.UniformU64(10));
    const Chronon k = 24 + static_cast<Chronon>(rng.UniformU64(24));
    const int64_t c = 1 + static_cast<int64_t>(rng.UniformU64(3));
    const uint32_t ceis = 20 + static_cast<uint32_t>(rng.UniformU64(20));
    const ProblemInstance problem = RandomInstance(rng, n, k, c, ceis);
    const uint64_t seed = 0xD00D + static_cast<uint64_t>(trial);
    const std::string label = policy_name + " trial " +
                              std::to_string(trial) + " " + problem.Summary();

    const OnlineRunResult serial =
        RunWith(problem, policy_name, preemptive, faulty, 1, seed);
    for (int threads : {2, 4, 8}) {
      const OnlineRunResult parallel =
          RunWith(problem, policy_name, preemptive, faulty, threads, seed);
      ExpectByteIdentical(problem, serial, parallel, threads, label);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, SerialParallelIdentity,
    ::testing::Combine(::testing::Values("s-edf", "mrsf", "m-edf", "w-mrsf",
                                         "wic", "random", "round-robin"),
                       ::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<std::string, bool, bool>>&
           param) {
      std::string name = std::get<0>(param.param);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name + (std::get<1>(param.param) ? "_P" : "_NP") +
             (std::get<2>(param.param) ? "_faults" : "_ideal");
    });

// ---------------------------------------------------------------------------
// Varying probe costs disable the top-C trim (every resource's best must be
// kept); the parallel merge must still match the serial walk.
// ---------------------------------------------------------------------------
TEST(SerialParallelIdentityTest, VaryingCostsMatchAcrossThreadCounts) {
  Rng rng(0xC057);
  for (int trial = 0; trial < 4; ++trial) {
    const uint32_t n = 8;
    const ProblemInstance problem = RandomInstance(rng, n, 32, 3, 24);
    std::vector<double> costs;
    for (uint32_t r = 0; r < n; ++r) {
      costs.push_back(0.5 + rng.UniformDouble() * 2.0);
    }
    auto run_with = [&](int threads) {
      auto policy = MakePolicy("s-edf", 17);
      EXPECT_TRUE(policy.ok());
      SchedulerOptions options;
      options.resource_costs = costs;
      options.num_threads = threads;
      auto run = RunOnline(problem, policy->get(), options);
      EXPECT_TRUE(run.ok()) << run.status();
      return std::move(run).value();
    };
    const OnlineRunResult serial = run_with(1);
    const OnlineRunResult parallel = run_with(4);
    ExpectByteIdentical(problem, serial, parallel, 4, "varying-costs");
  }
}

// ---------------------------------------------------------------------------
// Chronon gaps: the expiry-bucket cursor must cover skipped chronons just
// like the legacy full-list sweep, at every thread count.
// ---------------------------------------------------------------------------
TEST(SerialParallelIdentityTest, SteppingWithGapsMatches) {
  Rng rng(0x6A95);
  for (int trial = 0; trial < 4; ++trial) {
    const ProblemInstance problem = RandomInstance(rng, 6, 40, 2, 24);
    // wic and random read the active list BeginChronon hands them, so the
    // gap catch-up must leave its live entries in the same state and order
    // at every thread count.
    for (const std::string policy_name : {"m-edf", "wic", "random"}) {
      auto run_with = [&](int threads) {
        auto policy = MakePolicy(policy_name, 17);
        EXPECT_TRUE(policy.ok());
        SchedulerOptions options;
        options.num_threads = threads;
        OnlineScheduler scheduler(problem.num_resources(),
                                  problem.num_chronons(), problem.budget(),
                                  policy->get(), options);
        Schedule schedule(problem.num_resources(), problem.num_chronons());
        std::vector<CeiId> expired;
        scheduler.set_on_cei_expired(
            [&](const Cei& cei) { expired.push_back(cei.id); });
        for (const Cei* cei : problem.AllCeis()) {
          EXPECT_TRUE(scheduler.AddArrival(cei, 0).ok());
        }
        // Step 0,1,2, skip to 7, skip to 8, skip to 23, ... — a fixed gappy
        // pattern, identical across thread counts.
        for (Chronon t = 0; t < problem.num_chronons();
             t += 1 + (t % 5 == 2 ? 4 : 0) + (t % 11 == 8 ? 14 : 0)) {
          EXPECT_TRUE(scheduler.Step(t, &schedule).ok());
        }
        return std::make_tuple(schedule.TotalProbes(),
                               scheduler.stats().eis_captured,
                               scheduler.stats().ceis_expired, expired);
      };
      EXPECT_EQ(run_with(1), run_with(8))
          << policy_name << " trial " << trial;
    }
  }
}

// ---------------------------------------------------------------------------
// A larger streaming-style run for the tsan job to chew on: thousands of
// ParallelFor fork-joins with concurrent policy evaluation.
// ---------------------------------------------------------------------------
TEST(SerialParallelIdentityTest, ThreadedSoakMatchesSerial) {
  Rng rng(0x50AC);
  const ProblemInstance problem = RandomInstance(rng, 48, 600, 3, 400);
  for (const std::string policy_name : {"s-edf", "mrsf", "wic"}) {
    const OnlineRunResult serial =
        RunWith(problem, policy_name, true, true, 1, 0xBEEF);
    const OnlineRunResult parallel =
        RunWith(problem, policy_name, true, true, 8, 0xBEEF);
    ExpectByteIdentical(problem, serial, parallel, 8, policy_name + " soak");
    EXPECT_GT(serial.stats.probes_issued, 0) << policy_name;
  }
}

// ---------------------------------------------------------------------------
// SoA slot-column identity under churn: streaming arrivals every few
// chronons, server pushes, expiries, and CEI deaths continuously grow and
// compact the parallel columns mid-run. Any column that slipped out of sync
// during MoveSlot compaction or the shard stitch would change the probe
// stream somewhere in the run.
// ---------------------------------------------------------------------------
TEST(SoaIdentityTest, ChurnHeavyStreamingMatchesAcrossThreadCounts) {
  const uint32_t n = 40;
  const Chronon k = 200;

  // One shared workload: CEIs keyed by arrival chronon, plus a push plan.
  Rng rng(0x50A1D);
  std::vector<Cei> ceis;
  std::vector<std::pair<Chronon, ResourceId>> pushes;
  CeiId next_cei = 0;
  EiId next_ei = 0;
  for (Chronon t = 0; t < k - 1; t += 1 + static_cast<Chronon>(
                                         rng.UniformU64(3))) {
    for (int a = 0; a < 4; ++a) {
      Cei cei;
      cei.id = next_cei++;
      cei.arrival = t;
      const uint32_t rank = 1 + static_cast<uint32_t>(rng.UniformU64(3));
      for (uint32_t e = 0; e < rank; ++e) {
        ExecutionInterval ei;
        ei.id = next_ei++;
        ei.resource = static_cast<ResourceId>(rng.UniformU64(n));
        ei.start = t + static_cast<Chronon>(rng.UniformU64(4));
        ei.finish = std::min<Chronon>(
            ei.start + 2 + static_cast<Chronon>(rng.UniformU64(8)), k - 1);
        if (ei.start > k - 1) ei.start = k - 1;
        cei.eis.push_back(ei);
      }
      ceis.push_back(std::move(cei));
    }
    if (rng.UniformU64(2) == 0) {
      pushes.emplace_back(t + 1,
                          static_cast<ResourceId>(rng.UniformU64(n)));
    }
  }

  auto run_with = [&](const std::string& policy_name, bool preemptive,
                      int threads) {
    auto policy = MakePolicy(policy_name, 17);
    EXPECT_TRUE(policy.ok());
    SchedulerOptions options;
    options.preemptive = preemptive;
    options.num_threads = threads;
    OnlineScheduler scheduler(n, k, BudgetVector::Uniform(3), policy->get(),
                              options);
    Schedule schedule(n, k);
    std::vector<CeiId> completed;
    std::vector<CeiId> expired;
    scheduler.set_on_cei_captured(
        [&](const Cei& cei) { completed.push_back(cei.id); });
    scheduler.set_on_cei_expired(
        [&](const Cei& cei) { expired.push_back(cei.id); });
    for (const auto& [t, r] : pushes) {
      EXPECT_TRUE(scheduler.AddPush(r, t).ok());
    }
    size_t next = 0;
    for (Chronon t = 0; t < k; ++t) {
      while (next < ceis.size() && ceis[next].arrival == t) {
        EXPECT_TRUE(scheduler.AddArrival(&ceis[next], t).ok());
        ++next;
      }
      EXPECT_TRUE(scheduler.Step(t, &schedule).ok());
    }
    EXPECT_EQ(next, ceis.size());
    std::vector<std::vector<Chronon>> probes(n);
    for (ResourceId r = 0; r < n; ++r) probes[r] = schedule.ProbesOf(r);
    return std::make_tuple(probes, scheduler.stats().eis_captured,
                           scheduler.stats().ceis_captured,
                           scheduler.stats().pushes_delivered, completed,
                           expired);
  };

  for (const std::string policy_name : {"s-edf", "m-edf", "wic"}) {
    for (const bool preemptive : {true, false}) {
      const auto serial = run_with(policy_name, preemptive, 1);
      EXPECT_GT(std::get<1>(serial), 0) << policy_name;
      for (const int threads : {2, 8}) {
        EXPECT_EQ(serial, run_with(policy_name, preemptive, threads))
            << policy_name << " preemptive=" << preemptive
            << " threads=" << threads;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Uniform budget above the bounded-top-C board limit (kMaxBoundedTopC = 64)
// drives the lazily-allocated epoch-stamped tables; the parallel merge over
// them must still match the serial walk exactly.
// ---------------------------------------------------------------------------
TEST(SoaIdentityTest, TableModeLargeBudgetMatchesAcrossThreadCounts) {
  Rng rng(0x7AB7E);
  const ProblemInstance problem = RandomInstance(rng, 100, 24, 80, 300);
  for (const std::string policy_name : {"s-edf", "mrsf"}) {
    const OnlineRunResult serial =
        RunWith(problem, policy_name, true, false, 1, 0xFEED);
    EXPECT_GT(serial.stats.probes_issued, 0) << policy_name;
    for (const int threads : {2, 4}) {
      const OnlineRunResult parallel =
          RunWith(problem, policy_name, true, false, threads, 0xFEED);
      ExpectByteIdentical(problem, serial, parallel, threads,
                          policy_name + " table-mode");
    }
  }
}

}  // namespace
}  // namespace webmon
