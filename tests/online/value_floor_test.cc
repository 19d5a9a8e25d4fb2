// Policy::ValueFloor (policy/policy.h) lets the scan's bounded top-C board
// skip Value for a candidate whose floor already loses to the board's worst
// entry. The skip must change nothing observable. Each case runs a floored
// policy (M-EDF, S-EDF) twice on one seeded workload: as is, and behind a
// wrapper that forwards Value but keeps the default floor, so the scan
// values every eligible candidate. The schedule, every chronon's probes,
// the callback stream, every SchedulerStats counter but the phase seconds
// and the attempt log must match.
//
// The workloads mix AND and k-of-n CEIs whose sibling windows close on
// different chronons, with pushes and cancels, under no injector, under
// transients and outages (so the deadline shrink values candidates after
// `now`), and additionally under two overlapping incident domains and a
// retry budget that runs out.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "faults/fault_model.h"
#include "model/cei.h"
#include "model/schedule.h"
#include "online/online_scheduler.h"
#include "policy/policy.h"
#include "policy/policy_factory.h"
#include "util/check.h"
#include "util/rng.h"

#include "../test_util.h"

namespace webmon {
namespace {

// Forwards to a real policy, counting Value calls. With `forward_floor`
// false it keeps Policy's default floor, so the scan skips no Value call.
class FloorForwardingPolicy final : public Policy {
 public:
  FloorForwardingPolicy(std::unique_ptr<Policy> inner, bool forward_floor)
      : inner_(std::move(inner)), forward_floor_(forward_floor) {}

  std::string name() const override { return inner_->name(); }
  Level level() const override { return inner_->level(); }
  void BeginChronon(const std::vector<CandidateEi>& active,
                    Chronon now) override {
    inner_->BeginChronon(active, now);
  }
  double Value(const CandidateEi& cand, Chronon now) const override {
    ++value_calls_;
    return inner_->Value(cand, now);
  }
  double ValueFloor(const CandidateEi& cand, Chronon finish, Chronon t,
                    Chronon now) const override {
    if (!forward_floor_) return Policy::ValueFloor(cand, finish, t, now);
    ++floor_calls_;
    return inner_->ValueFloor(cand, finish, t, now);
  }
  void NotifyProbed(ResourceId resource, Chronon now) override {
    inner_->NotifyProbed(resource, now);
  }

  int64_t value_calls() const { return value_calls_; }
  int64_t floor_calls() const { return floor_calls_; }

 private:
  std::unique_ptr<Policy> inner_;
  bool forward_floor_;
  mutable int64_t value_calls_ = 0;
  mutable int64_t floor_calls_ = 0;
};

enum class Faults { kNone, kFlaky, kIncidents };

struct Shape {
  uint32_t resources = 0;
  Chronon chronons = 0;
  int ceis = 0;
  Chronon max_window = 0;
};

std::vector<Cei> MakeCeis(Rng& rng, const Shape& shape) {
  std::vector<Cei> ceis;
  const Chronon k = shape.chronons;
  for (int c = 0; c < shape.ceis; ++c) {
    Cei cei;
    cei.id = static_cast<CeiId>(c);
    cei.arrival =
        static_cast<Chronon>(rng.UniformU64(static_cast<uint64_t>(k)));
    const uint32_t rank = 1 + static_cast<uint32_t>(rng.UniformU64(5));
    for (uint32_t e = 0; e < rank; ++e) {
      ExecutionInterval ei;
      ei.id = static_cast<EiId>(c * 8 + static_cast<int>(e));
      // A quarter of the EIs share a small hot set, so several candidates
      // compete for one resource.
      ei.resource = static_cast<ResourceId>(
          rng.UniformU64(4) == 0 ? rng.UniformU64(shape.resources / 8 + 1)
                                 : rng.UniformU64(shape.resources));
      // Starts before arrival (admitted on arrival, some already closed) or
      // after it; windows of different lengths, some running past the epoch.
      const Chronon offset = static_cast<Chronon>(rng.UniformU64(14)) - 3;
      ei.start = std::clamp<Chronon>(cei.arrival + offset, 0, k + 1);
      ei.finish = ei.start + static_cast<Chronon>(rng.UniformU64(
                                 static_cast<uint64_t>(shape.max_window)));
      cei.eis.push_back(ei);
    }
    // Half of the multi-EI needs are k-of-n: they outlive failed siblings.
    if (rank > 1 && rng.UniformU64(2) == 0) {
      cei.required = 1 + static_cast<uint32_t>(rng.UniformU64(rank - 1));
    }
    ceis.push_back(std::move(cei));
  }
  return ceis;
}

FaultSpec SpecFor(Faults faults, int64_t budget) {
  FaultSpec spec;
  spec.defaults.transient_error_prob = 0.15;
  spec.defaults.timeout_prob = 0.05;
  spec.defaults.outage_enter_prob = 0.05;
  spec.defaults.outage_exit_prob = 0.3;
  if (faults == Faults::kIncidents) {
    // Small enough to run out mid-run at every budget.
    spec.retry_budget = 6.0 * static_cast<double>(std::min<int64_t>(budget, 8));
    // Resources divisible by 12 lie in both domains.
    for (const uint32_t stride : {3u, 4u}) {
      IncidentDomain domain;
      domain.name = "stride" + std::to_string(stride);
      domain.stride = stride;
      domain.enter_prob = 0.06;
      domain.exit_prob = 0.15;
      domain.fail_prob = 1.0;
      spec.incidents.push_back(domain);
    }
  }
  return spec;
}

struct RunLog {
  std::vector<std::vector<ResourceId>> probes;  // per stepped chronon
  std::vector<std::tuple<char, Chronon, CeiId>> events;
  std::vector<std::vector<Chronon>> schedule;  // probes per resource
  std::vector<ProbeAttempt> attempts;
  SchedulerStats stats;
  int64_t value_calls = 0;
  int64_t floor_calls = 0;
};

struct Config {
  std::string policy;
  bool preemptive = true;
  Faults faults = Faults::kNone;
  int64_t budget = 1;
};

RunLog RunScheduler(const Config& config, const Shape& shape,
                    const std::vector<Cei>& ceis, bool forward_floor,
                    uint64_t seed) {
  auto inner = MakePolicy(config.policy, 17);
  EXPECT_TRUE(inner.ok()) << inner.status();
  FloorForwardingPolicy policy(std::move(*inner), forward_floor);
  std::unique_ptr<FaultInjector> injector;
  SchedulerOptions options;
  options.preemptive = config.preemptive;
  if (config.faults != Faults::kNone) {
    injector = std::make_unique<FaultInjector>(
        SpecFor(config.faults, config.budget), shape.resources, seed);
    options.fault_injector = injector.get();
    options.fault_handling.breaker_failure_threshold = 3;
    options.fault_handling.incident_window = 8;
    options.fault_handling.incident_min_attempts = 4;
    options.fault_handling.incident_reprobe_interval = 2;
  }
  OnlineScheduler scheduler(shape.resources, shape.chronons,
                            BudgetVector::Uniform(config.budget), &policy,
                            options);
  RunLog log;
  Chronon t = 0;
  scheduler.set_on_cei_captured(
      [&](const Cei& cei) { log.events.emplace_back('c', t, cei.id); });
  scheduler.set_on_cei_expired(
      [&](const Cei& cei) { log.events.emplace_back('e', t, cei.id); });
  scheduler.set_on_cei_cancelled(
      [&](const Cei& cei) { log.events.emplace_back('x', t, cei.id); });

  // Cancels and pushes depend only on this RNG and the registration order,
  // so both runs receive identical input.
  Rng rng(seed);
  Schedule schedule(shape.resources, shape.chronons);
  std::vector<std::vector<size_t>> arriving(
      static_cast<size_t>(shape.chronons));
  for (size_t c = 0; c < ceis.size(); ++c) {
    arriving[static_cast<size_t>(ceis[c].arrival)].push_back(c);
  }
  std::vector<bool> registered(ceis.size(), false);
  std::vector<ResourceId> probed;
  for (; t < shape.chronons; ++t) {
    for (const size_t c : arriving[static_cast<size_t>(t)]) {
      EXPECT_TRUE(scheduler.AddArrival(&ceis[c], t).ok());
      registered[c] = true;
    }
    // A few cancels per chronon, live or no-op, never one CEI twice.
    std::vector<CeiId> cancels;
    for (int k = 0; k < 3; ++k) {
      const auto c = static_cast<size_t>(rng.UniformU64(ceis.size()));
      if (registered[c] &&
          std::find(cancels.begin(), cancels.end(), ceis[c].id) ==
              cancels.end()) {
        cancels.push_back(ceis[c].id);
      }
    }
    EXPECT_TRUE(scheduler.RemoveCeiBatch(cancels, t).ok());
    if (rng.UniformU64(3) == 0) {
      const auto r = static_cast<ResourceId>(rng.UniformU64(shape.resources));
      EXPECT_TRUE(scheduler.AddPush(r, t).ok());
    }
    EXPECT_TRUE(scheduler.Step(t, &schedule, &probed).ok());
    log.probes.push_back(probed);
  }
  for (ResourceId r = 0; r < shape.resources; ++r) {
    log.schedule.push_back(schedule.ProbesOf(r));
  }
  log.attempts = scheduler.attempt_log();
  log.stats = scheduler.stats();
  log.value_calls = policy.value_calls();
  log.floor_calls = policy.floor_calls();
  return log;
}

class ValueFloorIdentity
    : public ::testing::TestWithParam<std::tuple<std::string, bool, Faults>> {
};

TEST_P(ValueFloorIdentity, SkippingValueChangesNothingObservable) {
  const auto& [policy, preemptive, faults] = GetParam();
  // Dense enough that even a 64-entry board fills.
  const Shape shape{300, 80, 4000, 16};
  int64_t retries_suppressed = 0;
  int64_t incident_suppressed = 0;
  for (const int64_t budget : {1, 16, 64}) {
    for (uint64_t seed = 1; seed <= 2; ++seed) {
      Rng rng(seed * 0x9E37 + static_cast<uint64_t>(budget));
      const std::vector<Cei> ceis = MakeCeis(rng, shape);
      const Config config{policy, preemptive, faults, budget};
      const std::string label =
          "C=" + std::to_string(budget) + " seed=" + std::to_string(seed);
      const RunLog floored = RunScheduler(config, shape, ceis, true, seed);
      const RunLog plain = RunScheduler(config, shape, ceis, false, seed);
      EXPECT_EQ(floored.probes, plain.probes) << label;
      EXPECT_EQ(floored.events, plain.events) << label;
      EXPECT_EQ(floored.schedule, plain.schedule) << label;
      EXPECT_EQ(floored.attempts, plain.attempts) << label;
      EXPECT_EQ(testing_util::StatsCounters(floored.stats),
                testing_util::StatsCounters(plain.stats))
          << label;
      EXPECT_GT(floored.stats.eis_captured, 0) << label;
      // The board filled and its floors skipped Value calls. A 64-entry
      // board fills on fewer chronons here, and under incidents, which
      // withhold half the fleet at times, on almost none.
      const bool skips = budget < 64;
      if (skips) {
        EXPECT_GT(floored.floor_calls, 0) << label;
      }
#if WEBMON_DCHECK_IS_ON()
      // The debug check values each skipped candidate to test its floor.
      EXPECT_EQ(floored.value_calls, plain.value_calls) << label;
#else
      if (skips) {
        EXPECT_LT(floored.value_calls, plain.value_calls) << label;
      }
      EXPECT_LE(floored.value_calls, plain.value_calls) << label;
#endif
      retries_suppressed += floored.stats.retries_suppressed;
      incident_suppressed += floored.stats.incident_probes_suppressed;
      if (HasFailure()) return;
    }
  }
  if (faults == Faults::kIncidents) {
    EXPECT_GT(retries_suppressed, 0);
    EXPECT_GT(incident_suppressed, 0);
  }
}

std::string CaseName(
    const ::testing::TestParamInfo<std::tuple<std::string, bool, Faults>>&
        param) {
  std::string name = std::get<0>(param.param);
  for (auto& ch : name) {
    if (ch == '-') ch = '_';
  }
  static const char* const kFaults[] = {"clean", "flaky", "incidents"};
  return name + (std::get<1>(param.param) ? "_P_" : "_NP_") +
         kFaults[static_cast<int>(std::get<2>(param.param))];
}

INSTANTIATE_TEST_SUITE_P(
    FlooredPolicies, ValueFloorIdentity,
    ::testing::Combine(::testing::Values("m-edf", "s-edf"), ::testing::Bool(),
                       ::testing::Values(Faults::kNone, Faults::kFlaky,
                                         Faults::kIncidents)),
    CaseName);

// M-EDF through the scan at C = 1: CEI 0 (two EIs closing at chronon 2) is
// the most urgent; CEIs 1..5 (two EIs closing at 9 each) have floors of 11
// at chronon 0 against CEI 0's value of 6, so once the board holds CEI 0's
// first EI their Value is never computed.
TEST(ValueFloorScan, MEdfValuesFewerCandidatesThanAreLive) {
  std::vector<Cei> ceis(6);
  for (size_t c = 0; c < ceis.size(); ++c) {
    ceis[c].id = static_cast<CeiId>(c);
    for (uint32_t e = 0; e < 2; ++e) {
      ExecutionInterval ei;
      ei.resource = static_cast<ResourceId>(2 * c + e);
      ei.start = 0;
      ei.finish = c == 0 ? 2 : 9;
      ceis[c].eis.push_back(ei);
    }
  }
  const auto run = [&](bool forward_floor) {
    auto inner = MakePolicy("m-edf", 17);
    EXPECT_TRUE(inner.ok());
    FloorForwardingPolicy policy(std::move(*inner), forward_floor);
    OnlineScheduler scheduler(12, 20, BudgetVector::Uniform(1), &policy);
    for (const Cei& cei : ceis) EXPECT_TRUE(scheduler.AddArrival(&cei, 0).ok());
    std::vector<ResourceId> order;
    std::vector<ResourceId> probed;
    for (Chronon t = 0; t < 2; ++t) {
      EXPECT_TRUE(scheduler.Step(t, nullptr, &probed).ok());
      order.insert(order.end(), probed.begin(), probed.end());
    }
    EXPECT_EQ(order, (std::vector<ResourceId>{0, 1}));
    return std::make_pair(policy.value_calls(), policy.floor_calls());
  };
  // Default floor: the 12 live candidates of chronon 0 and the 11 of
  // chronon 1 are all valued.
  EXPECT_EQ(run(false), std::make_pair(int64_t{23}, int64_t{0}));
  const auto [values, floors] = run(true);
  // Every candidate after the first of each chronon asks the floor.
  EXPECT_EQ(floors, 11 + 10);
#if WEBMON_DCHECK_IS_ON()
  // The debug check values each skipped candidate to test its floor.
  EXPECT_EQ(values, 23);
#else
  // Chronon 0 values CEI 0's two EIs (the second's floor, 4, does not
  // exceed 6); chronon 1 values only CEI 0's remaining EI.
  EXPECT_EQ(values, 2 + 1);
#endif
}

}  // namespace
}  // namespace webmon
