// The ordered candidate index (online/online_scheduler.h) must select
// exactly what the scan selects. Each case runs MRSF or W-MRSF twice on one
// seeded workload: once as is, which ranks through the index, and once
// behind a wrapper that forwards Value but does not declare value
// stability, which ranks through the scan. Everything observable must
// match: the schedule, every chronon's probes, the callback stream, every
// SchedulerStats counter but the phase seconds, the per-chronon
// diagnostics, and LifecycleOf of every CEI after every chronon.
//
// The workloads mix AND and k-of-n CEIs with random utilities, EIs that
// start before and after their arrival, windows that run past the epoch,
// zero-budget chronons, pushes and cancels (live and no-op), with
// terminal-state compaction on and off.

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "model/cei.h"
#include "model/schedule.h"
#include "online/online_scheduler.h"
#include "policy/policy.h"
#include "policy/policy_factory.h"
#include "util/rng.h"

#include "../test_util.h"

namespace webmon {
namespace {

// Forwards to a real policy, counting Value calls. With `declare_stable`
// false the scheduler cannot know the values are stable and ranks through
// its scan.
class ForwardingPolicy final : public Policy {
 public:
  ForwardingPolicy(std::unique_ptr<Policy> inner, bool declare_stable)
      : inner_(std::move(inner)), declare_stable_(declare_stable) {}

  std::string name() const override { return inner_->name(); }
  Level level() const override { return inner_->level(); }
  void BeginChronon(const std::vector<CandidateEi>& active,
                    Chronon now) override {
    inner_->BeginChronon(active, now);
  }
  double Value(const CandidateEi& cand, Chronon now) const override {
    value_calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_->Value(cand, now);
  }
  bool ValueStableBetweenCaptures() const override {
    return declare_stable_ && inner_->ValueStableBetweenCaptures();
  }
  void NotifyProbed(ResourceId resource, Chronon now) override {
    inner_->NotifyProbed(resource, now);
  }

  int64_t value_calls() const { return value_calls_.load(); }

 private:
  std::unique_ptr<Policy> inner_;
  bool declare_stable_;
  // Value is const and, on the scan path, called from the rank shards.
  mutable std::atomic<int64_t> value_calls_{0};
};

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
    cei.weight = 0.25 + 4.0 * rng.UniformDouble();
    const uint32_t rank = 1 + static_cast<uint32_t>(rng.UniformU64(4));
    for (uint32_t e = 0; e < rank; ++e) {
      ExecutionInterval ei;
      ei.id = static_cast<EiId>(c * 4 + static_cast<int>(e));
      // A quarter of the EIs share a small hot set, so several candidates
      // compete for one resource.
      ei.resource = static_cast<ResourceId>(
          rng.UniformU64(4) == 0 ? rng.UniformU64(shape.resources / 8 + 1)
                                 : rng.UniformU64(shape.resources));
      // Starts a few chronons before arrival (admitted on arrival, some
      // already closed) or after it (parked until their start, a few past
      // the epoch); windows may run past the epoch end.
      const Chronon offset = static_cast<Chronon>(rng.UniformU64(12)) - 3;
      ei.start = std::clamp<Chronon>(cei.arrival + offset, 0, k + 1);
      ei.finish = ei.start + static_cast<Chronon>(rng.UniformU64(
                                 static_cast<uint64_t>(shape.max_window)));
      cei.eis.push_back(ei);
    }
    // A third of the multi-EI needs are k-of-n.
    if (rank > 1 && rng.UniformU64(3) == 0) {
      cei.required = 1 + static_cast<uint32_t>(rng.UniformU64(rank - 1));
    }
    ceis.push_back(std::move(cei));
  }
  return ceis;
}

struct Config {
  std::string policy;
  bool preemptive = true;
  bool compact = false;
  int64_t budget = 1;
  // LifecycleOf of every CEI is recorded after every this-many steps.
  int64_t lifecycle_stride = 1;
};

struct RunLog {
  std::vector<std::vector<ResourceId>> probes;  // per stepped chronon
  // Callbacks in firing order: kind ('c'aptured, 'e'xpired, 'x' cancelled),
  // chronon, CEI id.
  std::vector<std::tuple<char, Chronon, CeiId>> events;
  // Per stepped chronon: NumActiveEis, NumCandidateCeis, NumResidentStates.
  std::vector<std::tuple<size_t, size_t, size_t>> diagnostics;
  std::vector<CeiLifecycle> lifecycles;
  std::vector<std::vector<Chronon>> schedule;  // probes per resource
  SchedulerStats stats;
  int64_t value_calls = 0;
  int64_t steps = 0;
};

RunLog RunScheduler(const Config& config, const Shape& shape,
                    const std::vector<Cei>& ceis, bool through_index,
                    uint64_t seed) {
  auto inner = MakePolicy(config.policy, 17);
  EXPECT_TRUE(inner.ok()) << inner.status();
  ForwardingPolicy policy(std::move(*inner), through_index);
  SchedulerOptions options;
  options.preemptive = config.preemptive;
  options.compact_terminal_states = config.compact;
  // Every seventh chronon has no budget: nothing is ranked, but the
  // compaction and the index's lazy deletion still run.
  std::vector<int64_t> budgets(static_cast<size_t>(shape.chronons),
                               config.budget);
  for (size_t t = 3; t < budgets.size(); t += 7) budgets[t] = 0;
  OnlineScheduler scheduler(shape.resources, shape.chronons,
                            BudgetVector::PerChronon(budgets), &policy,
                            options);
  RunLog log;
  Chronon t = 0;
  scheduler.set_on_cei_captured(
      [&](const Cei& cei) { log.events.emplace_back('c', t, cei.id); });
  scheduler.set_on_cei_expired(
      [&](const Cei& cei) { log.events.emplace_back('e', t, cei.id); });
  scheduler.set_on_cei_cancelled(
      [&](const Cei& cei) { log.events.emplace_back('x', t, cei.id); });

  // The test's choices (cancels, pushes) depend only on its own RNG and the
  // registration order, never on the scheduler's outputs, so both runs
  // receive identical input.
  Rng rng(seed);
  Schedule schedule(shape.resources, shape.chronons);
  std::vector<bool> registered(ceis.size(), false);
  std::vector<ResourceId> probed;
  for (; t < shape.chronons; ++t) {
    for (size_t c = 0; c < ceis.size(); ++c) {
      if (ceis[c].arrival == t) {
        EXPECT_TRUE(scheduler.AddArrival(&ceis[c], t).ok());
        registered[c] = true;
      }
    }
    std::vector<CeiId> cancels;
    for (size_t c = 0; c < ceis.size(); ++c) {
      if (registered[c] && rng.UniformU64(30) == 0) {
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
    log.diagnostics.emplace_back(scheduler.NumActiveEis(),
                                 scheduler.NumCandidateCeis(),
                                 scheduler.NumResidentStates());
    if (log.steps % config.lifecycle_stride == 0) {
      for (const Cei& cei : ceis) {
        log.lifecycles.push_back(scheduler.LifecycleOf(cei.id));
      }
    }
    ++log.steps;
  }
  for (ResourceId r = 0; r < shape.resources; ++r) {
    log.schedule.push_back(schedule.ProbesOf(r));
  }
  log.stats = scheduler.stats();
  log.value_calls = policy.value_calls();
  return log;
}

void ExpectIdentical(const RunLog& index, const RunLog& scan,
                     const std::string& label) {
  EXPECT_EQ(index.steps, scan.steps) << label;
  EXPECT_EQ(index.probes, scan.probes) << label;
  EXPECT_EQ(index.events, scan.events) << label;
  EXPECT_EQ(index.diagnostics, scan.diagnostics) << label;
  EXPECT_EQ(index.lifecycles, scan.lifecycles) << label;
  EXPECT_EQ(index.schedule, scan.schedule) << label;
  EXPECT_EQ(testing_util::StatsCounters(index.stats),
            testing_util::StatsCounters(scan.stats)) << label;
}

class OrderedIndexIdentity
    : public ::testing::TestWithParam<std::tuple<std::string, bool, bool>> {
};

TEST_P(OrderedIndexIdentity, IndexSelectsExactlyWhatTheScanSelects) {
  const auto& [policy, preemptive, compact] = GetParam();
  const Shape shape{40, 90, 160, 12};
  for (const int64_t budget : {1, 4, 16, 80}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      Rng rng(seed * 0x9E37 + static_cast<uint64_t>(budget));
      const std::vector<Cei> ceis = MakeCeis(rng, shape);
      const Config config{policy, preemptive, compact, budget, 1};
      const std::string label =
          "C=" + std::to_string(budget) + " seed=" + std::to_string(seed);
      const RunLog index = RunScheduler(config, shape, ceis, true, seed);
      const RunLog scan = RunScheduler(config, shape, ceis, false, seed);
      ExpectIdentical(index, scan, label);
      EXPECT_GT(index.stats.eis_captured, 0) << label;
      EXPECT_GT(index.stats.ceis_cancelled, 0) << label;
      EXPECT_GT(index.stats.pushes_delivered, 0) << label;
      if (HasFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ValueStablePolicies, OrderedIndexIdentity,
    ::testing::Combine(::testing::Values("mrsf", "w-mrsf"), ::testing::Bool(),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<std::string, bool, bool>>&
           param) {
      std::string name = std::get<0>(param.param);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name + (std::get<1>(param.param) ? "_P" : "_NP") +
             (std::get<2>(param.param) ? "_compact" : "_retain");
    });

// A long, dense run: ~21k pushes into a heap rebuilt whenever it holds
// twice as many entries as the slot columns (about 500 rebuilds per run,
// counted in an instrumented build), while terminal-state compaction
// recycles state slots, so index entries outlive the states they name.
TEST(OrderedIndexIdentityLong, RebuildsAndRecycledStatesStayIdentical) {
  const Shape shape{120, 2000, 12000, 10};
  for (const bool preemptive : {true, false}) {
    Rng rng(preemptive ? 7 : 8);
    const std::vector<Cei> ceis = MakeCeis(rng, shape);
    const Config config{"w-mrsf", preemptive, true, 2, 50};
    const std::string label = preemptive ? "P" : "NP";
    const RunLog index = RunScheduler(config, shape, ceis, true, 5);
    const RunLog scan = RunScheduler(config, shape, ceis, false, 5);
    ExpectIdentical(index, scan, label);
    // Slots were recycled: far fewer states resident at the peak than
    // CEIs registered.
    size_t peak_resident = 0;
    size_t peak_active = 0;
    for (const auto& [active, candidates, resident] : index.diagnostics) {
      peak_resident = std::max(peak_resident, resident);
      peak_active = std::max(peak_active, active);
    }
    EXPECT_LT(4 * peak_resident,
              static_cast<size_t>(index.stats.ceis_seen))
        << label;
    // Every push values its EI once; pushes at forty times the live peak
    // are what drive the rebuilds counted above.
    EXPECT_GT(index.value_calls, static_cast<int64_t>(40 * peak_active))
        << label;
  }
}

// The two paths differ where the policy can see it: the index values an EI
// when it is admitted and again only when its CEI captures an EI, while
// the scan values every live candidate at every chronon with budget — for
// a policy that keeps the default value floor, as the wrapper does, its
// bounded board skips no Value call (and its debug check makes none).
TEST(OrderedIndexPath, ValuesAnEiOnAdmissionAndWhenItsCeiCaptures) {
  // CEI 0 needs resources 0 and 1; CEIs 1..5 need one resource each, so
  // MRSF serves them first (residual 1 before 2), one per chronon.
  std::vector<Cei> ceis(6);
  for (size_t c = 0; c < ceis.size(); ++c) {
    ceis[c].id = static_cast<CeiId>(c);
    const std::vector<ResourceId> resources =
        c == 0 ? std::vector<ResourceId>{0, 1}
               : std::vector<ResourceId>{static_cast<ResourceId>(c + 1)};
    for (ResourceId r : resources) {
      ExecutionInterval ei;
      ei.resource = r;
      ei.start = 0;
      ei.finish = 30;
      ceis[c].eis.push_back(ei);
    }
  }
  const auto run = [&](bool through_index) {
    auto inner = MakePolicy("mrsf", 17);
    EXPECT_TRUE(inner.ok());
    ForwardingPolicy policy(std::move(*inner), through_index);
    OnlineScheduler scheduler(8, 40, BudgetVector::Uniform(1), &policy);
    for (const Cei& cei : ceis) EXPECT_TRUE(scheduler.AddArrival(&cei, 0).ok());
    std::vector<ResourceId> order;
    std::vector<ResourceId> probed;
    for (Chronon t = 0; t < 10; ++t) {
      EXPECT_TRUE(scheduler.Step(t, nullptr, &probed).ok());
      order.insert(order.end(), probed.begin(), probed.end());
    }
    EXPECT_EQ(scheduler.stats().ceis_captured, 6);
    EXPECT_EQ(order, (std::vector<ResourceId>{2, 3, 4, 5, 6, 0, 1}));
    return policy.value_calls();
  };
  // Index: 7 admissions, plus CEI 0's second EI re-keyed after its first
  // capture at chronon 5.
  EXPECT_EQ(run(true), 8);
  // Scan: the live candidates of chronons 0..6 — 7, 6, 5, 4, 3, 2, 1.
  EXPECT_EQ(run(false), 28);
}

}  // namespace
}  // namespace webmon
