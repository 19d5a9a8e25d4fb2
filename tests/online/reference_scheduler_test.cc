// Differential test: the optimized OnlineScheduler against a deliberately
// naive re-implementation of Algorithm 1 that recomputes everything from
// scratch each chronon. Any divergence in probes or captures on random
// instances is a bug in one of them.

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "faults/fault_model.h"
#include "model/completeness.h"
#include "model/schedule_audit.h"
#include "online/online_scheduler.h"
#include "online/run.h"
#include "policy/policy_factory.h"
#include "util/rng.h"

#include "../test_util.h"

namespace webmon {
namespace {

struct NaiveResult {
  Schedule schedule;
  int64_t captured_ceis = 0;
  int64_t probes = 0;
  int64_t expired_ceis = 0;
  int64_t cancelled_ceis = 0;
  // Final lifecycle of every CEI, in problem.AllCeis() order.
  std::vector<CeiLifecycle> lifecycle = {};
  // Events on the bits of CEIs wider than 64 EIs, [0] below EI 64 and [1]
  // beyond EI 63, and cancels of such a CEI with captures on both sides.
  int64_t wide_captures[2] = {0, 0};
  int64_t wide_expiries[2] = {0, 0};
  int64_t wide_straddling_cancels = 0;
};

// Straight-line Algorithm 1: no incremental candidate bookkeeping, no
// lazy compaction — just full rescans. Mirrors the scheduler's selection
// comparator exactly. Each cancel kills its CEI at the top of its chronon
// unless the CEI already completed or died.
NaiveResult RunNaive(const ProblemInstance& problem, Policy& policy,
                     bool preemptive,
                     const std::vector<CancelEvent>& cancels = {}) {
  const Chronon k = problem.num_chronons();
  NaiveResult result{Schedule(problem.num_resources(), k)};

  std::vector<const Cei*> ceis = problem.AllCeis();
  std::vector<std::unique_ptr<CeiState>> states;
  std::unordered_map<CeiId, CeiState*> by_id;
  states.reserve(ceis.size());
  for (const Cei* cei : ceis) {
    states.push_back(std::make_unique<CeiState>(cei));
    by_id[cei->id] = states.back().get();
  }

  // Death from scratch: a CEI is dead at t if its uncaptured EIs that
  // have fully expired leave too few EIs to satisfy it.
  const auto expire = [&](Chronon t) {
    for (auto& state : states) {
      const bool live = !state->dead && !state->Complete();
      uint32_t failed = 0;
      for (uint32_t i = 0; i < state->num_eis; ++i) {
        const Chronon finish = state->cei->eis[i].finish;
        if (state->Captured(i) || finish >= t) continue;
        ++failed;
        if (live && state->num_eis > 64 && finish == t - 1 &&
            state->cei->arrival < t) {
          ++result.wide_expiries[i >= 64 ? 1 : 0];
        }
      }
      state->num_failed = failed;
      if (state->cei->eis.size() - failed <
          state->cei->RequiredCaptures()) {
        state->dead = true;
      }
    }
  };

  for (Chronon t = 0; t < k; ++t) {
    expire(t);
    for (const CancelEvent& cancel : cancels) {
      if (cancel.chronon != t) continue;
      CeiState& s = *by_id.at(cancel.id);
      if (s.dead || s.Complete()) continue;
      s.dead = s.cancelled = true;
      bool captured[2] = {false, false};
      for (uint32_t i = 0; i < s.num_eis; ++i) {
        if (s.Captured(i)) captured[i >= 64 ? 1 : 0] = true;
      }
      if (captured[0] && captured[1]) ++result.wide_straddling_cancels;
    }

    // Active candidates at t.
    std::vector<CandidateEi> active;
    for (auto& state : states) {
      if (state->dead || state->Complete() || state->cei->arrival > t) {
        continue;
      }
      for (uint32_t i = 0; i < state->cei->eis.size(); ++i) {
        const ExecutionInterval& ei = state->cei->eis[i];
        if (state->Captured(i)) continue;
        if (ei.start <= t && t <= ei.finish) {
          active.push_back({state.get(), i});
        }
      }
    }

    policy.BeginChronon(active, t);

    std::vector<double> value(active.size());
    for (size_t i = 0; i < active.size(); ++i) {
      value[i] = policy.Value(active[i], t);
    }
    std::vector<uint32_t> order(active.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      const CandidateEi& ca = active[a];
      const CandidateEi& cb = active[b];
      if (!preemptive) {
        const bool sa = ca.state->Started();
        const bool sb = cb.state->Started();
        if (sa != sb) return sa;
      }
      if (value[a] != value[b]) return value[a] < value[b];
      if (ca.ei().finish != cb.ei().finish) {
        return ca.ei().finish < cb.ei().finish;
      }
      if (ca.state->cei->id != cb.state->cei->id) {
        return ca.state->cei->id < cb.state->cei->id;
      }
      return ca.ei_index < cb.ei_index;
    });

    std::vector<bool> probed(problem.num_resources(), false);
    int64_t count = 0;
    const int64_t budget = problem.budget().At(t);
    for (uint32_t i : order) {
      if (count >= budget) break;
      const ResourceId r = active[i].ei().resource;
      if (probed[r]) continue;
      probed[r] = true;
      ++count;
      ++result.probes;
      EXPECT_TRUE(result.schedule.AddProbe(r, t).ok());
      policy.NotifyProbed(r, t);
    }

    // Capture sweep.
    for (const CandidateEi& cand : active) {
      CeiState& s = *cand.state;
      if (s.Complete() || s.Captured(cand.ei_index)) continue;
      if (!probed[cand.ei().resource]) continue;
      s.SetCaptured(cand.ei_index);
      ++s.num_captured;
      if (s.num_eis > 64) ++result.wide_captures[cand.ei_index >= 64 ? 1 : 0];
    }
  }
  // The windows closing at the last chronon close with the epoch.
  expire(k);

  for (const auto& state : states) {
    CeiLifecycle lifecycle = CeiLifecycle::kPending;
    if (state->cancelled) {
      lifecycle = CeiLifecycle::kCancelled;
      ++result.cancelled_ceis;
    } else if (state->Complete()) {
      lifecycle = CeiLifecycle::kCaptured;
      ++result.captured_ceis;
    } else if (state->dead) {
      lifecycle = CeiLifecycle::kExpired;
      ++result.expired_ceis;
    }
    result.lifecycle.push_back(lifecycle);
  }
  return result;
}

ProblemInstance RandomInstance(Rng& rng, bool with_extensions) {
  const uint32_t n = 2 + static_cast<uint32_t>(rng.UniformU64(4));
  const Chronon k = 8 + static_cast<Chronon>(rng.UniformU64(12));
  const int64_t c = 1 + static_cast<int64_t>(rng.UniformU64(2));
  ProblemBuilder builder(n, k, BudgetVector::Uniform(c));
  const uint32_t num_ceis = 4 + static_cast<uint32_t>(rng.UniformU64(6));
  for (uint32_t i = 0; i < num_ceis; ++i) {
    builder.BeginProfile();
    const uint32_t rank = 1 + static_cast<uint32_t>(rng.UniformU64(3));
    std::vector<std::tuple<ResourceId, Chronon, Chronon>> eis;
    for (uint32_t e = 0; e < rank; ++e) {
      const auto r = static_cast<ResourceId>(rng.UniformU64(n));
      const auto s =
          static_cast<Chronon>(rng.UniformU64(static_cast<uint64_t>(k)));
      const auto f =
          std::min<Chronon>(s + static_cast<Chronon>(rng.UniformU64(4)),
                            k - 1);
      eis.emplace_back(r, s, f);
    }
    double weight = 1.0;
    uint32_t required = 0;
    if (with_extensions) {
      weight = 0.5 + rng.UniformDouble() * 4.0;
      required = 1 + static_cast<uint32_t>(rng.UniformU64(rank));
    }
    EXPECT_TRUE(builder.AddCei(eis, -1, weight, required).ok());
  }
  auto built = builder.Build();
  EXPECT_TRUE(built.ok());
  return std::move(built).value();
}

class ReferenceDifferential
    : public ::testing::TestWithParam<std::tuple<std::string, bool, bool>> {};

TEST_P(ReferenceDifferential, SchedulesIdentically) {
  const auto& [policy_name, preemptive, with_extensions] = GetParam();
  Rng rng(0xD1FF + preemptive * 7 + with_extensions * 31);
  for (int trial = 0; trial < 25; ++trial) {
    const ProblemInstance problem = RandomInstance(rng, with_extensions);

    auto fast_policy = MakePolicy(policy_name, 11);
    auto naive_policy = MakePolicy(policy_name, 11);
    ASSERT_TRUE(fast_policy.ok());
    ASSERT_TRUE(naive_policy.ok());

    SchedulerOptions options;
    options.preemptive = preemptive;
    auto fast = RunOnline(problem, fast_policy->get(), options);
    ASSERT_TRUE(fast.ok());
    NaiveResult naive = RunNaive(problem, **naive_policy, preemptive);

    EXPECT_EQ(fast->stats.ceis_captured, naive.captured_ceis)
        << policy_name << " trial " << trial << " " << problem.Summary();
    EXPECT_EQ(fast->stats.probes_issued, naive.probes);
    for (ResourceId r = 0; r < problem.num_resources(); ++r) {
      EXPECT_EQ(fast->schedule.ProbesOf(r), naive.schedule.ProbesOf(r))
          << policy_name << " resource " << r << " trial " << trial;
    }
  }
}

// ---------------------------------------------------------------------------
// Budgets straddling the bounded-top-C board limit (kMaxBoundedTopC = 64):
// C = 63/64 select through the board, C = 65/96 through the per-resource
// table. Both must reproduce the naive full sort exactly — this pins the
// board's skip/evict pruning and the mode switch itself.
// ---------------------------------------------------------------------------
TEST(SoaIdentityTest, BudgetsAcrossBoundedTopCBoundaryMatchNaive) {
  Rng rng(0xB0A2D);
  for (const int64_t budget : {63, 64, 65, 96}) {
    const uint32_t n = 120;
    const Chronon k = 14;
    ProblemBuilder builder(n, k, BudgetVector::Uniform(budget));
    for (uint32_t c = 0; c < 300; ++c) {
      builder.BeginProfile();
      const uint32_t rank = 1 + static_cast<uint32_t>(rng.UniformU64(2));
      std::vector<std::tuple<ResourceId, Chronon, Chronon>> eis;
      for (uint32_t e = 0; e < rank; ++e) {
        const auto r = static_cast<ResourceId>(rng.UniformU64(n));
        const auto s =
            static_cast<Chronon>(rng.UniformU64(static_cast<uint64_t>(k)));
        const auto f = std::min<Chronon>(
            s + static_cast<Chronon>(rng.UniformU64(5)), k - 1);
        eis.emplace_back(r, s, f);
      }
      ASSERT_TRUE(builder.AddCei(eis).ok());
    }
    auto built = builder.Build();
    ASSERT_TRUE(built.ok());
    const ProblemInstance problem = std::move(built).value();

    for (const bool preemptive : {true, false}) {
      auto fast_policy = MakePolicy("s-edf", 11);
      auto naive_policy = MakePolicy("s-edf", 11);
      ASSERT_TRUE(fast_policy.ok());
      ASSERT_TRUE(naive_policy.ok());
      SchedulerOptions options;
      options.preemptive = preemptive;
      auto fast = RunOnline(problem, fast_policy->get(), options);
      ASSERT_TRUE(fast.ok());
      const NaiveResult naive =
          RunNaive(problem, **naive_policy, preemptive);
      EXPECT_EQ(fast->stats.probes_issued, naive.probes)
          << "budget " << budget << " preemptive " << preemptive;
      EXPECT_EQ(fast->stats.ceis_captured, naive.captured_ceis)
          << "budget " << budget << " preemptive " << preemptive;
      for (ResourceId r = 0; r < problem.num_resources(); ++r) {
        EXPECT_EQ(fast->schedule.ProbesOf(r), naive.schedule.ProbesOf(r))
            << "budget " << budget << " resource " << r;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// CEIs wider than 64 EIs keep the capture and failure bits of EIs beyond 63
// in CeiState's spill block. Mixed with narrow CEIs, CEIs of 65 and 130 EIs
// (AND and k-of-n) run through the ordered index (MRSF), the scan (M-EDF,
// S-EDF; C = 1 and 4 on the bounded board, C = 70 through the table) and
// the scan with an injector attached, with cancels, with and without
// terminal-state compaction. Every run must match the naive engine, pass
// the schedule auditor, and answer LifecycleOf after every Step as its
// callbacks say; each case requires captures and expiries on both sides of
// EI 63 and a cancel of a CEI captured on both sides.
// ---------------------------------------------------------------------------
struct WideCase {
  ProblemInstance problem;
  std::vector<CancelEvent> cancels;
};

// 24 narrow CEIs (rank 1-3) and four wide ones (65, 130, 65, 130 EIs) over
// 48 resources and 40 chronons. Under k-of-n a wide CEI needs a half to
// three quarters of its EIs, so it outlives expiries on both sides of EI
// 63; under AND its first expiry kills it. Half the wide CEIs and a sixth
// of the narrow ones are cancelled a few chronons after they arrive.
WideCase WideInstance(Rng& rng, bool k_of_n, int64_t budget) {
  const uint32_t n = 48;
  const Chronon k = 40;
  ProblemBuilder builder(n, k, BudgetVector::Uniform(budget));
  std::vector<CancelEvent> cancels;
  for (uint32_t c = 0; c < 28; ++c) {
    builder.BeginProfile();
    const bool wide = c % 7 == 3;
    const uint32_t rank = wide ? (c % 2 == 0 ? 130u : 65u)
                               : 1 + static_cast<uint32_t>(rng.UniformU64(3));
    const auto arrival = static_cast<Chronon>(rng.UniformU64(wide ? 8 : 30));
    std::vector<std::tuple<ResourceId, Chronon, Chronon>> eis;
    for (uint32_t e = 0; e < rank; ++e) {
      const auto r = static_cast<ResourceId>(rng.UniformU64(n));
      const Chronon start = std::min<Chronon>(
          arrival + static_cast<Chronon>(rng.UniformU64(wide ? 24 : 6)),
          k - 1);
      const Chronon finish = std::min<Chronon>(
          start + (wide ? 2 : 0) +
              static_cast<Chronon>(rng.UniformU64(wide ? 12 : 4)),
          k - 1);
      eis.emplace_back(r, start, finish);
    }
    uint32_t required = 0;
    if (k_of_n) {
      required = wide ? rank / 2 + static_cast<uint32_t>(rng.UniformU64(
                                       rank / 4))
                      : 1 + static_cast<uint32_t>(rng.UniformU64(rank));
    }
    auto id = builder.AddCei(eis, arrival, 1.0, required);
    EXPECT_TRUE(id.ok()) << id.status();
    if (rng.UniformU64(wide ? 2 : 6) == 0) {
      const Chronon at =
          arrival + 3 + static_cast<Chronon>(rng.UniformU64(20));
      if (at < k) cancels.push_back({at, *id});
    }
  }
  auto built = builder.Build();
  EXPECT_TRUE(built.ok()) << built.status();
  return WideCase{std::move(built).value(), std::move(cancels)};
}

enum class Injector { kNone, kZero, kFlaky };

struct WideRun {
  Schedule schedule;
  SchedulerStats stats;
  std::vector<ProbeAttempt> attempts;
  std::vector<std::tuple<char, Chronon, CeiId>> events;
  // What the callbacks left each CEI as, in problem.AllCeis() order.
  std::vector<CeiLifecycle> lifecycle;
  FaultHandlingOptions fault_handling;
};

// Drives the scheduler chronon by chronon (arrivals, then cancels, then the
// Step), checking LifecycleOf for every registered id and the resident
// state count after every Step.
WideRun RunWide(const WideCase& wide_case, const std::string& policy_name,
                bool preemptive, bool compact, Injector injector_kind,
                uint64_t seed) {
  const ProblemInstance& problem = wide_case.problem;
  const Chronon k = problem.num_chronons();
  auto policy = MakePolicy(policy_name, 11);
  EXPECT_TRUE(policy.ok()) << policy.status();
  SchedulerOptions options;
  options.preemptive = preemptive;
  options.compact_terminal_states = compact;
  std::unique_ptr<FaultInjector> injector;
  if (injector_kind != Injector::kNone) {
    FaultSpec spec;  // kZero: every probe succeeds
    if (injector_kind == Injector::kFlaky) {
      spec.defaults.transient_error_prob = 0.2;
      spec.defaults.outage_enter_prob = 0.05;
      spec.defaults.outage_exit_prob = 0.3;
    }
    injector = std::make_unique<FaultInjector>(spec, problem.num_resources(),
                                               seed);
    options.fault_injector = injector.get();
    options.fault_handling.breaker_failure_threshold = 3;
  }
  OnlineScheduler scheduler(problem.num_resources(), k, problem.budget(),
                            policy->get(), options);
  WideRun run{Schedule(problem.num_resources(), k), {}, {}, {}, {},
              options.fault_handling};
  std::unordered_map<CeiId, CeiLifecycle> expected;
  Chronon t = 0;
  const auto on = [&](char tag, CeiLifecycle lifecycle) {
    return [&run, &expected, &t, tag, lifecycle](const Cei& cei) {
      run.events.emplace_back(tag, t, cei.id);
      expected[cei.id] = lifecycle;
    };
  };
  scheduler.set_on_cei_captured(on('c', CeiLifecycle::kCaptured));
  scheduler.set_on_cei_expired(on('e', CeiLifecycle::kExpired));
  scheduler.set_on_cei_cancelled(on('x', CeiLifecycle::kCancelled));

  std::vector<std::vector<const Cei*>> arriving(static_cast<size_t>(k));
  for (const Cei* cei : problem.AllCeis()) {
    arriving[static_cast<size_t>(cei->arrival)].push_back(cei);
  }
  for (t = 0; t < k; ++t) {
    for (const Cei* cei : arriving[static_cast<size_t>(t)]) {
      expected[cei->id] = CeiLifecycle::kPending;
      EXPECT_TRUE(scheduler.AddArrival(cei, t).ok());
    }
    for (const CancelEvent& cancel : wide_case.cancels) {
      if (cancel.chronon == t) {
        EXPECT_TRUE(scheduler.RemoveCei(cancel.id, t).ok());
      }
    }
    EXPECT_TRUE(scheduler.Step(t, &run.schedule).ok());
    size_t pending = 0;
    for (const auto& [id, want] : expected) {
      const CeiLifecycle got = scheduler.LifecycleOf(id);
      if (want == CeiLifecycle::kPending) ++pending;
      // A reclaimed terminal CEI is forgotten.
      if (got == want || (compact && want != CeiLifecycle::kPending &&
                          got == CeiLifecycle::kUnknown)) {
        continue;
      }
      ADD_FAILURE() << policy_name << " CEI " << id << " at chronon " << t
                    << ": LifecycleOf " << CeiLifecycleName(got)
                    << ", callbacks " << CeiLifecycleName(want);
    }
    if (compact) {
      EXPECT_GE(scheduler.NumResidentStates(), pending);
      EXPECT_LE(scheduler.NumResidentStates(), expected.size());
    } else {
      EXPECT_EQ(scheduler.NumResidentStates(), expected.size());
    }
  }
  run.stats = scheduler.stats();
  run.attempts = scheduler.attempt_log();
  for (const Cei* cei : problem.AllCeis()) {
    run.lifecycle.push_back(expected.at(cei->id));
  }
  return run;
}

class WideCeiReference
    : public ::testing::TestWithParam<std::tuple<std::string, Injector, bool>> {
};

TEST_P(WideCeiReference, MatchesNaiveWithAndWithoutCompaction) {
  const auto& [policy_name, injector, preemptive] = GetParam();
  Rng rng(0x71DE + preemptive * 5);
  int64_t captures[2] = {0, 0};
  int64_t expiries[2] = {0, 0};
  int64_t straddling_cancels = 0;
  for (const int64_t budget : {1, 4, 70}) {
    for (const bool k_of_n : {false, true}) {
      for (int trial = 0; trial < 3; ++trial) {
        const WideCase wide_case = WideInstance(rng, k_of_n, budget);
        auto naive_policy = MakePolicy(policy_name, 11);
        ASSERT_TRUE(naive_policy.ok());
        const NaiveResult naive = RunNaive(wide_case.problem, **naive_policy,
                                           preemptive, wide_case.cancels);
        for (int side = 0; side < 2; ++side) {
          captures[side] += naive.wide_captures[side];
          expiries[side] += naive.wide_expiries[side];
        }
        straddling_cancels += naive.wide_straddling_cancels;
        for (const bool compact : {false, true}) {
          const std::string label =
              policy_name + " C=" + std::to_string(budget) +
              (k_of_n ? " k-of-n" : " AND") + " trial " +
              std::to_string(trial) + (compact ? " compact" : " retain");
          const WideRun run = RunWide(wide_case, policy_name, preemptive,
                                      compact, injector, 7);
          EXPECT_EQ(run.stats.ceis_captured, naive.captured_ceis) << label;
          EXPECT_EQ(run.stats.ceis_expired, naive.expired_ceis) << label;
          EXPECT_EQ(run.stats.ceis_cancelled, naive.cancelled_ceis) << label;
          EXPECT_EQ(run.stats.probes_issued, naive.probes) << label;
          EXPECT_EQ(run.lifecycle, naive.lifecycle) << label;
          for (ResourceId r = 0; r < wide_case.problem.num_resources(); ++r) {
            EXPECT_EQ(run.schedule.ProbesOf(r), naive.schedule.ProbesOf(r))
                << label << " resource " << r;
          }
          const Status audit = AuditSchedule(wide_case.problem, run.schedule);
          EXPECT_TRUE(audit.ok()) << label << ": " << audit;
        }
      }
    }
  }
  // Both sides of EI 63 were exercised.
  EXPECT_GT(captures[0], 0);
  EXPECT_GT(captures[1], 0);
  EXPECT_GT(expiries[0], 0);
  EXPECT_GT(expiries[1], 0);
  EXPECT_GT(straddling_cancels, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Paths, WideCeiReference,
    ::testing::Combine(::testing::Values("mrsf", "m-edf", "s-edf"),
                       ::testing::Values(Injector::kNone, Injector::kZero),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<
        std::tuple<std::string, Injector, bool>>& param) {
      std::string name = std::get<0>(param.param);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name +
             (std::get<1>(param.param) == Injector::kNone ? "" : "_injector") +
             (std::get<2>(param.param) ? "_P" : "_NP");
    });

// With failing probes there is no naive engine to match, so compaction on
// and off must agree on everything observable, and the run must pass the
// fault auditor.
TEST(WideCeiFaults, CompactionIsNeutralUnderTransients) {
  Rng rng(0x71DF);
  for (const std::string policy_name : {"mrsf", "m-edf", "s-edf"}) {
    for (const bool preemptive : {true, false}) {
      for (const int64_t budget : {1, 4, 70}) {
        for (const bool k_of_n : {false, true}) {
          const WideCase wide_case = WideInstance(rng, k_of_n, budget);
          const std::string label =
              policy_name + (preemptive ? " P" : " NP") +
              " C=" + std::to_string(budget) + (k_of_n ? " k-of-n" : " AND");
          const WideRun retain = RunWide(wide_case, policy_name, preemptive,
                                         false, Injector::kFlaky, budget);
          const WideRun compact = RunWide(wide_case, policy_name, preemptive,
                                          true, Injector::kFlaky, budget);
          EXPECT_GT(retain.stats.probes_failed, 0) << label;
          EXPECT_EQ(compact.events, retain.events) << label;
          EXPECT_EQ(compact.attempts, retain.attempts) << label;
          EXPECT_EQ(compact.lifecycle, retain.lifecycle) << label;
          EXPECT_EQ(testing_util::StatsCounters(compact.stats),
                    testing_util::StatsCounters(retain.stats))
              << label;
          for (ResourceId r = 0; r < wide_case.problem.num_resources(); ++r) {
            EXPECT_EQ(compact.schedule.ProbesOf(r),
                      retain.schedule.ProbesOf(r))
                << label << " resource " << r;
          }
          const Status audit =
              AuditFaultRun(wide_case.problem, retain.schedule,
                            retain.attempts, retain.fault_handling);
          EXPECT_TRUE(audit.ok()) << label << ": " << audit;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ReferenceDifferential,
    // round-robin joins the differential now that its NotifyProbed call
    // order (probe-issue order) is reproduced exactly by both engines;
    // random stays out — its draws depend on active-set iteration order,
    // which the naive engine does not reproduce.
    ::testing::Combine(::testing::Values("s-edf", "mrsf", "m-edf", "wic",
                                         "w-mrsf", "round-robin"),
                       ::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<std::string, bool, bool>>&
           param) {
      std::string name = std::get<0>(param.param);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name + (std::get<1>(param.param) ? "_P" : "_NP") +
             (std::get<2>(param.param) ? "_ext" : "_base");
    });

}  // namespace
}  // namespace webmon
