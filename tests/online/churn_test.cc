// Mid-epoch profile churn: the proof battery for first-class CEI
// cancellation (docs/CONCURRENCY.md "Profile churn").
//
// The core property is churn equivalence: a run that submits needs and
// cancels some of them before their windows open must be byte-identical —
// schedule, stats, capture/expiry streams — to a from-scratch run over the
// survivors alone, for every policy, both preemption modes, with and
// without fault injection, over four seeded sets of scenarios. A randomized
// churn-fuzz differential then compares the incremental index unwinding
// against a naive rebuild-from-scratch reference for mid-flight cancels,
// and a race matrix pins how a cancel resolves against a same-chronon
// capture or expiry (mailbox sequence wins; terminal states make the
// cancel a recorded no-op).

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "faults/fault_model.h"
#include "model/cei.h"
#include "online/arrival_log.h"
#include "online/ingestion_driver.h"
#include "online/proxy.h"
#include "online/run.h"
#include "policy/policy_factory.h"
#include "util/rng.h"

namespace webmon {
namespace {

std::unique_ptr<Policy> Mrsf() {
  auto policy = MakePolicy("mrsf");
  EXPECT_TRUE(policy.ok());
  return std::move(*policy);
}

// ---------------------------------------------------------------------------
// Churn equivalence: cancels that land before their target's first window
// opens must leave no trace — the churned run and the survivors-only run
// emit identical schedules.
// ---------------------------------------------------------------------------

struct ScriptedNeed {
  Chronon submit_at = 0;
  std::vector<std::tuple<ResourceId, Chronon, Chronon>> eis;
  double weight = 1.0;
  uint32_t required = 0;
  /// -1: survivor. Otherwise the chronon the cancel takes effect at,
  /// constrained to [submit_at + 1, earliest EI start] so the target is
  /// removed before it ever enters a ranking pass.
  Chronon cancel_at = -1;
};

struct Scenario {
  uint32_t num_resources = 0;
  Chronon horizon = 0;
  int64_t budget = 0;
  std::vector<ScriptedNeed> needs;
};

Scenario RandomScenario(Rng& rng) {
  Scenario sc;
  sc.num_resources = 3 + static_cast<uint32_t>(rng.UniformU64(4));
  sc.horizon = 18 + static_cast<Chronon>(rng.UniformU64(12));
  sc.budget = 1 + static_cast<int64_t>(rng.UniformU64(2));
  const int count = 10 + static_cast<int>(rng.UniformU64(8));
  for (int i = 0; i < count; ++i) {
    ScriptedNeed need;
    need.submit_at = static_cast<Chronon>(
        rng.UniformU64(static_cast<uint64_t>(sc.horizon - 10)));
    // Windows open at least two chronons after submission, leaving room
    // for a cancel to drain strictly before the first activation.
    const Chronon base = need.submit_at + 2 + static_cast<Chronon>(
                                                  rng.UniformU64(3));
    const uint32_t rank = 1 + static_cast<uint32_t>(rng.UniformU64(3));
    for (uint32_t e = 0; e < rank; ++e) {
      const auto r = static_cast<ResourceId>(rng.UniformU64(sc.num_resources));
      const Chronon s = base + static_cast<Chronon>(rng.UniformU64(3));
      const Chronon f =
          std::min<Chronon>(s + static_cast<Chronon>(rng.UniformU64(5)),
                            sc.horizon - 1);
      need.eis.emplace_back(r, s, f);
    }
    need.weight = 0.5 + rng.UniformDouble() * 2.0;
    need.required =
        static_cast<uint32_t>(rng.UniformU64(static_cast<uint64_t>(rank) + 1));
    if (rng.Bernoulli(0.4)) {
      need.cancel_at =
          need.submit_at + 1 +
          static_cast<Chronon>(rng.UniformU64(
              static_cast<uint64_t>(base - need.submit_at)));
    }
    sc.needs.push_back(std::move(need));
  }
  std::stable_sort(sc.needs.begin(), sc.needs.end(),
                   [](const ScriptedNeed& a, const ScriptedNeed& b) {
                     return a.submit_at < b.submit_at;
                   });
  return sc;
}

struct ScriptedRun {
  std::vector<std::vector<Chronon>> probes;
  SchedulerStats stats;
  IngestionStats ingestion;
  ArrivalLog log;
  std::vector<ProbeAttempt> attempts;
  // Callback streams keyed by scenario index (comparable across runs that
  // assign different CeiIds) and by raw id (comparable against a replay).
  std::vector<std::pair<Chronon, size_t>> captured;
  std::vector<std::pair<Chronon, size_t>> expired;
  std::vector<std::pair<Chronon, size_t>> cancelled;
  std::vector<std::pair<Chronon, CeiId>> captured_ids;
  std::vector<std::pair<Chronon, CeiId>> expired_ids;
  std::vector<std::pair<Chronon, CeiId>> cancelled_ids;
};

ScriptedRun RunScripted(const Scenario& sc, const std::string& policy_name,
                        bool preemptive, const FaultSpec* fault_spec,
                        uint64_t fault_seed, bool survivors_only) {
  ScriptedRun run;
  auto policy = MakePolicy(policy_name, 11);
  EXPECT_TRUE(policy.ok());
  std::unique_ptr<FaultInjector> injector;
  SchedulerOptions options;
  options.preemptive = preemptive;
  if (fault_spec != nullptr) {
    injector = std::make_unique<FaultInjector>(*fault_spec, sc.num_resources,
                                               fault_seed);
    options.fault_injector = injector.get();
  }
  Proxy proxy(sc.num_resources, sc.horizon, BudgetVector::Uniform(sc.budget),
              std::move(*policy), options);

  std::map<CeiId, size_t> id_to_need;
  std::vector<CeiId> need_id(sc.needs.size(), 0);
  proxy.set_on_cei_captured([&](CeiId id) {
    run.captured_ids.emplace_back(proxy.now(), id);
    run.captured.emplace_back(proxy.now(), id_to_need.at(id));
  });
  proxy.set_on_cei_expired([&](CeiId id) {
    run.expired_ids.emplace_back(proxy.now(), id);
    run.expired.emplace_back(proxy.now(), id_to_need.at(id));
  });
  proxy.set_on_cei_cancelled([&](CeiId id) {
    run.cancelled_ids.emplace_back(proxy.now(), id);
    run.cancelled.emplace_back(proxy.now(), id_to_need.at(id));
  });

  for (Chronon t = 0; t < sc.horizon; ++t) {
    for (size_t i = 0; i < sc.needs.size(); ++i) {
      const ScriptedNeed& need = sc.needs[i];
      if (need.submit_at != t) continue;
      if (survivors_only && need.cancel_at >= 0) continue;
      auto id = proxy.Submit(need.eis, need.weight, need.required);
      EXPECT_TRUE(id.ok()) << id.status();
      if (!id.ok()) continue;
      need_id[i] = *id;
      id_to_need[*id] = i;
    }
    if (!survivors_only) {
      for (size_t i = 0; i < sc.needs.size(); ++i) {
        if (sc.needs[i].cancel_at != t) continue;
        EXPECT_TRUE(proxy.Cancel(need_id[i]).ok());
      }
    }
    EXPECT_TRUE(proxy.Tick().ok());
  }

  run.stats = proxy.stats();
  run.ingestion = proxy.ingestion_stats();
  run.log = proxy.arrival_log();
  run.attempts = proxy.attempt_log();
  run.probes.resize(sc.num_resources);
  for (ResourceId r = 0; r < sc.num_resources; ++r) {
    run.probes[r] = proxy.schedule().ProbesOf(r);
  }
  return run;
}

// The last parameter, `trial_set` (case-name suffix `_t<n>`), seeds the
// case's scenarios.
class ChurnEquivalence
    : public ::testing::TestWithParam<
          std::tuple<std::string, bool, bool, int>> {};

TEST_P(ChurnEquivalence, ChurnedRunMatchesFromScratchSurvivorRun) {
  const auto& [policy_name, preemptive, with_faults, trial_set] = GetParam();
  Rng rng(0xC4A0 + (preemptive ? 1 : 0) + (with_faults ? 2 : 0) +
          static_cast<uint64_t>(trial_set) * 131);
  FaultSpec spec;
  spec.defaults.transient_error_prob = 0.25;
  spec.defaults.timeout_prob = 0.05;

  for (int trial = 0; trial < 3; ++trial) {
    const Scenario sc = RandomScenario(rng);
    const uint64_t fault_seed = 0xFACE + static_cast<uint64_t>(trial);
    const FaultSpec* faults = with_faults ? &spec : nullptr;
    const ScriptedRun a =
        RunScripted(sc, policy_name, preemptive, faults, fault_seed, false);
    const ScriptedRun b =
        RunScripted(sc, policy_name, preemptive, faults, fault_seed, true);

    // The schedules are byte-identical, not merely survivor-equivalent:
    // a cancelled-before-activation CEI never reaches a ranking pass, so
    // the churned run probes exactly what the survivors-only run probes.
    for (ResourceId r = 0; r < sc.num_resources; ++r) {
      EXPECT_EQ(a.probes[r], b.probes[r])
          << policy_name << " trial " << trial << " resource " << r;
    }
    EXPECT_EQ(a.stats.probes_issued, b.stats.probes_issued);
    EXPECT_EQ(a.stats.eis_captured, b.stats.eis_captured);
    EXPECT_EQ(a.stats.ceis_captured, b.stats.ceis_captured);
    EXPECT_EQ(a.stats.ceis_expired, b.stats.ceis_expired);
    EXPECT_EQ(a.captured, b.captured) << policy_name << " trial " << trial;
    EXPECT_EQ(a.expired, b.expired) << policy_name << " trial " << trial;
    ASSERT_EQ(a.attempts.size(), b.attempts.size());
    for (size_t i = 0; i < a.attempts.size(); ++i) {
      ASSERT_TRUE(a.attempts[i] == b.attempts[i]) << "attempt " << i;
    }

    // Every scripted cancel removed a still-pending CEI, in drain order.
    std::vector<std::pair<Chronon, size_t>> expected_cancels;
    for (Chronon t = 0; t < sc.horizon; ++t) {
      for (size_t i = 0; i < sc.needs.size(); ++i) {
        if (sc.needs[i].cancel_at == t) expected_cancels.emplace_back(t, i);
      }
    }
    EXPECT_EQ(a.cancelled, expected_cancels);
    EXPECT_EQ(a.stats.ceis_cancelled,
              static_cast<int64_t>(expected_cancels.size()));
    EXPECT_EQ(a.stats.cancels_noop, 0);
    EXPECT_EQ(b.stats.ceis_cancelled, 0);
    EXPECT_EQ(a.stats.ceis_seen, a.stats.ceis_captured +
                                     a.stats.ceis_expired +
                                     a.stats.ceis_cancelled);

    // The cancel records round-trip through the serialized log and the
    // replayed run reproduces the churned run byte for byte.
    EXPECT_TRUE(AuditArrivalLog(a.log).ok());
    auto parsed = ParseArrivalLog(SerializeArrivalLog(a.log));
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    ASSERT_EQ(parsed->size(), a.log.size());
    for (size_t i = 0; i < a.log.size(); ++i) {
      EXPECT_TRUE((*parsed)[i] == a.log[i]) << "log record " << i;
    }
    auto replay_policy = MakePolicy(policy_name, 11);
    ASSERT_TRUE(replay_policy.ok());
    std::unique_ptr<FaultInjector> replay_injector;
    SchedulerOptions replay_options;
    replay_options.preemptive = preemptive;
    if (with_faults) {
      replay_injector = std::make_unique<FaultInjector>(
          spec, sc.num_resources, fault_seed);
      replay_options.fault_injector = replay_injector.get();
    }
    auto replay = ReplayArrivalLog(*parsed, sc.num_resources, sc.horizon,
                                   BudgetVector::Uniform(sc.budget),
                                   std::move(*replay_policy), replay_options);
    ASSERT_TRUE(replay.ok()) << replay.status();
    for (ResourceId r = 0; r < sc.num_resources; ++r) {
      EXPECT_EQ(replay->schedule.ProbesOf(r), a.probes[r]) << "resource " << r;
    }
    EXPECT_EQ(replay->stats.probes_issued, a.stats.probes_issued);
    EXPECT_EQ(replay->stats.ceis_captured, a.stats.ceis_captured);
    EXPECT_EQ(replay->stats.ceis_expired, a.stats.ceis_expired);
    EXPECT_EQ(replay->stats.ceis_cancelled, a.stats.ceis_cancelled);
    EXPECT_EQ(replay->stats.cancels_noop, a.stats.cancels_noop);
    EXPECT_EQ(replay->captured, a.captured_ids);
    EXPECT_EQ(replay->expired, a.expired_ids);
    EXPECT_EQ(replay->cancelled, a.cancelled_ids);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, ChurnEquivalence,
    // random joins here (unlike the reference differential): both runs use
    // the real engine, and a cancelled-before-activation CEI never enters
    // an active set, so even iteration-order-sensitive draws coincide.
    ::testing::Combine(::testing::Values("s-edf", "mrsf", "m-edf", "wic",
                                         "w-mrsf", "round-robin", "random"),
                       ::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(1, 2, 4, 8)),
    [](const ::testing::TestParamInfo<
        std::tuple<std::string, bool, bool, int>>& param) {
      std::string name = std::get<0>(param.param);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name + (std::get<1>(param.param) ? "_P" : "_NP") +
             (std::get<2>(param.param) ? "_faults" : "_clean") + "_t" +
             std::to_string(std::get<3>(param.param));
    });

// ---------------------------------------------------------------------------
// Churn fuzz: random mid-flight cancels (which may race captures, land on
// half-captured CEIs, or hit already-dead ones) against a naive
// rebuild-from-scratch reference scheduler.
// ---------------------------------------------------------------------------

struct NaiveChurnResult {
  Schedule schedule;
  int64_t captured_ceis = 0;
  int64_t probes = 0;
  int64_t cancelled = 0;
  int64_t noop_cancels = 0;
};

// Straight-line Algorithm 1 with full per-chronon rescans, extended with
// cancellation: cancels for chronon t apply after the death-from-scratch
// pass (expiries through t-1 are terminal by then, matching the engine's
// end-of-Step expiry sweep) and before the active-set build.
NaiveChurnResult RunNaiveWithChurn(const ProblemInstance& problem,
                                   Policy& policy, bool preemptive,
                                   const std::vector<Chronon>& cancel_at) {
  const Chronon k = problem.num_chronons();
  NaiveChurnResult result{Schedule(problem.num_resources(), k), 0, 0, 0, 0};

  std::vector<const Cei*> ceis = problem.AllCeis();
  std::vector<std::unique_ptr<CeiState>> states;
  states.reserve(ceis.size());
  for (const Cei* cei : ceis) {
    states.push_back(std::make_unique<CeiState>(cei));
  }

  for (Chronon t = 0; t < k; ++t) {
    for (auto& state : states) {
      uint32_t failed = 0;
      for (uint32_t i = 0; i < state->num_eis; ++i) {
        if (!state->Captured(i) && state->cei->eis[i].finish < t) ++failed;
      }
      state->num_failed = failed;
      if (state->cei->eis.size() - failed <
          state->cei->RequiredCaptures()) {
        state->dead = true;
      }
    }

    for (size_t c = 0; c < states.size(); ++c) {
      if (cancel_at[c] != t) continue;
      CeiState& s = *states[c];
      if (s.dead || s.Complete()) {
        ++result.noop_cancels;
      } else {
        s.dead = true;
        ++result.cancelled;
      }
    }

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

    for (const CandidateEi& cand : active) {
      CeiState& s = *cand.state;
      if (s.Complete() || s.Captured(cand.ei_index)) continue;
      if (!probed[cand.ei().resource]) continue;
      s.SetCaptured(cand.ei_index);
      ++s.num_captured;
    }
  }

  for (const auto& state : states) {
    if (state->Complete()) ++result.captured_ceis;
  }
  return result;
}

class ChurnFuzzDifferential
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(ChurnFuzzDifferential, MatchesNaiveRebuildFromScratch) {
  const auto& [policy_name, preemptive] = GetParam();
  Rng rng(0xF077 + (preemptive ? 1 : 0));
  for (int trial = 0; trial < 15; ++trial) {
    const uint32_t n = 2 + static_cast<uint32_t>(rng.UniformU64(4));
    const Chronon k = 10 + static_cast<Chronon>(rng.UniformU64(14));
    const int64_t c = 1 + static_cast<int64_t>(rng.UniformU64(2));
    ProblemBuilder builder(n, k, BudgetVector::Uniform(c));
    const uint32_t num_ceis = 5 + static_cast<uint32_t>(rng.UniformU64(6));
    std::vector<Chronon> cancel_at;
    std::vector<CancelEvent> cancels;
    for (uint32_t i = 0; i < num_ceis; ++i) {
      builder.BeginProfile();
      const uint32_t rank = 1 + static_cast<uint32_t>(rng.UniformU64(3));
      std::vector<std::tuple<ResourceId, Chronon, Chronon>> eis;
      Chronon min_start = k;
      for (uint32_t e = 0; e < rank; ++e) {
        const auto r = static_cast<ResourceId>(rng.UniformU64(n));
        const auto s =
            static_cast<Chronon>(rng.UniformU64(static_cast<uint64_t>(k)));
        const auto f = std::min<Chronon>(
            s + static_cast<Chronon>(rng.UniformU64(5)), k - 1);
        min_start = std::min(min_start, s);
        eis.emplace_back(r, s, f);
      }
      const double weight = 0.5 + rng.UniformDouble() * 3.0;
      const uint32_t required =
          static_cast<uint32_t>(rng.UniformU64(static_cast<uint64_t>(rank)));
      auto id = builder.AddCei(eis, -1, weight, required);
      ASSERT_TRUE(id.ok());
      // Mid-flight cancels anywhere in [arrival, k): they may beat the
      // first probe, land mid-capture, or hit an already-decided CEI (the
      // deterministic no-op).
      Chronon at = -1;
      if (rng.Bernoulli(0.45)) {
        at = min_start + static_cast<Chronon>(rng.UniformU64(
                             static_cast<uint64_t>(k - min_start)));
        cancels.push_back({at, *id});
      }
      cancel_at.push_back(at);
    }
    auto built = builder.Build();
    ASSERT_TRUE(built.ok());
    const ProblemInstance problem = std::move(built).value();

    auto fast_policy = MakePolicy(policy_name, 13);
    auto naive_policy = MakePolicy(policy_name, 13);
    ASSERT_TRUE(fast_policy.ok());
    ASSERT_TRUE(naive_policy.ok());
    SchedulerOptions options;
    options.preemptive = preemptive;
    auto fast =
        RunOnlineWithChurn(problem, fast_policy->get(), cancels, options);
    ASSERT_TRUE(fast.ok()) << fast.status();
    const NaiveChurnResult naive =
        RunNaiveWithChurn(problem, **naive_policy, preemptive, cancel_at);

    EXPECT_EQ(fast->stats.probes_issued, naive.probes)
        << policy_name << " trial " << trial << " " << problem.Summary();
    EXPECT_EQ(fast->stats.ceis_captured, naive.captured_ceis)
        << policy_name << " trial " << trial;
    EXPECT_EQ(fast->stats.ceis_cancelled, naive.cancelled)
        << policy_name << " trial " << trial;
    EXPECT_EQ(fast->stats.cancels_noop, naive.noop_cancels)
        << policy_name << " trial " << trial;
    for (ResourceId r = 0; r < problem.num_resources(); ++r) {
      EXPECT_EQ(fast->schedule.ProbesOf(r), naive.schedule.ProbesOf(r))
          << policy_name << " resource " << r << " trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ChurnFuzzDifferential,
    // random stays out for the same reason as the reference differential:
    // its draws depend on active-set iteration order, which the naive
    // engine does not reproduce.
    ::testing::Combine(::testing::Values("s-edf", "mrsf", "m-edf", "wic",
                                         "w-mrsf", "round-robin"),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<std::string, bool>>& param) {
      std::string name = std::get<0>(param.param);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name + (std::get<1>(param.param) ? "_P" : "_NP");
    });

// ---------------------------------------------------------------------------
// Race matrix: cancel vs same-chronon capture / expiry, resolved by mailbox
// sequence (docs/CONCURRENCY.md "Profile churn").
// ---------------------------------------------------------------------------

struct ProxyStreams {
  std::vector<std::pair<Chronon, CeiId>> captured;
  std::vector<std::pair<Chronon, CeiId>> expired;
  std::vector<std::pair<Chronon, CeiId>> cancelled;

  void Attach(Proxy& proxy) {
    proxy.set_on_cei_captured(
        [this, &proxy](CeiId id) { captured.emplace_back(proxy.now(), id); });
    proxy.set_on_cei_expired(
        [this, &proxy](CeiId id) { expired.emplace_back(proxy.now(), id); });
    proxy.set_on_cei_cancelled(
        [this, &proxy](CeiId id) { cancelled.emplace_back(proxy.now(), id); });
  }
};

TEST(ChurnRaceTest, CancelSequencedBeforeTickBeatsSameChrononCapture) {
  Proxy proxy(1, 5, BudgetVector::Uniform(1), Mrsf());
  ProxyStreams streams;
  streams.Attach(proxy);
  auto id = proxy.Submit({{0, 0, 0}});
  ASSERT_TRUE(id.ok());
  // Without the cancel, chronon 0's tick would probe resource 0 and
  // capture the need. The cancel drains first (submits-then-cancels, both
  // at chronon 0), so the need is gone before probes are decided.
  ASSERT_TRUE(proxy.Cancel(*id).ok());
  while (!proxy.Done()) ASSERT_TRUE(proxy.Tick().ok());
  EXPECT_EQ(streams.cancelled,
            (std::vector<std::pair<Chronon, CeiId>>{{0, *id}}));
  EXPECT_TRUE(streams.captured.empty());
  EXPECT_TRUE(streams.expired.empty());
  EXPECT_EQ(proxy.stats().ceis_cancelled, 1);
  EXPECT_EQ(proxy.stats().cancels_noop, 0);
  EXPECT_EQ(proxy.schedule().TotalProbes(), 0)
      << "a cancelled need must not spend probe budget";
}

TEST(ChurnRaceTest, CancelSequencedBeforeTickBeatsSameChrononExpiry) {
  Proxy proxy(2, 5, BudgetVector::Uniform(1), Mrsf());
  ProxyStreams streams;
  streams.Attach(proxy);
  // Two single-chronon needs, budget 1: without the cancel one of them
  // expires at chronon 0. Cancelling b turns its would-be expiry into a
  // cancellation and leaves a as the only candidate.
  auto a = proxy.Submit({{0, 0, 0}});
  auto b = proxy.Submit({{1, 0, 0}});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(proxy.Cancel(*b).ok());
  while (!proxy.Done()) ASSERT_TRUE(proxy.Tick().ok());
  EXPECT_EQ(streams.cancelled,
            (std::vector<std::pair<Chronon, CeiId>>{{0, *b}}));
  EXPECT_EQ(streams.captured,
            (std::vector<std::pair<Chronon, CeiId>>{{0, *a}}));
  EXPECT_TRUE(streams.expired.empty());
  EXPECT_EQ(proxy.stats().ceis_expired, 0);
}

TEST(ChurnRaceTest, CancelAfterCaptureIsARecordedNoop) {
  Proxy proxy(1, 5, BudgetVector::Uniform(1), Mrsf());
  ProxyStreams streams;
  streams.Attach(proxy);
  auto id = proxy.Submit({{0, 0, 3}});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(proxy.Tick().ok());  // captured at chronon 0
  ASSERT_EQ(streams.captured.size(), 1u);
  // The mailbox cannot see scheduler state, so the cancel is accepted; it
  // drains at chronon 1, finds the need terminal, and becomes a no-op.
  ASSERT_TRUE(proxy.Cancel(*id).ok());
  while (!proxy.Done()) ASSERT_TRUE(proxy.Tick().ok());
  EXPECT_TRUE(streams.cancelled.empty())
      << "no-op cancels must not fire the cancelled callback";
  EXPECT_EQ(proxy.stats().cancels_noop, 1);
  EXPECT_EQ(proxy.stats().ceis_cancelled, 0);
  EXPECT_EQ(proxy.ingestion_stats().cancels_accepted, 1);
}

TEST(ChurnRaceTest, CancelAfterExpiryIsARecordedNoop) {
  Proxy proxy(2, 5, BudgetVector::Uniform(1), Mrsf());
  ProxyStreams streams;
  streams.Attach(proxy);
  auto a = proxy.Submit({{0, 0, 0}});
  auto b = proxy.Submit({{1, 0, 0}});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(proxy.Tick().ok());  // one captures, the other expires
  ASSERT_EQ(streams.expired.size(), 1u);
  const CeiId dead = streams.expired[0].second;
  ASSERT_TRUE(proxy.Cancel(dead).ok());
  while (!proxy.Done()) ASSERT_TRUE(proxy.Tick().ok());
  EXPECT_TRUE(streams.cancelled.empty());
  EXPECT_EQ(proxy.stats().cancels_noop, 1);
  EXPECT_EQ(proxy.stats().ceis_cancelled, 0);
}

TEST(ChurnRaceTest, SubmitAndCancelInTheSameDrainBatch) {
  // Both events drain at chronon 0: the need is admitted and removed in
  // one batch, exercising the same-batch bookkeeping for both the
  // direct-admit (start == now) and pending-ring (start > now) paths.
  for (const Chronon start : {0, 2}) {
    Proxy proxy(1, 6, BudgetVector::Uniform(1), Mrsf());
    ProxyStreams streams;
    streams.Attach(proxy);
    auto id = proxy.Submit({{0, start, 5}});
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(proxy.Cancel(*id).ok());
    while (!proxy.Done()) ASSERT_TRUE(proxy.Tick().ok());
    EXPECT_EQ(streams.cancelled,
              (std::vector<std::pair<Chronon, CeiId>>{{0, *id}}))
        << "start " << start;
    EXPECT_TRUE(streams.captured.empty());
    EXPECT_TRUE(streams.expired.empty());
    EXPECT_EQ(proxy.schedule().TotalProbes(), 0) << "start " << start;
    EXPECT_EQ(proxy.stats().ceis_cancelled, 1) << "start " << start;
  }
}

// ---------------------------------------------------------------------------
// Negative paths: mailbox-side validation and scheduler-side guards.
// ---------------------------------------------------------------------------

TEST(ChurnCancelValidationTest, UnknownIdRejectedWithoutLogging) {
  Proxy proxy(1, 5, BudgetVector::Uniform(1), Mrsf());
  EXPECT_EQ(proxy.Cancel(42).code(), StatusCode::kNotFound);
  auto id = proxy.Submit({{0, 0, 4}});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(proxy.Cancel(*id + 1).code(), StatusCode::kNotFound);
  while (!proxy.Done()) ASSERT_TRUE(proxy.Tick().ok());
  EXPECT_EQ(proxy.ingestion_stats().cancels_rejected, 2);
  EXPECT_EQ(proxy.ingestion_stats().cancels_accepted, 0);
  ASSERT_EQ(proxy.arrival_log().size(), 1u);
  EXPECT_EQ(proxy.arrival_log()[0].kind, ArrivalKind::kSubmit);
}

TEST(ChurnCancelValidationTest, DoubleCancelRejectedEvenBeforeDraining) {
  Proxy proxy(1, 5, BudgetVector::Uniform(1), Mrsf());
  auto id = proxy.Submit({{0, 2, 4}});
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(proxy.Cancel(*id).ok());
  // The duplicate is refused under the mailbox lock, before either cancel
  // has drained — the log never carries two cancel records for one id.
  EXPECT_EQ(proxy.Cancel(*id).code(), StatusCode::kFailedPrecondition);
  while (!proxy.Done()) ASSERT_TRUE(proxy.Tick().ok());
  EXPECT_EQ(proxy.Cancel(*id).code(), StatusCode::kOutOfRange)
      << "a finished epoch rejects cancels outright";
  EXPECT_EQ(proxy.ingestion_stats().cancels_accepted, 1);
  EXPECT_EQ(proxy.ingestion_stats().cancels_rejected, 2);
  int cancel_records = 0;
  for (const ArrivalEvent& event : proxy.arrival_log()) {
    if (event.kind == ArrivalKind::kCancel) ++cancel_records;
  }
  EXPECT_EQ(cancel_records, 1);
}

TEST(ChurnCancelValidationTest, CancelFromCapturedCallbackLandsNextChronon) {
  Proxy proxy(2, 8, BudgetVector::Uniform(1), Mrsf());
  ProxyStreams streams;
  streams.Attach(proxy);
  auto doomed = proxy.Submit({{1, 4, 7}});
  ASSERT_TRUE(doomed.ok());
  Status from_callback = Status::OK();
  bool fired = false;
  proxy.set_on_cei_captured([&](CeiId) {
    fired = true;
    // Reentrant cancel from inside Tick(): lands in the mailbox and takes
    // effect at the NEXT chronon — never a deadlock.
    from_callback = proxy.Cancel(*doomed);
  });
  ASSERT_TRUE(proxy.Submit({{0, 0, 2}}).ok());
  ASSERT_TRUE(proxy.Tick().ok());  // captures the trigger at chronon 0
  ASSERT_TRUE(fired);
  EXPECT_TRUE(from_callback.ok()) << from_callback;
  EXPECT_TRUE(streams.cancelled.empty())
      << "the cancel must not take effect inside the capturing tick";
  while (!proxy.Done()) ASSERT_TRUE(proxy.Tick().ok());
  EXPECT_EQ(streams.cancelled,
            (std::vector<std::pair<Chronon, CeiId>>{{1, *doomed}}));
  EXPECT_EQ(proxy.schedule().ProbesOf(1), std::vector<Chronon>{})
      << "the doomed need was cancelled before its window opened";
}

TEST(ChurnSchedulerTest, RemoveCeiValidation) {
  auto policy = MakePolicy("s-edf", 3);
  ASSERT_TRUE(policy.ok());
  OnlineScheduler scheduler(4, 10, BudgetVector::Uniform(1), policy->get());
  Cei cei;
  cei.id = 7;
  cei.arrival = 0;
  ExecutionInterval ei;
  ei.id = 0;
  ei.resource = 0;
  ei.start = 2;
  ei.finish = 5;
  cei.eis.push_back(ei);
  ASSERT_TRUE(scheduler.AddArrival(&cei, 0).ok());

  EXPECT_EQ(scheduler.RemoveCei(99, 0).code(), StatusCode::kNotFound);
  EXPECT_EQ(scheduler.RemoveCei(7, -1).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(scheduler.RemoveCei(7, 10).code(), StatusCode::kOutOfRange);
  ASSERT_TRUE(scheduler.Step(0, nullptr, nullptr).ok());
  EXPECT_EQ(scheduler.RemoveCei(7, 0).code(),
            StatusCode::kFailedPrecondition)
      << "cancels must precede the Step for their chronon";
  EXPECT_TRUE(scheduler.RemoveCei(7, 1).ok());
  EXPECT_EQ(scheduler.LifecycleOf(7), CeiLifecycle::kCancelled);
  EXPECT_EQ(scheduler.LifecycleOf(99), CeiLifecycle::kUnknown);
  // A second direct cancel finds a terminal CEI: deterministic no-op.
  EXPECT_TRUE(scheduler.RemoveCei(7, 1).ok());
  EXPECT_EQ(scheduler.stats().ceis_cancelled, 1);
  EXPECT_EQ(scheduler.stats().cancels_noop, 1);
}

TEST(ChurnSchedulerTest, LifecycleAuditCoversEveryTerminalState) {
  auto policy = MakePolicy("s-edf", 3);
  ASSERT_TRUE(policy.ok());
  OnlineScheduler scheduler(2, 10, BudgetVector::Uniform(1), policy->get());
  std::vector<Cei> ceis(4);
  // id 0: captured at chronon 0. id 1: expires at chronon 0 (loses the
  // budget race). id 2: cancelled at chronon 2. id 3: pending throughout.
  const std::tuple<ResourceId, Chronon, Chronon> windows[4] = {
      {0, 0, 0}, {1, 0, 0}, {0, 5, 8}, {1, 6, 9}};
  for (size_t i = 0; i < ceis.size(); ++i) {
    ceis[i].id = static_cast<CeiId>(i);
    ceis[i].arrival = 0;
    ExecutionInterval ei;
    ei.id = static_cast<EiId>(i);
    ei.resource = std::get<0>(windows[i]);
    ei.start = std::get<1>(windows[i]);
    ei.finish = std::get<2>(windows[i]);
    ceis[i].eis.push_back(ei);
    ASSERT_TRUE(scheduler.AddArrival(&ceis[i], 0).ok());
  }
  ASSERT_TRUE(scheduler.Step(0, nullptr, nullptr).ok());
  ASSERT_TRUE(scheduler.Step(1, nullptr, nullptr).ok());
  ASSERT_TRUE(scheduler.RemoveCei(2, 2).ok());
  ASSERT_TRUE(scheduler.Step(2, nullptr, nullptr).ok());

  EXPECT_EQ(scheduler.LifecycleOf(0), CeiLifecycle::kCaptured);
  EXPECT_EQ(scheduler.LifecycleOf(1), CeiLifecycle::kExpired);
  EXPECT_EQ(scheduler.LifecycleOf(2), CeiLifecycle::kCancelled);
  EXPECT_EQ(scheduler.LifecycleOf(3), CeiLifecycle::kPending);
  EXPECT_EQ(scheduler.LifecycleOf(42), CeiLifecycle::kUnknown);
  // Every id stays mapped (terminal ones for this audit), so none can be
  // registered again.
  for (const Cei& cei : ceis) {
    EXPECT_EQ(scheduler.AddArrival(&cei, 3).code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(scheduler.LifecycleOf(0), CeiLifecycle::kCaptured);
  EXPECT_EQ(scheduler.stats().ceis_seen, 4);

  for (Chronon t = 3; t < 10; ++t) {
    ASSERT_TRUE(scheduler.Step(t, nullptr, nullptr).ok());
  }
  EXPECT_EQ(scheduler.LifecycleOf(3), CeiLifecycle::kCaptured);
  EXPECT_EQ(scheduler.stats().ceis_seen,
            scheduler.stats().ceis_captured + scheduler.stats().ceis_expired +
                scheduler.stats().ceis_cancelled);
}

TEST(ChurnAccountingTest, RandomizedEpochClosesExactly) {
  Rng rng(0xACC7);
  Proxy proxy(8, 60, BudgetVector::Uniform(2), Mrsf());
  ProxyStreams streams;
  streams.Attach(proxy);
  std::vector<CeiId> live;
  std::set<CeiId> ever_cancelled;
  int64_t accepted_cancels = 0;
  while (!proxy.Done()) {
    const Chronon t = proxy.now();
    for (int s = 0; s < 3; ++s) {
      if (t >= 50) break;  // leave room for every window inside the epoch
      const auto r = static_cast<ResourceId>(rng.UniformU64(8));
      const Chronon start = t + static_cast<Chronon>(rng.UniformU64(4));
      const Chronon finish =
          std::min<Chronon>(start + static_cast<Chronon>(rng.UniformU64(6)),
                            59);
      auto id = proxy.Submit({{r, start, finish}});
      ASSERT_TRUE(id.ok());
      live.push_back(*id);
    }
    if (!live.empty() && rng.Bernoulli(0.5)) {
      // Cancel a random previously submitted id exactly once; the target
      // may already be captured or expired (the accepted-but-no-op path).
      const size_t pick = rng.UniformU64(live.size());
      const CeiId victim = live[pick];
      if (ever_cancelled.insert(victim).second) {
        ASSERT_TRUE(proxy.Cancel(victim).ok());
        ++accepted_cancels;
      }
    }
    ASSERT_TRUE(proxy.Tick().ok());
  }
  const SchedulerStats& stats = proxy.stats();
  const IngestionStats ingestion = proxy.ingestion_stats();
  // Every need reaches exactly one terminal state, and every accepted
  // cancel is accounted as either a removal or a no-op.
  EXPECT_EQ(stats.ceis_seen, stats.ceis_captured + stats.ceis_expired +
                                 stats.ceis_cancelled);
  EXPECT_EQ(ingestion.cancels_accepted, accepted_cancels);
  EXPECT_EQ(ingestion.cancels_accepted,
            stats.ceis_cancelled + stats.cancels_noop);
  EXPECT_EQ(static_cast<int64_t>(streams.cancelled.size()),
            stats.ceis_cancelled);
  EXPECT_GT(stats.ceis_cancelled, 0) << "the fuzz never removed a live need";
  EXPECT_GT(stats.cancels_noop, 0) << "the fuzz never raced a terminal need";
  std::set<CeiId> decided;
  for (const auto& [t, id] : streams.captured) {
    ASSERT_TRUE(decided.insert(id).second);
  }
  for (const auto& [t, id] : streams.expired) {
    ASSERT_TRUE(decided.insert(id).second);
  }
  for (const auto& [t, id] : streams.cancelled) {
    ASSERT_TRUE(decided.insert(id).second);
  }
  EXPECT_EQ(static_cast<int64_t>(decided.size()), stats.ceis_seen);
}

// ---------------------------------------------------------------------------
// Fault layer: cancelling the needs behind a failing resource stops the
// retry spend, but the resource's health history is retained — it
// describes the resource, not the need.
// ---------------------------------------------------------------------------

TEST(ChurnFaultTest, CancelStopsRetrySpendButRetainsResourceHealth) {
  FaultSpec spec;
  spec.defaults.transient_error_prob = 1.0;  // the resource never answers
  FaultInjector injector(spec, 2, 0xFEED);
  SchedulerOptions options;
  options.fault_injector = &injector;
  auto policy = MakePolicy("s-edf", 7);
  ASSERT_TRUE(policy.ok());
  Proxy proxy(2, 40, BudgetVector::Uniform(1), std::move(*policy), options);
  ProxyStreams streams;
  streams.Attach(proxy);
  auto id = proxy.Submit({{0, 0, 39}});
  ASSERT_TRUE(id.ok());
  for (int t = 0; t < 20; ++t) ASSERT_TRUE(proxy.Tick().ok());
  const size_t attempts_before_cancel = proxy.attempt_log().size();
  const ResourceHealth health_before_cancel = proxy.health(0);
  ASSERT_GT(attempts_before_cancel, 0u);
  ASSERT_GT(health_before_cancel.failures, 0);

  ASSERT_TRUE(proxy.Cancel(*id).ok());
  while (!proxy.Done()) ASSERT_TRUE(proxy.Tick().ok());

  EXPECT_EQ(proxy.attempt_log().size(), attempts_before_cancel)
      << "no candidates remain after the cancel, so no attempt (retry or "
         "otherwise) may be issued";
  EXPECT_EQ(proxy.stats().ceis_cancelled, 1);
  EXPECT_EQ(streams.cancelled.size(), 1u);
  const ResourceHealth health_after = proxy.health(0);
  EXPECT_EQ(health_after.failures, health_before_cancel.failures)
      << "cancelling the need must not erase the resource's failure "
         "history";
  EXPECT_EQ(health_after.successes, health_before_cancel.successes);
  EXPECT_GT(health_after.ewma_failure, 0.0)
      << "the EWMA failure estimate is retained across the cancel";
}

// ---------------------------------------------------------------------------
// Concurrent churn soak: 20k chronons of multi-threaded submit/push/cancel
// traffic, then a serial replay of the recorded log reproduces the run
// byte for byte. The asan fault-soak and tsan CI jobs run this suite.
// ---------------------------------------------------------------------------

TEST(ChurnSoakTest, TwentyThousandChrononsOfConcurrentChurn) {
  IngestionDriverOptions options;
  options.num_resources = 32;
  options.horizon = 20000;
  options.budget = 2;
  options.producer_threads = 4;
  options.events_per_producer = 5000;
  options.push_prob = 0.08;
  options.cancel_prob = 0.25;
  options.seed = 0x0C4A;

  auto policy = MakePolicy("s-edf", 17);
  ASSERT_TRUE(policy.ok());
  auto run = RunConcurrentIngestion(std::move(*policy), options);
  ASSERT_TRUE(run.ok()) << run.status();

  EXPECT_GT(run->ingestion.cancels_accepted, 500)
      << "the churn lanes barely cancelled anything";
  EXPECT_GT(run->stats.ceis_cancelled, 0);
  EXPECT_EQ(run->ingestion.cancels_accepted,
            run->stats.ceis_cancelled + run->stats.cancels_noop);
  EXPECT_EQ(run->stats.ceis_seen,
            run->stats.ceis_captured + run->stats.ceis_expired +
                run->stats.ceis_cancelled);
  EXPECT_EQ(static_cast<int64_t>(run->cancelled.size()),
            run->stats.ceis_cancelled);
  std::set<CeiId> decided;
  for (const auto& [t, id] : run->captured) {
    ASSERT_TRUE(decided.insert(id).second);
  }
  for (const auto& [t, id] : run->expired) {
    ASSERT_TRUE(decided.insert(id).second);
  }
  for (const auto& [t, id] : run->cancelled) {
    ASSERT_TRUE(decided.insert(id).second);
  }
  EXPECT_EQ(static_cast<int64_t>(decided.size()), run->stats.ceis_seen);

  // The recorded log (cancel records included) is structurally sound,
  // round-trips through the text format, and replays to the identical run.
  EXPECT_TRUE(AuditArrivalLog(run->log).ok());
  auto parsed = ParseArrivalLog(SerializeArrivalLog(run->log));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, run->log);
  auto replay_policy = MakePolicy("s-edf", 17);
  ASSERT_TRUE(replay_policy.ok());
  const Status identical =
      VerifyReplayIdentity(*run, std::move(*replay_policy), options);
  EXPECT_TRUE(identical.ok()) << identical;
}

// ---------------------------------------------------------------------------
// Terminal-state compaction (SchedulerOptions::compact_terminal_states):
// under sustained churn the resident per-CEI state must track the LIVE
// population, not total arrivals — the week-scale memory gap
// docs/PERFORMANCE.md records — while leaving every observable of the run
// byte-identical to the uncompacted scheduler.
// ---------------------------------------------------------------------------

namespace {

struct CompactionRun {
  std::vector<std::pair<Chronon, CeiId>> captured;
  std::vector<std::pair<Chronon, CeiId>> expired;
  std::vector<std::pair<Chronon, CeiId>> cancelled;
  SchedulerStats stats;
  std::string arrival_log;
  std::vector<std::vector<Chronon>> probes_of;  // schedule, per resource
  size_t peak_resident = 0;
  size_t final_resident = 0;
  int64_t total_arrivals = 0;
};

// One chronon-paced churn epoch through the Proxy: `arrivals` CEIs join
// each chronon with `window`-wide EIs, and a deterministic sample of
// recent arrivals is cancelled — some mid-flight, some already terminal
// (no-op cancels), both paths the retire machinery must handle.
CompactionRun RunChurnEpoch(bool compact, uint32_t num_resources,
                            Chronon horizon, int arrivals, Chronon window,
                            uint64_t seed) {
  SchedulerOptions options;
  options.compact_terminal_states = compact;
  auto policy = MakePolicy("mrsf", seed);
  EXPECT_TRUE(policy.ok());
  Proxy proxy(num_resources, horizon, BudgetVector::Uniform(2),
              std::move(*policy), options);
  ProxyStreams streams;
  streams.Attach(proxy);
  Rng rng(seed);
  CompactionRun run;
  std::vector<CeiId> recent;
  for (Chronon t = 0; t < horizon; ++t) {
    for (int a = 0; a < arrivals; ++a) {
      const int rank = 1 + static_cast<int>(rng.UniformU64(2));
      std::vector<std::tuple<ResourceId, Chronon, Chronon>> eis;
      for (int e = 0; e < rank; ++e) {
        eis.emplace_back(
            static_cast<ResourceId>(rng.UniformU64(num_resources)), t,
            std::min<Chronon>(t + window - 1, horizon - 1));
      }
      auto id = proxy.Submit(eis);
      EXPECT_TRUE(id.ok());
      run.total_arrivals++;
      recent.push_back(*id);
      if (recent.size() > 64) recent.erase(recent.begin());
    }
    if (t % 3 == 1 && !recent.empty()) {
      const size_t pick = rng.UniformU64(recent.size());
      const CeiId victim = recent[pick];
      recent.erase(recent.begin() + static_cast<ptrdiff_t>(pick));
      EXPECT_TRUE(proxy.Cancel(victim).ok());
    }
    EXPECT_TRUE(proxy.Tick().ok());
    run.peak_resident = std::max(run.peak_resident,
                                 proxy.num_resident_states());
  }
  run.captured = streams.captured;
  run.expired = streams.expired;
  run.cancelled = streams.cancelled;
  run.stats = proxy.stats();
  run.arrival_log = SerializeArrivalLog(proxy.arrival_log());
  for (ResourceId r = 0; r < num_resources; ++r) {
    run.probes_of.push_back(proxy.schedule().ProbesOf(r));
  }
  run.final_resident = proxy.num_resident_states();
  return run;
}

}  // namespace

TEST(ChurnCompactionTest, BoundedFootprintUnderSustainedChurn) {
  constexpr Chronon kHorizon = 4000;
  constexpr int kArrivals = 4;
  constexpr Chronon kWindow = 8;
  const CompactionRun run =
      RunChurnEpoch(/*compact=*/true, /*num_resources=*/16, kHorizon,
                    kArrivals, kWindow, /*seed=*/0xC0DE);
  EXPECT_EQ(run.total_arrivals, kHorizon * kArrivals);
  // Every CEI is terminal (captured, expired, or cancelled) within its
  // window, and the retire pass frees the slot once its last indexed
  // chronon drains — so the resident set tracks the live population
  // (arrivals x window), not the 16k total arrivals.
  const size_t live_bound = static_cast<size_t>(kArrivals) * (kWindow + 2);
  EXPECT_LE(run.peak_resident, live_bound)
      << "compaction failed to keep the resident set near the live "
         "population";
  EXPECT_LE(run.final_resident, live_bound);
  // Sanity: the epoch really churned.
  EXPECT_GT(run.stats.ceis_cancelled, 0);
  EXPECT_GT(run.stats.ceis_captured, 0);
  EXPECT_GT(run.stats.ceis_expired, 0);
}

TEST(ChurnCompactionTest, UncompactedSchedulerRetainsEveryArrival) {
  const CompactionRun run =
      RunChurnEpoch(/*compact=*/false, /*num_resources=*/16,
                    /*horizon=*/500, /*arrivals=*/4, /*window=*/8,
                    /*seed=*/0xC0DE);
  EXPECT_EQ(run.final_resident, static_cast<size_t>(run.total_arrivals))
      << "without compaction the resident set is total arrivals — the "
         "regression this suite pins";
}

TEST(ChurnCompactionTest, CompactionPreservesEveryObservable) {
  for (const uint64_t seed : {1u, 0xC0DEu}) {
    const CompactionRun off =
        RunChurnEpoch(false, 16, 600, 3, 8, seed);
    const CompactionRun on =
        RunChurnEpoch(true, 16, 600, 3, 8, seed);
    EXPECT_EQ(on.captured, off.captured);
    EXPECT_EQ(on.expired, off.expired);
    EXPECT_EQ(on.cancelled, off.cancelled);
    EXPECT_EQ(on.probes_of, off.probes_of);
    EXPECT_EQ(on.arrival_log, off.arrival_log);
    EXPECT_EQ(on.stats.ceis_seen, off.stats.ceis_seen);
    EXPECT_EQ(on.stats.ceis_captured, off.stats.ceis_captured);
    EXPECT_EQ(on.stats.ceis_expired, off.stats.ceis_expired);
    EXPECT_EQ(on.stats.ceis_cancelled, off.stats.ceis_cancelled);
    EXPECT_EQ(on.stats.cancels_noop, off.stats.cancels_noop);
    EXPECT_EQ(on.stats.eis_captured, off.stats.eis_captured);
    EXPECT_EQ(on.stats.probes_issued, off.stats.probes_issued);
    EXPECT_EQ(on.stats.pushes_delivered, off.stats.pushes_delivered);
    EXPECT_LT(on.final_resident, off.final_resident);
  }
}

TEST(ChurnCompactionTest, CancelOfRetiredCeiIsARecordedNoop) {
  SchedulerOptions options;
  options.compact_terminal_states = true;
  Proxy proxy(1, 10, BudgetVector::Uniform(1), Mrsf(), options);
  ProxyStreams streams;
  streams.Attach(proxy);
  auto id = proxy.Submit({{0, 0, 1}});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(proxy.Tick().ok());  // captured at chronon 0
  ASSERT_TRUE(proxy.Tick().ok());  // chronon 1: the retire pass frees it
  ASSERT_EQ(streams.captured.size(), 1u);
  EXPECT_EQ(proxy.num_resident_states(), 0u);
  // A straggler cancel for the retired id drains as a deterministic no-op,
  // exactly like a cancel of a merely-terminal CEI.
  ASSERT_TRUE(proxy.Cancel(*id).ok());
  while (!proxy.Done()) ASSERT_TRUE(proxy.Tick().ok());
  EXPECT_TRUE(streams.cancelled.empty());
  EXPECT_EQ(proxy.stats().cancels_noop, 1);
  EXPECT_EQ(proxy.stats().ceis_cancelled, 0);
}

}  // namespace
}  // namespace webmon
