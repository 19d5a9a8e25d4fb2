// Long-haul concurrent ingestion soak (companion to fault_soak_test): four
// producer threads stream randomized needs and pushes into a ticking proxy
// for 20k chronons under a flaky network, with randomized yields to vary the
// interleaving. At the end the run's accounting must close exactly and the
// recorded arrival log, replayed serially, must reproduce the whole run.
// The asan fault-soak CI job runs this suite.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "faults/fault_model.h"
#include "online/proxy.h"
#include "policy/policy_factory.h"
#include "util/rng.h"

namespace webmon {
namespace {

constexpr uint32_t kResources = 32;
constexpr Chronon kHorizon = 20000;
constexpr int kProducers = 4;
constexpr int64_t kQuota = 6000;  // events per producer

FaultSpec SoakSpec() {
  FaultSpec spec;
  spec.defaults.transient_error_prob = 0.1;
  spec.defaults.timeout_prob = 0.03;
  spec.defaults.outage_enter_prob = 0.01;
  spec.defaults.outage_exit_prob = 0.2;
  return spec;
}

// Event i of a producer is released once the clock reaches a chronon t with
// i * kHorizon < (t + 1) * kQuota; the ticker waits for the matching count
// before each chronon. Same formula on both sides, so neither starves.
bool Released(int64_t i, Chronon t) { return i * kHorizon < (t + 1) * kQuota; }

int64_t ReleasedCount(Chronon t) {
  return std::min<int64_t>(kQuota, ((t + 1) * kQuota - 1) / kHorizon + 1);
}

TEST(IngestionSoakTest, TwentyThousandChrononsOfConcurrentStreaming) {
  const uint64_t seed = 0x50AC;
  auto policy = MakePolicy("s-edf", 17);
  ASSERT_TRUE(policy.ok());
  FaultInjector injector(SoakSpec(), kResources, seed);
  SchedulerOptions options;
  options.fault_injector = &injector;
  Proxy proxy(kResources, kHorizon, BudgetVector::Uniform(2),
              std::move(*policy), options);

  std::vector<std::pair<Chronon, CeiId>> captured;
  std::vector<std::pair<Chronon, CeiId>> expired;
  proxy.set_on_cei_captured(
      [&](CeiId id) { captured.emplace_back(proxy.now(), id); });
  proxy.set_on_cei_expired(
      [&](CeiId id) { expired.emplace_back(proxy.now(), id); });

  std::atomic<int64_t> accepted_by_producers{0};
  std::atomic<int64_t> events{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(seed ^ (0xBEEF0000ULL + static_cast<uint64_t>(p)));
      for (int64_t i = 0; i < kQuota; ++i) {
        // Spread the quota across the epoch (the ticker waits for this
        // chronon's share below, so the whole stream lands inside the run).
        while (!Released(i, proxy.now())) std::this_thread::yield();
        const Chronon base = proxy.now();
        if (rng.Bernoulli(0.08)) {
          auto st = proxy.Push(
              static_cast<ResourceId>(rng.UniformU64(kResources)));
          EXPECT_TRUE(st.ok() || st.code() == StatusCode::kOutOfRange);
          if (st.ok()) accepted_by_producers.fetch_add(1);
        } else {
          std::vector<std::tuple<ResourceId, Chronon, Chronon>> eis;
          const uint64_t rank = 1 + rng.UniformU64(3);
          for (uint64_t e = 0; e < rank; ++e) {
            const auto r =
                static_cast<ResourceId>(rng.UniformU64(kResources));
            const Chronon s = base + static_cast<Chronon>(rng.UniformU64(6));
            eis.emplace_back(r, s,
                             s + static_cast<Chronon>(rng.UniformU64(12)));
          }
          auto id = proxy.Submit(
              eis, 0.5 + rng.UniformDouble(),
              static_cast<uint32_t>(
                  rng.UniformU64(static_cast<uint64_t>(rank) + 1)));
          EXPECT_TRUE(id.ok() ||
                      id.status().code() == StatusCode::kInvalidArgument ||
                      id.status().code() == StatusCode::kOutOfRange);
          if (id.ok()) accepted_by_producers.fetch_add(1);
        }
        events.fetch_add(1, std::memory_order_release);
        if (rng.Bernoulli(0.25)) std::this_thread::yield();
      }
    });
  }

  while (!proxy.Done()) {
    const int64_t want =
        static_cast<int64_t>(kProducers) * ReleasedCount(proxy.now());
    while (events.load(std::memory_order_acquire) < want) {
      std::this_thread::yield();
    }
    ASSERT_TRUE(proxy.Tick().ok());
  }
  for (auto& thread : producers) thread.join();

  // Accounting closes: every accepted event is in the log exactly once,
  // ids are dense, every need is decided exactly once.
  const IngestionStats& ingestion = proxy.ingestion_stats();
  const SchedulerStats& stats = proxy.stats();
  EXPECT_EQ(accepted_by_producers.load(),
            ingestion.submits_accepted + ingestion.pushes_accepted);
  EXPECT_GT(ingestion.submits_accepted, kQuota)
      << "soak should accept most of the stream";
  int64_t submits = 0;
  CeiId expected_id = 0;
  uint64_t prev_seq = 0;
  const ArrivalLog log = proxy.arrival_log();
  for (size_t i = 0; i < log.size(); ++i) {
    const ArrivalEvent& event = log[i];
    if (i > 0) {
      ASSERT_GT(event.seq, prev_seq);
    }
    prev_seq = event.seq;
    if (event.kind == ArrivalKind::kSubmit) {
      ++submits;
      ASSERT_EQ(event.assigned_id, expected_id++);
    }
  }
  EXPECT_EQ(submits, ingestion.submits_accepted);
  EXPECT_EQ(stats.ceis_seen, ingestion.submits_accepted);
  EXPECT_EQ(stats.drained_arrivals, ingestion.submits_accepted);
  std::set<CeiId> decided;
  for (const auto& [t, id] : captured) ASSERT_TRUE(decided.insert(id).second);
  for (const auto& [t, id] : expired) ASSERT_TRUE(decided.insert(id).second);
  EXPECT_EQ(static_cast<int64_t>(decided.size()), stats.ceis_seen);
  EXPECT_GT(stats.probes_failed, 0) << "the flaky network never fired";

  // Serial replay of the full 20k-chronon log.
  auto replay_policy = MakePolicy("s-edf", 17);
  ASSERT_TRUE(replay_policy.ok());
  FaultInjector replay_injector(SoakSpec(), kResources, seed);
  SchedulerOptions replay_options;
  replay_options.fault_injector = &replay_injector;
  auto replay = ReplayArrivalLog(log, kResources, kHorizon,
                                 BudgetVector::Uniform(2),
                                 std::move(*replay_policy), replay_options);
  ASSERT_TRUE(replay.ok()) << replay.status();
  for (ResourceId r = 0; r < kResources; ++r) {
    ASSERT_EQ(proxy.schedule().ProbesOf(r), replay->schedule.ProbesOf(r))
        << "resource " << r;
  }
  EXPECT_EQ(stats.probes_issued, replay->stats.probes_issued);
  EXPECT_EQ(stats.eis_captured, replay->stats.eis_captured);
  EXPECT_EQ(stats.ceis_captured, replay->stats.ceis_captured);
  EXPECT_EQ(stats.ceis_expired, replay->stats.ceis_expired);
  EXPECT_EQ(stats.probes_failed, replay->stats.probes_failed);
  EXPECT_EQ(stats.breaker_trips, replay->stats.breaker_trips);
  EXPECT_EQ(captured, replay->captured);
  EXPECT_EQ(expired, replay->expired);
  ASSERT_EQ(proxy.attempt_log().size(), replay->attempts.size());
  for (size_t i = 0; i < replay->attempts.size(); ++i) {
    ASSERT_TRUE(proxy.attempt_log()[i] == replay->attempts[i])
        << "attempt " << i;
  }
}

}  // namespace
}  // namespace webmon
