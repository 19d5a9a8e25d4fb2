// Determinism contract of concurrent Proxy ingestion (docs/CONCURRENCY.md):
// N producer threads Submit()/Push() against a ticking proxy; the recorded
// arrival log replayed serially must reproduce the run byte for byte — same
// probe stream per resource, same stats, same capture/expiry callback
// streams, same attempt log — for every policy, both preemption modes, with
// and without fault injection, at 1/2/4/8 producer threads. The tsan CI job
// runs this suite (plus the stress test below) to certify the mailbox and
// the tick path race-free under real producer contention.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <string>
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

constexpr uint32_t kResources = 12;
constexpr Chronon kHorizon = 60;
constexpr int64_t kBudget = 2;
constexpr int64_t kPerProducer = 40;

FaultSpec FlakySpec() {
  FaultSpec spec;
  spec.defaults.transient_error_prob = 0.2;
  spec.defaults.timeout_prob = 0.05;
  spec.defaults.outage_enter_prob = 0.04;
  spec.defaults.outage_exit_prob = 0.3;
  return spec;
}

// Event i of a producer is released once the proxy clock reaches chronon t
// with i * kHorizon < (t + 1) * kPerProducer — i.e. each producer's quota is
// spread evenly across the epoch. The ticker below waits for the matching
// count before executing each chronon, so both sides use the same formula
// and neither can starve the other.
bool Released(int64_t i, Chronon t) { return i * kHorizon < (t + 1) * kPerProducer; }

int64_t ReleasedCount(Chronon t) {
  return std::min<int64_t>(kPerProducer,
                           ((t + 1) * kPerProducer - 1) / kHorizon + 1);
}

// Everything a concurrent run produces that the serial replay must match.
struct RunRecord {
  std::vector<std::vector<Chronon>> probes;  // per resource, in probe order
  SchedulerStats stats;
  IngestionStats ingestion;
  ArrivalLog log;
  std::vector<ProbeAttempt> attempts;
  std::vector<std::pair<Chronon, CeiId>> captured;
  std::vector<std::pair<Chronon, CeiId>> expired;
  double completeness = 0.0;
};

// One deterministic producer payload step: mostly valid needs anchored just
// ahead of the live clock, a few pushes, and an occasional intentionally
// invalid submission (rejections must not disturb the log or id stream).
void ProduceOne(Proxy& proxy, Rng& rng) {
  const Chronon base = proxy.now();
  const double kind = rng.UniformDouble();
  if (kind < 0.12) {
    const auto r = static_cast<ResourceId>(rng.UniformU64(kResources));
    EXPECT_TRUE(proxy.Push(r).ok());
    return;
  }
  if (kind < 0.20) {
    // Invalid on purpose: reversed window, unknown resource, or an
    // impossible `required`. Rejected under the mailbox lock; consumes no id.
    const uint64_t bad = rng.UniformU64(3);
    StatusOr<CeiId> id =
        bad == 0   ? proxy.Submit({{0, base + 5, base + 1}})
        : bad == 1 ? proxy.Submit({{kResources + 7, base, base + 4}})
                   : proxy.Submit({{0, base, base + 4}}, 1.0, 9);
    EXPECT_FALSE(id.ok());
    return;
  }
  std::vector<std::tuple<ResourceId, Chronon, Chronon>> eis;
  const uint64_t rank = 1 + rng.UniformU64(3);
  for (uint64_t e = 0; e < rank; ++e) {
    const auto r = static_cast<ResourceId>(rng.UniformU64(kResources));
    const Chronon s = base + static_cast<Chronon>(rng.UniformU64(5));
    const Chronon f = s + static_cast<Chronon>(rng.UniformU64(7));
    eis.emplace_back(r, s, f);
  }
  const double weight = 0.5 + rng.UniformDouble();
  const auto required =
      static_cast<uint32_t>(rng.UniformU64(static_cast<uint64_t>(rank) + 1));
  auto id = proxy.Submit(eis, weight, required);
  // The only legitimate rejection of a now-anchored need is a window pushed
  // past the horizon near the epoch's end.
  if (!id.ok()) {
    EXPECT_EQ(id.status().code(), StatusCode::kInvalidArgument);
  }
}

RunRecord RunConcurrent(const std::string& policy_name, bool preemptive,
                        bool faulty, int producers, uint64_t seed) {
  auto policy = MakePolicy(policy_name, 17);
  EXPECT_TRUE(policy.ok());
  FaultInjector injector(FlakySpec(), kResources, seed);
  SchedulerOptions options;
  options.preemptive = preemptive;
  if (faulty) options.fault_injector = &injector;
  Proxy proxy(kResources, kHorizon, BudgetVector::Uniform(kBudget),
              std::move(*policy), options);

  RunRecord record;
  proxy.set_on_cei_captured([&](CeiId id) {
    record.captured.emplace_back(proxy.now(), id);
  });
  proxy.set_on_cei_expired([&](CeiId id) {
    record.expired.emplace_back(proxy.now(), id);
  });

  std::atomic<int64_t> events{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(producers));
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&proxy, &events, seed, p] {
      Rng rng(seed ^ (0xABCD0000ULL + static_cast<uint64_t>(p)));
      for (int64_t i = 0; i < kPerProducer; ++i) {
        while (!Released(i, proxy.now())) std::this_thread::yield();
        ProduceOne(proxy, rng);
        events.fetch_add(1, std::memory_order_release);
        if (rng.Bernoulli(0.3)) std::this_thread::yield();
      }
    });
  }

  for (Chronon t = 0; t < kHorizon; ++t) {
    // Wait until every producer has played its share for this chronon, so
    // submissions interleave with ticks across the whole epoch instead of
    // racing past it.
    const int64_t want = static_cast<int64_t>(producers) * ReleasedCount(t);
    while (events.load(std::memory_order_acquire) < want) {
      std::this_thread::yield();
    }
    auto probed = proxy.Tick();
    EXPECT_TRUE(probed.ok()) << probed.status();
  }
  for (auto& thread : threads) thread.join();
  EXPECT_TRUE(proxy.Done());

  for (ResourceId r = 0; r < kResources; ++r) {
    record.probes.push_back(proxy.schedule().ProbesOf(r));
  }
  record.stats = proxy.stats();
  record.ingestion = proxy.ingestion_stats();
  record.log = proxy.arrival_log();
  record.attempts = proxy.attempt_log();
  record.completeness = proxy.CompletenessSoFar();
  return record;
}

void ExpectLogsEqual(const ArrivalLog& a, const ArrivalLog& b,
                     const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seq, b[i].seq) << label << " event " << i;
    EXPECT_EQ(a[i].effective, b[i].effective) << label << " event " << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << label << " event " << i;
    EXPECT_EQ(a[i].eis, b[i].eis) << label << " event " << i;
    EXPECT_EQ(a[i].weight, b[i].weight) << label << " event " << i;
    EXPECT_EQ(a[i].required, b[i].required) << label << " event " << i;
    EXPECT_EQ(a[i].assigned_id, b[i].assigned_id) << label << " event " << i;
    EXPECT_EQ(a[i].resource, b[i].resource) << label << " event " << i;
  }
}

// No CEI lost or double-counted: the log carries every accepted event
// exactly once, ids are dense, and every need ends captured xor expired.
void ExpectAccountingClosed(const RunRecord& run, const std::string& label) {
  int64_t submits = 0;
  int64_t pushes = 0;
  CeiId expected_id = 0;
  uint64_t prev_seq = 0;
  for (size_t i = 0; i < run.log.size(); ++i) {
    const ArrivalEvent& event = run.log[i];
    if (i > 0) {
      EXPECT_GT(event.seq, prev_seq) << label << ": log out of drain order";
    }
    prev_seq = event.seq;
    if (event.kind == ArrivalKind::kPush) {
      ++pushes;
    } else {
      ++submits;
      EXPECT_EQ(event.assigned_id, expected_id++)
          << label << ": CEI ids must be dense in sequence order";
    }
  }
  EXPECT_EQ(submits, run.ingestion.submits_accepted) << label;
  EXPECT_EQ(pushes, run.ingestion.pushes_accepted) << label;
  EXPECT_EQ(run.stats.ceis_seen, run.ingestion.submits_accepted) << label;
  EXPECT_EQ(run.stats.drained_arrivals, run.ingestion.submits_accepted)
      << label;

  std::set<CeiId> seen;
  for (const auto& [t, id] : run.captured) {
    EXPECT_TRUE(seen.insert(id).second)
        << label << ": CEI " << id << " reported twice";
    EXPECT_LT(id, expected_id) << label;
    EXPECT_GE(t, 0) << label;
  }
  for (const auto& [t, id] : run.expired) {
    EXPECT_TRUE(seen.insert(id).second)
        << label << ": CEI " << id << " both captured and expired";
    EXPECT_LT(id, expected_id) << label;
  }
  EXPECT_EQ(static_cast<int64_t>(run.captured.size()),
            run.stats.ceis_captured)
      << label;
  EXPECT_EQ(static_cast<int64_t>(run.expired.size()), run.stats.ceis_expired)
      << label;
  // The horizon closes every window, so no need is left undecided.
  EXPECT_EQ(static_cast<int64_t>(seen.size()), run.stats.ceis_seen) << label;
}

void ExpectReplayIdentical(const RunRecord& run, const ProxyReplayResult& re,
                           const std::string& label) {
  ExpectLogsEqual(run.log, re.log, label + " log");
  for (ResourceId r = 0; r < kResources; ++r) {
    EXPECT_EQ(run.probes[r], re.schedule.ProbesOf(r))
        << label << " resource " << r;
  }
  EXPECT_EQ(run.stats.probes_issued, re.stats.probes_issued) << label;
  EXPECT_EQ(run.stats.ceis_seen, re.stats.ceis_seen) << label;
  EXPECT_EQ(run.stats.eis_seen, re.stats.eis_seen) << label;
  EXPECT_EQ(run.stats.ceis_captured, re.stats.ceis_captured) << label;
  EXPECT_EQ(run.stats.ceis_expired, re.stats.ceis_expired) << label;
  EXPECT_EQ(run.stats.eis_captured, re.stats.eis_captured) << label;
  EXPECT_EQ(run.stats.pushes_delivered, re.stats.pushes_delivered) << label;
  EXPECT_EQ(run.stats.probes_failed, re.stats.probes_failed) << label;
  EXPECT_EQ(run.stats.probes_retried, re.stats.probes_retried) << label;
  EXPECT_EQ(run.stats.breaker_trips, re.stats.breaker_trips) << label;
  EXPECT_EQ(run.stats.drain_batches, re.stats.drain_batches) << label;
  EXPECT_EQ(run.stats.drained_arrivals, re.stats.drained_arrivals) << label;
  EXPECT_EQ(run.ingestion.submits_accepted, re.ingestion.submits_accepted)
      << label;
  EXPECT_EQ(run.ingestion.pushes_accepted, re.ingestion.pushes_accepted)
      << label;
  EXPECT_EQ(re.ingestion.submits_rejected, 0)
      << label << ": the log only holds accepted events";
  EXPECT_EQ(run.captured, re.captured) << label;
  EXPECT_EQ(run.expired, re.expired) << label;
  EXPECT_DOUBLE_EQ(run.completeness, re.completeness) << label;
  ASSERT_EQ(run.attempts.size(), re.attempts.size()) << label;
  for (size_t i = 0; i < run.attempts.size(); ++i) {
    EXPECT_TRUE(run.attempts[i] == re.attempts[i])
        << label << " attempt " << i;
  }
}

class ConcurrentIngestionIdentity
    : public ::testing::TestWithParam<std::tuple<std::string, bool, bool>> {};

TEST_P(ConcurrentIngestionIdentity, SerialReplayIsByteIdentical) {
  const auto& [policy_name, preemptive, faulty] = GetParam();
  const uint64_t seed = 0xC0FFEEULL ^ (preemptive ? 16 : 0) ^ (faulty ? 32 : 0);
  for (int producers : {1, 2, 4, 8}) {
    const std::string label = policy_name + (preemptive ? " P" : " NP") +
                              (faulty ? " faults" : " ideal") +
                              " producers=" + std::to_string(producers);
    const RunRecord run =
        RunConcurrent(policy_name, preemptive, faulty,
                      producers, seed + static_cast<uint64_t>(producers));
    ExpectAccountingClosed(run, label);

    auto policy = MakePolicy(policy_name, 17);
    ASSERT_TRUE(policy.ok());
    FaultInjector injector(FlakySpec(), kResources,
                           seed + static_cast<uint64_t>(producers));
    SchedulerOptions options;
    options.preemptive = preemptive;
    if (faulty) options.fault_injector = &injector;
    auto replay = ReplayArrivalLog(run.log, kResources, kHorizon,
                                   BudgetVector::Uniform(kBudget),
                                   std::move(*policy), options);
    ASSERT_TRUE(replay.ok()) << label << ": " << replay.status();
    ExpectReplayIdentical(run, *replay, label);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, ConcurrentIngestionIdentity,
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

// Replay rejects logs that violate the drain-order contract.
TEST(ConcurrentIngestionReplay, RejectsOutOfOrderLogs) {
  ArrivalLog log(2);
  log[0].seq = 5;
  log[0].effective = 3;
  log[0].eis = {{0, 3, 6}};
  log[1].seq = 4;  // sequence moves backwards
  log[1].effective = 3;
  log[1].eis = {{0, 3, 6}};
  auto policy = MakePolicy("mrsf");
  ASSERT_TRUE(policy.ok());
  auto replay = ReplayArrivalLog(log, 4, 10, BudgetVector::Uniform(1),
                                 std::move(*policy));
  EXPECT_EQ(replay.status().code(), StatusCode::kInvalidArgument);
}

TEST(ConcurrentIngestionReplay, RejectsEventsBeyondTheEpoch) {
  ArrivalLog log(1);
  log[0].seq = 0;
  log[0].effective = 99;
  log[0].eis = {{0, 99, 100}};
  auto policy = MakePolicy("mrsf");
  ASSERT_TRUE(policy.ok());
  auto replay = ReplayArrivalLog(log, 4, 10, BudgetVector::Uniform(1),
                                 std::move(*policy));
  EXPECT_EQ(replay.status().code(), StatusCode::kOutOfRange);
}

// ---------------------------------------------------------------------------
// Stress: a long epoch with loosely paced producers, capture callbacks that
// resubmit follow-up needs from inside Tick() — the workload the tsan job
// certifies race-free.
// Pacing here is best-effort (no barrier per chronon), so interleavings are
// messy on purpose; the replay identity must hold regardless.
// ---------------------------------------------------------------------------
TEST(ConcurrentIngestionStress, RacingProducersTicksAndCallbacks) {
  constexpr uint32_t kStressResources = 24;
  constexpr Chronon kStressHorizon = 6000;
  constexpr int kStressProducers = 3;
  constexpr int64_t kStressQuota = 2500;
  const uint64_t seed = 0x57E55;

  auto policy = MakePolicy("mrsf", 17);
  ASSERT_TRUE(policy.ok());
  FaultInjector injector(FlakySpec(), kStressResources, seed);
  SchedulerOptions options;
  options.fault_injector = &injector;
  Proxy proxy(kStressResources, kStressHorizon, BudgetVector::Uniform(2),
              std::move(*policy), options);

  std::vector<std::pair<Chronon, CeiId>> captured;
  std::vector<std::pair<Chronon, CeiId>> expired;
  int64_t resubmitted = 0;
  proxy.set_on_cei_captured([&](CeiId id) {
    captured.emplace_back(proxy.now(), id);
    // Reentrant ingestion: every 7th capture spawns a follow-up need from
    // inside the tick. It lands in the mailbox and takes effect next
    // chronon — replay sees it as a plain logged arrival.
    if (captured.size() % 7 == 0) {
      const Chronon base = proxy.now() + 1;
      const auto r = static_cast<ResourceId>(id % kStressResources);
      auto follow = proxy.Submit({{r, base, base + 6}}, 2.0);
      if (follow.ok()) ++resubmitted;
    }
  });
  proxy.set_on_cei_expired(
      [&](CeiId id) { expired.emplace_back(proxy.now(), id); });

  std::vector<std::thread> producers;
  for (int p = 0; p < kStressProducers; ++p) {
    producers.emplace_back([&proxy, seed, p] {
      Rng rng(seed ^ (0xF00D0000ULL + static_cast<uint64_t>(p)));
      for (int64_t i = 0; i < kStressQuota; ++i) {
        // Loose pacing: spread the quota over the epoch but never block the
        // ticker; late events are simply rejected at the horizon.
        const Chronon gate =
            static_cast<Chronon>(i * kStressHorizon / kStressQuota);
        while (proxy.now() < gate) std::this_thread::yield();
        const Chronon base = proxy.now();
        if (rng.Bernoulli(0.1)) {
          auto st = proxy.Push(
              static_cast<ResourceId>(rng.UniformU64(kStressResources)));
          EXPECT_TRUE(st.ok() || st.code() == StatusCode::kOutOfRange);
          continue;
        }
        const auto r =
            static_cast<ResourceId>(rng.UniformU64(kStressResources));
        const Chronon s = base + static_cast<Chronon>(rng.UniformU64(4));
        auto id = proxy.Submit(
            {{r, s, s + static_cast<Chronon>(rng.UniformU64(9))}},
            0.5 + rng.UniformDouble());
        EXPECT_TRUE(id.ok() ||
                    id.status().code() == StatusCode::kInvalidArgument ||
                    id.status().code() == StatusCode::kOutOfRange);
      }
    });
  }

  while (!proxy.Done()) {
    ASSERT_TRUE(proxy.Tick().ok());
    std::this_thread::yield();
  }
  for (auto& thread : producers) thread.join();

  const IngestionStats& ingestion = proxy.ingestion_stats();
  EXPECT_GT(ingestion.submits_accepted, 0);
  EXPECT_GT(resubmitted, 0) << "callback resubmission never fired";
  EXPECT_EQ(proxy.stats().ceis_seen, ingestion.submits_accepted);
  EXPECT_EQ(proxy.stats().ceis_captured + proxy.stats().ceis_expired,
            proxy.stats().ceis_seen);

  // The full-size replay: one serial pass over ~7.5k logged events.
  auto replay_policy = MakePolicy("mrsf", 17);
  ASSERT_TRUE(replay_policy.ok());
  FaultInjector replay_injector(FlakySpec(), kStressResources, seed);
  SchedulerOptions replay_options;
  replay_options.fault_injector = &replay_injector;
  auto replay =
      ReplayArrivalLog(proxy.arrival_log(), kStressResources, kStressHorizon,
                       BudgetVector::Uniform(2), std::move(*replay_policy),
                       replay_options);
  ASSERT_TRUE(replay.ok()) << replay.status();
  for (ResourceId r = 0; r < kStressResources; ++r) {
    EXPECT_EQ(proxy.schedule().ProbesOf(r), replay->schedule.ProbesOf(r))
        << "resource " << r;
  }
  EXPECT_EQ(proxy.stats().probes_issued, replay->stats.probes_issued);
  EXPECT_EQ(proxy.stats().ceis_captured, replay->stats.ceis_captured);
  EXPECT_EQ(proxy.stats().ceis_expired, replay->stats.ceis_expired);
  EXPECT_EQ(captured, replay->captured);
  EXPECT_EQ(expired, replay->expired);
}

// Regression test for the ingestion_stats() lock discipline: the accessor
// used to hand out a const reference into state the producers mutate under
// the mailbox lock, so reading it was only safe once everything quiesced.
// It now returns a by-value snapshot taken under the lock, which must be
// (a) safe to call from any thread mid-run, (b) coherent — counters only
// ever grow between snapshots — and (c) exactly equal to the producers'
// own tallies once they have joined.
TEST(ConcurrentIngestionStats, MidRunSnapshotsAreCoherentAndExactAfterJoin) {
  constexpr uint32_t kStatsResources = 8;
  constexpr Chronon kStatsHorizon = 400;
  constexpr int kStatsProducers = 3;
  constexpr int64_t kStatsQuota = 600;
  const uint64_t seed = 0x5747;

  auto policy = MakePolicy("mrsf", 17);
  ASSERT_TRUE(policy.ok());
  Proxy proxy(kStatsResources, kStatsHorizon, BudgetVector::Uniform(2),
              std::move(*policy));

  struct Tally {
    int64_t submits_accepted = 0;
    int64_t submits_rejected = 0;
    int64_t pushes_accepted = 0;
    int64_t pushes_rejected = 0;
  };
  std::vector<Tally> tallies(kStatsProducers);

  std::atomic<bool> producing{true};
  std::vector<std::thread> producers;
  for (int p = 0; p < kStatsProducers; ++p) {
    producers.emplace_back([&proxy, &tally = tallies[p], seed, p] {
      Rng rng(seed ^ (0xBEEF0000ULL + static_cast<uint64_t>(p)));
      for (int64_t i = 0; i < kStatsQuota; ++i) {
        const Chronon gate =
            static_cast<Chronon>(i * kStatsHorizon / kStatsQuota);
        while (proxy.now() < gate) std::this_thread::yield();
        if (rng.Bernoulli(0.15)) {
          // Every rejection path — bad resource or past-horizon — bumps
          // pushes_rejected, so a plain ok()/!ok() tally matches the proxy.
          const auto r = static_cast<ResourceId>(
              rng.UniformU64(kStatsResources + 2));  // sometimes invalid
          if (proxy.Push(r).ok()) {
            ++tally.pushes_accepted;
          } else {
            ++tally.pushes_rejected;
          }
          continue;
        }
        const Chronon base = proxy.now();
        const auto r =
            static_cast<ResourceId>(rng.UniformU64(kStatsResources));
        const Chronon s = base + static_cast<Chronon>(rng.UniformU64(4));
        if (proxy
                .Submit({{r, s, s + static_cast<Chronon>(rng.UniformU64(8))}},
                        0.5 + rng.UniformDouble())
                .ok()) {
          ++tally.submits_accepted;
        } else {
          ++tally.submits_rejected;
        }
      }
    });
  }

  // The reader hammers the accessor from a thread that owns no other lock
  // while producers and the ticker are live. Each snapshot must dominate
  // the previous one field by field: a torn read (the old const-ref
  // behavior) shows up as a counter appearing to move backwards. It also
  // counts the snapshots taken with the clock strictly inside the run.
  int64_t reader_snapshots = 0;
  std::atomic<int64_t> mid_run_snapshots{0};
  std::thread reader([&proxy, &producing, &reader_snapshots,
                      &mid_run_snapshots] {
    IngestionStats prev;
    while (producing.load(std::memory_order_acquire)) {
      const bool started = proxy.now() > 0;
      const IngestionStats snap = proxy.ingestion_stats();
      EXPECT_GE(snap.submits_accepted, prev.submits_accepted);
      EXPECT_GE(snap.submits_rejected, prev.submits_rejected);
      EXPECT_GE(snap.pushes_accepted, prev.pushes_accepted);
      EXPECT_GE(snap.pushes_rejected, prev.pushes_rejected);
      EXPECT_GE(snap.drain_batches, prev.drain_batches);
      EXPECT_GE(snap.max_batch, prev.max_batch);
      prev = snap;
      ++reader_snapshots;
      if (started && !proxy.Done()) {
        mid_run_snapshots.fetch_add(1, std::memory_order_release);
      }
      std::this_thread::yield();
    }
  });

  // The whole run takes a few milliseconds, so a reader thread scheduled
  // late could miss it entirely: after the first tick the clock is held
  // until the reader has taken a snapshot mid-run.
  ASSERT_TRUE(proxy.Tick().ok());
  while (mid_run_snapshots.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }
  while (!proxy.Done()) {
    ASSERT_TRUE(proxy.Tick().ok());
    std::this_thread::yield();
  }
  for (auto& thread : producers) thread.join();
  producing.store(false, std::memory_order_release);
  reader.join();
  EXPECT_GT(reader_snapshots, 0);
  EXPECT_GT(mid_run_snapshots.load(), 0);

  Tally total;
  for (const Tally& t : tallies) {
    total.submits_accepted += t.submits_accepted;
    total.submits_rejected += t.submits_rejected;
    total.pushes_accepted += t.pushes_accepted;
    total.pushes_rejected += t.pushes_rejected;
  }
  const IngestionStats final_stats = proxy.ingestion_stats();
  EXPECT_EQ(final_stats.submits_accepted, total.submits_accepted);
  EXPECT_EQ(final_stats.submits_rejected, total.submits_rejected);
  EXPECT_EQ(final_stats.pushes_accepted, total.pushes_accepted);
  EXPECT_EQ(final_stats.pushes_rejected, total.pushes_rejected);
  EXPECT_EQ(proxy.stats().ceis_seen, final_stats.submits_accepted);
}

}  // namespace
}  // namespace webmon
