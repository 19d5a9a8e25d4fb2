// Concurrent-ingestion driver: the shared harness behind
// `webmon_cli ingest` and bench_ingestion.
//
// Starts N producer lanes through RunLanes (util/thread_pool.h, the
// repository's only thread primitive) that stream randomized
// Submit()/Push() traffic into a ticking Proxy, paced so the whole stream
// lands inside the epoch, then optionally proves the determinism contract
// by replaying the recorded arrival log serially and comparing every
// observable byte for byte (docs/CONCURRENCY.md).

#ifndef WEBMON_ONLINE_INGESTION_DRIVER_H_
#define WEBMON_ONLINE_INGESTION_DRIVER_H_

#include <memory>
#include <utility>
#include <vector>

#include "online/proxy.h"

namespace webmon {

/// Workload shape for one concurrent ingestion session.
struct IngestionDriverOptions {
  uint32_t num_resources = 64;
  Chronon horizon = 2000;
  int64_t budget = 2;
  /// Producer lanes submitting concurrently with the ticking lane.
  int producer_threads = 4;
  /// Events (submits + pushes) per producer, spread across the epoch.
  int64_t events_per_producer = 2000;
  /// Fraction of events that are server pushes instead of submits.
  double push_prob = 0.1;
  /// Fraction of events that cancel one of the lane's own earlier accepted
  /// submits instead of submitting (mid-epoch profile churn). Each id is
  /// cancelled at most once; a lane with nothing left to cancel submits.
  double cancel_prob = 0.0;
  /// Seeds the per-producer payload streams.
  uint64_t seed = 1;
  /// Scheduler configuration (preemption, fault injector).
  SchedulerOptions scheduler;
};

/// Everything observable from one session, snapshot after all lanes joined.
struct IngestionRunResult {
  ArrivalLog log;
  IngestionStats ingestion;
  SchedulerStats stats;
  /// Probe chronons per resource, in probe order.
  std::vector<std::vector<Chronon>> probes;
  std::vector<ProbeAttempt> attempts;
  /// Capture / expiry / cancellation callback streams, in firing order.
  std::vector<std::pair<Chronon, CeiId>> captured;
  std::vector<std::pair<Chronon, CeiId>> expired;
  std::vector<std::pair<Chronon, CeiId>> cancelled;
  double completeness = 0.0;
  /// Wall seconds inside Tick() calls (scheduling + drain, excluding the
  /// pacing waits) and the largest single tick.
  double tick_seconds = 0.0;
  double max_tick_seconds = 0.0;
  /// Wall seconds for the whole session (ticks + pacing + producer joins).
  double wall_seconds = 0.0;
};

/// Runs one concurrent ingestion session. `policy` drives the proxy;
/// `options.scheduler.fault_injector`, if set, must outlive the call.
StatusOr<IngestionRunResult> RunConcurrentIngestion(
    std::unique_ptr<Policy> policy, const IngestionDriverOptions& options);

/// Replays `result.log` serially (fresh proxy, `policy`, and
/// `options.scheduler` — including any fault injector — must be configured
/// exactly as the recorded run) and compares schedules, stats, callback
/// streams, and attempt logs. OK iff byte-identical; Internal with a
/// description of the first divergence otherwise.
Status VerifyReplayIdentity(const IngestionRunResult& result,
                            std::unique_ptr<Policy> policy,
                            const IngestionDriverOptions& options);

}  // namespace webmon

#endif  // WEBMON_ONLINE_INGESTION_DRIVER_H_
