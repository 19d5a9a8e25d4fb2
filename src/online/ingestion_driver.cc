#include "online/ingestion_driver.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <tuple>

#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace webmon {
namespace {

// Producer event i is released once the proxy clock reaches a chronon t
// with i * horizon < (t + 1) * quota — each lane's quota spread evenly
// across the epoch. The ticking lane waits for the matching count before
// each chronon; both sides use the same formula, so neither can starve the
// other and every event lands inside the epoch.
bool Released(int64_t i, Chronon t, Chronon horizon, int64_t quota) {
  return i * horizon < (t + 1) * quota;
}

int64_t ReleasedCount(Chronon t, Chronon horizon, int64_t quota) {
  return std::min<int64_t>(quota, ((t + 1) * quota - 1) / horizon + 1);
}

void ProduceOne(Proxy& proxy, Rng& rng, std::vector<CeiId>& owned,
                const IngestionDriverOptions& options) {
  const Chronon base = proxy.now();
  if (rng.Bernoulli(options.push_prob)) {
    // Push rejections are impossible here (valid resource, inside the
    // epoch), but tolerate them: the log is the source of truth.
    (void)proxy.Push(
        static_cast<ResourceId>(rng.UniformU64(options.num_resources)));
    return;
  }
  if (!owned.empty() && rng.Bernoulli(options.cancel_prob)) {
    // Cancel a random one of this lane's own accepted submits. Swap-remove
    // keeps the pool duplicate-free, so the mailbox's duplicate-cancel
    // rejection never fires from the driver; the cancel itself may still be
    // a scheduler no-op when the target already captured/expired.
    const size_t pick = static_cast<size_t>(rng.UniformU64(owned.size()));
    const CeiId victim = owned[pick];
    owned[pick] = owned.back();
    owned.pop_back();
    (void)proxy.Cancel(victim);
    return;
  }
  std::vector<std::tuple<ResourceId, Chronon, Chronon>> eis;
  const uint64_t rank = 1 + rng.UniformU64(3);
  for (uint64_t e = 0; e < rank; ++e) {
    const auto r =
        static_cast<ResourceId>(rng.UniformU64(options.num_resources));
    const Chronon s = base + static_cast<Chronon>(rng.UniformU64(6));
    eis.emplace_back(r, s, s + static_cast<Chronon>(rng.UniformU64(12)));
  }
  // Windows anchored at the live clock can only be rejected when the clamp
  // empties them at the epoch's edge; those late needs simply don't exist.
  auto id = proxy.Submit(eis, 0.5 + rng.UniformDouble(),
                         static_cast<uint32_t>(rng.UniformU64(
                             static_cast<uint64_t>(rank) + 1)));
  if (id.ok()) owned.push_back(*id);
}

}  // namespace

StatusOr<IngestionRunResult> RunConcurrentIngestion(
    std::unique_ptr<Policy> policy, const IngestionDriverOptions& options) {
  if (policy == nullptr) {
    return Status::InvalidArgument("ingestion driver: policy must not be "
                                   "null");
  }
  if (options.producer_threads < 1) {
    return Status::InvalidArgument("ingestion driver: need >= 1 producer");
  }
  if (options.horizon < 1 || options.events_per_producer < 0) {
    return Status::InvalidArgument("ingestion driver: bad workload shape");
  }
  const int producers = options.producer_threads;
  const int64_t quota = options.events_per_producer;

  Proxy proxy(options.num_resources, options.horizon,
              BudgetVector::Uniform(options.budget), std::move(policy),
              options.scheduler);
  IngestionRunResult result;
  proxy.set_on_cei_captured([&result, &proxy](CeiId id) {
    result.captured.emplace_back(proxy.now(), id);
  });
  proxy.set_on_cei_expired([&result, &proxy](CeiId id) {
    result.expired.emplace_back(proxy.now(), id);
  });
  proxy.set_on_cei_cancelled([&result, &proxy](CeiId id) {
    result.cancelled.emplace_back(proxy.now(), id);
  });

  std::atomic<int64_t> events{0};
  Status tick_status = Status::OK();  // written only by the ticking lane
  Stopwatch wall;
  // Lane 0 ticks; lanes 1..producers stream events. Every lane has its own
  // thread, so the ticking lane can wait for the producers' releases.
  RunLanes(producers + 1, [&](int lane) {
    if (lane == 0) {
      for (Chronon t = 0; t < options.horizon; ++t) {
        const int64_t want = static_cast<int64_t>(producers) *
                             ReleasedCount(t, options.horizon, quota);
        while (events.load(std::memory_order_acquire) < want) {
          std::this_thread::yield();
        }
        Stopwatch tick;
        auto probed = proxy.Tick();
        const double seconds = tick.ElapsedSeconds();
        result.tick_seconds += seconds;
        result.max_tick_seconds = std::max(result.max_tick_seconds, seconds);
        if (!probed.ok()) {
          tick_status = probed.status();
          // Unblock any producer still gated on the clock.
          events.store((static_cast<int64_t>(producers) + 1) * quota,
                       std::memory_order_release);
          return;
        }
      }
      return;
    }
    Rng rng(options.seed ^ (0x1A9E57ULL + static_cast<uint64_t>(lane)));
    std::vector<CeiId> owned;  // this lane's cancellable submits
    for (int64_t i = 0; i < quota; ++i) {
      while (!Released(i, proxy.now(), options.horizon, quota) &&
             !proxy.Done()) {
        std::this_thread::yield();
      }
      ProduceOne(proxy, rng, owned, options);
      events.fetch_add(1, std::memory_order_release);
    }
  });
  result.wall_seconds = wall.ElapsedSeconds();
  WEBMON_RETURN_IF_ERROR(tick_status);

  result.log = proxy.arrival_log();
  result.ingestion = proxy.ingestion_stats();
  result.stats = proxy.stats();
  for (ResourceId r = 0; r < options.num_resources; ++r) {
    result.probes.push_back(proxy.schedule().ProbesOf(r));
  }
  result.attempts = proxy.attempt_log();
  result.completeness = proxy.CompletenessSoFar();
  return result;
}

Status VerifyReplayIdentity(const IngestionRunResult& result,
                            std::unique_ptr<Policy> policy,
                            const IngestionDriverOptions& options) {
  auto replay =
      ReplayArrivalLog(result.log, options.num_resources, options.horizon,
                       BudgetVector::Uniform(options.budget),
                       std::move(policy), options.scheduler);
  WEBMON_RETURN_IF_ERROR(replay.status());
  auto mismatch = [](const std::string& what) {
    return Status::Internal("replay diverged from the concurrent run: " +
                            what);
  };
  for (ResourceId r = 0; r < options.num_resources; ++r) {
    if (result.probes[r] != replay->schedule.ProbesOf(r)) {
      return mismatch("probe stream of resource " + std::to_string(r));
    }
  }
  const SchedulerStats& a = result.stats;
  const SchedulerStats& b = replay->stats;
  if (a.probes_issued != b.probes_issued) return mismatch("probes_issued");
  if (a.ceis_seen != b.ceis_seen) return mismatch("ceis_seen");
  if (a.eis_seen != b.eis_seen) return mismatch("eis_seen");
  if (a.ceis_captured != b.ceis_captured) return mismatch("ceis_captured");
  if (a.ceis_expired != b.ceis_expired) return mismatch("ceis_expired");
  if (a.ceis_cancelled != b.ceis_cancelled) {
    return mismatch("ceis_cancelled");
  }
  if (a.cancels_noop != b.cancels_noop) return mismatch("cancels_noop");
  if (a.eis_captured != b.eis_captured) return mismatch("eis_captured");
  if (a.pushes_delivered != b.pushes_delivered) {
    return mismatch("pushes_delivered");
  }
  if (a.probes_failed != b.probes_failed) return mismatch("probes_failed");
  if (a.probes_retried != b.probes_retried) return mismatch("probes_retried");
  if (a.breaker_trips != b.breaker_trips) return mismatch("breaker_trips");
  if (a.drained_arrivals != b.drained_arrivals) {
    return mismatch("drained_arrivals");
  }
  if (result.captured != replay->captured) {
    return mismatch("capture callback stream");
  }
  if (result.expired != replay->expired) {
    return mismatch("expiry callback stream");
  }
  if (result.cancelled != replay->cancelled) {
    return mismatch("cancellation callback stream");
  }
  if (result.attempts.size() != replay->attempts.size()) {
    return mismatch("attempt log length");
  }
  for (size_t i = 0; i < result.attempts.size(); ++i) {
    if (!(result.attempts[i] == replay->attempts[i])) {
      return mismatch("attempt " + std::to_string(i));
    }
  }
  return Status::OK();
}

}  // namespace webmon
