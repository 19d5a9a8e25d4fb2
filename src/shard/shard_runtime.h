// Per-shard runtime of the sharded scheduler tier (docs/SHARDING.md).
//
// A ShardRuntime wraps one Proxy (and therefore one OnlineScheduler +
// epoch-stamped mailbox) over the shard's owned slice of the global
// resource space, renumbered to dense local ids so per-resource state is
// sized to the shard, not the fleet. It ingests GLOBAL traffic — CEI
// submissions, server pushes, client cancels — keeps only what the shard
// owns (the CEI's local fragment: its EIs on owned resources), and emits
// the serialized shard -> aggregator event stream (shard/event_stream.h)
// as it ticks.
//
// Fragments keep the global CEI's weight; `required` maps to
// min(required, |local EIs|) for k-of-n CEIs and stays 0 (AND over the
// local EIs) for AND CEIs, so the local scheduler's priorities approximate
// the global need. Authoritative cross-shard scoring is the aggregator's
// job — it re-derives captures from the probe/push records, so fragment
// priorities only affect WHICH probes are issued, never how they are
// scored.
//
// Determinism: the runtime adds no ordering of its own. Within a chronon
// the stream records pushes (ingestion order), probes (issue order),
// fragment captures / expiries / cancels (callback firing order), then the
// spend record — every one a deterministic function of the shard's inputs,
// because the wrapped Proxy is (docs/CONCURRENCY.md). Feed the same
// arrival sequence at the same chronons and the stream reproduces byte for
// byte (the replay-identity suite).

#ifndef WEBMON_SHARD_SHARD_RUNTIME_H_
#define WEBMON_SHARD_SHARD_RUNTIME_H_

#include <memory>
#include <vector>

#include "online/proxy.h"
#include "shard/event_stream.h"
#include "shard/partitioner.h"
#include "util/id_map.h"

namespace webmon {

/// One scheduler shard: a local Proxy over the shard's owned resources plus
/// the global-id translation and stream emission around it. Single-threaded
/// driver API (the fleet driver runs whole shards concurrently instead —
/// shard state is never shared).
class ShardRuntime {
 public:
  /// `plan` must outlive the runtime. `budget` is this shard's slice of the
  /// global budget (shard/sharded_run.h SplitShardBudgets).
  ShardRuntime(const PartitionPlan& plan, uint32_t shard_id, Chronon horizon,
               BudgetVector budget, std::unique_ptr<Policy> policy,
               SchedulerOptions options = {});

  ShardRuntime(const ShardRuntime&) = delete;
  ShardRuntime& operator=(const ShardRuntime&) = delete;

  /// Offers a global CEI to this shard: its EIs on owned resources become
  /// the shard's local fragment, submitted to the proxy at the current
  /// chronon. A CEI with no owned EIs is not an error — the shard simply
  /// takes no part in it. A fragment the proxy rejects (e.g. every owned
  /// window already closed) is counted in fragments_rejected() and
  /// scheduled nowhere.
  Status SubmitFragment(const ShardCeiSpec& cei);

  /// Delivers a server push of a GLOBAL resource this shard owns.
  Status Push(ResourceId global_resource);

  /// Cancels the shard's fragment of global CEI `global_id`. A CEI this
  /// shard holds no fragment of is a no-op (the fleet driver broadcasts
  /// cancels only to fragment holders, but replay paths may not).
  Status Cancel(CeiId global_id);

  /// Executes the current chronon: ticks the proxy and appends the
  /// chronon's stream records. Returns the GLOBAL ids of the resources
  /// probed.
  StatusOr<std::vector<ResourceId>> Tick();

  /// The chronon the next Tick() executes.
  Chronon now() const { return proxy_.now(); }
  bool Done() const { return proxy_.Done(); }

  /// Once the epoch is done, moves the emitted stream into `stream` and
  /// builds the wrapped proxy's arrival log (the shard's replay record, in
  /// LOCAL resource ids; Proxy::TakeArrivalLog) into `log`; the runtime
  /// keeps neither. Fails with FailedPrecondition before Done().
  Status TakeOutputs(ShardStream* stream, ArrivalLog* log);
  uint32_t shard_id() const { return shard_id_; }
  /// Owned-resource count (the local proxy's resource-space size).
  uint32_t num_local_resources() const {
    return static_cast<uint32_t>(
        plan_->resources_of_shard[shard_id_].size());
  }
  int64_t fragments_submitted() const { return fragments_submitted_; }
  int64_t fragments_rejected() const { return fragments_rejected_; }

 private:
  void Emit(ShardEventKind kind, Chronon chronon, ResourceId resource,
            CeiId cei, int64_t attempts);

  const PartitionPlan* plan_;
  uint32_t shard_id_;
  Proxy proxy_;
  ShardStream stream_;
  // Local (dense proxy-assigned) CEI id -> global CEI id, in submit order.
  std::vector<CeiId> global_of_local_;
  // Global CEI id -> local id, for cancel routing.
  FlatIdMap<uint32_t> local_of_global_;
  // Pushes accepted since the last Tick (global ids, ingestion order).
  std::vector<ResourceId> pending_pushes_;
  // Lifecycle callback buffers (local ids, firing order), drained per Tick.
  std::vector<CeiId> captured_buffer_;
  std::vector<CeiId> expired_buffer_;
  std::vector<CeiId> cancelled_buffer_;
  // Submit scratch: the fragment's EIs in local resource ids.
  std::vector<std::tuple<ResourceId, Chronon, Chronon>> local_eis_scratch_;
  std::vector<ResourceId> probed_global_scratch_;
  int64_t last_probes_issued_ = 0;
  int64_t fragments_submitted_ = 0;
  int64_t fragments_rejected_ = 0;
};

}  // namespace webmon

#endif  // WEBMON_SHARD_SHARD_RUNTIME_H_
