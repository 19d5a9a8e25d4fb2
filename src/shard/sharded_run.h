// Fleet driver of the sharded scheduler tier (docs/SHARDING.md).
//
// RunSharded executes one epoch over a fleet of ShardRuntimes: partition
// the resource space (shard/partitioner.h), split the global probe budget
// proportionally across shards (SplitShardBudgets), feed every shard the
// workload's chronon-stamped arrivals / pushes / cancels in lockstep with
// its own clock, then merge the emitted streams through the aggregator
// (shard/aggregator.h), which also audits the budget invariant the split
// guarantees by construction: the fleet never spends more than the GLOBAL
// budget in any chronon.
//
// Determinism contract: the merged result is a pure function of the
// (config, workload) pair. Each shard's input sequence is fixed up front,
// so shards can execute serially in shard order or concurrently on
// min(shards, cores) lanes (`parallel_shards`; util/thread_pool.h's
// RunLanes, lane l running shards l, l + lanes, ...) — no shard reads
// another's state — and the per-shard streams, arrival logs, and the
// aggregate come out equal either way (byte-identical once serialized), at
// any lane count. The replay-identity suite
// (tests/shard/sharded_run_test.cc) pins this.
//
// RunSharded formats nothing: the per-shard streams are moved out of the
// shards and the arrival logs built from their proxies' records, as data,
// and a caller that persists one serializes it itself
// (SerializeShardStream, SerializeArrivalLog).

#ifndef WEBMON_SHARD_SHARDED_RUN_H_
#define WEBMON_SHARD_SHARDED_RUN_H_

#include <string>
#include <utility>
#include <vector>

#include "model/schedule.h"
#include "online/online_scheduler.h"
#include "online/proxy.h"
#include "shard/aggregator.h"
#include "shard/event_stream.h"
#include "shard/partitioner.h"
#include "util/status.h"

namespace webmon {

/// Chronon-stamped fleet input. CEIs carry their arrival chronon in
/// ShardCeiSpec::arrival; pushes and cancels are (chronon, target) pairs.
/// All three sequences must be sorted by chronon (stable order within a
/// chronon is the vector order); RunSharded validates this.
struct ShardedWorkload {
  std::vector<ShardCeiSpec> ceis;
  std::vector<std::pair<Chronon, ResourceId>> pushes;
  std::vector<std::pair<Chronon, CeiId>> cancels;
};

struct ShardedRunConfig {
  uint32_t num_resources = 0;
  uint32_t num_shards = 1;
  Chronon horizon = 0;
  /// The GLOBAL per-chronon probe budget, split across shards.
  BudgetVector global_budget = BudgetVector::Uniform(0);
  /// Policy instantiated per shard (policy/policy_factory.h).
  std::string policy = "s-edf";
  uint64_t policy_seed = 42;
  /// Scheduler options every shard runs with.
  SchedulerOptions scheduler_options;
  /// Run shards concurrently on min(num_shards, cores) lanes instead of
  /// serially. The result is identical either way (see the determinism
  /// contract above).
  bool parallel_shards = false;
};

struct ShardedRunResult {
  PartitionStats partition;
  AggregateResult aggregate;
  /// Per-shard emitted streams, indexed by shard id.
  std::vector<ShardStream> streams;
  /// Per-shard arrival logs, indexed by shard id: each shard proxy's replay
  /// record, in the shard's LOCAL resource ids. ReplayArrivalLog over the
  /// shard's owned-resource count, the horizon, its SplitShardBudgets slice,
  /// a fresh policy from (policy, policy_seed) and scheduler_options
  /// reproduces the shard's probes, which its stream records as `probe` in
  /// global ids.
  /// SerializeArrivalLog persists one.
  std::vector<ArrivalLog> arrival_logs;
  /// Per-shard budget slices actually used (the largest per-chronon value
  /// of each SplitShardBudgets slice), indexed by shard id.
  std::vector<int64_t> shard_budget_max;
  int64_t fragments_submitted = 0;
  int64_t fragments_rejected = 0;
};

/// Splits `global` across the plan's shards proportionally to owned
/// resource count, by largest remainder (ties to the lower shard id), so
/// for every chronon t: sum_s split[s].At(t) == global.At(t). Uniform
/// budgets split to uniform budgets; per-chronon budgets split chronon by
/// chronon over [0, horizon).
StatusOr<std::vector<BudgetVector>> SplitShardBudgets(
    const BudgetVector& global, const PartitionPlan& plan, Chronon horizon);

/// Runs one epoch of `workload` under `config`. See the file comment for
/// the execution model and determinism contract.
StatusOr<ShardedRunResult> RunSharded(const ShardedRunConfig& config,
                                      const ShardedWorkload& workload);

}  // namespace webmon

#endif  // WEBMON_SHARD_SHARDED_RUN_H_
