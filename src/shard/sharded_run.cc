#include "shard/sharded_run.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "policy/policy_factory.h"
#include "shard/shard_runtime.h"
#include "util/thread_pool.h"

namespace webmon {
namespace {

// One largest-remainder split of a single chronon's budget `value` over
// `weights` (owned-resource counts). shares sum to exactly `value`; ties
// on the fractional part go to the lower shard id so the split is a pure
// function of (value, weights).
void SplitValue(int64_t value, const std::vector<int64_t>& weights,
                int64_t total_weight, std::vector<int64_t>* shares,
                std::vector<uint32_t>* order_scratch) {
  const size_t n = weights.size();
  shares->assign(n, 0);
  if (value <= 0) return;
  int64_t assigned = 0;
  for (size_t s = 0; s < n; ++s) {
    (*shares)[s] = value * weights[s] / total_weight;
    assigned += (*shares)[s];
  }
  int64_t leftover = value - assigned;
  if (leftover == 0) return;
  order_scratch->resize(n);
  for (size_t s = 0; s < n; ++s) (*order_scratch)[s] = static_cast<uint32_t>(s);
  // total-order: remainder ties fall through to the unique shard index
  // (largest-remainder, ties to the lower shard id).
  std::sort(order_scratch->begin(), order_scratch->end(),
            [&](uint32_t a, uint32_t b) {
              const int64_t ra = value * weights[a] % total_weight;
              const int64_t rb = value * weights[b] % total_weight;
              if (ra != rb) return ra > rb;
              return a < b;
            });
  for (size_t k = 0; k < n && leftover > 0; ++k, --leftover) {
    ++(*shares)[(*order_scratch)[k]];
  }
}

// Runs shard `shard_id` start to finish against the fleet workload. The
// runtime filters ownership itself for CEIs; pushes are routed here (a
// push to a non-owner is a driver bug the runtime rejects) and cancels are
// broadcast (non-holders no-op).
Status RunOneShard(ShardRuntime* runtime, const PartitionPlan& plan,
                   uint32_t shard_id, const ShardedWorkload& workload) {
  size_t next_cei = 0, next_push = 0, next_cancel = 0;
  while (!runtime->Done()) {
    const Chronon t = runtime->now();
    for (; next_cei < workload.ceis.size() &&
           workload.ceis[next_cei].arrival == t;
         ++next_cei) {
      WEBMON_RETURN_IF_ERROR(
          runtime->SubmitFragment(workload.ceis[next_cei]));
    }
    for (; next_push < workload.pushes.size() &&
           workload.pushes[next_push].first == t;
         ++next_push) {
      const ResourceId resource = workload.pushes[next_push].second;
      if (plan.shard_of_resource[resource] != shard_id) continue;
      WEBMON_RETURN_IF_ERROR(runtime->Push(resource));
    }
    for (; next_cancel < workload.cancels.size() &&
           workload.cancels[next_cancel].first == t;
         ++next_cancel) {
      WEBMON_RETURN_IF_ERROR(
          runtime->Cancel(workload.cancels[next_cancel].second));
    }
    WEBMON_RETURN_IF_ERROR(runtime->Tick().status());
  }
  return Status::OK();
}

template <typename T, typename ChrononOf>
Status CheckStamped(const std::vector<T>& items, Chronon horizon,
                    const char* what, const ChrononOf& chronon_of) {
  Chronon prev = 0;
  for (const T& item : items) {
    const Chronon t = chronon_of(item);
    if (t < 0 || t >= horizon) {
      return Status::OutOfRange(std::string(what) +
                                " stamped outside the epoch at chronon " +
                                std::to_string(t));
    }
    if (t < prev) {
      return Status::InvalidArgument(std::string(what) +
                                     " sequence is not sorted by chronon");
    }
    prev = t;
  }
  return Status::OK();
}

}  // namespace

StatusOr<std::vector<BudgetVector>> SplitShardBudgets(
    const BudgetVector& global, const PartitionPlan& plan, Chronon horizon) {
  if (horizon <= 0) {
    return Status::InvalidArgument("horizon must be positive");
  }
  std::vector<int64_t> weights(plan.num_shards, 0);
  for (uint32_t s = 0; s < plan.num_shards; ++s) {
    weights[s] = static_cast<int64_t>(plan.resources_of_shard[s].size());
  }
  const int64_t total_weight =
      std::accumulate(weights.begin(), weights.end(), int64_t{0});
  if (total_weight <= 0) {
    return Status::FailedPrecondition("the plan assigns no resources");
  }
  std::vector<int64_t> shares;
  std::vector<uint32_t> order;
  std::vector<BudgetVector> split;
  split.reserve(plan.num_shards);
  if (global.is_uniform()) {
    SplitValue(global.uniform_value(), weights, total_weight, &shares,
               &order);
    for (uint32_t s = 0; s < plan.num_shards; ++s) {
      split.push_back(BudgetVector::Uniform(shares[s]));
    }
    return split;
  }
  std::vector<std::vector<int64_t>> per_shard(
      plan.num_shards, std::vector<int64_t>(horizon, 0));
  for (Chronon t = 0; t < horizon; ++t) {
    SplitValue(global.At(t), weights, total_weight, &shares, &order);
    for (uint32_t s = 0; s < plan.num_shards; ++s) {
      per_shard[s][t] = shares[s];
    }
  }
  for (uint32_t s = 0; s < plan.num_shards; ++s) {
    split.push_back(BudgetVector::PerChronon(std::move(per_shard[s])));
  }
  return split;
}

StatusOr<ShardedRunResult> RunSharded(const ShardedRunConfig& config,
                                      const ShardedWorkload& workload) {
  if (config.horizon <= 0) {
    return Status::InvalidArgument("horizon must be positive");
  }
  WEBMON_RETURN_IF_ERROR(CheckStamped(
      workload.ceis, config.horizon, "CEI arrival",
      [](const ShardCeiSpec& cei) { return cei.arrival; }));
  WEBMON_RETURN_IF_ERROR(CheckStamped(
      workload.pushes, config.horizon, "push",
      [](const std::pair<Chronon, ResourceId>& p) { return p.first; }));
  WEBMON_RETURN_IF_ERROR(CheckStamped(
      workload.cancels, config.horizon, "cancel",
      [](const std::pair<Chronon, CeiId>& c) { return c.first; }));
  for (const auto& [t, resource] : workload.pushes) {
    if (resource >= config.num_resources) {
      return Status::OutOfRange("push targets resource " +
                                std::to_string(resource) +
                                " beyond the global space");
    }
  }

  WEBMON_ASSIGN_OR_RETURN(
      PartitionPlan plan,
      PartitionResources(config.num_resources, config.num_shards,
                         workload.ceis));
  WEBMON_ASSIGN_OR_RETURN(
      std::vector<BudgetVector> budgets,
      SplitShardBudgets(config.global_budget, plan, config.horizon));

  ShardedRunResult result;
  result.partition = plan.stats;
  result.shard_budget_max.reserve(config.num_shards);
  std::vector<std::unique_ptr<ShardRuntime>> runtimes;
  runtimes.reserve(config.num_shards);
  for (uint32_t s = 0; s < config.num_shards; ++s) {
    WEBMON_ASSIGN_OR_RETURN(std::unique_ptr<Policy> policy,
                            MakePolicy(config.policy, config.policy_seed));
    result.shard_budget_max.push_back(budgets[s].Max(config.horizon));
    runtimes.push_back(std::make_unique<ShardRuntime>(
        plan, s, config.horizon, std::move(budgets[s]), std::move(policy),
        config.scheduler_options));
  }

  // Shards share nothing and their inputs are fixed, so serial shard order
  // and lane execution produce identical streams (header contract) at any
  // lane count. Lane l runs shards l, l + lanes, ...; there are never more
  // lanes than cores.
  std::vector<Status> shard_status(config.num_shards, Status::OK());
  if (config.parallel_shards && config.num_shards > 1) {
    const uint32_t lanes = std::min(
        config.num_shards, static_cast<uint32_t>(DefaultThreads()));
    RunLanes(static_cast<int>(lanes), [&](int lane) {
      for (uint32_t s = static_cast<uint32_t>(lane); s < config.num_shards;
           s += lanes) {
        shard_status[s] = RunOneShard(runtimes[s].get(), plan, s, workload);
      }
    });
  } else {
    for (uint32_t s = 0; s < config.num_shards; ++s) {
      shard_status[s] = RunOneShard(runtimes[s].get(), plan, s, workload);
    }
  }
  for (uint32_t s = 0; s < config.num_shards; ++s) {
    if (!shard_status[s].ok()) return shard_status[s];
  }

  // Hand each shard's stream (moved) and arrival log (built from the
  // proxy's records) to the result as data, never formatted, then free the
  // shards before the merge.
  result.streams.resize(config.num_shards);
  result.arrival_logs.resize(config.num_shards);
  for (uint32_t s = 0; s < config.num_shards; ++s) {
    ShardRuntime& runtime = *runtimes[s];
    WEBMON_RETURN_IF_ERROR(
        runtime.TakeOutputs(&result.streams[s], &result.arrival_logs[s]));
    result.fragments_submitted += runtime.fragments_submitted();
    result.fragments_rejected += runtime.fragments_rejected();
  }
  runtimes.clear();

  WEBMON_ASSIGN_OR_RETURN(
      result.aggregate,
      AggregateShardStreams(result.streams, workload.ceis, plan,
                            config.global_budget));
  return result;
}

}  // namespace webmon
