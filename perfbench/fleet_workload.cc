// The fleet workload (README.md): RunSharded over S shards executed
// serially, on the same seeded input every epoch. Set-up is the public
// PartitionResources + SplitShardBudgets pair on the epoch's CEIs; the
// timed part is one RunSharded call, which partitions, runs every shard
// and merges internally. A traced run also times AggregateShardStreams
// over the run's streams and compares a second RunSharded with the first.

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "model/schedule.h"
#include "shard/aggregator.h"
#include "shard/event_stream.h"
#include "shard/partitioner.h"
#include "shard/sharded_run.h"
#include "util/rng.h"
#include "workloads.h"

namespace webmon::perfbench {
namespace {

struct FleetShape {
  uint32_t num_resources = 200'000;
  uint32_t num_shards = 4;
  /// Chronons per epoch (K).
  Chronon horizon = 256;
  int64_t arrivals_per_chronon = 300;
  /// EIs per CEI, all sharing the window [t, t + window - 1].
  int64_t rank = 2;
  Chronon window = 16;
  /// Share of EIs drawn from the first `hot_set` resources instead of
  /// uniformly: it welds CEIs into components the partitioner must split,
  /// the source of cross-shard CEIs.
  double hot_prob = 0.1;
  uint32_t hot_set = 64;
  int64_t global_budget = 64;
  const char* policy = "s-edf";
};

FleetShape ShapeFor(bool tiny) {
  FleetShape s;
  if (tiny) {
    s.num_resources = 4000;
    s.horizon = 48;
    s.arrivals_per_chronon = 30;
  }
  return s;
}

ShardedWorkload MakeWorkload(const FleetShape& shape, uint64_t seed) {
  Rng rng(seed ^ 0x666C656574ULL);  // "fleet"
  ShardedWorkload workload;
  workload.ceis.reserve(
      static_cast<size_t>(shape.arrivals_per_chronon * shape.horizon));
  CeiId next_id = 0;
  for (Chronon t = 0; t < shape.horizon; ++t) {
    const Chronon finish =
        std::min<Chronon>(t + shape.window - 1, shape.horizon - 1);
    for (int64_t a = 0; a < shape.arrivals_per_chronon; ++a) {
      ShardCeiSpec spec;
      spec.id = next_id++;
      spec.arrival = t;
      for (int64_t e = 0; e < shape.rank; ++e) {
        const bool hot = rng.Bernoulli(shape.hot_prob);
        const auto r = static_cast<ResourceId>(
            rng.UniformU64(hot ? shape.hot_set : shape.num_resources));
        spec.eis.emplace_back(r, t, finish);
      }
      workload.ceis.push_back(std::move(spec));
    }
  }
  return workload;
}

ShardedRunConfig ConfigFor(const FleetShape& shape) {
  ShardedRunConfig config;
  config.num_resources = shape.num_resources;
  config.num_shards = shape.num_shards;
  config.horizon = shape.horizon;
  config.global_budget = BudgetVector::Uniform(shape.global_budget);
  config.policy = shape.policy;
  config.parallel_shards = false;
  return config;
}

// Re-merges `streams` against the fleet input and audits the outcome: OK
// iff the aggregator accepts the streams, the fleet never spends more than
// the global budget in a chronon, and every generated CEI is scored.
StatusOr<AggregateResult> MergeAndAudit(const FleetShape& shape,
                                        const ShardedWorkload& workload,
                                        const PartitionPlan& plan,
                                        const std::vector<ShardStream>& streams) {
  StatusOr<AggregateResult> merged = AggregateShardStreams(
      streams, workload.ceis, plan,
      BudgetVector::Uniform(shape.global_budget));
  if (!merged.ok()) return merged.status();
  if (merged->max_chronon_spend > shape.global_budget) {
    return Status::Internal("fleet spent over the global budget");
  }
  if (merged->total_ceis != static_cast<int64_t>(workload.ceis.size())) {
    return Status::Internal("aggregate scored a different number of CEIs");
  }
  return merged;
}

struct FleetTotals {
  int64_t epochs = 0;
  double run_s = 0.0;
  std::vector<double> setup_s;
  std::vector<double> partition_s;
  std::vector<double> merge_s;
  std::vector<double> shards_s;
  std::vector<double> chronon_us;
  // The first epoch's outcome, which every later epoch must repeat.
  std::string first_outcome;
  AggregateResult aggregate;
  PartitionStats partition;
  int64_t stream_events = 0;
  int64_t fragments_submitted = 0;
  /// VmHWM right after the first epoch (see the proxy workloads).
  double peak_rss_mb = 0.0;
};

void RunEpoch(const FleetShape& shape, const ShardedWorkload& workload,
              bool trace, FleetTotals& totals, Ledger& ledger,
              SpanLog& spans) {
  const BudgetVector global = BudgetVector::Uniform(shape.global_budget);
  const Clock::time_point start = Clock::now();
  const int32_t epoch_span = spans.Open("epoch", start, -1, -1);
  StatusOr<PartitionPlan> plan = PartitionResources(
      shape.num_resources, shape.num_shards, workload.ceis);
  const Clock::time_point partitioned = Clock::now();
  ledger.Call(plan.status(), "PartitionResources");
  if (!plan.ok()) return;
  StatusOr<std::vector<BudgetVector>> budgets =
      SplitShardBudgets(global, *plan, shape.horizon);
  const Clock::time_point set_up = Clock::now();
  ledger.Call(budgets.status(), "SplitShardBudgets");
  if (!budgets.ok()) return;
  const double partition_s = SecondsBetween(start, partitioned);
  totals.partition_s.push_back(partition_s);
  totals.setup_s.push_back(SecondsBetween(start, set_up));
  const int32_t setup_span =
      spans.Add("shard.setup", start, set_up, epoch_span, -1);
  spans.Add("shard.partition", start, partitioned, setup_span, -1);
  spans.Add("shard.split", partitioned, set_up, setup_span, -1);

  const Clock::time_point run_start = Clock::now();
  StatusOr<ShardedRunResult> result = RunSharded(ConfigFor(shape), workload);
  const Clock::time_point run_end = Clock::now();
  spans.Add("shard.run", run_start, run_end, epoch_span, -1);
  ledger.Call(result.status(), "RunSharded");
  if (!result.ok()) return;
  const double run_s = SecondsBetween(run_start, run_end);
  totals.run_s += run_s;
  totals.chronon_us.push_back(run_s / static_cast<double>(shape.horizon) *
                              1e6);

  const AggregateResult& agg = result->aggregate;
  ledger.Check(agg.max_chronon_spend <= shape.global_budget,
               "fleet spend within the global budget");
  ledger.Check(agg.total_ceis == static_cast<int64_t>(workload.ceis.size()),
               "aggregate scored every generated CEI");
  ledger.Check(result->fragments_rejected == 0, "no fragment rejected");
  ledger.Check(result->partition.cross_shard_ceis ==
                   plan->stats.cross_shard_ceis,
               "RunSharded partitioned like PartitionResources");
  int64_t split_sum = 0;
  for (const BudgetVector& b : *budgets) split_sum += b.uniform_value();
  ledger.Check(split_sum == shape.global_budget,
               "shard budgets sum to the global budget");

  if (trace) {
    const Clock::time_point merge_start = Clock::now();
    StatusOr<AggregateResult> merged =
        MergeAndAudit(shape, workload, *plan, result->streams);
    const Clock::time_point merge_end = Clock::now();
    spans.Add("shard.merge", merge_start, merge_end, epoch_span, -1);
    ledger.Call(merged.status(), "AggregateShardStreams");
    const double merge_s = SecondsBetween(merge_start, merge_end);
    totals.merge_s.push_back(merge_s);
    totals.shards_s.push_back(run_s - partition_s - merge_s);
    if (merged.ok()) {
      ledger.Check(SerializeAggregateResult(*merged) ==
                       SerializeAggregateResult(agg),
                   "re-merged streams reproduce the aggregate");
    }
  }
  // Every epoch runs the same input: the outcome must repeat exactly (in
  // traced runs byte for byte through SerializeAggregateResult).
  std::string outcome =
      trace ? SerializeAggregateResult(agg)
            : std::to_string(agg.ceis_captured) + " " +
                  std::to_string(agg.probes) + " " +
                  std::to_string(agg.total_attempts);
  if (totals.epochs == 0) {
    totals.first_outcome = std::move(outcome);
    totals.aggregate = agg;
    totals.partition = result->partition;
    for (const ShardStream& s : result->streams) {
      totals.stream_events += static_cast<int64_t>(s.events.size());
    }
    totals.fragments_submitted = result->fragments_submitted;
    totals.peak_rss_mb = PeakRssMb();
  } else {
    ledger.Check(outcome == totals.first_outcome,
                 "a second RunSharded reproduces the first");
  }
  spans.Close(epoch_span, Clock::now());
  ++totals.epochs;
}

}  // namespace

void RunFleetWorkload(const RunArgs& args, Ledger& ledger, Report& report,
                      SpanLog& spans) {
  const FleetShape shape = ShapeFor(args.tiny);
  const ShardedWorkload workload = MakeWorkload(shape, args.seed);
  const int64_t min_epochs = args.tiny ? 2 : 3;
  FleetTotals totals;
  const Clock::time_point run_start = Clock::now();
  while (totals.epochs < min_epochs ||
         SecondsBetween(run_start, Clock::now()) < args.seconds) {
    const int64_t before = totals.epochs;
    RunEpoch(shape, workload, args.trace, totals, ledger, spans);
    if (totals.epochs == before) return;  // a failed call; already counted
  }
  const auto epochs = static_cast<double>(totals.epochs);
  const auto chronons = static_cast<double>(shape.horizon);
  report.notes.push_back(
      "n=" + std::to_string(shape.num_resources) +
      " shards=" + std::to_string(shape.num_shards) + " (serial)" +
      " arrivals/chronon=" + std::to_string(shape.arrivals_per_chronon) +
      " global C=" + std::to_string(shape.global_budget) +
      " policy=" + shape.policy + " K=" + std::to_string(shape.horizon));
  report.notes.push_back(
      "epochs (RunSharded calls; p50/p90 samples of wall/K)=" +
      std::to_string(totals.epochs));
  const AggregateResult& agg = totals.aggregate;
  if (!args.trace) {
    report.Set("setup_s", Median(totals.setup_s));
    report.Set("chronons_per_s", epochs * chronons / totals.run_s);
    report.Set("completeness", agg.completeness);
    report.Set("peak_rss_mb", totals.peak_rss_mb);
    report.Set("chronon_p50_us", Quantile(totals.chronon_us, 0.5));
    report.Set("chronon_p90_us", Quantile(totals.chronon_us, 0.9));
    return;
  }
  const auto total_ceis = static_cast<double>(agg.total_ceis);
  const std::vector<int64_t>& load = totals.partition.eis_per_shard;
  const double mean_load =
      load.empty() ? 0.0
                   : static_cast<double>(std::accumulate(
                         load.begin(), load.end(), int64_t{0})) /
                         static_cast<double>(load.size());
  const double max_load =
      load.empty() ? 0.0
                   : static_cast<double>(
                         *std::max_element(load.begin(), load.end()));
  const auto ops = static_cast<double>(workload.ceis.size() +
                                       workload.pushes.size() +
                                       workload.cancels.size());
  report.Set("online.ops_per_chronon", ops / chronons);
  report.Set("online.probes_per_chronon",
             static_cast<double>(agg.probes) / chronons);
  report.Set("shard.partition_s", Median(totals.partition_s));
  report.Set("shard.merge_s", Median(totals.merge_s));
  report.Set("shard.shards_s", Median(totals.shards_s));
  report.Set("shard.fragments_per_cei",
             static_cast<double>(totals.fragments_submitted) / total_ceis);
  report.Set("shard.stream_events",
             static_cast<double>(totals.stream_events));
  report.Set("shard.cross_shard_share",
             static_cast<double>(agg.cross_shard_ceis) / total_ceis);
  report.Set("shard.load_imbalance", mean_load > 0 ? max_load / mean_load : 0);
  report.Set("bench.traced_chronons_per_s", epochs * chronons / totals.run_s);
}

int CountUndetectedStreamTampers() {
  const FleetShape shape = ShapeFor(/*tiny=*/true);
  const ShardedWorkload workload = MakeWorkload(shape, 7);
  StatusOr<PartitionPlan> plan = PartitionResources(
      shape.num_resources, shape.num_shards, workload.ceis);
  StatusOr<ShardedRunResult> result = RunSharded(ConfigFor(shape), workload);
  if (!plan.ok() || !result.ok()) return 1;
  int undetected =
      MergeAndAudit(shape, workload, *plan, result->streams).ok() ? 0 : 1;
  // Inflate the first spend record past the whole global budget.
  std::vector<ShardStream> streams = result->streams;
  bool tampered = false;
  for (ShardStream& stream : streams) {
    for (ShardEvent& event : stream.events) {
      if (!tampered && event.kind == ShardEventKind::kSpend) {
        event.attempts += shape.global_budget;
        tampered = true;
      }
    }
  }
  if (!tampered ||
      MergeAndAudit(shape, workload, *plan, streams).ok()) {
    ++undetected;
  }
  return undetected;
}

}  // namespace webmon::perfbench
