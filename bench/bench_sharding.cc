// Sharded scheduler tier: end-to-end epoch rate and completeness vs shard
// count (docs/SHARDING.md).
//
// One workload — n resources, `arrivals` CEI arrivals per chronon, rank
// EIs per CEI over a mostly-uniform resource draw with a small hot set
// that forces genuinely cross-shard CEIs — is partitioned across S shards
// for each S in --shards. Every cell runs the full sharded epoch
// (partition, budget split, per-shard scheduling, stream merge + audited
// aggregation), with the shards executed one after another, and reports:
//
//   * chronons/sec = K / wall — the rate at which a user of the epoch sees
//     global chronons complete, and that rate relative to the 1-shard cell.
//   * completeness, and relative to the 1-shard cell: the quality cost of
//     scheduling each shard's slice without its siblings.
//   * the cross-shard CEI fraction (partitioner objective) and the
//     captured subset (aggregator AND semantics across shards).
//   * max single-chronon fleet spend vs the global budget: the aggregator
//     fails the whole run if any chronon exceeds the GLOBAL budget, so a
//     reported row is itself the audit passing.
//
// With --verify (default on), the 4-shard cell runs twice — shards
// executed serially and on parallel lanes — and the two runs' serialized
// aggregate and per-shard event streams are compared byte-for-byte, and
// their per-shard arrival logs event by event (ArrivalEvent::operator==;
// the replay-identity acceptance check).
//
// Pass --json <path> to emit the measurements (the CI perf artifact,
// BENCH_sharding.json).

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "shard/event_stream.h"
#include "shard/sharded_run.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace webmon::bench {
namespace {

struct ShardingRow {
  int64_t shards = 0;
  double wall_s = 0.0;
  double chronons_per_sec = 0.0;
  // Relative to the first cell of the sweep (the 1-shard cell by default).
  double rate_vs_1shard = 0.0;
  double completeness_vs_1shard = 0.0;
  int64_t total_ceis = 0;
  int64_t cross_shard_ceis = 0;
  double cross_shard_fraction = 0.0;
  int64_t cross_shard_captured = 0;
  double completeness = 0.0;
  int64_t probes = 0;
  int64_t max_chronon_spend = 0;
  int64_t global_budget = 0;
  bool replay_identical = true;  // only checked on the --verify cell
};

// The bench workload: `arrivals` CEIs join each chronon, each with `rank`
// EIs spanning [t, t + window - 1] (clamped to the epoch). Most EIs draw
// their resource uniformly; a `hot_prob` fraction lands in a small hot set
// instead, which welds those CEIs into one co-occurrence component the
// partitioner must split — the source of genuine cross-shard CEIs.
ShardedWorkload MakeWorkload(uint32_t num_resources, Chronon horizon,
                             int64_t arrivals, int64_t rank, Chronon window,
                             double hot_prob, uint32_t hot_set,
                             uint64_t seed) {
  Rng rng(seed);
  ShardedWorkload workload;
  workload.ceis.reserve(static_cast<size_t>(arrivals * horizon));
  CeiId next_id = 0;
  for (Chronon t = 0; t < horizon; ++t) {
    const Chronon finish = std::min<Chronon>(t + window - 1, horizon - 1);
    for (int64_t a = 0; a < arrivals; ++a) {
      ShardCeiSpec spec;
      spec.id = next_id++;
      spec.arrival = t;
      spec.weight = 1.0;
      spec.required = 0;  // AND across all EIs
      spec.eis.reserve(static_cast<size_t>(rank));
      for (int64_t e = 0; e < rank; ++e) {
        const bool hot = rng.UniformDouble() < hot_prob;
        const auto r = static_cast<ResourceId>(
            hot ? rng.UniformU64(hot_set) : rng.UniformU64(num_resources));
        spec.eis.emplace_back(r, t, finish);
      }
      workload.ceis.push_back(std::move(spec));
    }
  }
  return workload;
}

bool SameRun(const ShardedRunResult& a, const ShardedRunResult& b) {
  if (SerializeAggregateResult(a.aggregate) !=
      SerializeAggregateResult(b.aggregate)) {
    return false;
  }
  if (a.streams.size() != b.streams.size() ||
      a.arrival_logs.size() != b.arrival_logs.size()) {
    return false;
  }
  for (size_t s = 0; s < a.streams.size(); ++s) {
    if (SerializeShardStream(a.streams[s]) !=
        SerializeShardStream(b.streams[s])) {
      return false;
    }
  }
  for (size_t s = 0; s < a.arrival_logs.size(); ++s) {
    if (a.arrival_logs[s] != b.arrival_logs[s]) return false;
  }
  return true;
}

void WriteJson(const std::string& path, const FlagSet& flags,
               const std::vector<ShardingRow>& rows) {
  BenchJson json("sharding");
  json.Param("policy", flags.GetString("policy"))
      .Param("resources", flags.GetInt("resources"))
      .Param("chronons", flags.GetInt("chronons"))
      .Param("arrivals_per_chronon", flags.GetInt("arrivals"))
      .Param("rank", flags.GetInt("rank"))
      .Param("window", flags.GetInt("window"))
      .Param("budget", flags.GetInt("budget"))
      .Param("hot_prob", flags.GetDouble("hot-prob"))
      .Param("verify", flags.GetBool("verify"));
  for (const ShardingRow& row : rows) {
    json.Row()
        .Field("shards", row.shards)
        .Field("wall_s", row.wall_s)
        .Field("chronons_per_sec", row.chronons_per_sec)
        .Field("rate_vs_1shard", row.rate_vs_1shard)
        .Field("completeness_vs_1shard", row.completeness_vs_1shard)
        .Field("total_ceis", row.total_ceis)
        .Field("cross_shard_ceis", row.cross_shard_ceis)
        .Field("cross_shard_fraction", row.cross_shard_fraction)
        .Field("cross_shard_captured", row.cross_shard_captured)
        .Field("completeness", row.completeness)
        .Field("probes", row.probes)
        .Field("max_chronon_spend", row.max_chronon_spend)
        .Field("global_budget", row.global_budget)
        .Field("replay_identical", row.replay_identical);
  }
  json.Write(path);
}

int Run(int argc, const char* const* argv) {
  FlagSet flags("bench_sharding: sharded scheduler tier shard-count sweep");
  flags.AddString("json", "", "write measurements to this JSON file")
      .AddString("shards", "1,2,4,8",
                 "comma-separated shard counts, each 1 to 1024")
      .AddString("policy", "s-edf", "per-shard scheduling policy")
      .AddInt("resources", 1000000, "number of resources n, 1 to 10^7")
      .AddInt("chronons", 512, "epoch length K, 1 to 10^6")
      .AddInt("arrivals", 400, "CEIs arriving per chronon, 0 to 10^5")
      .AddInt("rank", 2, "EIs per CEI, 1 to 64")
      .AddInt("window", 16, "EI window width (chronons), 1 to 10^6")
      .AddInt("budget", 64, "GLOBAL probe budget per chronon, 0 to 10^7")
      .AddDouble("hot-prob", 0.1,
                 "probability an EI targets the hot set (drives the "
                 "cross-shard CEI fraction)")
      .AddInt("hot-set", 64,
              "size of the hot resource set, 1 to --resources")
      .AddBool("verify", true,
               "re-run the 4-shard cell with parallel shard execution and "
               "require byte-identical streams/aggregate")
      .AddInt("seed", 1, "workload RNG seed");
  if (Status st = flags.Parse(argc, argv); !st.ok()) {
    std::cerr << st << "\n" << flags.Help();
    return 2;
  }

  if (Status st = CheckScalarFlags(
          flags, {{"resources", 1, kMaxResources},
                  {"chronons", 1, kMaxChronons},
                  {"arrivals", 0, kMaxArrivals},
                  {"rank", 1, kMaxRank},
                  {"window", 1, kMaxChronons},
                  {"budget", 0, kMaxResources},
                  {"hot-set", 1, flags.GetInt("resources")}});
      !st.ok()) {
    std::cerr << st << "\n";
    return 2;
  }
  auto parsed_counts = ParseListFlag<uint32_t>(flags, "shards", 1, 1024);
  if (!parsed_counts.ok()) {
    std::cerr << parsed_counts.status() << "\n";
    return 2;
  }
  std::vector<uint32_t> shard_counts = *std::move(parsed_counts);
  if (shard_counts.empty()) shard_counts.push_back(1);

  const auto num_resources =
      static_cast<uint32_t>(flags.GetInt("resources"));
  const Chronon horizon = flags.GetInt("chronons");
  const int64_t budget = flags.GetInt("budget");

  PrintBanner("Sharding",
              "End-to-end epoch rate and completeness vs shard count (one "
              "epoch, partition + serial shards + merge)",
              "beyond the paper: the fleet tier's cost in wall time and in "
              "completeness against one shard");

  std::cout << "generating workload: n=" << num_resources
            << " K=" << horizon << " arrivals=" << flags.GetInt("arrivals")
            << "/chronon rank=" << flags.GetInt("rank") << "\n";
  const ShardedWorkload workload = MakeWorkload(
      num_resources, horizon, flags.GetInt("arrivals"), flags.GetInt("rank"),
      flags.GetInt("window"), flags.GetDouble("hot-prob"),
      static_cast<uint32_t>(flags.GetInt("hot-set")),
      static_cast<uint64_t>(flags.GetInt("seed")));

  std::vector<ShardingRow> rows;
  TableWriter table({"shards", "wall_s", "chronons/s", "rate vs 1",
                     "cross-shard", "fraction", "completeness",
                     "compl. vs 1", "max spend", "replay"});
  double base_rate = 0.0;
  double base_completeness = 0.0;
  for (const uint32_t shards : shard_counts) {
    ShardedRunConfig config;
    config.num_resources = num_resources;
    config.num_shards = shards;
    config.horizon = horizon;
    config.global_budget = BudgetVector::Uniform(budget);
    config.policy = flags.GetString("policy");
    config.parallel_shards = false;

    Stopwatch watch;
    auto result = RunSharded(config, workload);
    const double wall = watch.ElapsedSeconds();
    if (!result.ok()) {
      std::fprintf(stderr, "FATAL (%u shards): %s\n", shards,
                   result.status().ToString().c_str());
      return 1;
    }

    ShardingRow row;
    row.shards = shards;
    row.wall_s = wall;
    row.chronons_per_sec =
        wall > 0.0 ? static_cast<double>(horizon) / wall : 0.0;
    const AggregateResult& agg = result->aggregate;
    if (rows.empty()) {
      base_rate = row.chronons_per_sec;
      base_completeness = agg.completeness;
    }
    row.rate_vs_1shard =
        base_rate > 0.0 ? row.chronons_per_sec / base_rate : 0.0;
    row.completeness_vs_1shard =
        base_completeness > 0.0 ? agg.completeness / base_completeness : 0.0;
    row.total_ceis = agg.total_ceis;
    row.cross_shard_ceis = agg.cross_shard_ceis;
    row.cross_shard_fraction =
        agg.total_ceis > 0
            ? static_cast<double>(agg.cross_shard_ceis) /
                  static_cast<double>(agg.total_ceis)
            : 0.0;
    row.cross_shard_captured = agg.cross_shard_captured;
    row.completeness = agg.completeness;
    row.probes = agg.probes;
    row.max_chronon_spend = agg.max_chronon_spend;
    row.global_budget = budget;

    if (flags.GetBool("verify") && shards == 4) {
      config.parallel_shards = true;
      auto parallel = RunSharded(config, workload);
      if (!parallel.ok()) {
        std::fprintf(stderr, "FATAL (parallel verify): %s\n",
                     parallel.status().ToString().c_str());
        return 1;
      }
      row.replay_identical = SameRun(*result, *parallel);
      if (!row.replay_identical) {
        std::fprintf(stderr,
                     "FATAL: 4-shard parallel merge diverged from the "
                     "serial merge\n");
        return 1;
      }
      std::cout << "replay-identity (4 shards, serial vs parallel): OK\n";
    }

    rows.push_back(row);
    table.AddRow({TableWriter::Fmt(row.shards), TableWriter::Fmt(row.wall_s),
                  TableWriter::Fmt(row.chronons_per_sec, 0),
                  TableWriter::Fmt(row.rate_vs_1shard),
                  TableWriter::Fmt(row.cross_shard_ceis),
                  TableWriter::Percent(row.cross_shard_fraction),
                  TableWriter::Percent(row.completeness),
                  TableWriter::Fmt(row.completeness_vs_1shard),
                  TableWriter::Fmt(row.max_chronon_spend),
                  row.replay_identical ? "ok" : "DIVERGED"});
  }
  PrintTable(table);

  WriteJson(flags.GetString("json"), flags, rows);
  return 0;
}

}  // namespace
}  // namespace webmon::bench

int main(int argc, char** argv) { return webmon::bench::Run(argc, argv); }
