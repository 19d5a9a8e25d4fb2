// Concurrent ingestion throughput: producer threads streaming Submit()/
// Push() traffic into a ticking Proxy through the sequenced mailbox
// (docs/CONCURRENCY.md).
//
// Sweeps the producer count and reports ingest throughput (accepted events
// per wall second), mean/max tick latency, and the largest drained batch.
// Every cell also replays its recorded arrival log serially and verifies
// the schedule reproduces byte for byte, so the numbers come from runs the
// determinism contract actually held on. Pass --json <path> to emit the
// measurements as a JSON document (the CI perf artifact,
// BENCH_ingestion.json).

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "online/ingestion_driver.h"
#include "policy/policy_factory.h"
#include "util/flags.h"

namespace webmon::bench {
namespace {

struct IngestionRow {
  int producers = 0;
  int64_t accepted = 0;
  int64_t rejected = 0;
  double events_per_second = 0.0;
  double mean_tick_us = 0.0;
  double max_tick_us = 0.0;
  int64_t max_batch = 0;
  double drain_ms = 0.0;
};

// Emits the collected measurements — one row per producer count.
void WriteJson(const std::string& path, const std::string& policy,
               Chronon horizon, const std::vector<IngestionRow>& rows) {
  BenchJson json("ingestion");
  json.Param("policy", policy).Param("chronons", static_cast<int64_t>(horizon));
  for (const IngestionRow& row : rows) {
    json.Row()
        .Field("producers", row.producers)
        .Field("accepted", row.accepted)
        .Field("rejected", row.rejected)
        .Field("events_per_second", row.events_per_second)
        .Field("mean_tick_us", row.mean_tick_us)
        .Field("max_tick_us", row.max_tick_us)
        .Field("max_batch", row.max_batch)
        .Field("drain_ms", row.drain_ms);
  }
  json.Write(path);
}

int Run(int argc, const char* const* argv) {
  FlagSet flags("bench_ingestion: concurrent Submit/Push throughput sweep");
  flags.AddString("json", "", "write measurements to this JSON file")
      .AddString("producers", "1,2,4,8",
                 "comma-separated producer thread counts to sweep, each 1 "
                 "to 64")
      .AddString("policy", "s-edf", "scheduling policy")
      .AddInt("resources", 64, "number of resources n")
      .AddInt("chronons", 2000, "epoch length K")
      .AddInt("events", 8000,
              "total events per cell (split across the producers)")
      .AddInt("seed", 1, "payload RNG seed");
  if (Status st = flags.Parse(argc, argv); !st.ok()) {
    std::cerr << st << "\n" << flags.Help();
    return 2;
  }

  auto parsed_counts = ParseListFlag<int>(flags, "producers", 1, 64);
  if (!parsed_counts.ok()) {
    std::cerr << parsed_counts.status() << "\n";
    return 2;
  }
  std::vector<int> producer_counts = *std::move(parsed_counts);
  if (producer_counts.empty()) producer_counts.push_back(1);
  const std::string policy_name = flags.GetString("policy");
  const int64_t total_events = flags.GetInt("events");

  PrintBanner("Ingestion", "Concurrent Submit/Push throughput vs producers",
              "throughput grows with producers; tick latency stays flat "
              "(drain is one swap)");

  IngestionDriverOptions options;
  options.num_resources = static_cast<uint32_t>(flags.GetInt("resources"));
  options.horizon = flags.GetInt("chronons");
  options.seed = static_cast<uint64_t>(flags.GetInt("seed"));

  TableWriter table({"producers", "accepted", "events/s", "mean tick us",
                     "max tick us", "max batch", "replay"});
  std::vector<IngestionRow> rows;
  for (const int producers : producer_counts) {
    options.producer_threads = producers;
    options.events_per_producer = total_events / producers;
    auto policy = MakePolicy(policy_name, options.seed);
    if (!policy.ok()) {
      std::cerr << policy.status() << "\n";
      return 1;
    }
    auto run = RunConcurrentIngestion(std::move(*policy), options);
    if (!run.ok()) {
      std::cerr << run.status() << "\n";
      return 1;
    }
    auto replay_policy = MakePolicy(policy_name, options.seed);
    if (!replay_policy.ok()) {
      std::cerr << replay_policy.status() << "\n";
      return 1;
    }
    const Status replay =
        VerifyReplayIdentity(*run, std::move(*replay_policy), options);
    if (!replay.ok()) {
      std::cerr << "replay verification FAILED at producers=" << producers
                << ": " << replay << "\n";
      return 1;
    }
    IngestionRow row;
    row.producers = producers;
    row.accepted =
        run->ingestion.submits_accepted + run->ingestion.pushes_accepted;
    row.rejected =
        run->ingestion.submits_rejected + run->ingestion.pushes_rejected;
    row.events_per_second =
        static_cast<double>(row.accepted) /
        (run->wall_seconds > 0 ? run->wall_seconds : 1.0);
    row.mean_tick_us =
        run->tick_seconds / static_cast<double>(options.horizon) * 1e6;
    row.max_tick_us = run->max_tick_seconds * 1e6;
    row.max_batch = run->ingestion.max_batch;
    row.drain_ms = run->ingestion.drain_seconds * 1e3;
    rows.push_back(row);
    table.AddRow({TableWriter::Fmt(static_cast<int64_t>(producers)),
                  TableWriter::Fmt(row.accepted),
                  TableWriter::Fmt(row.events_per_second, 0),
                  TableWriter::Fmt(row.mean_tick_us, 2),
                  TableWriter::Fmt(row.max_tick_us, 2),
                  TableWriter::Fmt(row.max_batch), "OK"});
  }
  table.Print(std::cout);

  const std::string json = flags.GetString("json");
  if (!json.empty()) WriteJson(json, policy_name, options.horizon, rows);
  return 0;
}

}  // namespace
}  // namespace webmon::bench

int main(int argc, char** argv) { return webmon::bench::Run(argc, argv); }
