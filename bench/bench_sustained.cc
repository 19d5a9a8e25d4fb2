// Sustained-load scheduler throughput: steady-state chronons/sec and
// bytes/chronon under continuous arrivals at n = 10^5..10^6 resources
// (docs/PERFORMANCE.md "Memory & sustained throughput").
//
// Every chronon injects a fresh batch of CEIs (the resident-proxy traffic
// shape: the active set is in equilibrium — arrivals replace expiries) and
// ticks the scheduler with no schedule recording, so the numbers isolate
// the per-chronon hot path: index maintenance, ranking, probe issuance,
// capture/expiry. Heap churn is measured two ways: process-wide counting
// operator new (split into ingestion vs. tick allocations — the tick must
// be allocation-free in steady state) and the ScopedMemorySampler heap
// delta. The memory column is the resident-set growth from the generated
// workload (built up front, before the scheduler) to the end of the cell:
// the scheduler's own footprint, not the workload's. Pass --json <path> to
// emit the measurements as a JSON document (the CI perf artifact,
// BENCH_sustained.json).

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "online/online_scheduler.h"
#include "policy/policy_factory.h"
#include "util/alloc_counter.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stopwatch.h"

WEBMON_DEFINE_COUNTING_OPERATOR_NEW();

namespace webmon::bench {
namespace {

struct SustainedRow {
  int64_t resources = 0;
  int64_t measured_chronons = 0;
  double chronons_per_sec = 0.0;
  double step_us_per_chronon = 0.0;
  double ingest_us_per_chronon = 0.0;
  double step_allocs_per_chronon = 0.0;
  double step_alloc_bytes_per_chronon = 0.0;
  double total_allocs_per_chronon = 0.0;
  double heap_delta_bytes_per_chronon = 0.0;
  double rss_growth_mb = 0.0;
  double rank_us_per_chronon = 0.0;
  int64_t live_eis = 0;
  int64_t probes_issued = 0;
  int64_t eis_captured = 0;
};

void WriteJson(const std::string& path, const std::string& policy,
               const FlagSet& flags, const std::vector<SustainedRow>& rows) {
  BenchJson json("sustained");
  json.Param("policy", policy)
      .Param("arrivals_per_chronon", flags.GetInt("arrivals"))
      .Param("rank", flags.GetInt("rank"))
      .Param("window", flags.GetInt("window"))
      .Param("budget", flags.GetInt("budget"));
  for (const SustainedRow& row : rows) {
    json.Row()
        .Field("resources", row.resources)
        .Field("measured_chronons", row.measured_chronons)
        .Field("chronons_per_sec", row.chronons_per_sec)
        .Field("step_us_per_chronon", row.step_us_per_chronon)
        .Field("ingest_us_per_chronon", row.ingest_us_per_chronon)
        .Field("step_allocs_per_chronon", row.step_allocs_per_chronon)
        .Field("step_alloc_bytes_per_chronon",
               row.step_alloc_bytes_per_chronon)
        .Field("total_allocs_per_chronon", row.total_allocs_per_chronon)
        .Field("heap_delta_bytes_per_chronon",
               row.heap_delta_bytes_per_chronon)
        .Field("rss_growth_mb", row.rss_growth_mb)
        .Field("rank_us_per_chronon", row.rank_us_per_chronon)
        .Field("live_eis", row.live_eis)
        .Field("probes_issued", row.probes_issued)
        .Field("eis_captured", row.eis_captured);
  }
  json.Write(path);
}

// One per-chronon arrival batch. Cei objects live in `store` (never resized
// after generation), so the pointers handed to the scheduler stay valid.
struct ArrivalTrack {
  std::vector<Cei> store;
  std::vector<std::vector<const Cei*>> by_chronon;
};

ArrivalTrack GenerateArrivals(uint32_t n, Chronon k, int64_t per_chronon,
                              uint32_t rank, Chronon window, Rng& rng) {
  ArrivalTrack track;
  track.store.reserve(static_cast<size_t>(k) *
                      static_cast<size_t>(per_chronon));
  track.by_chronon.resize(static_cast<size_t>(k));
  CeiId next_cei = 0;
  EiId next_ei = 0;
  for (Chronon t = 0; t < k; ++t) {
    for (int64_t a = 0; a < per_chronon; ++a) {
      Cei cei;
      cei.id = next_cei++;
      cei.arrival = t;
      cei.eis.reserve(rank);
      for (uint32_t e = 0; e < rank; ++e) {
        ExecutionInterval ei;
        ei.id = next_ei++;
        ei.resource = static_cast<ResourceId>(rng.UniformU64(n));
        ei.start = t + static_cast<Chronon>(rng.UniformU64(3));
        ei.finish = ei.start + window - 1 +
                    static_cast<Chronon>(rng.UniformU64(5));
        if (ei.start > k - 1) ei.start = k - 1;
        if (ei.finish > k - 1) ei.finish = k - 1;
        cei.eis.push_back(ei);
      }
      track.store.push_back(std::move(cei));
    }
  }
  // Second pass for the pointers: store never reallocates again.
  size_t idx = 0;
  for (Chronon t = 0; t < k; ++t) {
    auto& bucket = track.by_chronon[static_cast<size_t>(t)];
    bucket.reserve(static_cast<size_t>(per_chronon));
    for (int64_t a = 0; a < per_chronon; ++a) {
      bucket.push_back(&track.store[idx++]);
    }
  }
  return track;
}

int Run(int argc, const char* const* argv) {
  FlagSet flags(
      "bench_sustained: steady-state chronons/sec under continuous arrivals");
  flags.AddString("json", "", "write measurements to this JSON file")
      .AddString("resources", "100000,1000000",
                 "comma-separated resource counts n to sweep, each 1 to "
                 "10^7")
      .AddString("policy", "s-edf", "scheduling policy")
      .AddInt("chronons", 1200,
              "total chronons per cell (incl. warm-up), 1 to 10^6")
      .AddInt("warmup", 200, "untimed warm-up chronons, below --chronons")
      .AddInt("arrivals", 2000, "CEIs arriving per chronon, 0 to 10^5")
      .AddInt("rank", 2, "EIs per CEI, 1 to 64")
      .AddInt("window", 16, "base EI window width (chronons), 1 to 10^6")
      .AddInt("budget", 8, "probe budget C per chronon, 0 to 10^7")
      .AddInt("seed", 1, "workload RNG seed");
  if (Status st = flags.Parse(argc, argv); !st.ok()) {
    std::cerr << st << "\n" << flags.Help();
    return 2;
  }

  auto parsed_counts =
      ParseListFlag<int64_t>(flags, "resources", 1, kMaxResources);
  if (!parsed_counts.ok()) {
    std::cerr << parsed_counts.status() << "\n";
    return 2;
  }
  if (Status st = CheckScalarFlags(flags, {{"chronons", 1, kMaxChronons},
                                           {"warmup", 0, kMaxChronons},
                                           {"arrivals", 0, kMaxArrivals},
                                           {"rank", 1, kMaxRank},
                                           {"window", 1, kMaxChronons},
                                           {"budget", 0, kMaxResources}});
      !st.ok()) {
    std::cerr << st << "\n";
    return 2;
  }
  std::vector<int64_t> resource_counts = *std::move(parsed_counts);
  if (resource_counts.empty()) resource_counts.push_back(100000);

  const std::string policy_name = flags.GetString("policy");
  const Chronon k = flags.GetInt("chronons");
  const Chronon warmup = flags.GetInt("warmup");
  const int64_t arrivals = flags.GetInt("arrivals");
  const auto rank = static_cast<uint32_t>(flags.GetInt("rank"));
  const Chronon window = flags.GetInt("window");
  const int64_t budget = flags.GetInt("budget");
  if (warmup >= k) {
    // Otherwise no chronon is measured and every rate divides by zero.
    std::cerr << FlagValueError("warmup", std::to_string(warmup), Chronon{0},
                                k - 1)
              << "\n";
    return 2;
  }

  PrintBanner("Sustained", "Steady-state throughput under continuous arrivals",
              "chronons/sec flat in n; tick allocations 0 in steady state");

  TableWriter table({"n", "chronons/s", "step us", "ingest us", "step allocs",
                     "step kB", "heap B/chr", "RSS growth MB",
                     "live EIs"});
  std::vector<SustainedRow> rows;
  for (const int64_t n : resource_counts) {
    Rng rng(static_cast<uint64_t>(flags.GetInt("seed")) ^
            static_cast<uint64_t>(n));
    const ArrivalTrack track = GenerateArrivals(
        static_cast<uint32_t>(n), k, arrivals, rank, window, rng);
    // Baseline after the workload is built and before the scheduler is.
    const ScopedMemorySampler scheduler_memory;

    auto policy = MakePolicy(policy_name, 17);
    if (!policy.ok()) {
      std::cerr << policy.status() << "\n";
      return 1;
    }
    SchedulerOptions options;
    // Steady-state active set: arrivals * rank EIs join per chronon and live
    // ~window chronons each (plus the start/finish jitter).
    options.sizing.expected_active_eis = static_cast<size_t>(
        arrivals * rank * (window + 8));
    OnlineScheduler scheduler(static_cast<uint32_t>(n), k,
                              BudgetVector::Uniform(budget), policy->get(),
                              options);

    Stopwatch wall;
    Stopwatch span;
    double ingest_seconds = 0.0;
    double step_seconds = 0.0;
    int64_t step_allocs = 0;
    int64_t step_alloc_bytes = 0;
    AllocSnapshot window_start{};
    ScopedMemorySampler memory;
    double rank_seconds_start = 0.0;
    int64_t probes_start = 0;
    int64_t captured_start = 0;
    int64_t live_at_steady_state = 0;
    for (Chronon t = 0; t < k; ++t) {
      if (t == warmup) {
        // Sample the equilibrium active-set size here: by the last chronon
        // every window has been clamped to the epoch end and the set has
        // drained, which would report ~0.
        live_at_steady_state =
            static_cast<int64_t>(scheduler.NumActiveEis());
        // Steady state reached: open the measured window.
        wall.Reset();
        ingest_seconds = 0.0;
        step_seconds = 0.0;
        step_allocs = 0;
        step_alloc_bytes = 0;
        window_start = SnapshotAllocCounters();
        memory.Reset();
        rank_seconds_start = scheduler.stats().rank_seconds;
        probes_start = scheduler.stats().probes_issued;
        captured_start = scheduler.stats().eis_captured;
      }
      span.Reset();
      for (const Cei* cei : track.by_chronon[static_cast<size_t>(t)]) {
        WEBMON_BENCH_CHECK_OK(scheduler.AddArrival(cei, t));
      }
      ingest_seconds += span.ElapsedSeconds();
      const AllocSnapshot before_step = SnapshotAllocCounters();
      span.Reset();
      WEBMON_BENCH_CHECK_OK(scheduler.Step(t, nullptr, nullptr));
      step_seconds += span.ElapsedSeconds();
      const AllocSnapshot after_step = SnapshotAllocCounters();
      step_allocs += after_step.allocations - before_step.allocations;
      step_alloc_bytes += after_step.bytes - before_step.bytes;
    }
    const double measured_seconds = wall.ElapsedSeconds();
    const AllocSnapshot window_end = SnapshotAllocCounters();
    const auto measured = static_cast<double>(k - warmup);

    SustainedRow row;
    row.resources = n;
    row.measured_chronons = k - warmup;
    row.chronons_per_sec =
        measured / (measured_seconds > 0 ? measured_seconds : 1.0);
    row.step_us_per_chronon = step_seconds / measured * 1e6;
    row.ingest_us_per_chronon = ingest_seconds / measured * 1e6;
    row.step_allocs_per_chronon = static_cast<double>(step_allocs) / measured;
    row.step_alloc_bytes_per_chronon =
        static_cast<double>(step_alloc_bytes) / measured;
    row.total_allocs_per_chronon =
        static_cast<double>(window_end.allocations -
                            window_start.allocations) /
        measured;
    row.heap_delta_bytes_per_chronon =
        static_cast<double>(memory.HeapDeltaBytes()) / measured;
    row.rss_growth_mb = static_cast<double>(scheduler_memory.RssDeltaBytes()) /
                        (1024.0 * 1024.0);
    row.rank_us_per_chronon =
        (scheduler.stats().rank_seconds - rank_seconds_start) / measured * 1e6;
    row.live_eis = live_at_steady_state;
    row.probes_issued = scheduler.stats().probes_issued - probes_start;
    row.eis_captured = scheduler.stats().eis_captured - captured_start;
    rows.push_back(row);
    table.AddRow({TableWriter::Fmt(row.resources),
                  TableWriter::Fmt(row.chronons_per_sec, 1),
                  TableWriter::Fmt(row.step_us_per_chronon, 1),
                  TableWriter::Fmt(row.ingest_us_per_chronon, 1),
                  TableWriter::Fmt(row.step_allocs_per_chronon, 2),
                  TableWriter::Fmt(row.step_alloc_bytes_per_chronon / 1024.0,
                                   2),
                  TableWriter::Fmt(row.heap_delta_bytes_per_chronon, 0),
                  TableWriter::Fmt(row.rss_growth_mb, 1),
                  TableWriter::Fmt(row.live_eis)});
  }
  table.Print(std::cout);

  const std::string json = flags.GetString("json");
  if (!json.empty()) WriteJson(json, policy_name, flags, rows);
  return 0;
}

}  // namespace
}  // namespace webmon::bench

int main(int argc, char** argv) { return webmon::bench::Run(argc, argv); }
