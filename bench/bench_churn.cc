// Mid-epoch profile churn: scheduler throughput and allocation behaviour
// while live CEIs are cancelled through OnlineScheduler::RemoveCeiBatch
// (docs/PERFORMANCE.md "Profile churn").
//
// Workload shape: the bench_sustained equilibrium — A CEIs arrive per
// chronon with window-W EIs, so the live population settles at P = A * W
// CEIs — with one addition: each churn row cancels churn * P of the oldest
// still-live CEIs every chronon. Every row of a population replays the
// identical arrival stream from the identical store, so the throughput
// ratio against the churn = 0 row isolates the cancel machinery: the
// incremental index unwind (event-ring tombstones + stale-bucket
// compaction, lazy candidate pruning, SoA slot stitching) must keep the
// chronon rate near the no-churn baseline — a rebuild-from-scratch
// implementation craters here — and the cancel + step window must stay
// free of heap allocations in steady state (counting operator new, same
// methodology as bench_sustained). Pass --json <path> to emit the
// measurements as a JSON document (the CI perf artifact, BENCH_churn.json).

#include <cmath>
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

struct ChurnRow {
  int64_t population = 0;
  double churn = 0.0;
  int64_t cancels_per_chronon = 0;
  int64_t measured_chronons = 0;
  double chronons_per_sec = 0.0;
  /// chronons_per_sec of this row / chronons_per_sec of the churn = 0 row
  /// with the same population (1.0 for the baseline row itself).
  double throughput_ratio = 0.0;
  double tick_us_per_chronon = 0.0;
  double ingest_us_per_chronon = 0.0;
  /// Allocations inside the RemoveCeiBatch + Step window (must be ~0).
  double tick_allocs_per_chronon = 0.0;
  double tick_alloc_bytes_per_chronon = 0.0;
  double ingest_allocs_per_chronon = 0.0;
  double peak_rss_mb = 0.0;
  /// Active EIs when the measured window opened (the live population).
  int64_t live_eis = 0;
  int64_t ceis_cancelled = 0;
  int64_t cancels_noop = 0;
  int64_t probes_issued = 0;
};

void WriteJson(const std::string& path, const std::string& policy,
               const FlagSet& flags, const std::vector<ChurnRow>& rows) {
  BenchJson json("churn");
  json.Param("policy", policy)
      .Param("window", flags.GetInt("window"))
      .Param("budget", flags.GetInt("budget"));
  for (const ChurnRow& row : rows) {
    json.Row()
        .Field("population", row.population)
        .Field("churn", row.churn)
        .Field("cancels_per_chronon", row.cancels_per_chronon)
        .Field("measured_chronons", row.measured_chronons)
        .Field("chronons_per_sec", row.chronons_per_sec)
        .Field("throughput_ratio", row.throughput_ratio)
        .Field("tick_us_per_chronon", row.tick_us_per_chronon)
        .Field("ingest_us_per_chronon", row.ingest_us_per_chronon)
        .Field("tick_allocs_per_chronon", row.tick_allocs_per_chronon)
        .Field("tick_alloc_bytes_per_chronon", row.tick_alloc_bytes_per_chronon)
        .Field("ingest_allocs_per_chronon", row.ingest_allocs_per_chronon)
        .Field("peak_rss_mb", row.peak_rss_mb)
        .Field("live_eis", row.live_eis)
        .Field("ceis_cancelled", row.ceis_cancelled)
        .Field("cancels_noop", row.cancels_noop)
        .Field("probes_issued", row.probes_issued);
  }
  json.Write(path);
}

// The arrival stream for one population: arrivals_per_chronon CEIs join
// each chronon, every EI spanning exactly [t, t + window - 1] (clamped), so
// each CEI's lifetime is known and the oldest-live cancel cursor needs no
// bookkeeping. The store is sized up front and never resized after
// generation, so the pointers handed to the scheduler stay valid.
struct ChurnTrack {
  std::vector<Cei> store;
  std::vector<std::vector<const Cei*>> by_chronon;
};

ChurnTrack GenerateTrack(int64_t arrivals_per_chronon, Chronon k,
                         Chronon window, uint32_t n, Rng& rng) {
  ChurnTrack track;
  track.store.reserve(static_cast<size_t>(arrivals_per_chronon) *
                      static_cast<size_t>(k));
  track.by_chronon.resize(static_cast<size_t>(k));
  CeiId next_cei = 0;
  EiId next_ei = 0;
  for (Chronon t = 0; t < k; ++t) {
    for (int64_t a = 0; a < arrivals_per_chronon; ++a) {
      Cei cei;
      cei.id = next_cei++;
      cei.arrival = t;
      cei.eis.reserve(2);
      for (int e = 0; e < 2; ++e) {
        ExecutionInterval ei;
        ei.id = next_ei++;
        ei.resource = static_cast<ResourceId>(rng.UniformU64(n));
        ei.start = t;
        ei.finish = t + window - 1 > k - 1 ? k - 1 : t + window - 1;
        cei.eis.push_back(ei);
      }
      track.store.push_back(std::move(cei));
    }
  }
  size_t idx = 0;
  for (Chronon t = 0; t < k; ++t) {
    auto& bucket = track.by_chronon[static_cast<size_t>(t)];
    bucket.reserve(static_cast<size_t>(arrivals_per_chronon));
    for (int64_t a = 0; a < arrivals_per_chronon; ++a) {
      bucket.push_back(&track.store[idx++]);
    }
  }
  return track;
}

int Run(int argc, const char* const* argv) {
  FlagSet flags(
      "bench_churn: tick throughput and allocations while live CEIs are "
      "cancelled mid-epoch");
  flags.AddString("json", "", "write measurements to this JSON file")
      .AddString("populations", "100000",
                 "comma-separated live-CEI population sizes P to sweep, "
                 "each 1 to 10^6 (P / window CEIs arrive per chronon)")
      .AddString("churn-rates", "0,0.001,0.01,0.1",
                 "comma-separated cancel fractions of the live population "
                 "per chronon, each in [0, 1] (0 = the baseline row the "
                 "ratio is computed against)")
      .AddString("policy", "s-edf", "scheduling policy")
      .AddInt("resources", 65536, "number of resources n, 1 to 10^7")
      .AddInt("window", 25, "EI window width W (chronons), 1 to 10^6")
      .AddInt("chronons", 150,
              "total chronons per cell (incl. warm-up), 1 to 10^6")
      .AddInt("warmup", 50,
              "untimed warm-up chronons (must exceed the window so the live "
              "set is in equilibrium, and stay below --chronons)")
      .AddInt("budget", 8, "probe budget C per chronon, 0 to 10^7")
      .AddInt("seed", 1, "workload RNG seed");
  if (Status st = flags.Parse(argc, argv); !st.ok()) {
    std::cerr << st << "\n" << flags.Help();
    return 2;
  }

  if (Status st = CheckScalarFlags(flags, {{"resources", 1, kMaxResources},
                                           {"window", 1, kMaxChronons},
                                           {"chronons", 1, kMaxChronons},
                                           {"warmup", 0, kMaxChronons},
                                           {"budget", 0, kMaxResources}});
      !st.ok()) {
    std::cerr << st << "\n";
    return 2;
  }
  auto parsed_populations =
      ParseListFlag<int64_t>(flags, "populations", 1, 1'000'000);
  if (!parsed_populations.ok()) {
    std::cerr << parsed_populations.status() << "\n";
    return 2;
  }
  std::vector<int64_t> populations = *std::move(parsed_populations);
  if (populations.empty()) populations.push_back(100000);
  auto parsed_rates = ParseListFlag<double>(flags, "churn-rates", 0.0, 1.0);
  if (!parsed_rates.ok()) {
    std::cerr << parsed_rates.status() << "\n";
    return 2;
  }
  std::vector<double> churn_rates = *std::move(parsed_rates);
  if (churn_rates.empty()) churn_rates = {0.0, 0.01};

  const std::string policy_name = flags.GetString("policy");
  const auto n = static_cast<uint32_t>(flags.GetInt("resources"));
  const Chronon k = flags.GetInt("chronons");
  const Chronon warmup = flags.GetInt("warmup");
  const Chronon window = flags.GetInt("window");
  const int64_t budget = flags.GetInt("budget");
  if (warmup <= window || warmup >= k) {
    // The live set must reach equilibrium before the measured window, and
    // that window must hold a chronon.
    std::cerr << FlagValueError("warmup", std::to_string(warmup), window + 1,
                                k - 1)
              << "\n";
    return 2;
  }

  PrintBanner("Churn", "Live CEI cancellation over a steady arrival stream",
              "throughput >= 0.9x the no-churn row at 1%/chronon; cancel + "
              "tick allocations 0 in steady state");

  TableWriter table({"population", "churn", "chronons/s", "ratio", "tick us",
                     "tick allocs", "ingest allocs", "live EIs",
                     "noop cancels", "peak RSS MB"});
  std::vector<ChurnRow> rows;
  for (const int64_t population : populations) {
    const int64_t arrivals_per_chronon =
        (population + window - 1) / window;
    // One store per population, shared by every churn row: identical
    // arrival stream, identical memory layout, so the ratio isolates the
    // cancel machinery instead of allocator noise.
    Rng rng(static_cast<uint64_t>(flags.GetInt("seed")) ^
            static_cast<uint64_t>(population));
    const ChurnTrack track =
        GenerateTrack(arrivals_per_chronon, k, window, n, rng);
    double baseline_cps = 0.0;
    for (const double churn : churn_rates) {
      const auto cancels_per_chronon =
          static_cast<int64_t>(std::llround(churn *
                                            static_cast<double>(population)));

      auto policy = MakePolicy(policy_name, 17);
      if (!policy.ok()) {
        std::cerr << policy.status() << "\n";
        return 1;
      }
      SchedulerOptions options;
      options.sizing.expected_active_eis =
          static_cast<size_t>(population) * 2 + 1024;
      options.sizing.expected_ceis = track.store.size();
      OnlineScheduler scheduler(n, k, BudgetVector::Uniform(budget),
                                policy->get(), options);

      // Oldest-live-first cancellation: ids are dense in arrival order and
      // every window is exactly W chronons, so at chronon t every id below
      // arrivals_per_chronon * (t - W + 1) has already left on its own and
      // the cursor just skips ahead. Cancels target genuinely live CEIs;
      // the rare no-op is an AND-captured victim.
      int64_t next_victim = 0;
      std::vector<CeiId> cancel_batch;
      cancel_batch.reserve(static_cast<size_t>(cancels_per_chronon));

      Stopwatch wall;
      Stopwatch span;
      double ingest_seconds = 0.0;
      double tick_seconds = 0.0;
      int64_t tick_allocs = 0;
      int64_t tick_alloc_bytes = 0;
      int64_t ingest_allocs = 0;
      ScopedMemorySampler memory;
      int64_t cancelled_start = 0;
      int64_t noop_start = 0;
      int64_t probes_start = 0;
      int64_t live_at_steady_state = 0;
      for (Chronon t = 0; t < k; ++t) {
        if (t == warmup) {
          live_at_steady_state =
              static_cast<int64_t>(scheduler.NumActiveEis());
          wall.Reset();
          ingest_seconds = 0.0;
          tick_seconds = 0.0;
          tick_allocs = 0;
          tick_alloc_bytes = 0;
          ingest_allocs = 0;
          memory.Reset();
          cancelled_start = scheduler.stats().ceis_cancelled;
          noop_start = scheduler.stats().cancels_noop;
          probes_start = scheduler.stats().probes_issued;
        }
        const AllocSnapshot before_ingest = SnapshotAllocCounters();
        span.Reset();
        for (const Cei* cei : track.by_chronon[static_cast<size_t>(t)]) {
          WEBMON_BENCH_CHECK_OK(scheduler.AddArrival(cei, t));
        }
        ingest_seconds += span.ElapsedSeconds();
        cancel_batch.clear();
        if (cancels_per_chronon > 0 && t > 0) {
          const int64_t expired_floor =
              t >= window ? arrivals_per_chronon * (t - window + 1) : 0;
          if (next_victim < expired_floor) next_victim = expired_floor;
          const int64_t submitted = arrivals_per_chronon * t;
          for (int64_t m = 0;
               m < cancels_per_chronon && next_victim < submitted; ++m) {
            cancel_batch.push_back(static_cast<CeiId>(next_victim++));
          }
        }
        const AllocSnapshot before_tick = SnapshotAllocCounters();
        ingest_allocs += before_tick.allocations - before_ingest.allocations;
        span.Reset();
        WEBMON_BENCH_CHECK_OK(scheduler.RemoveCeiBatch(cancel_batch, t));
        WEBMON_BENCH_CHECK_OK(scheduler.Step(t, nullptr, nullptr));
        tick_seconds += span.ElapsedSeconds();
        const AllocSnapshot after_tick = SnapshotAllocCounters();
        tick_allocs += after_tick.allocations - before_tick.allocations;
        tick_alloc_bytes += after_tick.bytes - before_tick.bytes;
      }
      const double measured_seconds = wall.ElapsedSeconds();
      const auto measured = static_cast<double>(k - warmup);

      ChurnRow row;
      row.population = population;
      row.churn = churn;
      row.cancels_per_chronon = cancels_per_chronon;
      row.measured_chronons = k - warmup;
      row.chronons_per_sec =
          measured / (measured_seconds > 0 ? measured_seconds : 1.0);
      if (churn == 0.0) baseline_cps = row.chronons_per_sec;
      row.throughput_ratio = baseline_cps > 0
                                 ? row.chronons_per_sec / baseline_cps
                                 : 0.0;
      row.tick_us_per_chronon = tick_seconds / measured * 1e6;
      row.ingest_us_per_chronon = ingest_seconds / measured * 1e6;
      row.tick_allocs_per_chronon =
          static_cast<double>(tick_allocs) / measured;
      row.tick_alloc_bytes_per_chronon =
          static_cast<double>(tick_alloc_bytes) / measured;
      row.ingest_allocs_per_chronon =
          static_cast<double>(ingest_allocs) / measured;
      row.peak_rss_mb =
          static_cast<double>(memory.PeakRssBytes()) / (1024.0 * 1024.0);
      row.live_eis = live_at_steady_state;
      row.ceis_cancelled =
          scheduler.stats().ceis_cancelled - cancelled_start;
      row.cancels_noop = scheduler.stats().cancels_noop - noop_start;
      row.probes_issued = scheduler.stats().probes_issued - probes_start;
      rows.push_back(row);
      table.AddRow({TableWriter::Fmt(row.population),
                    TableWriter::Percent(row.churn),
                    TableWriter::Fmt(row.chronons_per_sec, 1),
                    TableWriter::Fmt(row.throughput_ratio, 3),
                    TableWriter::Fmt(row.tick_us_per_chronon, 1),
                    TableWriter::Fmt(row.tick_allocs_per_chronon, 2),
                    TableWriter::Fmt(row.ingest_allocs_per_chronon, 1),
                    TableWriter::Fmt(row.live_eis),
                    TableWriter::Fmt(row.cancels_noop),
                    TableWriter::Fmt(row.peak_rss_mb, 1)});
    }
  }
  table.Print(std::cout);

  const std::string json = flags.GetString("json");
  if (!json.empty()) WriteJson(json, policy_name, flags, rows);
  return 0;
}

}  // namespace
}  // namespace webmon::bench

int main(int argc, char** argv) { return webmon::bench::Run(argc, argv); }
