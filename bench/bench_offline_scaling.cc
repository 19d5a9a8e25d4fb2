// Offline solver scaling: the optimized solvers (offline/exact_solver.h,
// offline/offline_approx.h) against the frozen pre-optimization references
// (offline/reference_solvers.h), on growing instances.
//
// Three families of cells:
//   * exact     — random mixed-rank instances small enough for the
//                 reference's unpruned enumeration; every cell verifies the
//                 optimized result (values and schedule bytes) against the
//                 reference before reporting its speedup, and one
//                 optimized-only cell exercises a 40+-EI instance the
//                 64-bit-mask reference cannot represent.
//   * local ratio / greedy — the Figure-10 auction workload at growing
//                 profile counts, up to the bench_ablation_offline size
//                 (40 profiles, 864 chronons).
//
// Pass --json <path> to emit the measurements (the CI perf artifact,
// BENCH_offline.json).

#include <cstdio>
#include <iostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "model/completeness.h"
#include "offline/exact_solver.h"
#include "offline/offline_approx.h"
#include "offline/reference_solvers.h"
#include "trace/update_model.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "workload/generator.h"

namespace webmon::bench {
namespace {

struct BenchRow {
  std::string solver;
  std::string cell;
  int64_t ceis = 0;
  Chronon chronons = 0;
  double opt_ms = 0.0;
  double ref_ms = -1.0;  // < 0: reference not runnable on this cell
  double speedup = 0.0;
  // Exact only, per solve (the mean over reps, like the times): states
  // expanded by the optimized search and subtrees cut by its bound.
  double states = 0.0;
  double pruned = 0.0;
  bool match = true;
};

bool SchedulesIdentical(const Schedule& a, const Schedule& b) {
  if (a.num_resources() != b.num_resources() ||
      a.num_chronons() != b.num_chronons() ||
      a.TotalProbes() != b.TotalProbes()) {
    return false;
  }
  for (ResourceId r = 0; r < a.num_resources(); ++r) {
    if (a.ProbesOf(r) != b.ProbesOf(r)) return false;
  }
  return true;
}

// Small random instance the reference exact solver can still chew through
// (same shape as the differential suite's generator).
StatusOr<ProblemInstance> RandomExactInstance(Rng& rng, int num_resources,
                                              Chronon num_chronons,
                                              int num_ceis, int max_rank) {
  ProblemBuilder builder(static_cast<uint32_t>(num_resources), num_chronons,
                         BudgetVector::Uniform(1));
  for (int c = 0; c < num_ceis; ++c) {
    builder.BeginProfile();
    std::vector<std::tuple<ResourceId, Chronon, Chronon>> eis;
    const int rank =
        1 + static_cast<int>(rng.UniformU64(static_cast<uint64_t>(max_rank)));
    for (int e = 0; e < rank; ++e) {
      const auto r = static_cast<ResourceId>(
          rng.UniformU64(static_cast<uint64_t>(num_resources)));
      const auto s = static_cast<Chronon>(
          rng.UniformU64(static_cast<uint64_t>(num_chronons)));
      const auto f = std::min<Chronon>(
          s + static_cast<Chronon>(rng.UniformU64(3)), num_chronons - 1);
      eis.emplace_back(r, s, f);
    }
    const double weight = (c % 3 == 0) ? 1.0 + 0.5 * (c % 5) : 1.0;
    WEBMON_RETURN_IF_ERROR(builder.AddCei(eis, /*arrival=*/-1, weight).status());
  }
  return builder.Build();
}

// The Figure-10 auction workload at a given profile count (the ablation
// bench's instance when num_profiles == 40).
StatusOr<ProblemInstance> AuctionInstance(uint32_t num_profiles,
                                          uint64_t seed) {
  Rng rng(seed);
  AuctionTraceOptions trace_options;
  trace_options.num_auctions = 400;
  trace_options.target_total_bids =
      static_cast<int64_t>(11150.0 * 400 / 732.0);
  trace_options.num_chronons = 864;
  WEBMON_ASSIGN_OR_RETURN(EventTrace trace,
                          GenerateAuctionTrace(trace_options, rng));
  PerfectUpdateModel model(trace);
  ProfileTemplate tmpl =
      ProfileTemplate::AuctionWatch(3, /*exact_rank=*/true, /*window=*/0);
  WorkloadOptions options;
  options.num_profiles = num_profiles;
  options.alpha = 0.3;
  options.budget = 1;
  WEBMON_ASSIGN_OR_RETURN(GeneratedWorkload workload,
                          GenerateWorkload(tmpl, options, model, trace, rng));
  return std::move(workload.problem);
}

void WriteJson(const std::string& path, const std::vector<BenchRow>& rows) {
  BenchJson json("offline_scaling");
  for (const BenchRow& row : rows) {
    json.Row()
        .Field("solver", row.solver)
        .Field("cell", row.cell)
        .Field("ceis", row.ceis)
        .Field("chronons", row.chronons)
        .Field("opt_ms", row.opt_ms)
        .Field("ref_ms", row.ref_ms)
        .Field("speedup", row.speedup)
        .Field("states", row.states)
        .Field("pruned", row.pruned)
        .Field("match", row.match);
  }
  json.Write(path);
}

int Run(int argc, const char* const* argv) {
  FlagSet flags(
      "bench_offline_scaling: optimized offline solvers vs frozen "
      "references");
  flags.AddString("json", "", "write measurements to this JSON file")
      .AddString("profiles", "10,20,40",
                 "comma-separated auction profile counts for the local-ratio "
                 "and greedy cells, each 1 to 10^4 (40 = ablation bench "
                 "size)")
      .AddInt("reps", 3,
              "repetitions per cell (fresh instance each), 1 to 1000")
      .AddInt("seed", 9000, "base RNG seed");
  if (Status st = flags.Parse(argc, argv); !st.ok()) {
    std::cerr << st << "\n" << flags.Help();
    return 2;
  }
  if (Status st = CheckScalarFlags(flags, {{"reps", 1, 1000}}); !st.ok()) {
    std::cerr << st << "\n";
    return 2;
  }
  auto parsed_counts = ParseListFlag<uint32_t>(flags, "profiles", 1, 10'000);
  if (!parsed_counts.ok()) {
    std::cerr << parsed_counts.status() << "\n";
    return 2;
  }
  const std::vector<uint32_t> profile_counts = *std::move(parsed_counts);
  const int reps = static_cast<int>(flags.GetInt("reps"));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));

  PrintBanner("Offline solver scaling",
              "Branch-and-bound exact, bucket-indexed local ratio, and slot "
              "greedy vs the frozen pre-optimization references",
              "identical results, far fewer states / touched chronons");

  std::vector<BenchRow> rows;
  bool all_match = true;

  // ---- Exact solver cells (reference still feasible). -------------------
  struct ExactCell {
    int resources;
    Chronon chronons;
    int ceis;
    int max_rank;
  };
  const ExactCell exact_cells[] = {{3, 8, 5, 2}, {4, 8, 6, 2}, {4, 10, 6, 3}};
  for (const ExactCell& cell : exact_cells) {
    BenchRow row;
    row.solver = "exact";
    row.cell = std::to_string(cell.ceis) + " CEIs, rank<=" +
               std::to_string(cell.max_rank);
    row.ceis = cell.ceis;
    row.chronons = cell.chronons;
    bool first = true;
    for (int rep = 0; rep < reps; ++rep) {
      Rng rng(seed + static_cast<uint64_t>(rep));
      auto problem = RandomExactInstance(rng, cell.resources, cell.chronons,
                                         cell.ceis, cell.max_rank);
      if (!problem.ok()) {
        std::cerr << problem.status() << "\n";
        return 1;
      }
      Stopwatch opt_watch;
      auto optimized = SolveExact(*problem);
      const double opt_ms = opt_watch.ElapsedMillis();
      Stopwatch ref_watch;
      auto reference = SolveExactReference(*problem);
      const double ref_ms = ref_watch.ElapsedMillis();
      if (!optimized.ok() || !reference.ok()) {
        std::cerr << "exact cell '" << row.cell << "' rep " << rep << ": "
                  << optimized.status() << " / " << reference.status()
                  << "\n";
        return 1;
      }
      row.opt_ms += opt_ms / reps;
      row.ref_ms = (first ? 0.0 : row.ref_ms) + ref_ms / reps;
      first = false;
      row.states += static_cast<double>(optimized->states_expanded) / reps;
      row.pruned += static_cast<double>(optimized->subtrees_pruned) / reps;
      row.match = row.match &&
                  optimized->captured_weight == reference->captured_weight &&
                  SchedulesIdentical(optimized->schedule,
                                     reference->schedule);
    }
    row.speedup = row.opt_ms > 0 ? row.ref_ms / row.opt_ms : 0.0;
    all_match = all_match && row.match;
    rows.push_back(row);
  }

  // ---- Exact beyond the reference's 64-EI mask: optimized only. ---------
  {
    BenchRow row;
    row.solver = "exact";
    row.cell = "40+ EIs (beyond reference)";
    row.chronons = 24;
    for (int rep = 0; rep < reps; ++rep) {
      // Fixed seed: the same 40+-EI instance every rep (timing only); not
      // every draw at this size fits the default state budget.
      Rng rng(0xB16);
      ProblemBuilder builder(6, 24, BudgetVector::Uniform(1));
      for (int c = 0; c < 20; ++c) {
        builder.BeginProfile();
        std::vector<std::tuple<ResourceId, Chronon, Chronon>> eis;
        const int rank = 2 + static_cast<int>(rng.UniformU64(2));
        for (int e = 0; e < rank; ++e) {
          const auto r = static_cast<ResourceId>(rng.UniformU64(6));
          const auto s = static_cast<Chronon>(rng.UniformU64(20));
          const auto f = std::min<Chronon>(
              s + 2 + static_cast<Chronon>(rng.UniformU64(4)), 23);
          eis.emplace_back(r, s, f);
        }
        auto cei = builder.AddCei(eis);
        if (!cei.ok()) {
          std::cerr << cei.status() << "\n";
          return 1;
        }
      }
      auto problem = builder.Build();
      if (!problem.ok()) {
        std::cerr << problem.status() << "\n";
        return 1;
      }
      row.ceis = static_cast<int64_t>(problem->AllCeis().size());
      Stopwatch opt_watch;
      auto optimized = SolveExact(*problem);
      if (!optimized.ok()) {
        std::cerr << optimized.status() << "\n";
        return 1;
      }
      row.opt_ms += opt_watch.ElapsedMillis() / reps;
      row.states += static_cast<double>(optimized->states_expanded) / reps;
      row.pruned += static_cast<double>(optimized->subtrees_pruned) / reps;
    }
    rows.push_back(row);
  }

  // ---- Local ratio and greedy on the auction workload. ------------------
  for (const uint32_t profiles : profile_counts) {
    BenchRow lr_row;
    lr_row.solver = "local-ratio";
    lr_row.cell = std::to_string(profiles) + " profiles";
    BenchRow lr_p1_row;
    lr_p1_row.solver = "local-ratio+P1";
    lr_p1_row.cell = lr_row.cell;
    BenchRow greedy_row;
    greedy_row.solver = "greedy";
    greedy_row.cell = lr_row.cell;
    bool first = true;
    for (int rep = 0; rep < reps; ++rep) {
      auto problem =
          AuctionInstance(profiles, 7000 + static_cast<uint64_t>(rep));
      if (!problem.ok()) {
        std::cerr << problem.status() << "\n";
        return 1;
      }
      lr_row.ceis = lr_p1_row.ceis = greedy_row.ceis =
          static_cast<int64_t>(problem->AllCeis().size());
      lr_row.chronons = lr_p1_row.chronons = greedy_row.chronons =
          problem->num_chronons();

      for (const bool transform : {false, true}) {
        BenchRow& row = transform ? lr_p1_row : lr_row;
        OfflineApproxOptions options;
        options.transform_to_p1 = transform;
        Stopwatch opt_watch;
        auto optimized = SolveOfflineApprox(*problem, options);
        const double opt_ms = opt_watch.ElapsedMillis();
        Stopwatch ref_watch;
        auto reference = SolveOfflineApproxReference(*problem, options);
        const double ref_ms = ref_watch.ElapsedMillis();
        if (!optimized.ok() || !reference.ok()) {
          std::cerr << optimized.status() << " / " << reference.status()
                    << "\n";
          return 1;
        }
        row.opt_ms += opt_ms / reps;
        row.ref_ms = (first ? 0.0 : row.ref_ms) + ref_ms / reps;
        row.match =
            row.match &&
            optimized->committed_ceis == reference->committed_ceis &&
            optimized->completeness == reference->completeness &&
            SchedulesIdentical(optimized->schedule, reference->schedule);
      }
      {
        Stopwatch opt_watch;
        auto optimized = SolveOfflineGreedy(*problem);
        const double opt_ms = opt_watch.ElapsedMillis();
        Stopwatch ref_watch;
        auto reference = SolveOfflineGreedyReference(*problem);
        const double ref_ms = ref_watch.ElapsedMillis();
        if (!optimized.ok() || !reference.ok()) {
          std::cerr << optimized.status() << " / " << reference.status()
                    << "\n";
          return 1;
        }
        greedy_row.opt_ms += opt_ms / reps;
        greedy_row.ref_ms = (first ? 0.0 : greedy_row.ref_ms) + ref_ms / reps;
        greedy_row.match =
            greedy_row.match &&
            optimized->committed_ceis == reference->committed_ceis &&
            SchedulesIdentical(optimized->schedule, reference->schedule);
      }
      first = false;
    }
    for (BenchRow* row : {&lr_row, &lr_p1_row, &greedy_row}) {
      row->speedup = row->opt_ms > 0 ? row->ref_ms / row->opt_ms : 0.0;
      all_match = all_match && row->match;
      rows.push_back(*row);
    }
  }

  TableWriter table({"solver", "cell", "CEIs", "K", "opt ms", "ref ms",
                     "speedup", "states", "pruned", "match"});
  for (const BenchRow& row : rows) {
    table.AddRow({row.solver, row.cell, TableWriter::Fmt(row.ceis),
                  TableWriter::Fmt(static_cast<int64_t>(row.chronons)),
                  TableWriter::Fmt(row.opt_ms, 3),
                  row.ref_ms < 0 ? "-" : TableWriter::Fmt(row.ref_ms, 3),
                  row.ref_ms < 0 ? "-" : TableWriter::Fmt(row.speedup, 1),
                  TableWriter::Fmt(row.states, 1),
                  TableWriter::Fmt(row.pruned, 1),
                  row.match ? "OK" : "DIVERGED"});
  }
  PrintTable(table);

  const std::string json = flags.GetString("json");
  if (!json.empty()) WriteJson(json, rows);
  if (!all_match) {
    std::cerr << "FAILURE: an optimized solver diverged from its reference\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace webmon::bench

int main(int argc, char** argv) { return webmon::bench::Run(argc, argv); }
