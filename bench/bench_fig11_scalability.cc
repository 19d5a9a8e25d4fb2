// Figure 11 (Section V-D): runtime scalability of the online policies.
//
// Setup: synthetic Poisson trace with 2.5x the baseline update intensity
// (lambda = 50) and up to 2500 profiles, rank 5, K = 1000, C = 1.
//
// Paper shape: the online policies' runtime normalized per EI stays roughly
// flat / linear as the workload grows (linear total runtime), with
// M-EDF a constant factor above MRSF above S-EDF; the offline approximation
// is far slower and is omitted from the sweep, as in the paper.
//
// Pass --json <path> to emit the measurements as a JSON document (the CI
// perf artifact, BENCH_scalability.json).

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "util/flags.h"

namespace webmon::bench {
namespace {

struct PolicyCell {
  std::string name;
  double us_per_ei = 0.0;
};

struct SweepRow {
  uint32_t profiles = 0;
  double ceis = 0.0;
  double eis = 0.0;
  std::vector<PolicyCell> policies;
};

// Emits the collected measurements — one flat row per (workload size,
// policy) cell.
void WriteJson(const std::string& path, const std::vector<SweepRow>& rows) {
  BenchJson json("fig11_scalability");
  json.Param("metric", "us_per_ei");
  for (const SweepRow& row : rows) {
    for (const PolicyCell& cell : row.policies) {
      json.Row()
          .Field("profiles", static_cast<int64_t>(row.profiles))
          .Field("ceis", row.ceis)
          .Field("eis", row.eis)
          .Field("policy", cell.name)
          .Field("us_per_ei", cell.us_per_ei);
    }
  }
  json.Write(path);
}

int Run(int argc, const char* const* argv) {
  FlagSet flags("bench_fig11_scalability: online runtime scalability sweep");
  flags.AddString("json", "", "write measurements to this JSON file")
      .AddInt("reps", 3, "repetitions per cell, 1 to 1000")
      .AddInt("max-profiles", 2500,
              "largest profile count in the sweep (steps of 500), 500 to "
              "10^5");
  if (Status st = flags.Parse(argc, argv); !st.ok()) {
    std::cerr << st << "\n" << flags.Help();
    return 2;
  }
  if (Status st = CheckScalarFlags(
          flags, {{"reps", 1, 1000}, {"max-profiles", 500, 100'000}});
      !st.ok()) {
    std::cerr << st << "\n";
    return 2;
  }

  std::vector<uint32_t> sizes;
  for (uint32_t m = 500;
       m <= static_cast<uint32_t>(flags.GetInt("max-profiles")); m += 500) {
    sizes.push_back(m);
  }

  PrintBanner("Figure 11", "Online policy runtime scalability (us per EI)",
              "linear trend; S-EDF <= MRSF << M-EDF; offline omitted "
              "(not scalable)");

  const std::vector<PolicySpec> specs{
      {"s-edf", true}, {"mrsf", true}, {"m-edf", true}};
  std::vector<SweepRow> rows;
  TableWriter table({"profiles", "CEIs", "EIs", "S-EDF us/EI", "MRSF us/EI",
                     "M-EDF us/EI"});
  for (const uint32_t m : sizes) {
    ExperimentConfig config = PaperBaseline(/*seed=*/43);
    config.poisson.lambda = 50.0;  // 2.5x the baseline intensity
    config.profile_template = ProfileTemplate::AuctionWatch(
        5, /*exact_rank=*/true, /*window=*/10);
    config.profile_template.random_window = true;
    config.workload.num_profiles = m;
    config.repetitions = static_cast<uint32_t>(flags.GetInt("reps"));
    auto result = RunExperiment(config, specs);
    if (!result.ok()) {
      std::fprintf(stderr, "FATAL: %s\n", result.status().ToString().c_str());
      return 1;
    }
    SweepRow row;
    row.profiles = m;
    row.ceis = result->total_ceis.mean();
    row.eis = result->total_eis.mean();
    for (size_t i = 0; i < specs.size(); ++i) {
      row.policies.push_back(
          {specs[i].name, result->policies[i].usec_per_ei.mean()});
    }
    rows.push_back(row);
    table.AddRow({TableWriter::Fmt(static_cast<int64_t>(m)),
                  TableWriter::Fmt(row.ceis, 0), TableWriter::Fmt(row.eis, 0),
                  TableWriter::Fmt(row.policies[0].us_per_ei, 3),
                  TableWriter::Fmt(row.policies[1].us_per_ei, 3),
                  TableWriter::Fmt(row.policies[2].us_per_ei, 3)});
  }
  PrintTable(table);

  if (!flags.GetString("json").empty()) {
    WriteJson(flags.GetString("json"), rows);
  }
  return 0;
}

}  // namespace
}  // namespace webmon::bench

int main(int argc, char** argv) { return webmon::bench::Run(argc, argv); }
