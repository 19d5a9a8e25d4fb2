// webmon_cli: command-line front-end to the webmon library.
//
// Subcommands:
//   run      — run a monitoring experiment (Table I style) and print the
//              per-policy completeness/runtime table.
//   inspect  — generate a trace (or load one from a file) and print its
//              statistics (event counts, gaps, activity skew).
//   query    — execute a continuous-query program against a simulated feed
//              world and print per-query statistics.
//
// Examples:
//   webmon_cli run --trace=poisson --lambda=30 --profiles=200 --rank=5
//       --policies=mrsf,m-edf,s-edf --budget=2
//   webmon_cli inspect --trace=auction
//   webmon_cli query --horizon=200
//       --program="SELECT item AS F1 FROM feed(Blog) WHEN EVERY 10" 

#include <cstdio>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "faults/fault_model.h"
#include "model/schedule_audit.h"
#include "policy/policy_factory.h"
#include "query/engine.h"
#include "query/parser.h"
#include "model/completeness.h"
#include "model/instance_stats.h"
#include "model/serialize.h"
#include "offline/exact_solver.h"
#include "offline/offline_approx.h"
#include "online/ingestion_driver.h"
#include "online/run.h"
#include "shard/event_stream.h"
#include "shard/sharded_run.h"
#include "util/rng.h"
#include "sim/experiment.h"
#include "sim/report.h"
#include "trace/update_model.h"
#include "workload/generator.h"
#include "trace/trace_stats.h"
#include "util/flags.h"
#include "util/string_util.h"
#include "util/table_writer.h"

namespace webmon {
namespace {

// Largest accepted --resources and --chronons: ten times the largest
// resource count the benches run (n = 10^6), and a million-chronon epoch.
// Above them a resource count no longer fits the 32-bit ResourceId the
// subcommands narrow it to, and sizing the per-resource tables or the
// per-chronon event rings can exhaust memory.
constexpr int64_t kMaxResources = 10'000'000;
constexpr int64_t kMaxChronons = 1'000'000;

// Largest accepted `shard` --shards, --rank and --arrivals (--window is
// capped at kMaxChronons). Every shard is a proxy with its own per-resource
// and per-chronon tables, and the fleet workload of arrivals x chronons
// CEIs of `rank` EIs each is built up front, so unchecked values exhaust
// memory (or, for a window near 2^63, overflow the finish chronon) before
// a single chronon runs.
constexpr int64_t kMaxShards = 1024;
constexpr int64_t kMaxRank = 64;
constexpr int64_t kMaxArrivals = 100'000;
// Largest `shard` workload, arrivals x chronons x rank EIs: each flag's own
// maximum still allows 6.4 * 10^12 EIs, all built before the first chronon.
constexpr int64_t kMaxShardWorkloadEis = 10'000'000;

// Largest accepted `ingest --producer-threads`: each producer is a thread
// started for the session, so an unchecked count asks the OS for that many
// threads (and a count past 2^31 is narrowed to a different one).
constexpr int64_t kMaxThreads = 64;

// The documented range of one integer flag.
struct FlagRange {
  const char* name;
  int64_t min;
  int64_t max;
};

// The capacities every subcommand that takes them shares.
constexpr FlagRange kCapacityRanges[] = {
    {"budget", 0, std::numeric_limits<int64_t>::max()},
    {"resources", 0, kMaxResources},
    {"chronons", 0, kMaxChronons}};

Status CheckRange(const FlagSet& flags, const FlagRange& range) {
  if (!flags.WasSet(range.name)) return Status::OK();
  const int64_t value = flags.GetInt(range.name);
  if (value < range.min || value > range.max) {
    return Status::InvalidArgument(
        std::string("--") + range.name + " must be " +
        (value < range.min ? ">= " + std::to_string(range.min)
                           : "<= " + std::to_string(range.max)) +
        ", got " + std::to_string(value));
  }
  return Status::OK();
}

// Parses argv into `flags`, then rejects out-of-range values: a budget,
// resource count or epoch length below zero, a resource count or epoch
// length above the bounds above, or a value outside one of the
// subcommand's own `ranges` is a usage error (exit 2), never a CHECK
// abort, a silently narrowed count or an allocation failure inside the
// library. Defaults are in range, so only flags set on the command line
// need the check.
Status ParseFlags(FlagSet& flags, int argc, const char* const* argv,
                  std::initializer_list<FlagRange> ranges = {}) {
  WEBMON_RETURN_IF_ERROR(flags.Parse(argc, argv));
  for (const FlagRange& range : kCapacityRanges) {
    WEBMON_RETURN_IF_ERROR(CheckRange(flags, range));
  }
  for (const FlagRange& range : ranges) {
    WEBMON_RETURN_IF_ERROR(CheckRange(flags, range));
  }
  return Status::OK();
}

void AddCommonTraceFlags(FlagSet& flags) {
  flags.AddString("trace", "poisson", "trace kind: poisson|auction|news")
      .AddInt("resources", 1000,
              "number of resources n (poisson), at most 10^7")
      .AddInt("chronons", 1000, "epoch length K, at most 10^6")
      .AddDouble("lambda", 20.0, "updates per resource per epoch (poisson)")
      .AddInt("seed", 1, "RNG seed");
}

void AddFaultFlags(FlagSet& flags) {
  flags.AddString("fault-spec-file", "",
                  "fault spec file (webmon-faults text format); overrides "
                  "the inline --fault-* flags")
      .AddString("fault-spec", "",
                 "deprecated alias of --fault-spec-file")
      .AddDouble("fault-transient", 0.0, "per-probe transient error prob")
      .AddDouble("fault-timeout", 0.0, "per-probe timeout prob")
      .AddDouble("fault-outage-enter", 0.0,
                 "Gilbert-Elliott good->bad transition prob per chronon")
      .AddDouble("fault-outage-exit", 0.5,
                 "Gilbert-Elliott bad->good transition prob per chronon")
      .AddDouble("fault-retry-budget", -1.0,
                 "cap on total budget spent on retry attempts (< 0 = "
                 "unlimited)")
      .AddInt("fault-seed", 1, "fault injector RNG seed");
}

StatusOr<FaultSpec> FaultSpecFromFlags(const FlagSet& flags) {
  const std::string spec_file = flags.GetString("fault-spec-file");
  const std::string legacy = flags.GetString("fault-spec");
  if (!spec_file.empty() && !legacy.empty() && spec_file != legacy) {
    return Status::InvalidArgument(
        "--fault-spec-file and --fault-spec (deprecated alias) disagree; "
        "pass only --fault-spec-file");
  }
  if (!spec_file.empty() || !legacy.empty()) {
    return LoadFaultSpecFromFile(spec_file.empty() ? legacy : spec_file);
  }
  FaultSpec spec;
  spec.defaults.transient_error_prob = flags.GetDouble("fault-transient");
  spec.defaults.timeout_prob = flags.GetDouble("fault-timeout");
  spec.defaults.outage_enter_prob = flags.GetDouble("fault-outage-enter");
  if (spec.defaults.outage_enter_prob > 0.0) {
    spec.defaults.outage_exit_prob = flags.GetDouble("fault-outage-exit");
  }
  spec.retry_budget = flags.GetDouble("fault-retry-budget");
  WEBMON_RETURN_IF_ERROR(spec.Validate());
  return spec;
}

StatusOr<ExperimentConfig> ConfigFromFlags(const FlagSet& flags) {
  ExperimentConfig config;
  const std::string kind = flags.GetString("trace");
  if (kind == "poisson") {
    config.trace_kind = TraceKind::kPoisson;
    config.poisson.num_resources =
        static_cast<uint32_t>(flags.GetInt("resources"));
    config.poisson.num_chronons = flags.GetInt("chronons");
    config.poisson.lambda = flags.GetDouble("lambda");
  } else if (kind == "auction") {
    config.trace_kind = TraceKind::kAuction;
  } else if (kind == "news") {
    config.trace_kind = TraceKind::kNews;
  } else {
    return Status::InvalidArgument("unknown trace kind: " + kind);
  }
  config.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  return config;
}

int RunCommand(int argc, const char* const* argv) {
  FlagSet flags("webmon_cli run: execute a monitoring experiment");
  AddCommonTraceFlags(flags);
  flags.AddInt("profiles", 100, "number of client profiles m")
      .AddInt("rank", 3, "CEI rank k (streams crossed)")
      .AddBool("exact-rank", false, "all CEIs have exactly rank k "
                                    "(otherwise 'upto k' via Zipf(beta,k))")
      .AddDouble("alpha", 0.3, "resource popularity skew")
      .AddDouble("beta", 0.0, "profile rank skew")
      .AddInt("window", 10, "capture window w (chronons)")
      .AddBool("random-window", true, "draw per-EI slack uniformly in [0,w]")
      .AddBool("sequential-rounds", true,
               "profiles restart rounds after notification")
      .AddInt("budget", 1, "probes per chronon C")
      .AddDouble("noise", 0.0, "FPN noise probability z in [0,1]")
      .AddString("policies", "mrsf,m-edf,s-edf",
                 "comma-separated policies (suffix ':np' for "
                 "non-preemptive)")
      .AddBool("offline", false, "also run the offline approximation")
      .AddInt("reps", 5, "repetitions")
      .AddBool("timing", false, "print per-phase scheduler time columns");
  AddFaultFlags(flags);
  if (Status st = ParseFlags(flags, argc, argv); !st.ok()) {
    std::cerr << st << "\n" << flags.Help();
    return 2;
  }

  auto config = ConfigFromFlags(flags);
  if (!config.ok()) {
    std::cerr << config.status() << "\n";
    return 2;
  }
  config->profile_template = ProfileTemplate::AuctionWatch(
      static_cast<uint32_t>(flags.GetInt("rank")),
      flags.GetBool("exact-rank"), flags.GetInt("window"));
  config->profile_template.random_window = flags.GetBool("random-window");
  config->workload.num_profiles =
      static_cast<uint32_t>(flags.GetInt("profiles"));
  config->workload.alpha = flags.GetDouble("alpha");
  config->workload.beta = flags.GetDouble("beta");
  config->workload.budget = flags.GetInt("budget");
  config->workload.sequential_rounds = flags.GetBool("sequential-rounds");
  config->z_noise = flags.GetDouble("noise");
  config->repetitions = static_cast<uint32_t>(flags.GetInt("reps"));
  auto fault_spec = FaultSpecFromFlags(flags);
  if (!fault_spec.ok()) {
    std::cerr << fault_spec.status() << "\n";
    return 2;
  }
  config->fault_spec = *std::move(fault_spec);
  config->fault_seed = static_cast<uint64_t>(flags.GetInt("fault-seed"));

  std::vector<PolicySpec> specs;
  for (const std::string& token : Split(flags.GetString("policies"), ',')) {
    std::string name(StripWhitespace(token));
    if (name.empty()) continue;
    bool preemptive = true;
    if (name.size() > 3 && name.substr(name.size() - 3) == ":np") {
      preemptive = false;
      name = name.substr(0, name.size() - 3);
    }
    specs.push_back({name, preemptive});
  }
  if (specs.empty()) {
    std::cerr << "no policies given\n";
    return 2;
  }

  auto result = RunExperiment(*config, specs, flags.GetBool("offline"));
  if (!result.ok()) {
    std::cerr << result.status() << "\n";
    return 1;
  }
  std::cout << "trace=" << flags.GetString("trace")
            << " profiles=" << config->workload.num_profiles
            << " rank=" << flags.GetInt("rank")
            << " C=" << config->workload.budget
            << " seed=" << config->seed << "  "
            << WorkloadSummary(*result) << "\n\n";
  ReportOptions report;
  report.runtime = true;
  report.timeliness = true;
  report.faults = !config->fault_spec.IsIdeal();
  report.timing = flags.GetBool("timing");
  BuildPolicyTable(*result, report).Print(std::cout);
  return 0;
}

int PoliciesCommand(int /*argc*/, const char* const* /*argv*/) {
  // The paper's Section IV-A three-level classification plus the Appendix B
  // per-value computation cost.
  TableWriter table({"policy", "information level", "value cost",
                     "description"});
  struct RowSpec {
    const char* name;
    const char* cost;
    const char* description;
  };
  const RowSpec rows[] = {
      {"s-edf", "Theta(1)",
       "earliest deadline first over single EIs (Prop. 1: optimal for "
       "rank 1, no intra-resource overlap)"},
      {"mrsf", "Theta(1)",
       "fewest residual EIs first (Prop. 2: l-competitive)"},
      {"m-edf", "O(k)",
       "fewest total remaining chronons first (Prop. 3: == MRSF on P^[1])"},
      {"w-mrsf", "Theta(1)",
       "MRSF residual divided by client utility (Section VII extension)"},
      {"wic", "Theta(1)",
       "max accumulated per-resource utility (prior-art baseline)"},
      {"random", "Theta(1)", "uniform random candidate (sanity baseline)"},
      {"round-robin", "Theta(1)",
       "least recently probed resource first (sanity baseline)"},
  };
  for (const RowSpec& row : rows) {
    auto policy = MakePolicy(row.name);
    if (!policy.ok()) continue;
    table.AddRow({(*policy)->name(), PolicyLevelToString((*policy)->level()),
                  row.cost, row.description});
  }
  table.Print(std::cout);
  return 0;
}

int InspectCommand(int argc, const char* const* argv) {
  FlagSet flags("webmon_cli inspect: print trace statistics");
  AddCommonTraceFlags(flags);
  flags.AddString("file", "", "load a saved trace instead of generating");
  if (Status st = ParseFlags(flags, argc, argv); !st.ok()) {
    std::cerr << st << "\n" << flags.Help();
    return 2;
  }
  EventTrace trace(0, 1);
  if (!flags.GetString("file").empty()) {
    auto loaded = EventTrace::LoadFromFile(flags.GetString("file"));
    if (!loaded.ok()) {
      std::cerr << loaded.status() << "\n";
      return 1;
    }
    trace = std::move(*loaded);
  } else {
    Rng rng(static_cast<uint64_t>(flags.GetInt("seed")));
    const std::string kind = flags.GetString("trace");
    if (kind == "poisson") {
      PoissonTraceOptions options;
      options.num_resources =
          static_cast<uint32_t>(flags.GetInt("resources"));
      options.num_chronons = flags.GetInt("chronons");
      options.lambda = flags.GetDouble("lambda");
      auto generated = GeneratePoissonTrace(options, rng);
      if (!generated.ok()) {
        std::cerr << generated.status() << "\n";
        return 1;
      }
      trace = std::move(*generated);
    } else if (kind == "auction") {
      auto generated = GenerateAuctionTrace(AuctionTraceOptions{}, rng);
      if (!generated.ok()) {
        std::cerr << generated.status() << "\n";
        return 1;
      }
      trace = std::move(*generated);
    } else if (kind == "news") {
      auto generated = GenerateNewsTrace(NewsTraceOptions{}, rng);
      if (!generated.ok()) {
        std::cerr << generated.status() << "\n";
        return 1;
      }
      trace = std::move(*generated);
    } else {
      std::cerr << "unknown trace kind: " << kind << "\n";
      return 2;
    }
  }
  std::cout << ComputeTraceStats(trace).ToString();
  return 0;
}

int QueryCommand(int argc, const char* const* argv) {
  FlagSet flags("webmon_cli query: run a continuous-query program");
  flags.AddString("program", "", "the query program text (required)")
      .AddInt("horizon", 200, "epoch length, 1 to 10^6")
      .AddDouble("lambda", 20.0, "updates per feed per epoch")
      .AddDouble("keyword-prob", 0.4, "probability an item mentions a "
                                      "keyword")
      .AddString("keywords", "oil", "comma-separated content keywords")
      .AddInt("budget", 1, "probes per chronon")
      .AddString("policy", "mrsf", "scheduling policy")
      .AddInt("seed", 1, "RNG seed");
  if (Status st =
          ParseFlags(flags, argc, argv, {{"horizon", 1, kMaxChronons}});
      !st.ok()) {
    std::cerr << st << "\n" << flags.Help();
    return 2;
  }
  if (flags.GetString("program").empty()) {
    std::cerr << "--program is required\n" << flags.Help();
    return 2;
  }
  auto queries = ParseQueries(flags.GetString("program"));
  if (!queries.ok()) {
    std::cerr << "parse error: " << queries.status() << "\n";
    return 1;
  }

  // Map feed names to resources in order of first appearance.
  std::map<std::string, ResourceId> feeds;
  for (const auto& q : *queries) {
    feeds.emplace(q.feed, static_cast<ResourceId>(feeds.size()));
  }

  const Chronon horizon = flags.GetInt("horizon");
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed")));
  PoissonTraceOptions trace_options;
  trace_options.num_resources = static_cast<uint32_t>(feeds.size());
  trace_options.num_chronons = horizon;
  trace_options.lambda = flags.GetDouble("lambda");
  auto trace = GeneratePoissonTrace(trace_options, rng);
  if (!trace.ok()) {
    std::cerr << trace.status() << "\n";
    return 1;
  }
  FeedWorldOptions world_options;
  world_options.keyword_prob = flags.GetDouble("keyword-prob");
  world_options.keywords.clear();
  for (const std::string& k : Split(flags.GetString("keywords"), ',')) {
    if (!k.empty()) world_options.keywords.emplace_back(k);
  }
  world_options.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  auto world = FeedWorld::Create(*trace, world_options);
  if (!world.ok()) {
    std::cerr << world.status() << "\n";
    return 1;
  }
  auto policy = MakePolicy(flags.GetString("policy"));
  if (!policy.ok()) {
    std::cerr << policy.status() << "\n";
    return 1;
  }
  auto engine = QueryEngine::Create(
      *queries, feeds, &*world, std::move(*policy), horizon,
      BudgetVector::Uniform(flags.GetInt("budget")));
  if (!engine.ok()) {
    std::cerr << engine.status() << "\n";
    return 1;
  }
  if (Status st = (*engine)->Run(); !st.ok()) {
    std::cerr << st << "\n";
    return 1;
  }

  TableWriter table({"query", "feed", "triggers", "items", "needs",
                     "captured", "expired"});
  for (const auto& q : *queries) {
    auto stats = (*engine)->StatsFor(q.alias);
    if (!stats.ok()) continue;
    table.AddRow({q.alias, q.feed, TableWriter::Fmt(stats->triggers_fired),
                  TableWriter::Fmt(stats->items_delivered),
                  TableWriter::Fmt(stats->needs_submitted),
                  TableWriter::Fmt(stats->needs_captured),
                  TableWriter::Fmt(stats->needs_expired)});
  }
  table.Print(std::cout);
  std::cout << "probes issued: " << (*engine)->proxy().stats().probes_issued
            << ", pushes: " << (*engine)->proxy().stats().pushes_delivered
            << "\n";
  return 0;
}

int GenerateCommand(int argc, const char* const* argv) {
  FlagSet flags("webmon_cli generate: build a workload instance and save it");
  AddCommonTraceFlags(flags);
  flags.AddInt("profiles", 50, "number of client profiles m")
      .AddInt("rank", 3, "CEI rank k")
      .AddBool("exact-rank", true, "all CEIs have exactly rank k")
      .AddDouble("alpha", 0.3, "resource popularity skew")
      .AddInt("window", 10, "capture window w")
      .AddInt("budget", 1, "probes per chronon C")
      .AddString("out", "instance.webmon", "output file");
  if (Status st = ParseFlags(flags, argc, argv); !st.ok()) {
    std::cerr << st << "\n" << flags.Help();
    return 2;
  }
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed")));
  PoissonTraceOptions trace_options;
  trace_options.num_resources =
      static_cast<uint32_t>(flags.GetInt("resources"));
  trace_options.num_chronons = flags.GetInt("chronons");
  trace_options.lambda = flags.GetDouble("lambda");
  auto trace = GeneratePoissonTrace(trace_options, rng);
  if (!trace.ok()) {
    std::cerr << trace.status() << "\n";
    return 1;
  }
  PerfectUpdateModel model(*trace);
  ProfileTemplate tmpl = ProfileTemplate::AuctionWatch(
      static_cast<uint32_t>(flags.GetInt("rank")),
      flags.GetBool("exact-rank"), flags.GetInt("window"));
  WorkloadOptions options;
  options.num_profiles = static_cast<uint32_t>(flags.GetInt("profiles"));
  options.alpha = flags.GetDouble("alpha");
  options.budget = flags.GetInt("budget");
  options.sequential_rounds = true;
  auto workload = GenerateWorkload(tmpl, options, model, *trace, rng);
  if (!workload.ok()) {
    std::cerr << workload.status() << "\n";
    return 1;
  }
  if (Status st =
          SaveProblemToFile(workload->problem, flags.GetString("out"));
      !st.ok()) {
    std::cerr << st << "\n";
    return 1;
  }
  std::cout << "saved " << workload->problem.Summary() << " to "
            << flags.GetString("out") << "\n\n"
            << ComputeInstanceStats(workload->problem).ToString();
  return 0;
}

int ReplayCommand(int argc, const char* const* argv) {
  FlagSet flags("webmon_cli replay: run policies over a saved instance");
  flags.AddString("instance", "instance.webmon", "saved instance file")
      .AddString("policies", "mrsf,m-edf,s-edf", "comma-separated policies")
      .AddBool("offline", false, "also run the offline approximation")
      .AddInt("seed", 1, "seed for stochastic policies")
      .AddBool("timing", false, "print per-phase scheduler time columns");
  AddFaultFlags(flags);
  if (Status st = ParseFlags(flags, argc, argv); !st.ok()) {
    std::cerr << st << "\n" << flags.Help();
    return 2;
  }
  auto problem = LoadProblemFromFile(flags.GetString("instance"));
  if (!problem.ok()) {
    std::cerr << problem.status() << "\n";
    return 1;
  }
  auto fault_spec = FaultSpecFromFlags(flags);
  if (!fault_spec.ok()) {
    std::cerr << fault_spec.status() << "\n";
    return 2;
  }
  const bool faulty = !fault_spec->IsIdeal();
  const bool timing = flags.GetBool("timing");
  std::cout << ComputeInstanceStats(*problem).ToString() << "\n";
  std::vector<std::string> headers{"policy", "completeness", "weighted",
                                   "probes"};
  if (faulty) {
    headers.insert(headers.end(), {"failed", "retried", "trips"});
  }
  if (timing) {
    headers.insert(headers.end(),
                   {"act ms", "rank ms", "probe ms", "capt ms"});
  }
  TableWriter table(std::move(headers));
  for (const std::string& token : Split(flags.GetString("policies"), ',')) {
    std::string name(StripWhitespace(token));
    if (name.empty()) continue;
    auto policy =
        MakePolicy(name, static_cast<uint64_t>(flags.GetInt("seed")));
    if (!policy.ok()) {
      std::cerr << policy.status() << "\n";
      return 1;
    }
    // Every policy faces the same fault streams: fresh injector per run.
    SchedulerOptions options;
    std::unique_ptr<FaultInjector> injector;
    if (faulty) {
      injector = std::make_unique<FaultInjector>(
          *fault_spec, problem->num_resources(),
          static_cast<uint64_t>(flags.GetInt("fault-seed")));
      options.fault_injector = injector.get();
    }
    auto run = RunOnline(*problem, policy->get(), options);
    if (!run.ok()) {
      std::cerr << run.status() << "\n";
      return 1;
    }
    std::vector<std::string> row{(*policy)->name(),
                                 TableWriter::Percent(run->completeness),
                                 TableWriter::Percent(WeightedCompleteness(
                                     *problem, run->schedule)),
                                 TableWriter::Fmt(run->stats.probes_issued)};
    if (faulty) {
      row.push_back(TableWriter::Fmt(run->stats.probes_failed));
      row.push_back(TableWriter::Fmt(run->stats.probes_retried));
      row.push_back(TableWriter::Fmt(run->stats.breaker_trips));
      // Self-check: the run must satisfy every fault invariant (backoff
      // lower bounds, breaker gating, budget accounting).
      if (Status audit = AuditFaultRun(*problem, run->schedule,
                                       run->attempts, options.fault_handling);
          !audit.ok()) {
        std::cerr << "fault audit FAILED for " << name << ": " << audit
                  << "\n";
        return 1;
      }
    }
    if (timing) {
      row.push_back(TableWriter::Fmt(run->stats.activate_seconds * 1e3, 2));
      row.push_back(TableWriter::Fmt(run->stats.rank_seconds * 1e3, 2));
      row.push_back(TableWriter::Fmt(run->stats.probe_seconds * 1e3, 2));
      row.push_back(TableWriter::Fmt(run->stats.capture_seconds * 1e3, 2));
    }
    table.AddRow(std::move(row));
  }
  if (flags.GetBool("offline")) {
    auto offline = SolveOfflineApprox(*problem);
    if (!offline.ok()) {
      std::cerr << offline.status() << "\n";
      return 1;
    }
    table.AddRow({"offline-approx",
                  TableWriter::Percent(offline->completeness),
                  TableWriter::Percent(
                      WeightedCompleteness(*problem, offline->schedule)),
                  TableWriter::Fmt(offline->schedule.TotalProbes())});
  }
  table.Print(std::cout);
  return 0;
}

int OfflineCommand(int argc, const char* const* argv) {
  FlagSet flags(
      "webmon_cli offline: run the offline solvers on one instance");
  flags.AddString("instance", "",
                  "saved instance file; when empty, generate a poisson "
                  "workload from the flags below")
      .AddInt("resources", 20,
              "number of resources n (generated), at most 10^7")
      .AddInt("chronons", 48, "epoch length K (generated), at most 10^6")
      .AddDouble("lambda", 20.0, "updates per resource per epoch (generated)")
      .AddInt("profiles", 12, "number of client profiles m (generated)")
      .AddInt("rank", 2, "CEI rank k (generated)")
      .AddInt("window", 6, "capture window w (generated)")
      .AddInt("budget", 1, "probes per chronon C (generated)")
      .AddInt("seed", 1, "RNG seed (generated)")
      .AddString("solvers", "local-ratio,greedy",
                 "comma-separated solvers: exact|local-ratio|greedy")
      .AddBool("transform", false,
               "apply the Proposition 5 P^[1] transform before local ratio")
      .AddInt("max-states", 50'000'000, "exact search state budget")
      .AddBool("timing", false,
               "print search counters and per-phase timers");
  if (Status st = ParseFlags(flags, argc, argv); !st.ok()) {
    std::cerr << st << "\n" << flags.Help();
    return 2;
  }

  ProblemInstance problem(1, 1, BudgetVector::Uniform(1));
  if (!flags.GetString("instance").empty()) {
    auto loaded = LoadProblemFromFile(flags.GetString("instance"));
    if (!loaded.ok()) {
      std::cerr << loaded.status() << "\n";
      return 1;
    }
    problem = *std::move(loaded);
  } else {
    Rng rng(static_cast<uint64_t>(flags.GetInt("seed")));
    PoissonTraceOptions trace_options;
    trace_options.num_resources =
        static_cast<uint32_t>(flags.GetInt("resources"));
    trace_options.num_chronons = flags.GetInt("chronons");
    trace_options.lambda = flags.GetDouble("lambda");
    auto trace = GeneratePoissonTrace(trace_options, rng);
    if (!trace.ok()) {
      std::cerr << trace.status() << "\n";
      return 1;
    }
    PerfectUpdateModel model(*trace);
    ProfileTemplate tmpl = ProfileTemplate::AuctionWatch(
        static_cast<uint32_t>(flags.GetInt("rank")), /*exact_rank=*/true,
        flags.GetInt("window"));
    WorkloadOptions options;
    options.num_profiles = static_cast<uint32_t>(flags.GetInt("profiles"));
    options.budget = flags.GetInt("budget");
    auto workload = GenerateWorkload(tmpl, options, model, *trace, rng);
    if (!workload.ok()) {
      std::cerr << workload.status() << "\n";
      return 1;
    }
    problem = std::move(workload->problem);
  }
  std::cout << ComputeInstanceStats(problem).ToString() << "\n";

  const bool timing = flags.GetBool("timing");
  std::vector<std::string> headers{"solver", "captured", "completeness",
                                   "weighted", "probes", "wall ms"};
  if (timing) headers.push_back("phases");
  TableWriter table(std::move(headers));
  auto fmt_ms = [](double seconds) {
    return TableWriter::Fmt(seconds * 1e3, 2);
  };
  for (const std::string& token : Split(flags.GetString("solvers"), ',')) {
    const std::string name(StripWhitespace(token));
    if (name.empty()) continue;
    if (name == "exact") {
      ExactSolverOptions options;
      options.max_states = flags.GetInt("max-states");
      auto result = SolveExact(problem, options);
      if (!result.ok()) {
        std::cerr << "exact: " << result.status() << "\n";
        return 1;
      }
      std::vector<std::string> row{
          "exact", TableWriter::Fmt(result->captured_ceis),
          TableWriter::Percent(result->completeness),
          TableWriter::Percent(result->weighted_completeness),
          TableWriter::Fmt(result->schedule.TotalProbes()),
          fmt_ms(result->search_seconds + result->reconstruct_seconds)};
      if (timing) {
        row.push_back("states=" + TableWriter::Fmt(result->states_expanded) +
                      " pruned=" + TableWriter::Fmt(result->subtrees_pruned) +
                      " dominated=" +
                      TableWriter::Fmt(result->dominated_skipped) +
                      " memo=" + TableWriter::Fmt(result->memo_hits) +
                      " search=" + fmt_ms(result->search_seconds) +
                      " rebuild=" + fmt_ms(result->reconstruct_seconds));
      }
      table.AddRow(std::move(row));
    } else if (name == "local-ratio" || name == "greedy") {
      StatusOr<OfflineApproxResult> result = Status::Internal("unset");
      if (name == "local-ratio") {
        OfflineApproxOptions options;
        options.transform_to_p1 = flags.GetBool("transform");
        result = SolveOfflineApprox(problem, options);
      } else {
        result = SolveOfflineGreedy(problem);
      }
      if (!result.ok()) {
        std::cerr << name << ": " << result.status() << "\n";
        return 1;
      }
      std::vector<std::string> row{
          name, TableWriter::Fmt(result->committed_ceis),
          TableWriter::Percent(result->completeness),
          TableWriter::Percent(
              WeightedCompleteness(problem, result->schedule)),
          TableWriter::Fmt(result->schedule.TotalProbes()),
          fmt_ms(result->wall_seconds)};
      if (timing) {
        std::string phases = "sort=" + fmt_ms(result->sort_seconds) +
                             " select=" + fmt_ms(result->select_seconds);
        if (result->transform_seconds > 0) {
          phases += " transform=" + fmt_ms(result->transform_seconds);
        }
        row.push_back(std::move(phases));
      }
      table.AddRow(std::move(row));
    } else {
      std::cerr << "unknown solver: " << name
                << " (expected exact|local-ratio|greedy)\n";
      return 2;
    }
  }
  table.Print(std::cout);
  return 0;
}

int IngestCommand(int argc, const char* const* argv) {
  FlagSet flags(
      "webmon_cli ingest: stream needs from producer threads into a ticking "
      "proxy, then prove the run replays deterministically");
  flags.AddInt("resources", 64, "number of resources n, at most 10^7")
      .AddInt("chronons", 2000, "epoch length K, at most 10^6")
      .AddInt("budget", 2, "probes per chronon")
      .AddString("policy", "s-edf", "scheduling policy")
      .AddInt("producer-threads", 4, "concurrent producer threads, 1 to 64")
      .AddInt("submits-per-producer", 2000,
              "events (submits + pushes) per producer")
      .AddDouble("push-prob", 0.1, "fraction of events that are pushes")
      .AddDouble("churn", 0.0,
                 "fraction of events that cancel an earlier accepted submit "
                 "(mid-epoch profile churn)")
      .AddInt("seed", 1, "payload RNG seed")
      .AddBool("verify-replay", true,
               "replay the arrival log serially and diff every observable");
  AddFaultFlags(flags);
  if (Status st = ParseFlags(flags, argc, argv,
                             {{"producer-threads", 1, kMaxThreads}});
      !st.ok()) {
    std::cerr << st << "\n" << flags.Help();
    return 2;
  }
  auto fault_spec = FaultSpecFromFlags(flags);
  if (!fault_spec.ok()) {
    std::cerr << fault_spec.status() << "\n";
    return 2;
  }
  IngestionDriverOptions options;
  options.num_resources = static_cast<uint32_t>(flags.GetInt("resources"));
  options.horizon = flags.GetInt("chronons");
  options.budget = flags.GetInt("budget");
  options.producer_threads =
      static_cast<int>(flags.GetInt("producer-threads"));
  options.events_per_producer = flags.GetInt("submits-per-producer");
  options.push_prob = flags.GetDouble("push-prob");
  options.cancel_prob = flags.GetDouble("churn");
  options.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  const bool faulty = !fault_spec->IsIdeal();
  std::unique_ptr<FaultInjector> injector;
  if (faulty) {
    injector = std::make_unique<FaultInjector>(
        *fault_spec, options.num_resources,
        static_cast<uint64_t>(flags.GetInt("fault-seed")));
    options.scheduler.fault_injector = injector.get();
  }
  auto policy = MakePolicy(flags.GetString("policy"),
                           static_cast<uint64_t>(flags.GetInt("seed")));
  if (!policy.ok()) {
    std::cerr << policy.status() << "\n";
    return 1;
  }
  auto run = RunConcurrentIngestion(std::move(*policy), options);
  if (!run.ok()) {
    std::cerr << run.status() << "\n";
    return 1;
  }
  const int64_t accepted = run->ingestion.submits_accepted +
                           run->ingestion.pushes_accepted +
                           run->ingestion.cancels_accepted;
  TableWriter table({"metric", "value"});
  table.AddRow({"producer threads",
                TableWriter::Fmt(
                    static_cast<int64_t>(options.producer_threads))});
  table.AddRow({"submits accepted",
                TableWriter::Fmt(run->ingestion.submits_accepted)});
  table.AddRow({"submits rejected",
                TableWriter::Fmt(run->ingestion.submits_rejected)});
  table.AddRow({"pushes accepted",
                TableWriter::Fmt(run->ingestion.pushes_accepted)});
  table.AddRow({"pushes rejected",
                TableWriter::Fmt(run->ingestion.pushes_rejected)});
  if (options.cancel_prob > 0) {
    table.AddRow({"cancels accepted",
                  TableWriter::Fmt(run->ingestion.cancels_accepted)});
    table.AddRow({"cancels rejected",
                  TableWriter::Fmt(run->ingestion.cancels_rejected)});
    table.AddRow({"ceis cancelled",
                  TableWriter::Fmt(run->stats.ceis_cancelled)});
    table.AddRow({"cancel no-ops",
                  TableWriter::Fmt(run->stats.cancels_noop)});
  }
  table.AddRow({"drain batches",
                TableWriter::Fmt(run->ingestion.drain_batches)});
  table.AddRow({"largest batch", TableWriter::Fmt(run->ingestion.max_batch)});
  table.AddRow({"probes issued", TableWriter::Fmt(run->stats.probes_issued)});
  if (faulty) {
    table.AddRow({"probes failed",
                  TableWriter::Fmt(run->stats.probes_failed)});
    table.AddRow({"breaker trips",
                  TableWriter::Fmt(run->stats.breaker_trips)});
  }
  table.AddRow({"completeness", TableWriter::Percent(run->completeness)});
  table.AddRow(
      {"ingest throughput (events/s)",
       TableWriter::Fmt(static_cast<double>(accepted) /
                            (run->wall_seconds > 0 ? run->wall_seconds : 1.0),
                        0)});
  table.AddRow({"mean tick (us)",
                TableWriter::Fmt(run->tick_seconds /
                                     static_cast<double>(options.horizon) *
                                     1e6,
                                 2)});
  table.AddRow({"max tick (us)",
                TableWriter::Fmt(run->max_tick_seconds * 1e6, 2)});
  table.AddRow({"drain time (ms)",
                TableWriter::Fmt(run->ingestion.drain_seconds * 1e3, 3)});
  table.AddRow({"wall time (ms)",
                TableWriter::Fmt(run->wall_seconds * 1e3, 1)});
  table.Print(std::cout);
  if (flags.GetBool("verify-replay")) {
    auto replay_policy = MakePolicy(flags.GetString("policy"),
                                    static_cast<uint64_t>(flags.GetInt("seed")));
    if (!replay_policy.ok()) {
      std::cerr << replay_policy.status() << "\n";
      return 1;
    }
    std::unique_ptr<FaultInjector> replay_injector;
    IngestionDriverOptions replay_options = options;
    if (faulty) {
      replay_injector = std::make_unique<FaultInjector>(
          *fault_spec, options.num_resources,
          static_cast<uint64_t>(flags.GetInt("fault-seed")));
      replay_options.scheduler.fault_injector = replay_injector.get();
    }
    if (Status st = VerifyReplayIdentity(*run, std::move(*replay_policy),
                                         replay_options);
        !st.ok()) {
      std::cerr << "replay verification FAILED: " << st << "\n";
      return 1;
    }
    std::cout << "replay verification: OK ("
              << run->log.size() << " logged arrivals reproduce the run)\n";
  }
  return 0;
}

int ShardCommand(int argc, const char* const* argv) {
  FlagSet flags(
      "webmon_cli shard: run one epoch on the sharded scheduler tier "
      "(partition, per-shard scheduling, audited stream merge) over a "
      "synthetic workload");
  flags.AddInt("resources", 10000, "number of resources n, at most 10^7")
      .AddInt("chronons", 200, "epoch length K, at most 10^6")
      .AddInt("shards", 4, "number of scheduler shards, 1 to 1024")
      .AddInt("arrivals", 50,
              "CEIs arriving per chronon, at most 10^5 (and arrivals x "
              "chronons x rank at most 10^7 EIs)")
      .AddInt("rank", 2, "EIs per CEI, 1 to 64")
      .AddInt("window", 16, "EI window width (chronons), 1 to 10^6")
      .AddInt("budget", 16, "GLOBAL probe budget per chronon")
      .AddDouble("hot-prob", 0.1,
                 "fraction of EIs drawn from a 64-resource hot set (drives "
                 "cross-shard CEIs)")
      .AddString("policy", "s-edf", "per-shard scheduling policy")
      .AddBool("parallel", false,
               "run the shards concurrently, at most one thread per core")
      .AddBool("verify-replay", true,
               "run both serial and parallel shard execution and require "
               "byte-identical streams and aggregate")
      .AddInt("seed", 1, "workload RNG seed");
  if (Status st = ParseFlags(flags, argc, argv,
                             {{"shards", 1, kMaxShards},
                              {"arrivals", 0, kMaxArrivals},
                              {"rank", 1, kMaxRank},
                              {"window", 1, kMaxChronons}});
      !st.ok()) {
    std::cerr << st << "\n" << flags.Help();
    return 2;
  }
  // Each factor is bounded above, so the product cannot overflow.
  const int64_t workload_eis = flags.GetInt("arrivals") *
                               flags.GetInt("chronons") * flags.GetInt("rank");
  if (workload_eis > kMaxShardWorkloadEis) {
    std::cerr << "--arrivals x --chronons x --rank must be <= "
              << kMaxShardWorkloadEis << " EIs, got " << workload_eis << "\n"
              << flags.Help();
    return 2;
  }

  const auto num_resources = static_cast<uint32_t>(flags.GetInt("resources"));
  const Chronon horizon = flags.GetInt("chronons");
  const Chronon window = flags.GetInt("window");
  const int64_t rank = flags.GetInt("rank");
  const double hot_prob = flags.GetDouble("hot-prob");
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed")));
  ShardedWorkload workload;
  CeiId next_id = 0;
  for (Chronon t = 0; t < horizon; ++t) {
    const Chronon finish = std::min<Chronon>(t + window - 1, horizon - 1);
    for (int64_t a = 0; a < flags.GetInt("arrivals"); ++a) {
      ShardCeiSpec spec;
      spec.id = next_id++;
      spec.arrival = t;
      for (int64_t e = 0; e < rank; ++e) {
        const bool hot = rng.UniformDouble() < hot_prob;
        const auto r = static_cast<ResourceId>(
            hot ? rng.UniformU64(64) : rng.UniformU64(num_resources));
        spec.eis.emplace_back(r, t, finish);
      }
      workload.ceis.push_back(std::move(spec));
    }
  }

  ShardedRunConfig config;
  config.num_resources = num_resources;
  config.num_shards = static_cast<uint32_t>(flags.GetInt("shards"));
  config.horizon = horizon;
  config.global_budget = BudgetVector::Uniform(flags.GetInt("budget"));
  config.policy = flags.GetString("policy");
  config.parallel_shards = flags.GetBool("parallel");
  auto run = RunSharded(config, workload);
  if (!run.ok()) {
    std::cerr << run.status() << "\n";
    return 1;
  }

  const AggregateResult& agg = run->aggregate;
  TableWriter table({"metric", "value"});
  table.AddRow({"shards", TableWriter::Fmt(
                              static_cast<int64_t>(config.num_shards))});
  table.AddRow({"CEIs", TableWriter::Fmt(agg.total_ceis)});
  table.AddRow({"cross-shard CEIs", TableWriter::Fmt(agg.cross_shard_ceis)});
  table.AddRow({"cross-shard captured",
                TableWriter::Fmt(agg.cross_shard_captured)});
  table.AddRow({"completeness", TableWriter::Percent(agg.completeness)});
  table.AddRow({"probes", TableWriter::Fmt(agg.probes)});
  table.AddRow({"max chronon spend (<= global budget, audited)",
                TableWriter::Fmt(agg.max_chronon_spend)});
  table.AddRow({"fragments submitted",
                TableWriter::Fmt(run->fragments_submitted)});
  table.Print(std::cout);

  if (flags.GetBool("verify-replay")) {
    config.parallel_shards = !config.parallel_shards;
    auto other = RunSharded(config, workload);
    if (!other.ok()) {
      std::cerr << other.status() << "\n";
      return 1;
    }
    // The arrival logs compare event by event (ArrivalEvent::operator==).
    bool identical = SerializeAggregateResult(run->aggregate) ==
                         SerializeAggregateResult(other->aggregate) &&
                     run->arrival_logs == other->arrival_logs;
    for (size_t s = 0; identical && s < run->streams.size(); ++s) {
      identical = SerializeShardStream(run->streams[s]) ==
                  SerializeShardStream(other->streams[s]);
    }
    if (!identical) {
      std::cerr << "replay verification FAILED: serial and parallel shard "
                   "execution diverged\n";
      return 1;
    }
    std::cout << "replay verification: OK (serial and parallel shard "
                 "execution merge byte-identically)\n";
  }
  return 0;
}

int Main(int argc, const char* const* argv) {
  const std::string usage =
      "usage: webmon_cli "
      "<run|inspect|query|generate|replay|offline|ingest|shard|policies> "
      "[flags]\n"
      "  run       execute a monitoring experiment\n"
      "  inspect   print trace statistics\n"
      "  query     run a continuous-query program\n"
      "  generate  build a workload instance and save it to a file\n"
      "  replay    run policies over a saved instance\n"
      "  offline   run the offline solvers (exact, local ratio, greedy)\n"
      "  ingest    stress concurrent Submit/Push ingestion and verify replay\n"
      "  shard     run an epoch on the sharded scheduler tier and verify the\n"
      "            merged streams replay identically\n"
      "  policies  list the scheduling policies and their classification\n"
      "Pass --help after a subcommand for its flags.\n";
  if (argc < 2) {
    std::cerr << usage;
    return 2;
  }
  const std::string command = argv[1];
  // Shift argv so subcommand flags parse from position 1.
  if (command == "run") return RunCommand(argc - 1, argv + 1);
  if (command == "inspect") return InspectCommand(argc - 1, argv + 1);
  if (command == "query") return QueryCommand(argc - 1, argv + 1);
  if (command == "generate") return GenerateCommand(argc - 1, argv + 1);
  if (command == "replay") return ReplayCommand(argc - 1, argv + 1);
  if (command == "offline") return OfflineCommand(argc - 1, argv + 1);
  if (command == "ingest") return IngestCommand(argc - 1, argv + 1);
  if (command == "shard") return ShardCommand(argc - 1, argv + 1);
  if (command == "policies") return PoliciesCommand(argc - 1, argv + 1);
  if (command == "--help" || command == "help") {
    std::cout << usage;
    return 0;
  }
  std::cerr << "unknown command: " << command << "\n" << usage;
  return 2;
}

}  // namespace
}  // namespace webmon

int main(int argc, char** argv) { return webmon::Main(argc, argv); }
