// The proxy workloads: resident, churn and faulty (README.md).
//
// The loop is closed on the proxy's logical clock. For each chronon t the
// benchmark generates t's arrivals (untimed), issues them through the public
// API — cancels, then pushes, then submits — and calls Tick(); the timed
// sample runs from the first call until Tick() returns. There is no
// wall-clock pacing and no producer thread, and num_threads stays 1, so
// every output is a pure function of the seed and no ThreadPool exists.
//
// Every epoch runs a fresh Proxy over one of kInputVariants seeded inputs,
// in turn: chronons [0, warmup) fill the live set (set-up), [warmup,
// warmup + K) are timed, and a tail of window_max chronons without new
// arrivals lets every CEI reach a terminal state so the epoch's books must
// balance. A run covers every variant at least once; end-to-end values
// that depend on the input (completeness) average the variants, which
// keeps them a pure function of the seed while halving their spread over
// seeds, and an epoch repeating a variant must reproduce its outputs.

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "faults/fault_model.h"
#include "model/schedule.h"
#include "online/arrival_log.h"
#include "online/online_scheduler.h"
#include "online/proxy.h"
#include "policy/policy_factory.h"
#include "util/poisson.h"
#include "util/rng.h"
#include "util/zipf.h"
#include "workloads.h"

namespace webmon::perfbench {
namespace {

struct ProxyShape {
  uint32_t num_resources = 0;
  /// Zipf skew of EI and push resource popularity (resource 0 hottest).
  double zipf_theta = 0.0;
  /// Poisson mean of Submit() calls per chronon.
  double arrivals_per_chronon = 0.0;
  /// EIs per CEI and window length in chronons, uniform on [min, max].
  int64_t rank_min = 1;
  int64_t rank_max = 1;
  int64_t window_min = 1;
  int64_t window_max = 1;
  int64_t budget = 1;
  const char* policy = "";
  /// Share of submitted CEIs the client cancels at a uniform chronon inside
  /// the CEI's window.
  double cancel_share = 0.0;
  /// Poisson mean of Push() calls per chronon.
  double pushes_per_chronon = 0.0;
  bool compact_terminal_states = false;
  bool faults = false;
  /// Timed chronons per epoch (K).
  Chronon timed_chronons = 0;

  Chronon warmup() const { return window_max; }
  Chronon arrival_chronons() const { return warmup() + timed_chronons; }
  Chronon horizon() const { return arrival_chronons() + window_max; }
};

ProxyShape ShapeFor(const std::string& workload, bool tiny) {
  ProxyShape s;
  s.rank_min = 1;
  s.rank_max = 3;
  s.budget = 16;
  if (workload == "resident") {
    s.num_resources = 1'000'000;
    s.zipf_theta = 0.3;
    s.arrivals_per_chronon = 150.0;
    s.window_min = 64;
    s.window_max = 192;
    s.policy = "mrsf";
    s.timed_chronons = 1000;
  } else if (workload == "churn") {
    s.num_resources = 20'000;
    s.zipf_theta = 0.8;
    s.arrivals_per_chronon = 800.0;
    s.window_min = 3;
    s.window_max = 9;
    s.policy = "m-edf";
    s.cancel_share = 0.2;
    s.pushes_per_chronon = 50.0;
    s.compact_terminal_states = true;
    s.timed_chronons = 500;
  } else {  // faulty
    s.num_resources = 200'000;
    // Skewed enough that hot resources are re-probed through outages, so
    // retries and breaker trips occur.
    s.zipf_theta = 0.8;
    s.arrivals_per_chronon = 100.0;
    s.window_min = 32;
    s.window_max = 96;
    s.policy = "m-edf";
    s.faults = true;
    s.timed_chronons = 600;
  }
  if (tiny) {
    s.num_resources = std::max<uint32_t>(s.num_resources / 100, 2000);
    s.arrivals_per_chronon /= 10.0;
    s.pushes_per_chronon /= 10.0;
    s.timed_chronons = 40;
  }
  return s;
}

// bench_faults' fault mix at p = 0.1: transient errors 10%, timeouts 2.5%,
// Gilbert-Elliott outages entering at 1.25% per chronon, plus one incident
// domain over every other resource. Its incidents are shorter and more
// frequent than bench_faults' (mean 12.5 chronons every ~60 instead of 50
// every ~250), so an epoch holds a dozen of them and completeness does not
// hinge on two or three draws of the chain.
FaultSpec FaultMix() {
  FaultSpec spec;
  spec.defaults.transient_error_prob = 0.1;
  spec.defaults.timeout_prob = 0.025;
  spec.defaults.outage_enter_prob = 0.0125;
  spec.defaults.outage_exit_prob = 0.4;
  IncidentDomain domain;
  domain.name = "backbone";
  domain.stride = 2;
  domain.offset = 0;
  domain.enter_prob = 0.02;
  domain.exit_prob = 0.08;
  domain.fail_prob = 0.98;
  spec.incidents.push_back(domain);
  return spec;
}

// Per-chronon Poisson counts over the arrival chronons.
std::vector<int64_t> PoissonCounts(double rate, Chronon chronons, Rng& rng) {
  std::vector<int64_t> counts(static_cast<size_t>(chronons), 0);
  auto times =
      HomogeneousPoissonArrivals(rate, static_cast<double>(chronons), rng);
  if (!times.ok()) return counts;  // rate >= 0 by construction
  for (int64_t c :
       BucketArrivals(*times, static_cast<double>(chronons), chronons)) {
    ++counts[static_cast<size_t>(c)];
  }
  return counts;
}

constexpr int64_t kInputVariants = 4;

// One seeded input: the client draws, the per-chronon op counts and the
// fault injector's seed.
struct Variant {
  uint64_t input_seed = 0;
  uint64_t injector_seed = 0;
  std::vector<int64_t> submits_at;
  std::vector<int64_t> pushes_at;
};

// Everything an epoch needs that is fixed for the whole run.
struct Context {
  ProxyShape shape;
  uint64_t policy_seed = 0;
  FaultSpec fault_spec;
  ZipfSampler zipf;
  std::vector<Variant> variants;
};

struct SubmitOp {
  std::vector<std::tuple<ResourceId, Chronon, Chronon>> eis;
  /// Chronon at which the client cancels this CEI, -1 for never.
  Chronon cancel_at = -1;
};

// The seeded client population: draws chronon t's submits and pushes into
// caller-owned buffers whose capacity is reused from chronon to chronon.
class InputStream {
 public:
  InputStream(const Context& ctx, const Variant& variant)
      : ctx_(ctx), variant_(variant), rng_(variant.input_seed) {}

  size_t Next(Chronon t, std::vector<SubmitOp>& submits,
              std::vector<ResourceId>& pushes) {
    const ProxyShape& s = ctx_.shape;
    pushes.clear();
    if (t >= s.arrival_chronons()) return 0;
    const auto n =
        static_cast<size_t>(variant_.submits_at[static_cast<size_t>(t)]);
    if (submits.size() < n) submits.resize(n);
    for (size_t i = 0; i < n; ++i) {
      SubmitOp& op = submits[i];
      op.eis.clear();
      const int64_t rank = rng_.UniformInt(s.rank_min, s.rank_max);
      const Chronon len = rng_.UniformInt(s.window_min, s.window_max);
      for (int64_t e = 0; e < rank; ++e) {
        op.eis.emplace_back(ctx_.zipf.SampleIndex(rng_), t, t + len - 1);
      }
      op.cancel_at = -1;
      if (s.cancel_share > 0.0 && len > 1 && rng_.Bernoulli(s.cancel_share)) {
        op.cancel_at = t + rng_.UniformInt(1, len - 1);
      }
    }
    const int64_t m = variant_.pushes_at[static_cast<size_t>(t)];
    for (int64_t i = 0; i < m; ++i) {
      pushes.push_back(ctx_.zipf.SampleIndex(rng_));
    }
    return n;
  }

 private:
  const Context& ctx_;
  const Variant& variant_;
  Rng rng_;
};

// Sums over the timed windows of the epochs (traced-only fields stay 0 in
// untraced runs). Times sum over every epoch; work counts only over the
// first epoch of each variant, so they are a pure function of the seed and
// do not shift with how many epochs fit in the run.
struct Totals {
  int64_t epochs = 0;
  int64_t chronons = 0;
  double chronon_s = 0.0;
  std::vector<double> chronon_us;
  std::vector<double> setup_s;
  std::vector<double> injector_setup_s;
  /// Completeness summed over the first epoch of each variant.
  double completeness = 0.0;
  /// VmHWM right after the first epoch (later epochs reuse freed heap in
  /// run-length-dependent ways, so the process peak would drift with speed).
  double peak_rss_mb = 0.0;
  /// Outputs of each variant's first epoch, which its repeats must match.
  std::vector<std::string> fingerprints;
  // Traced.
  int64_t counted_epochs = 0;
  int64_t counted_chronons = 0;
  double ingest_s = 0.0;
  double tick_s = 0.0;
  double drain_s = 0.0;
  double activate_s = 0.0;
  double rank_s = 0.0;
  double probe_s = 0.0;
  double capture_s = 0.0;
  int64_t ops = 0;
  int64_t submits = 0;
  int64_t tick_allocs = 0;
  int64_t heap_growth = 0;
  double live_ceis = 0.0;
  double resident_states = 0.0;
  int64_t probes = 0;
  int64_t eis_captured = 0;
  int64_t probes_failed = 0;
  int64_t probes_retried = 0;
  double budget_lost = 0.0;
  int64_t breaker_trips = 0;
  int64_t incident_suppressed = 0;
  int64_t incident_windows_detected = 0;
  int64_t attempt_log_len = 0;
};

void AppendNumber(std::string& out, double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, r.ptr);
  out += ' ';
}

void AppendNumber(std::string& out, int64_t v) {
  out += std::to_string(v);
  out += ' ';
}

// Every deterministic SchedulerStats field (the *_seconds phase timers are
// wall clock and excluded), as text: equal text means byte-equal counters.
std::string CounterText(const SchedulerStats& s) {
  std::string out;
  for (int64_t v :
       {s.ceis_seen, s.ceis_captured, s.ceis_expired, s.ceis_cancelled,
        s.cancels_noop, s.eis_seen, s.eis_captured, s.probes_issued,
        s.pushes_delivered, s.drain_batches, s.drained_arrivals,
        s.probes_failed, s.probes_retried, s.retries_suppressed,
        s.breaker_trips, s.incident_openings, s.incident_windows_detected,
        s.incident_windows_missed, s.incident_chronons,
        s.incident_probes_suppressed, s.incident_trial_probes}) {
    AppendNumber(out, v);
  }
  AppendNumber(out, s.retry_budget_spent);
  AppendNumber(out, s.budget_lost_to_failures);
  return out;
}

std::string IngestionText(const IngestionStats& s) {
  std::string out;
  for (int64_t v : {s.submits_accepted, s.submits_rejected, s.pushes_accepted,
                    s.pushes_rejected, s.cancels_accepted,
                    s.cancels_rejected, s.drain_batches, s.max_batch}) {
    AppendNumber(out, v);
  }
  return out;
}

SchedulerOptions OptionsFor(const ProxyShape& shape, FaultInjector* injector) {
  SchedulerOptions options;
  options.fault_injector = injector;
  options.compact_terminal_states = shape.compact_terminal_states;
  return options;
}

// Client-side tallies of one epoch: issued ops and callback counts.
struct Tally {
  int64_t submits = 0;
  int64_t pushes = 0;
  int64_t cancels = 0;
  int64_t captured = 0;
  int64_t expired = 0;
  int64_t cancelled = 0;
};

// Runs the next epoch into `totals`; false if it could not start. When
// set, `inspect` sees the finished proxy before it is destroyed.
bool RunEpoch(const Context& ctx, bool trace, Totals& totals, Ledger& ledger,
              SpanLog& spans,
              const std::function<void(const Proxy&)>& inspect = nullptr) {
  const ProxyShape& shape = ctx.shape;
  const Chronon horizon = shape.horizon();
  const auto v = static_cast<size_t>(totals.epochs % kInputVariants);
  const Variant& variant = ctx.variants[v];
  // Client-side state, built before the set-up clock starts.
  InputStream input(ctx, variant);
  std::vector<SubmitOp> submits;
  std::vector<ResourceId> pushes;
  std::vector<int64_t> assigned;  // -1: Submit failed
  std::vector<std::vector<CeiId>> cancels_due(static_cast<size_t>(horizon));
  Tally tally;
  auto policy = MakePolicy(shape.policy, ctx.policy_seed);
  ledger.Call(policy.status(), "MakePolicy");
  if (!policy.ok()) return false;

  const Clock::time_point setup_start = Clock::now();
  const int32_t epoch_span = spans.Open("epoch", setup_start, -1, -1);
  std::unique_ptr<FaultInjector> injector;  // outlives the proxy
  if (shape.faults) {
    injector = std::make_unique<FaultInjector>(
        ctx.fault_spec, shape.num_resources, variant.injector_seed);
    const Clock::time_point built = Clock::now();
    totals.injector_setup_s.push_back(SecondsBetween(setup_start, built));
    spans.Add("faults.injector_setup", setup_start, built, epoch_span, -1);
  }
  Proxy proxy(shape.num_resources, horizon,
              BudgetVector::Uniform(shape.budget), std::move(*policy),
              OptionsFor(shape, injector.get()));
  proxy.set_on_cei_captured([&tally](CeiId) { ++tally.captured; });
  proxy.set_on_cei_expired([&tally](CeiId) { ++tally.expired; });
  proxy.set_on_cei_cancelled([&tally](CeiId) { ++tally.cancelled; });

  const Chronon timed_begin = shape.warmup();
  const Chronon timed_end = shape.arrival_chronons();
  const bool counted = trace && totals.epochs < kInputVariants;
  SchedulerStats stats_begin;
  IngestionStats ingestion_begin;
  int64_t heap_begin = 0;
  for (Chronon t = 0; t < horizon; ++t) {
    const bool timed = t >= timed_begin && t < timed_end;
    if (t == timed_begin) {
      const Clock::time_point now = Clock::now();
      totals.setup_s.push_back(SecondsBetween(setup_start, now));
      spans.Add("setup", setup_start, now, epoch_span, -1);
      if (trace) {
        stats_begin = proxy.stats();
        ingestion_begin = proxy.ingestion_stats();
        heap_begin = HeapInUseBytes();
      }
    }
    const size_t num_submits = input.Next(t, submits, pushes);
    std::vector<CeiId>& cancels = cancels_due[static_cast<size_t>(t)];
    if (assigned.size() < num_submits) assigned.resize(num_submits);

    const Clock::time_point start = Clock::now();
    for (CeiId id : cancels) ledger.Call(proxy.Cancel(id), "Cancel");
    for (ResourceId r : pushes) ledger.Call(proxy.Push(r), "Push");
    for (size_t i = 0; i < num_submits; ++i) {
      StatusOr<CeiId> id = proxy.Submit(submits[i].eis);
      ledger.Call(id.status(), "Submit");
      assigned[i] = id.ok() ? static_cast<int64_t>(*id) : -1;
    }
    Clock::time_point ops_done;
    int64_t allocs_before = 0;
    if (trace && timed) {
      ops_done = Clock::now();
      allocs_before = AllocationsSoFar();
    }
    StatusOr<std::vector<ResourceId>> probed = proxy.Tick();
    const Clock::time_point end = Clock::now();

    if (timed) {
      const double seconds = SecondsBetween(start, end);
      totals.chronon_s += seconds;
      totals.chronon_us.push_back(seconds * 1e6);
      ++totals.chronons;
      if (trace) {
        totals.ingest_s += SecondsBetween(start, ops_done);
        totals.tick_s += SecondsBetween(ops_done, end);
        const int32_t chronon_span =
            spans.Add("chronon", start, end, epoch_span, t);
        spans.Add("online.ingest", start, ops_done, chronon_span, t);
        spans.Add("online.tick", ops_done, end, chronon_span, t);
      }
      if (counted) {
        ++totals.counted_chronons;
        totals.tick_allocs += AllocationsSoFar() - allocs_before;
        totals.ops += static_cast<int64_t>(cancels.size() + pushes.size() +
                                           num_submits);
        totals.submits += static_cast<int64_t>(num_submits);
        totals.live_ceis += static_cast<double>(
            tally.submits + static_cast<int64_t>(num_submits) -
            tally.captured - tally.expired - tally.cancelled);
      }
    }
    ledger.Call(probed.status(), "Tick");
    if (probed.ok()) {
      ledger.Check(static_cast<int64_t>(probed->size()) <= shape.budget,
                   "at most C probes per Tick");
      for (ResourceId r : *probed) {
        ledger.Check(r < shape.num_resources, "probe names a known resource");
      }
    }
    tally.cancels += static_cast<int64_t>(cancels.size());
    tally.pushes += static_cast<int64_t>(pushes.size());
    tally.submits += static_cast<int64_t>(num_submits);
    for (size_t i = 0; i < num_submits; ++i) {
      if (submits[i].cancel_at >= 0 && assigned[i] >= 0) {
        cancels_due[static_cast<size_t>(submits[i].cancel_at)].push_back(
            static_cast<CeiId>(assigned[i]));
      }
    }
    if (trace && t == timed_end - 1) {
      const SchedulerStats& s = proxy.stats();
      totals.drain_s +=
          proxy.ingestion_stats().drain_seconds - ingestion_begin.drain_seconds;
      totals.activate_s += s.activate_seconds - stats_begin.activate_seconds;
      totals.rank_s += s.rank_seconds - stats_begin.rank_seconds;
      totals.probe_s += s.probe_seconds - stats_begin.probe_seconds;
      totals.capture_s += s.capture_seconds - stats_begin.capture_seconds;
    }
    if (counted && t == timed_end - 1) {
      const SchedulerStats& s = proxy.stats();
      totals.probes += s.probes_issued - stats_begin.probes_issued;
      totals.eis_captured += s.eis_captured - stats_begin.eis_captured;
      totals.probes_failed += s.probes_failed - stats_begin.probes_failed;
      totals.probes_retried += s.probes_retried - stats_begin.probes_retried;
      totals.budget_lost +=
          s.budget_lost_to_failures - stats_begin.budget_lost_to_failures;
      totals.breaker_trips += s.breaker_trips - stats_begin.breaker_trips;
      totals.incident_suppressed += s.incident_probes_suppressed -
                                    stats_begin.incident_probes_suppressed;
      totals.heap_growth += HeapInUseBytes() - heap_begin;
      totals.resident_states +=
          static_cast<double>(proxy.num_resident_states());
    }
  }
  spans.Close(epoch_span, Clock::now());

  // The epoch's books must balance.
  const SchedulerStats& s = proxy.stats();
  const IngestionStats ing = proxy.ingestion_stats();
  ledger.Check(proxy.Done(), "epoch ran to its horizon");
  ledger.Check(s.ceis_seen == s.ceis_captured + s.ceis_expired +
                                  s.ceis_cancelled,
               "ceis_seen == captured + expired + cancelled");
  ledger.Check(ing.submits_accepted == tally.submits &&
                   ing.pushes_accepted == tally.pushes &&
                   ing.cancels_accepted == tally.cancels,
               "ingestion accepted every issued op");
  ledger.Check(ing.submits_rejected == 0 && ing.pushes_rejected == 0 &&
                   ing.cancels_rejected == 0,
               "ingestion rejected nothing");
  ledger.Check(s.ceis_seen == tally.submits, "every submit reached the "
                                              "scheduler");
  ledger.Check(tally.captured == s.ceis_captured &&
                   tally.expired == s.ceis_expired &&
                   tally.cancelled == s.ceis_cancelled,
               "callbacks match the scheduler counters");
  ledger.Check(proxy.schedule().CheckFeasible(
                   BudgetVector::Uniform(shape.budget)).ok(),
               "schedule within budget");
  // An epoch repeating a variant's input must repeat its outputs.
  const std::string fingerprint = CounterText(s) + IngestionText(ing);
  if (v == totals.fingerprints.size()) {
    totals.fingerprints.push_back(fingerprint);
    totals.completeness += proxy.CompletenessSoFar();
  } else {
    ledger.Check(fingerprint == totals.fingerprints[v],
                 "epoch outputs repeat the variant's first epoch");
  }
  if (totals.epochs == 0) totals.peak_rss_mb = PeakRssMb();
  if (counted) {
    ++totals.counted_epochs;
    totals.incident_windows_detected += s.incident_windows_detected;
    totals.attempt_log_len += static_cast<int64_t>(proxy.attempt_log().size());
  }
  ++totals.epochs;
  if (inspect) inspect(proxy);
  return true;
}

// Replays `log_text` through a fresh proxy (with a fresh injector on the
// seed of `variant`, the input `original` ran) and compares it with
// `original`: OK iff the replay reproduces the scheduler counters, the
// ingestion counters, every chronon's probes, the attempt log, the arrival
// log and the completeness bit for bit.
Status CheckReplay(const Context& ctx, const Variant& variant,
                   const Proxy& original, const std::string& log_text) {
  const ProxyShape& shape = ctx.shape;
  StatusOr<ArrivalLog> log = ParseArrivalLog(log_text);
  if (!log.ok()) return log.status();
  std::unique_ptr<FaultInjector> injector;
  if (shape.faults) {
    injector = std::make_unique<FaultInjector>(
        ctx.fault_spec, shape.num_resources, variant.injector_seed);
  }
  StatusOr<std::unique_ptr<Policy>> policy =
      MakePolicy(shape.policy, ctx.policy_seed);
  if (!policy.ok()) return policy.status();
  StatusOr<ProxyReplayResult> replay = ReplayArrivalLog(
      *log, shape.num_resources, shape.horizon(),
      BudgetVector::Uniform(shape.budget), std::move(*policy),
      OptionsFor(shape, injector.get()));
  if (!replay.ok()) return replay.status();
  auto mismatch = [](const std::string& what) {
    return Status::Internal("replay differs in " + what);
  };
  if (CounterText(replay->stats) != CounterText(original.stats())) {
    return mismatch("scheduler counters");
  }
  if (IngestionText(replay->ingestion) !=
      IngestionText(original.ingestion_stats())) {
    return mismatch("ingestion counters");
  }
  for (Chronon t = 0; t < shape.horizon(); ++t) {
    if (replay->schedule.ProbesAt(t) != original.schedule().ProbesAt(t)) {
      return mismatch("the probes of chronon " + std::to_string(t));
    }
  }
  if (replay->attempts != original.attempt_log()) {
    return mismatch("the attempt log");
  }
  if (replay->log != original.arrival_log()) return mismatch("the arrival log");
  if (std::bit_cast<uint64_t>(replay->completeness) !=
      std::bit_cast<uint64_t>(original.CompletenessSoFar())) {
    return mismatch("completeness");
  }
  return Status::OK();
}

Context MakeContext(const std::string& workload, uint64_t seed, bool tiny) {
  const ProxyShape shape = ShapeFor(workload, tiny);
  Rng seeder(seed ^ 0x70726F7879ULL);  // "proxy"
  Context ctx{shape, seeder.Next64(), shape.faults ? FaultMix() : FaultSpec{},
              *ZipfSampler::Create(shape.num_resources, shape.zipf_theta),
              {}};
  for (int64_t i = 0; i < kInputVariants; ++i) {
    Variant variant;
    variant.input_seed = seeder.Next64();
    variant.injector_seed = seeder.Next64();
    Rng counts_rng(seeder.Next64());
    variant.submits_at = PoissonCounts(shape.arrivals_per_chronon,
                                       shape.arrival_chronons(), counts_rng);
    variant.pushes_at = PoissonCounts(shape.pushes_per_chronon,
                                      shape.arrival_chronons(), counts_rng);
    ctx.variants.push_back(std::move(variant));
  }
  return ctx;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// A time summed over every timed chronon, per chronon.
double PerChronon(double total, const Totals& t) {
  return Ratio(total, static_cast<double>(t.chronons));
}

// A work count summed over the counted epochs, per chronon and per epoch.
double PerCountedChronon(double total, const Totals& t) {
  return Ratio(total, static_cast<double>(t.counted_chronons));
}
double PerCountedEpoch(double total, const Totals& t) {
  return Ratio(total, static_cast<double>(t.counted_epochs));
}

void ReportEndToEnd(const Totals& t, Report& report) {
  report.Set("setup_s", Median(t.setup_s));
  report.Set("chronons_per_s",
             Ratio(static_cast<double>(t.chronons), t.chronon_s));
  report.Set("completeness",
             t.completeness / static_cast<double>(t.fingerprints.size()));
  report.Set("peak_rss_mb", t.peak_rss_mb);
  report.Set("chronon_p50_us", Quantile(t.chronon_us, 0.5));
  report.Set("chronon_p90_us", Quantile(t.chronon_us, 0.9));
}

// The part of the Tick spans that neither the drain timer nor the four
// phase timers cover.
double TickOtherSeconds(const Totals& t) {
  return t.tick_s - t.drain_s - t.activate_s - t.rank_s - t.probe_s -
         t.capture_s;
}

void ReportPerLayer(const Totals& t, bool faults, Report& report) {
  const double us = 1e6;
  const double other_s = TickOtherSeconds(t);
  const auto probes = static_cast<double>(t.probes);
  report.Set("online.chronon_us", PerChronon(t.chronon_s, t) * us);
  report.Set("online.ingest_us", PerChronon(t.ingest_s, t) * us);
  report.Set("online.drain_us", PerChronon(t.drain_s, t) * us);
  report.Set("online.activate_us", PerChronon(t.activate_s, t) * us);
  report.Set("online.rank_us", PerChronon(t.rank_s, t) * us);
  report.Set("online.probe_us", PerChronon(t.probe_s, t) * us);
  report.Set("online.capture_us", PerChronon(t.capture_s, t) * us);
  report.Set("online.tick_other_us", PerChronon(other_s, t) * us);
  report.Set("online.attributed_share",
             Ratio(t.chronon_s - other_s, t.chronon_s));
  report.Set("online.ops_per_chronon",
             PerCountedChronon(static_cast<double>(t.ops), t));
  report.Set("online.heap_bytes_per_submit",
             Ratio(static_cast<double>(t.heap_growth),
                   static_cast<double>(t.submits)));
  report.Set("online.resident_states", PerCountedEpoch(t.resident_states, t));
  report.Set("online.tick_allocs_per_chronon",
             PerCountedChronon(static_cast<double>(t.tick_allocs), t));
  report.Set("online.live_ceis", PerCountedChronon(t.live_ceis, t));
  report.Set("online.probes_per_chronon", PerCountedChronon(probes, t));
  report.Set("online.captures_per_probe",
             Ratio(static_cast<double>(t.eis_captured), probes));
  report.Set("bench.traced_chronons_per_s",
             Ratio(static_cast<double>(t.chronons), t.chronon_s));
  if (!faults) return;
  report.Set("faults.injector_setup_s", Median(t.injector_setup_s));
  report.Set("faults.failed_probe_share",
             Ratio(static_cast<double>(t.probes_failed), probes));
  report.Set("faults.retry_share",
             Ratio(static_cast<double>(t.probes_retried), probes));
  report.Set("faults.budget_lost_share", Ratio(t.budget_lost, probes));
  report.Set("faults.breaker_trips",
             PerCountedEpoch(static_cast<double>(t.breaker_trips), t));
  report.Set("faults.incident_suppressed",
             PerCountedChronon(static_cast<double>(t.incident_suppressed), t));
  report.Set("faults.incident_windows_detected",
             PerCountedEpoch(static_cast<double>(t.incident_windows_detected),
                             t));
  report.Set("faults.attempt_log_len",
             PerCountedEpoch(static_cast<double>(t.attempt_log_len), t));
}

}  // namespace

bool IsProxyWorkload(const std::string& name) {
  return name == "resident" || name == "churn" || name == "faulty";
}

void RunProxyWorkload(const RunArgs& args, Ledger& ledger, Report& report,
                      SpanLog& spans) {
  const Context ctx = MakeContext(args.workload, args.seed, args.tiny);
  const ProxyShape& shape = ctx.shape;
  const int64_t min_epochs = kInputVariants;
  Totals totals;
  const Clock::time_point run_start = Clock::now();
  while (totals.epochs < min_epochs ||
         SecondsBetween(run_start, Clock::now()) < args.seconds) {
    auto replay = [&](const Proxy& proxy) {
      ledger.Call(CheckReplay(ctx, ctx.variants[0], proxy,
                              SerializeArrivalLog(proxy.arrival_log())),
                  "arrival-log replay");
    };
    const bool first_traced = args.trace && totals.epochs == 0;
    if (!RunEpoch(ctx, args.trace, totals, ledger, spans,
                  first_traced ? replay
                               : std::function<void(const Proxy&)>())) {
      return;
    }
  }
  report.notes.push_back(
      "n=" + std::to_string(shape.num_resources) +
      " arrivals/chronon=" + std::to_string(shape.arrivals_per_chronon) +
      " C=" + std::to_string(shape.budget) + " policy=" + shape.policy +
      " K=" + std::to_string(shape.timed_chronons) +
      " warmup=" + std::to_string(shape.warmup()));
  report.notes.push_back("epochs=" + std::to_string(totals.epochs) +
                         " timed chronons (p50/p90 samples)=" +
                         std::to_string(totals.chronons));
  if (args.trace) {
    // Ingest + Tick spans tile each chronon, so the parts sum to the chronon
    // time exactly when the program's timers stay inside the Tick span.
    ledger.Check(TickOtherSeconds(totals) >= -0.01 * totals.chronon_s,
                 "drain and phase timers fit inside the Tick spans");
    ReportPerLayer(totals, shape.faults, report);
  } else {
    ReportEndToEnd(totals, report);
  }
}

int CountUndetectedLogTampers() {
  const Context ctx = MakeContext("churn", 7, /*tiny=*/true);
  const Variant& variant = ctx.variants[0];
  Totals totals;
  Ledger ledger;
  SpanLog spans(false);
  int undetected = 1;  // stays 1 if the epoch never finishes
  auto tamper = [&](const Proxy& proxy) {
    const std::string text = SerializeArrivalLog(proxy.arrival_log());
    undetected = CheckReplay(ctx, variant, proxy, text).ok() ? 0 : 1;
    auto drop_last = [&](ArrivalKind kind) {
      ArrivalLog log = proxy.arrival_log();
      for (size_t i = log.size(); i-- > 0;) {
        if (log[i].kind == kind) {
          log.erase(log.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
      return SerializeArrivalLog(log);
    };
    for (const std::string& tampered :
         {drop_last(ArrivalKind::kPush), drop_last(ArrivalKind::kSubmit),
          drop_last(ArrivalKind::kCancel), text.substr(0, text.size() / 2)}) {
      if (CheckReplay(ctx, variant, proxy, tampered).ok()) ++undetected;
    }
  };
  if (!RunEpoch(ctx, false, totals, ledger, spans, tamper) ||
      ledger.failed() > 0) {
    return undetected + 1;
  }
  return undetected;
}

}  // namespace webmon::perfbench
