// Experiment harness: the simulation environment of Section V.
//
// An ExperimentConfig captures one cell of the paper's parameter space
// (Table I): the trace (real-world-equivalent auction / news generators or
// the synthetic Poisson stream), the update model (perfect, FPN(Z) noisy, or
// estimated Poisson), the profile template and generator knobs, and the
// repetition count. RunExperiment executes every requested policy (and
// optionally the offline approximation) on the same problem instances and
// aggregates completeness / runtime statistics over repetitions.

#ifndef WEBMON_SIM_EXPERIMENT_H_
#define WEBMON_SIM_EXPERIMENT_H_

#include <optional>
#include <string>
#include <vector>

#include "faults/fault_model.h"
#include "trace/auction_trace.h"
#include "trace/news_trace.h"
#include "trace/poisson_trace.h"
#include "util/stats.h"
#include "util/status.h"
#include "workload/generator.h"
#include "workload/profile_template.h"

namespace webmon {

/// Which trace generator feeds the experiment.
enum class TraceKind {
  kPoisson,
  kAuction,
  kNews,
};

const char* TraceKindToString(TraceKind kind);

/// One experiment cell.
struct ExperimentConfig {
  TraceKind trace_kind = TraceKind::kPoisson;
  PoissonTraceOptions poisson;
  AuctionTraceOptions auction;
  NewsTraceOptions news;

  /// FPN noise probability (0 = perfect update model).
  double z_noise = 0.0;
  /// Maximum prediction shift under noise, in chronons.
  Chronon noise_max_shift = 10;
  /// Use the estimated homogeneous-Poisson model instead of FPN/perfect
  /// (the Section V-H news experiment).
  bool use_estimated_model = false;

  ProfileTemplate profile_template;
  WorkloadOptions workload;

  /// Failure model injected into every policy run (ideal default = the
  /// historical infallible-probe behavior, bit for bit). Each policy gets a
  /// FRESH injector seeded from fault_seed + rep so all policies face the
  /// same fault streams.
  FaultSpec fault_spec;
  uint64_t fault_seed = 1;
  FaultHandlingOptions fault_handling;

  /// Repetitions with distinct derived seeds (the paper uses 10).
  uint32_t repetitions = 10;
  uint64_t seed = 1;
};

/// A policy to run: name resolved via MakePolicy, plus the preemption mode.
struct PolicySpec {
  std::string name;
  bool preemptive = true;

  /// "MRSF(P)" / "S-EDF(NP)" — the paper's labels.
  std::string Label() const;
};

/// Aggregated per-policy metrics over repetitions.
struct PolicyResult {
  PolicySpec spec;
  RunningStats completeness;            // Eq. 1 against scheduled EIs
  RunningStats validated_completeness;  // against true event windows
  RunningStats ei_completeness;         // single-EI upper-bound denominator
  RunningStats usec_per_ei;             // runtime cost metric (Section V-D)
  RunningStats probes;                  // budget actually spent
  RunningStats mean_capture_delay;      // timeliness: avg EI capture delay
  RunningStats probes_failed;           // attempts lost to injected faults
  RunningStats probes_retried;          // re-attempts after a failure
  RunningStats breaker_trips;           // closed -> open transitions
  // Fleet incidents (zero unless the fault spec names incident domains).
  RunningStats incident_windows_detected;  // ground-truth windows caught
  RunningStats incident_windows_missed;    // windows the detector never saw
  RunningStats incident_probes_suppressed;  // probes withheld by the breaker
  RunningStats incident_trial_probes;       // end-of-incident re-probes
  // Per-phase scheduler time (seconds per run; see SchedulerStats).
  RunningStats activate_seconds;
  RunningStats rank_seconds;
  RunningStats probe_seconds;
  RunningStats capture_seconds;
};

/// Aggregated offline-approximation metrics.
struct OfflineAggregate {
  RunningStats completeness;
  RunningStats validated_completeness;
  RunningStats usec_per_ei;
  RunningStats committed_ceis;
};

/// The outcome of one experiment cell.
struct ExperimentResult {
  std::vector<PolicyResult> policies;
  std::optional<OfflineAggregate> offline;
  RunningStats total_ceis;
  RunningStats total_eis;
};

/// Runs `policies` (and the offline approximation when `include_offline`)
/// over `config.repetitions` independently generated instances.
StatusOr<ExperimentResult> RunExperiment(const ExperimentConfig& config,
                                         const std::vector<PolicySpec>& specs,
                                         bool include_offline = false);

}  // namespace webmon

#endif  // WEBMON_SIM_EXPERIMENT_H_
