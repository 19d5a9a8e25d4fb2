#include "sim/experiment.h"

#include <memory>

#include "offline/offline_approx.h"
#include "online/run.h"
#include "policy/policy_factory.h"
#include "model/timeliness.h"
#include "trace/update_model.h"
#include "workload/validation.h"

namespace webmon {

const char* TraceKindToString(TraceKind kind) {
  switch (kind) {
    case TraceKind::kPoisson:
      return "poisson";
    case TraceKind::kAuction:
      return "auction";
    case TraceKind::kNews:
      return "news";
  }
  return "?";
}

std::string PolicySpec::Label() const {
  return name + (preemptive ? "(P)" : "(NP)");
}

namespace {

StatusOr<EventTrace> BuildTrace(const ExperimentConfig& config, Rng& rng) {
  switch (config.trace_kind) {
    case TraceKind::kPoisson:
      return GeneratePoissonTrace(config.poisson, rng);
    case TraceKind::kAuction:
      return GenerateAuctionTrace(config.auction, rng);
    case TraceKind::kNews:
      return GenerateNewsTrace(config.news, rng);
  }
  return Status::InvalidArgument("unknown trace kind");
}

}  // namespace

StatusOr<ExperimentResult> RunExperiment(const ExperimentConfig& config,
                                         const std::vector<PolicySpec>& specs,
                                         bool include_offline) {
  if (config.repetitions == 0) {
    return Status::InvalidArgument("need at least one repetition");
  }
  WEBMON_RETURN_IF_ERROR(config.fault_spec.Validate());
  ExperimentResult result;
  result.policies.resize(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) result.policies[i].spec = specs[i];
  if (include_offline) result.offline.emplace();

  for (uint32_t rep = 0; rep < config.repetitions; ++rep) {
    Rng rng(config.seed * 0x9E3779B97F4A7C15ULL + rep + 1);

    WEBMON_ASSIGN_OR_RETURN(EventTrace trace, BuildTrace(config, rng));

    // Update model selection: estimated Poisson > FPN(z) > perfect.
    std::unique_ptr<UpdateModel> model;
    if (config.use_estimated_model) {
      WEBMON_ASSIGN_OR_RETURN(EstimatedPoissonModel m,
                              EstimatedPoissonModel::Create(trace, rng));
      model = std::make_unique<EstimatedPoissonModel>(std::move(m));
    } else if (config.z_noise > 0.0) {
      WEBMON_ASSIGN_OR_RETURN(
          FpnUpdateModel m,
          FpnUpdateModel::Create(trace, config.z_noise,
                                 config.noise_max_shift, rng));
      model = std::make_unique<FpnUpdateModel>(std::move(m));
    } else {
      model = std::make_unique<PerfectUpdateModel>(trace);
    }

    WEBMON_ASSIGN_OR_RETURN(
        GeneratedWorkload workload,
        GenerateWorkload(config.profile_template, config.workload, *model,
                         trace, rng));
    const ProblemInstance& problem = workload.problem;
    const double total_eis =
        static_cast<double>(std::max<int64_t>(problem.TotalEis(), 1));
    result.total_ceis.Add(static_cast<double>(problem.TotalCeis()));
    result.total_eis.Add(static_cast<double>(problem.TotalEis()));

    for (size_t i = 0; i < specs.size(); ++i) {
      WEBMON_ASSIGN_OR_RETURN(std::unique_ptr<Policy> policy,
                              MakePolicy(specs[i].name, config.seed + rep));
      SchedulerOptions options;
      options.preemptive = specs[i].preemptive;
      options.fault_handling = config.fault_handling;
      std::unique_ptr<FaultInjector> injector;
      if (!config.fault_spec.IsIdeal()) {
        injector = std::make_unique<FaultInjector>(
            config.fault_spec, problem.num_resources(),
            config.fault_seed + rep);
        options.fault_injector = injector.get();
      }
      WEBMON_ASSIGN_OR_RETURN(OnlineRunResult run,
                              RunOnline(problem, policy.get(), options));
      PolicyResult& agg = result.policies[i];
      agg.completeness.Add(run.completeness);
      agg.validated_completeness.Add(ValidatedCompleteness(
          problem, run.schedule, workload.true_windows));
      agg.ei_completeness.Add(run.ei_completeness);
      agg.usec_per_ei.Add(run.wall_seconds * 1e6 / total_eis);
      agg.probes.Add(static_cast<double>(run.stats.probes_issued));
      agg.mean_capture_delay.Add(
          ComputeTimeliness(problem, run.schedule).ei_capture_delay.mean());
      agg.probes_failed.Add(static_cast<double>(run.stats.probes_failed));
      agg.probes_retried.Add(static_cast<double>(run.stats.probes_retried));
      agg.breaker_trips.Add(static_cast<double>(run.stats.breaker_trips));
      agg.incident_windows_detected.Add(
          static_cast<double>(run.stats.incident_windows_detected));
      agg.incident_windows_missed.Add(
          static_cast<double>(run.stats.incident_windows_missed));
      agg.incident_probes_suppressed.Add(
          static_cast<double>(run.stats.incident_probes_suppressed));
      agg.incident_trial_probes.Add(
          static_cast<double>(run.stats.incident_trial_probes));
      agg.activate_seconds.Add(run.stats.activate_seconds);
      agg.rank_seconds.Add(run.stats.rank_seconds);
      agg.probe_seconds.Add(run.stats.probe_seconds);
      agg.capture_seconds.Add(run.stats.capture_seconds);
    }

    // Guard on the optional itself (emplaced above iff include_offline) so
    // the access is provably checked, not just correlated with a flag.
    if (result.offline.has_value()) {
      WEBMON_ASSIGN_OR_RETURN(OfflineApproxResult off,
                              SolveOfflineApprox(problem));
      OfflineAggregate& offline = *result.offline;
      offline.completeness.Add(off.completeness);
      offline.validated_completeness.Add(ValidatedCompleteness(
          problem, off.schedule, workload.true_windows));
      offline.usec_per_ei.Add(off.wall_seconds * 1e6 / total_eis);
      offline.committed_ceis.Add(static_cast<double>(off.committed_ceis));
    }
  }
  return result;
}

}  // namespace webmon
