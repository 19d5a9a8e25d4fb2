// The perfbench workloads (README.md in this directory says why each
// exists). Each runner executes whole epochs until args.seconds of wall
// time have passed, checks every epoch's outputs into `ledger`, and fills
// `report` with the end-to-end metrics (untraced) or the per-layer metrics
// (traced, args.trace).

#ifndef WEBMON_PERFBENCH_WORKLOADS_H_
#define WEBMON_PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace webmon::perfbench {

/// True for the proxy workloads: "resident", "churn", "faulty".
bool IsProxyWorkload(const std::string& name);

/// One Proxy per epoch, driven chronon by chronon through
/// Proxy::Submit/Push/Cancel/Tick.
void RunProxyWorkload(const RunArgs& args, Ledger& ledger, Report& report,
                      SpanLog& spans);

/// One RunSharded epoch after another over the same seeded fleet input,
/// with the public stage functions (PartitionResources, SplitShardBudgets,
/// AggregateShardStreams) timed around it.
void RunFleetWorkload(const RunArgs& args, Ledger& ledger, Report& report,
                      SpanLog& spans);

/// Self-tests of the checks themselves. Each runs a tiny epoch, tampers
/// with its outputs and returns how many tampered copies got past the
/// checks (plus one if the untampered outputs failed them): arrival logs
/// with a dropped push, submit or cancel or cut in half must fail the
/// replay comparison, and a shard stream spending over the global budget
/// must fail the fleet audit.
int CountUndetectedLogTampers();
int CountUndetectedStreamTampers();

}  // namespace webmon::perfbench

#endif  // WEBMON_PERFBENCH_WORKLOADS_H_
