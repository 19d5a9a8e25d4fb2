// Shared plumbing of the perfbench program: run arguments, the operation /
// check ledger, the metric set and its printer, the in-memory span log of
// traced runs, and a few measurement helpers (quantiles, peak RSS, live
// heap bytes).

#ifndef WEBMON_PERFBENCH_HARNESS_H_
#define WEBMON_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace webmon::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Command-line parameters shared by every workload.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  /// Wall seconds to keep starting epochs for; every workload also runs a
  /// minimum number of epochs whatever the time.
  double seconds = 10.0;
  /// Traced run: spans, per-layer counters, determinism replay.
  bool trace = false;
  /// Self-test sizes: every workload shrunk to a fraction of a second.
  bool tiny = false;
  /// Where a traced run writes its spans (empty = nowhere).
  std::string spans_path;
};

/// Operation and check ledger. Every public library call is one attempted
/// operation; a call returning a non-OK Status and a failed output check
/// each count as one failure.
class Ledger {
 public:
  /// Records one public call and its outcome.
  void Call(const Status& status, const char* what);
  /// Records an output check (not an operation); a false `ok` is a failure.
  void Check(bool ok, const std::string& what);

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

 private:
  void Fail(const std::string& what);

  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// A metric the benchmark reports: its name and unit.
struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every untraced run reports, and the per-layer
/// metrics every traced run reports, in print order. BENCHMARK.json at the
/// repository root lists the ones the benchmark bounds or records, with the
/// same units; run.py keeps only those in the JSON result.
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

/// Measured values by metric name, plus free-form annotation lines (sample
/// counts, workload parameters) printed above the result.
struct Report {
  std::map<std::string, double> values;
  std::vector<std::string> notes;

  void Set(const std::string& name, double value) { values[name] = value; }
};

/// Checks `report` against `defs`: every value names a known metric and is
/// finite, and with `complete` every metric has a value (per-layer metrics
/// a workload does not exercise may stay unset and print as 0).
void CheckReport(const Report& report, const std::vector<MetricDef>& defs,
                 bool complete, Ledger& ledger);

/// Prints `report` for humans (one `workload metric = value unit` line per
/// metric of `defs`), then the machine-readable result as the last stdout
/// line: {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
void PrintResult(const std::string& workload, const Ledger& ledger,
                 const Report& report, const std::vector<MetricDef>& defs);

/// One recorded span. Times are nanoseconds since the log's origin;
/// `parent` indexes the enclosing span (-1 for roots) and `chronon` is the
/// proxy chronon the span belongs to (-1 outside the chronon loop).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int64_t chronon = -1;
};

/// In-memory span log of a traced run, written once when the run ends.
/// Disabled logs record nothing and return -1 ids.
class SpanLog {
 public:
  explicit SpanLog(bool enabled);

  /// Records a finished span; returns its id.
  int32_t Add(const char* name, Clock::time_point start,
              Clock::time_point end, int32_t parent, int64_t chronon);
  /// Opens a span whose end Close() fills in later; returns its id.
  int32_t Open(const char* name, Clock::time_point start, int32_t parent,
               int64_t chronon);
  void Close(int32_t id, Clock::time_point end);

  /// Writes `id name start_ns end_ns parent chronon` lines (TSV).
  Status WriteTsv(const std::string& path) const;

 private:
  int64_t Nanos(Clock::time_point t) const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// q-quantile (q in [0, 1]) of `values` by linear interpolation between
/// order statistics; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// VmHWM of this process in MiB (0 when /proc is unavailable).
double PeakRssMb();

/// Heap bytes currently handed out by malloc (mallinfo2 in-use plus mmapped
/// chunks).
int64_t HeapInUseBytes();

/// Number of allocations counted so far by util/alloc_counter.h; always 0
/// in binaries built without the counting operator new.
int64_t AllocationsSoFar();

}  // namespace webmon::perfbench

#endif  // WEBMON_PERFBENCH_HARNESS_H_
