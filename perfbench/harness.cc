#include "harness.h"

#include <malloc.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>

#include "util/alloc_counter.h"

namespace webmon::perfbench {
namespace {

// Shortest text that parses back to exactly `value`. JSON has no NaN or
// infinity; CheckReport fails a run that measured one, and PrintResult
// prints it as 0.
std::string NumberText(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

// Failures echoed to stderr before the ledger goes quiet.
constexpr int64_t kMaxReportedFailures = 10;

}  // namespace

void Ledger::Call(const Status& status, const char* what) {
  ++attempted_;
  if (!status.ok()) Fail(std::string(what) + ": " + status.ToString());
}

void Ledger::Check(bool ok, const std::string& what) {
  if (!ok) Fail("check failed: " + what);
}

void Ledger::Fail(const std::string& what) {
  ++failed_;
  if (failed_ <= kMaxReportedFailures) {
    std::cerr << "perfbench: " << what << "\n";
  }
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},           {"chronons_per_s", "1/s"},
      {"completeness", "share"},  {"peak_rss_mb", "MiB"},
      {"chronon_p50_us", "us"},   {"chronon_p90_us", "us"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"online.chronon_us", "us"},
      {"online.ingest_us", "us"},
      {"online.drain_us", "us"},
      {"online.activate_us", "us"},
      {"online.rank_us", "us"},
      {"online.probe_us", "us"},
      {"online.capture_us", "us"},
      {"online.tick_other_us", "us"},
      {"online.attributed_share", "share"},
      {"online.ops_per_chronon", "1/chronon"},
      {"online.heap_bytes_per_submit", "B"},
      {"online.resident_states", "count"},
      {"online.tick_allocs_per_chronon", "1/chronon"},
      {"online.live_ceis", "count"},
      {"online.probes_per_chronon", "1/chronon"},
      {"online.captures_per_probe", "1/probe"},
      {"faults.injector_setup_s", "s"},
      {"faults.failed_probe_share", "share"},
      {"faults.retry_share", "share"},
      {"faults.budget_lost_share", "share"},
      {"faults.breaker_trips", "count"},
      {"faults.incident_suppressed", "1/chronon"},
      {"faults.incident_windows_detected", "count"},
      {"faults.attempt_log_len", "count"},
      {"shard.partition_s", "s"},
      {"shard.merge_s", "s"},
      {"shard.shards_s", "s"},
      {"shard.fragments_per_cei", "1/cei"},
      {"shard.stream_events", "count"},
      {"shard.cross_shard_share", "share"},
      {"shard.load_imbalance", "ratio"},
      {"bench.traced_chronons_per_s", "1/s"},
  };
  return defs;
}

void CheckReport(const Report& report, const std::vector<MetricDef>& defs,
                 bool complete, Ledger& ledger) {
  for (const auto& [name, value] : report.values) {
    const bool known = std::any_of(defs.begin(), defs.end(),
                                   [&](const MetricDef& d) {
                                     return name == d.name;
                                   });
    ledger.Check(known, "metric " + name + " is defined");
    ledger.Check(std::isfinite(value), "metric " + name + " is finite");
  }
  if (!complete) return;
  for (const MetricDef& d : defs) {
    ledger.Check(report.values.count(d.name) == 1,
                 std::string("metric ") + d.name + " was measured");
  }
}

void PrintResult(const std::string& workload, const Ledger& ledger,
                 const Report& report, const std::vector<MetricDef>& defs) {
  auto value_of = [&](const MetricDef& d) {
    const auto it = report.values.find(d.name);
    return it == report.values.end() || !std::isfinite(it->second)
               ? 0.0
               : it->second;
  };
  for (const std::string& note : report.notes) {
    std::cout << workload << " # " << note << "\n";
  }
  for (const MetricDef& d : defs) {
    std::cout << workload << " " << d.name << " = "
              << NumberText(value_of(d)) << " " << d.unit << "\n";
  }
  const double failed_share =
      ledger.attempted() > 0
          ? static_cast<double>(ledger.failed()) /
                static_cast<double>(ledger.attempted())
          : 1.0;
  std::cout << workload << " failed_ops_share = " << NumberText(failed_share)
            << " share (" << ledger.failed() << " of " << ledger.attempted()
            << " ops)\n";

  std::string json = "{\"correct\": ";
  json += ledger.failed() == 0 && ledger.attempted() > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ledger.attempted());
  json += ", \"failed\": " + std::to_string(ledger.failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < defs.size(); ++i) {
    if (i > 0) json += ", ";
    json += std::string("\"") + defs[i].name +
            "\": {\"value\": " + NumberText(value_of(defs[i])) +
            ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

SpanLog::SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
  if (enabled_) spans_.reserve(size_t{1} << 16);
}

int64_t SpanLog::Nanos(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

int32_t SpanLog::Add(const char* name, Clock::time_point start,
                     Clock::time_point end, int32_t parent, int64_t chronon) {
  if (!enabled_) return -1;
  spans_.push_back({name, Nanos(start), Nanos(end), parent, chronon});
  return static_cast<int32_t>(spans_.size() - 1);
}

int32_t SpanLog::Open(const char* name, Clock::time_point start,
                      int32_t parent, int64_t chronon) {
  return Add(name, start, start, parent, chronon);
}

void SpanLog::Close(int32_t id, Clock::time_point end) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns = Nanos(end);
}

Status SpanLog::WriteTsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot open span file " + path);
  out << "id\tname\tstart_ns\tend_ns\tparent\tchronon\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << s.name << '\t' << s.start_ns << '\t' << s.end_ns
        << '\t' << s.parent << '\t' << s.chronon << '\n';
  }
  out.close();
  if (!out) return Status::Internal("short write to span file " + path);
  return Status::OK();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

int64_t HeapInUseBytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<int64_t>(info.uordblks + info.hblkhd);
}

int64_t AllocationsSoFar() { return SnapshotAllocCounters().allocations; }

}  // namespace webmon::perfbench
