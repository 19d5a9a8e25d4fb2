// perfbench: the repository's benchmark program (README.md).
//
//   perfbench --workload <resident|churn|faulty|fleet> --seed N
//             --seconds S --trace 0 [--tiny]
//   perfbench_traced --workload ... --trace 1 [--tiny] [--spans FILE]
//   perfbench --tamper-test
//
// Both binaries build from this file. perfbench_traced additionally counts
// heap allocations (util/alloc_counter.h), which costs time on every
// allocation, so untraced end-to-end runs use the plain binary. The last
// stdout line is the JSON result; the exit code is 0 iff every call and
// every output check succeeded. perfbench/run.py builds both binaries and
// is the entry point.

#include <cstdlib>
#include <iostream>
#include <string>

#include "harness.h"
#include "workloads.h"

#ifdef WEBMON_PERFBENCH_TRACED
#include "util/alloc_counter.h"
WEBMON_DEFINE_COUNTING_OPERATOR_NEW();
#endif

namespace webmon::perfbench {
namespace {

#ifdef WEBMON_PERFBENCH_TRACED
constexpr bool kTracedBinary = true;
#else
constexpr bool kTracedBinary = false;
#endif

int Usage(const std::string& error) {
  std::cerr << "perfbench: " << error << "\n"
            << "usage: perfbench --workload <resident|churn|faulty|fleet> "
               "--seed N --seconds S --trace 0|1 [--tiny] [--spans FILE]\n"
               "       perfbench --tamper-test\n";
  return 2;
}

int TamperTest() {
  const int logs = CountUndetectedLogTampers();
  const int streams = CountUndetectedStreamTampers();
  std::cout << "tampered arrival logs undetected: " << logs << "\n"
            << "tampered shard streams undetected: " << streams << "\n";
  return logs + streams == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  RunArgs args;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tamper-test") return TamperTest();
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return Usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0.0)) {
        return Usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace " + value);
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (!have_trace) return Usage("--trace is required");
  if (args.trace != kTracedBinary) {
    return Usage(kTracedBinary ? "perfbench_traced only runs --trace 1"
                               : "perfbench only runs --trace 0; traced "
                                 "runs use perfbench_traced");
  }
  const bool fleet = args.workload == "fleet";
  if (!fleet && !IsProxyWorkload(args.workload)) {
    return Usage("unknown workload '" + args.workload + "'");
  }

  Ledger ledger;
  Report report;
  SpanLog spans(args.trace);
  if (fleet) {
    RunFleetWorkload(args, ledger, report, spans);
  } else {
    RunProxyWorkload(args, ledger, report, spans);
  }
  const auto& defs = args.trace ? PerLayerMetrics() : EndToEndMetrics();
  CheckReport(report, defs, /*complete=*/!args.trace, ledger);
  if (!args.spans_path.empty()) {
    ledger.Call(spans.WriteTsv(args.spans_path), "write spans");
  }
  PrintResult(args.workload, ledger, report, defs);
  return ledger.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace webmon::perfbench

int main(int argc, char** argv) { return webmon::perfbench::Main(argc, argv); }
