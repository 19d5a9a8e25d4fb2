// Shared scaffolding for the per-figure bench binaries.
//
// Every bench regenerates one table or figure of the paper's evaluation
// (Section V): it prints the experiment's parameters, the paper's reported
// shape for reference, the measured rows as an aligned table, and the same
// rows as CSV for plotting.

#ifndef WEBMON_BENCH_BENCH_COMMON_H_
#define WEBMON_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/experiment.h"
#include "util/flags.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/table_writer.h"

namespace webmon::bench {

/// Prints the standard bench banner.
void PrintBanner(const std::string& experiment_id, const std::string& title,
                 const std::string& paper_shape);

/// Prints the table followed by its CSV form.
void PrintTable(const TableWriter& table);

/// Shared emitter for the --json CI perf artifacts (BENCH_*.json). Every
/// bench writes the same schema:
///
///   {
///     "bench": "<name>",
///     "schema": 1,
///     "params": { "<flag>": <value>, ... },
///     "tables": { "<table>": [ { "<column>": <value>, ... }, ... ] }
///   }
///
/// Single-sweep benches use the default table name "rows"; benches with
/// several sweeps (e.g. bench_faults' degradation + incident) start one
/// named table per sweep. Values are JSON numbers, strings, or booleans;
/// non-finite doubles serialize as null. Usage:
///
///   BenchJson json("sustained");
///   json.Param("policy", policy).Param("budget", budget);
///   for (const Row& r : rows) {
///     json.Row().Field("resources", r.resources)
///               .Field("chronons_per_sec", r.chronons_per_sec);
///   }
///   json.Write(flags.GetString("json"));  // no-op when the flag is empty
class BenchJson {
 public:
  explicit BenchJson(std::string bench_name);

  BenchJson& Param(const std::string& key, int64_t value);
  BenchJson& Param(const std::string& key, int value);
  BenchJson& Param(const std::string& key, double value);
  BenchJson& Param(const std::string& key, bool value);
  BenchJson& Param(const std::string& key, const char* value);
  BenchJson& Param(const std::string& key, const std::string& value);

  /// Starts (or switches to) the named row table. Implicit when Row() is
  /// called first: the default table is "rows".
  BenchJson& Table(const std::string& name);
  /// Starts a new row in the current table.
  BenchJson& Row();
  BenchJson& Field(const std::string& key, int64_t value);
  BenchJson& Field(const std::string& key, int value);
  BenchJson& Field(const std::string& key, double value);
  BenchJson& Field(const std::string& key, bool value);
  BenchJson& Field(const std::string& key, const char* value);
  BenchJson& Field(const std::string& key, const std::string& value);

  /// The serialized document.
  std::string ToString() const;
  /// Writes the document to `path` and echoes "wrote <path>"; complains to
  /// stderr when the file cannot be opened. Empty `path` is a no-op (the
  /// conventional meaning of an unset --json flag).
  void Write(const std::string& path) const;

 private:
  using Object = std::vector<std::pair<std::string, std::string>>;
  void PushField(const std::string& key, std::string encoded);

  std::string bench_name_;
  Object params_;
  // Tables in creation order; rows in append order.
  std::vector<std::pair<std::string, std::vector<Object>>> tables_;
};

/// Table I baseline: n = 1000 resources, m = 100 profiles, K = 1000
/// chronons, C = 1, lambda = 20, alpha = 0.3, beta = 0, w = 10,
/// omega = 20, 10 repetitions.
ExperimentConfig PaperBaseline(uint64_t seed = 1);

/// The auction-trace setup scaled to `num_auctions` resources (bids scale
/// proportionally from the paper's 732-auction / 11,150-bid trace).
ExperimentConfig AuctionBaseline(uint32_t num_auctions, uint64_t seed = 1);

/// Flag bounds the benches share with webmon_cli: resource counts, epoch
/// lengths (also window widths), arrivals per chronon and EIs per CEI.
inline constexpr int64_t kMaxResources = 10'000'000;
inline constexpr int64_t kMaxChronons = 1'000'000;
inline constexpr int64_t kMaxArrivals = 100'000;
inline constexpr int64_t kMaxRank = 64;

/// The benches' one error for a flag value that is not a number in
/// [min, max]: InvalidArgument naming the flag and the offending token.
template <typename T>
Status FlagValueError(const std::string& name, const std::string& token,
                      T min, T max) {
  std::string message =
      "--" + name + ": '" + token + "' is not a number in [";
  AppendNumber(&message, min);
  message += ", ";
  AppendNumber(&message, max);
  return Status::InvalidArgument(message + "]");
}

/// Parses the comma-separated integer list flag `--name` into values in
/// [min, max]. Every non-empty token must parse whole (ParseInt64) and lie
/// in the range; empty tokens are skipped, so an empty list parses to an
/// empty vector. Anything else is an InvalidArgument naming the flag and
/// the token: the benches turn it into exit 2 instead of an uncaught
/// exception, a silently truncated token or a negative count wrapped to a
/// huge unsigned one.
template <typename T>
StatusOr<std::vector<T>> ParseListFlag(const FlagSet& flags,
                                       const std::string& name, T min,
                                       T max) {
  static_assert(std::is_integral_v<T>, "list flags hold integers");
  std::vector<T> values;
  for (const std::string& token : Split(flags.GetString(name), ',')) {
    if (StripWhitespace(token).empty()) continue;
    int64_t value = 0;
    // The range test runs before any narrowing.
    if (!ParseInt64(token, &value) || value < static_cast<int64_t>(min) ||
        value > static_cast<int64_t>(max)) {
      return FlagValueError(name, token, min, max);
    }
    values.push_back(static_cast<T>(value));
  }
  return values;
}

/// The documented range of one integer flag.
struct ScalarFlagRange {
  const char* name;
  int64_t min;
  int64_t max;
};

/// Checks the integer flags `ranges` names, in order, against their
/// ranges (FlagSet::Parse already rejected values that are not integers);
/// the first one outside is a FlagValueError. A later range may use a
/// flag checked before it as a bound (a hot set no larger than the
/// resource count). The benches turn the error into exit 2 before a
/// negative or huge value sizes a workload or an event ring, trips a
/// CHECK, or wraps in a narrowing cast.
inline Status CheckScalarFlags(const FlagSet& flags,
                               std::initializer_list<ScalarFlagRange> ranges) {
  for (const ScalarFlagRange& range : ranges) {
    const int64_t value = flags.GetInt(range.name);
    if (value < range.min || value > range.max) {
      return FlagValueError(range.name, std::to_string(value), range.min,
                            range.max);
    }
  }
  return Status::OK();
}

/// Aborts with a message on error statuses (benches have no recovery path).
#define WEBMON_BENCH_CHECK_OK(expr)                                   \
  do {                                                                \
    const ::webmon::Status _st = (expr);                              \
    if (!_st.ok()) {                                                  \
      std::fprintf(stderr, "FATAL: %s\n", _st.ToString().c_str());    \
      std::abort();                                                   \
    }                                                                 \
  } while (false)

}  // namespace webmon::bench

#endif  // WEBMON_BENCH_BENCH_COMMON_H_
