// Data delivery schedules and per-chronon probing budgets
// (paper Sections III-B, III-C).

#ifndef WEBMON_MODEL_SCHEDULE_H_
#define WEBMON_MODEL_SCHEDULE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "model/types.h"
#include "util/id_map.h"
#include "util/status.h"

namespace webmon {

/// The budget vector C = (C_1, ..., C_K): at chronon T_j the proxy may probe
/// at most C_j resources. Stored either as a uniform value or per chronon.
class BudgetVector {
 public:
  /// Uniform budget `c` at every chronon. CHECK-fails when c < 0: a
  /// negative probe capacity is always a programming error.
  static BudgetVector Uniform(int64_t c);

  /// Per-chronon budget; entry j applies at chronon j. Chronons beyond the
  /// vector's length get budget 0. CHECK-fails on negative entries.
  static BudgetVector PerChronon(std::vector<int64_t> budgets);

  /// Budget at chronon `t` (>= 0 expected; negative t yields 0).
  int64_t At(Chronon t) const;

  /// C_max = max_j C_j over [0, K); `k` is the epoch length used for the
  /// uniform case.
  int64_t Max(Chronon k) const;

  bool is_uniform() const { return per_chronon_.empty(); }
  int64_t uniform_value() const { return uniform_; }

 private:
  BudgetVector() = default;
  int64_t uniform_ = 0;
  std::vector<int64_t> per_chronon_;
};

/// A data delivery schedule S: the set of (resource, chronon) probes.
///
/// Stored both per-chronon (for budget checks and replay) and per-resource
/// with sorted chronons (for O(log) capture queries). All mutation goes
/// through AddProbe so the two views stay consistent. The per-chronon lists
/// exist from construction; a resource's list is created by its first
/// AddProbe, so the footprint follows the probed resources (at most
/// sum_j C_j of them), not num_resources.
class Schedule {
 public:
  /// Creates an empty schedule over `num_resources` resources and
  /// `num_chronons` chronons.
  Schedule(uint32_t num_resources, Chronon num_chronons);

  /// Records a probe of `resource` at chronon `t`. Idempotent: probing the
  /// same (resource, chronon) twice is a no-op and returns AlreadyExists.
  /// Fails with OutOfRange for coordinates outside the instance.
  Status AddProbe(ResourceId resource, Chronon t);

  /// Makes room for `n` probes at chronon `t` (no-op outside the
  /// instance), so recording them grows that chronon's list at most once.
  void ReserveProbesAt(Chronon t, size_t n);

  /// True iff `resource` is probed exactly at chronon `t`.
  bool Probed(ResourceId resource, Chronon t) const;

  /// True iff `resource` is probed at any chronon in [from, to] inclusive.
  bool ProbedInRange(ResourceId resource, Chronon from, Chronon to) const;

  /// Resources probed at chronon `t` (unordered).
  const std::vector<ResourceId>& ProbesAt(Chronon t) const;

  /// Sorted chronons at which `resource` is probed (empty for a resource
  /// never probed). Valid until the next AddProbe.
  const std::vector<Chronon>& ProbesOf(ResourceId resource) const;

  /// Total number of probes in the schedule.
  int64_t TotalProbes() const { return total_probes_; }

  /// OK iff no chronon exceeds its budget.
  Status CheckFeasible(const BudgetVector& budget) const;

  uint32_t num_resources() const { return num_resources_; }
  Chronon num_chronons() const { return num_chronons_; }

 private:
  uint32_t num_resources_;
  Chronon num_chronons_;
  int64_t total_probes_ = 0;
  // by_chronon_[t] = resources probed at t (insertion order).
  std::vector<std::vector<ResourceId>> by_chronon_;
  // by_resource_[r] = sorted chronons at which r is probed; r has an entry
  // iff it is probed at least once.
  FlatIdMap<std::vector<Chronon>> by_resource_;
};

}  // namespace webmon

#endif  // WEBMON_MODEL_SCHEDULE_H_
