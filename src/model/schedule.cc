#include "model/schedule.h"

#include <algorithm>
#include <sstream>

#include "util/check.h"

namespace webmon {

BudgetVector BudgetVector::Uniform(int64_t c) {
  WEBMON_CHECK_GE(c, 0) << "budgets C_j are probe capacities";
  BudgetVector b;
  b.uniform_ = c;
  return b;
}

BudgetVector BudgetVector::PerChronon(std::vector<int64_t> budgets) {
  BudgetVector b;
  b.per_chronon_ = std::move(budgets);
  for (size_t j = 0; j < b.per_chronon_.size(); ++j) {
    WEBMON_CHECK_GE(b.per_chronon_[j], 0)
        << "budgets C_j are probe capacities (entry " << j << ")";
  }
  // Ensure non-empty so is_uniform() is unambiguous.
  if (b.per_chronon_.empty()) b.per_chronon_.push_back(0);
  return b;
}

int64_t BudgetVector::At(Chronon t) const {
  if (t < 0) return 0;
  if (per_chronon_.empty()) return uniform_;
  if (static_cast<size_t>(t) >= per_chronon_.size()) return 0;
  return per_chronon_[static_cast<size_t>(t)];
}

int64_t BudgetVector::Max(Chronon k) const {
  if (per_chronon_.empty()) return uniform_;
  int64_t best = 0;
  const size_t limit =
      std::min(per_chronon_.size(), static_cast<size_t>(std::max<Chronon>(k, 0)));
  for (size_t j = 0; j < limit; ++j) best = std::max(best, per_chronon_[j]);
  return best;
}

Schedule::Schedule(uint32_t num_resources, Chronon num_chronons)
    : num_resources_(num_resources),
      num_chronons_(num_chronons),
      by_chronon_(static_cast<size_t>(std::max<Chronon>(num_chronons, 0))) {}

Status Schedule::AddProbe(ResourceId resource, Chronon t) {
  if (resource >= num_resources_) {
    return Status::OutOfRange("probe resource out of range");
  }
  if (t < 0 || t >= num_chronons_) {
    return Status::OutOfRange("probe chronon out of range");
  }
  // hotpath-alloc-ok: the resource's list is created on its first probe
  std::vector<Chronon>& probes = *by_resource_.FindOrInsert(resource).first;
  auto it = std::lower_bound(probes.begin(), probes.end(), t);
  if (it != probes.end() && *it == t) {
    return Status::AlreadyExists("duplicate probe");
  }
  // hotpath-alloc-ok: per-resource lists grow by doubling (unreserved)
  probes.insert(it, t);
  // hotpath-alloc-ok: reserved per chronon through ReserveProbesAt
  by_chronon_[static_cast<size_t>(t)].push_back(resource);
  ++total_probes_;
  return Status::OK();
}

void Schedule::ReserveProbesAt(Chronon t, size_t n) {
  if (t < 0 || t >= num_chronons_) return;
  by_chronon_[static_cast<size_t>(t)].reserve(n);
}

bool Schedule::Probed(ResourceId resource, Chronon t) const {
  const std::vector<Chronon>& probes = ProbesOf(resource);
  return std::binary_search(probes.begin(), probes.end(), t);
}

bool Schedule::ProbedInRange(ResourceId resource, Chronon from,
                             Chronon to) const {
  if (from > to) return false;
  const std::vector<Chronon>& probes = ProbesOf(resource);
  auto it = std::lower_bound(probes.begin(), probes.end(), from);
  return it != probes.end() && *it <= to;
}

const std::vector<ResourceId>& Schedule::ProbesAt(Chronon t) const {
  static const std::vector<ResourceId>* const kEmpty =
      new std::vector<ResourceId>();
  if (t < 0 || t >= num_chronons_) return *kEmpty;
  return by_chronon_[static_cast<size_t>(t)];
}

const std::vector<Chronon>& Schedule::ProbesOf(ResourceId resource) const {
  static const std::vector<Chronon>* const kEmpty =
      new std::vector<Chronon>();
  const std::vector<Chronon>* probes = by_resource_.Find(resource);
  return probes == nullptr ? *kEmpty : *probes;
}

Status Schedule::CheckFeasible(const BudgetVector& budget) const {
  for (Chronon t = 0; t < num_chronons_; ++t) {
    const auto used =
        static_cast<int64_t>(by_chronon_[static_cast<size_t>(t)].size());
    if (used > budget.At(t)) {
      std::ostringstream os;
      os << "budget exceeded at chronon " << t << ": used " << used
         << " > allowed " << budget.At(t);
      return Status::FailedPrecondition(os.str());
    }
  }
  return Status::OK();
}

}  // namespace webmon
