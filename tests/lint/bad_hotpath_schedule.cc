// expect: none
// as-path: src/model/schedule.cc
// lint-expect: hotpath
//
// Known-bad fixture for webmon_lint rule `hotpath` on the schedule: the
// scheduler records every successful probe through AddProbe, so building a
// per-probe std::vector there allocates on every probe of every chronon.
// Never compiled — consumed by `ctest -R webmon_lint_selftest`.

#include <algorithm>
#include <cstdint>
#include <vector>

namespace webmon {

struct Schedule {
  int AddProbe(uint32_t resource, int64_t t);
  int CheckFeasible() const;
  std::vector<std::vector<int64_t>> by_resource_;
};

int Schedule::AddProbe(uint32_t resource, int64_t t) {
  std::vector<int64_t> merged = by_resource_[resource];  // rule fires
  merged.push_back(t);  // rule fires: unjustified grow
  std::sort(merged.begin(), merged.end());
  by_resource_[resource] = merged;
  return 0;
}

// Not on the probe path: a whole-schedule check may build scratch.
int Schedule::CheckFeasible() const {
  std::vector<int64_t> used(by_resource_.size(), 0);
  return static_cast<int>(used.size());
}

}  // namespace webmon
