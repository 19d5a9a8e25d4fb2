// expect: none
// as-path: src/policy/fixture_policy.cc
// lint-expect: hotpath
//
// Known-bad fixture for webmon_lint rule `hotpath` on a policy: the rank
// phase calls BeginChronon once per chronon and Value/ValueFloor once per
// candidate, so growing a container there without a `hotpath-alloc-ok:`
// justification breaks the zero-allocation tick as surely as the
// scheduler's own hot functions would. Never compiled — consumed by
// `ctest -R webmon_lint_selftest`.

#include <cstdint>
#include <vector>

namespace webmon {

struct FixturePolicy {
  void BeginChronon(int64_t now);
  double Value(int64_t now) const;
  void NotifyProbed(int64_t now);
  std::vector<int64_t> seen_;
  std::vector<int64_t> probed_;
};

void FixturePolicy::BeginChronon(int64_t now) {
  seen_.push_back(now);  // rule fires: unjustified grow
}

double FixturePolicy::Value(int64_t now) const {
  std::vector<double> terms(4, 1.0);  // rule fires: per-candidate local
  return terms[0] + static_cast<double>(now);
}

// Not a per-candidate hook: called once per issued probe.
void FixturePolicy::NotifyProbed(int64_t now) { probed_.push_back(now); }

}  // namespace webmon
