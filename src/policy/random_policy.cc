#include "policy/random_policy.h"

namespace webmon {

namespace {
uint64_t Key(const CandidateEi& cand) {
  return (cand.state->cei->id << 16) ^ cand.ei_index;
}
}  // namespace

void RandomPolicy::BeginChronon(const std::vector<CandidateEi>& active,
                                Chronon /*now*/) {
  draws_.Clear();
  for (const auto& cand : active) {
    if (cand.IsLive()) draws_.Insert(Key(cand), rng_.UniformDouble());
  }
}

double RandomPolicy::Value(const CandidateEi& cand, Chronon /*now*/) const {
  const double* draw = draws_.Find(Key(cand));
  return draw == nullptr ? 1.0 : *draw;
}

}  // namespace webmon
