#include "policy/m_edf.h"

#include <limits>

namespace webmon {

double MEdfPolicy::Value(const CandidateEi& cand, Chronon now) const {
  const CeiState& state = *cand.state;
  Chronon total = 0;
  for (uint32_t i = 0; i < state.num_eis; ++i) {
    if (state.Captured(i)) continue;
    total += MEdfSiblingValue(state.cei->eis[i], now);
  }
  return static_cast<double>(total);
}

double MEdfPolicy::ValueFloor(const CandidateEi& cand, Chronon finish,
                              Chronon t, Chronon now) const {
  const CeiState& state = *cand.state;
  if (state.num_failed != 0) return -std::numeric_limits<double>::infinity();
  // The candidate is live, so uncaptured: the others number one fewer.
  const auto siblings =
      static_cast<Chronon>(state.num_eis - state.num_captured - 1);
  return static_cast<double>((finish - t + 1) + siblings * (1 - (t - now)));
}

}  // namespace webmon
