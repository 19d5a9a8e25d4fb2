#include "policy/s_edf.h"

namespace webmon {

double SEdfPolicy::Value(const CandidateEi& cand, Chronon now) const {
  return static_cast<double>(SEdfValue(cand.ei(), now));
}

double SEdfPolicy::ValueFloor(const CandidateEi& /*cand*/, Chronon finish,
                              Chronon t, Chronon /*now*/) const {
  return static_cast<double>(finish - t + 1);
}

}  // namespace webmon
