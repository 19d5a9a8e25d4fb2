#include "policy/policy.h"

#include <limits>

namespace webmon {

void Policy::BeginChronon(const std::vector<CandidateEi>& /*active*/,
                          Chronon /*now*/) {}

double Policy::ValueFloor(const CandidateEi& /*cand*/, Chronon /*finish*/,
                          Chronon /*t*/, Chronon /*now*/) const {
  return -std::numeric_limits<double>::infinity();
}

void Policy::NotifyProbed(ResourceId /*resource*/, Chronon /*now*/) {}

const char* PolicyLevelToString(Policy::Level level) {
  switch (level) {
    case Policy::Level::kIndividualEi:
      return "individual-EI";
    case Policy::Level::kRank:
      return "rank";
    case Policy::Level::kMultiEi:
      return "multi-EI";
  }
  return "?";
}

}  // namespace webmon
