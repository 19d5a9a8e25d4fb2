// Random policy: a sanity-check lower baseline not present in the paper.
// Assigns each active candidate an i.i.d. uniform cost, so the scheduler's
// pick is a uniform random subset of active EIs (after resource dedup).

#ifndef WEBMON_POLICY_RANDOM_POLICY_H_
#define WEBMON_POLICY_RANDOM_POLICY_H_

#include <string>

#include "policy/policy.h"
#include "util/id_map.h"
#include "util/rng.h"

namespace webmon {

/// Uniform-random probe selection. Deterministic given the seed.
class RandomPolicy final : public Policy {
 public:
  explicit RandomPolicy(uint64_t seed = 42) : rng_(seed) {}

  std::string name() const override { return "Random"; }
  Level level() const override { return Level::kIndividualEi; }

  /// One RNG draw per live candidate in activation order: the draw
  /// sequence (hence the whole run) depends on that exact ordering.
  void BeginChronon(const std::vector<CandidateEi>& active,
                    Chronon now) override;

  double Value(const CandidateEi& cand, Chronon now) const override;

 private:
  Rng rng_;
  // Draw per (CEI id, EI index) per chronon so Value() is stable within a
  // chronon, as the scheduler may call it repeatedly while selecting. A
  // flat table cleared in place keeps its capacity, so a steady-state
  // chronon allocates nothing.
  FlatIdMap<double> draws_;
};

}  // namespace webmon

#endif  // WEBMON_POLICY_RANDOM_POLICY_H_
