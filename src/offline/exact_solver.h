// Exact offline solver for Problem 1 by branch-and-bound schedule search.
//
// Proposition 4 shows full enumeration costs O(K n^{K C_max + 1}). This
// solver explores that space depth-first with:
//  * an admissible upper bound — weight already locked in plus the total
//    weight of still-`Alive` CEIs — pruned against a running incumbent;
//  * per-chronon memo tables keyed on the captured-EI set
//    (util/bitset256, lifting the old 64-EI mask ceiling);
//  * candidate dominance — a resource whose capture gain is a subset of
//    another's at equal cost is never enumerated.
// The returned schedule is byte-identical to the pre-optimization reference
// (offline/reference_solvers.h). The search skips dominated candidates and
// pruned combinations, so its argmax is not always the reference's first
// optimal combination; it only establishes the optimal value, and a
// reconstruction phase re-derives the canonical schedule by replaying the
// full candidate lists in reference order against the memoized values. See
// docs/PERFORMANCE.md ("Offline solvers") for the bound derivation and the
// determinism argument. It exists as the ground-truth oracle for tests: the
// optimality of S-EDF under Proposition 1's conditions, the feasibility and
// quality of the offline approximation, and the online policies'
// completeness are all checked against it.

#ifndef WEBMON_OFFLINE_EXACT_SOLVER_H_
#define WEBMON_OFFLINE_EXACT_SOLVER_H_

#include <cstdint>

#include "model/problem.h"
#include "model/schedule.h"
#include "util/status.h"

namespace webmon {

/// Result of an exact solve.
struct ExactResult {
  Schedule schedule;
  /// Number of CEIs the optimal schedule captures. (The solver maximizes
  /// total captured WEIGHT; with unit weights that coincides with the
  /// count, otherwise the count is whatever the weight-optimal schedule
  /// happens to capture.)
  int64_t captured_ceis = 0;
  /// Optimal total captured weight.
  double captured_weight = 0.0;
  /// Gained completeness (Eq. 1) of the returned schedule.
  double completeness = 0.0;
  /// Weighted completeness of the returned schedule (optimal).
  double weighted_completeness = 0.0;
  /// Number of DFS states expanded across both phases (diagnostics).
  int64_t states_expanded = 0;
  /// Subtrees cut by the upper-bound-vs-incumbent prune (diagnostics).
  int64_t subtrees_pruned = 0;
  /// Candidate resources dropped by dominance (gain-subset) filtering.
  int64_t dominated_skipped = 0;
  /// Memo/visited table hits (diagnostics).
  int64_t memo_hits = 0;
  /// Wall time of the value-search phase, seconds.
  double search_seconds = 0.0;
  /// Wall time of the schedule-reconstruction phase, seconds.
  double reconstruct_seconds = 0.0;
};

/// Options bounding the search.
struct ExactSolverOptions {
  /// Refuse instances with more EIs than this (the state space is 2^EIs;
  /// hard-capped at 256 by the capture mask width).
  int64_t max_eis = 100;
  /// Abort after this many expanded states (0 = unlimited).
  int64_t max_states = 50'000'000;
};

/// Computes an optimal schedule. Fails with InvalidArgument when the
/// instance exceeds `options.max_eis`, ResourceExhausted when the state
/// budget is hit.
StatusOr<ExactResult> SolveExact(const ProblemInstance& problem,
                                 const ExactSolverOptions& options = {});

}  // namespace webmon

#endif  // WEBMON_OFFLINE_EXACT_SOLVER_H_
