// Frozen pre-optimization offline solvers, kept as differential oracles.
//
// These are verbatim copies of the exact and approximate solvers as they
// stood before the branch-and-bound / interval-index performance pass
// (post memo-key fix), in the spirit of the naive Algorithm 1 replica in
// tests/online/reference_scheduler_test.cc. They exist so that
//  * tests/offline/offline_differential_test.cc can assert the optimized
//    solvers return byte-identical schedules on random instances, and
//  * bench/bench_offline_scaling can report optimized-vs-reference
//    speedups.
// Do not optimize these; that would defeat their purpose.

#ifndef WEBMON_OFFLINE_REFERENCE_SOLVERS_H_
#define WEBMON_OFFLINE_REFERENCE_SOLVERS_H_

#include "offline/exact_solver.h"
#include "offline/offline_approx.h"
#include "model/problem.h"
#include "util/status.h"

namespace webmon {

/// Pre-optimization exact solver: memoized DFS with no bounding and a
/// uint64_t capture mask (hard 64-EI ceiling regardless of
/// `options.max_eis`).
StatusOr<ExactResult> SolveExactReference(
    const ProblemInstance& problem, const ExactSolverOptions& options = {});

/// Pre-optimization local-ratio baseline: O(V^2) pairwise zeroing sweep
/// and find_if-based demand accumulation.
StatusOr<OfflineApproxResult> SolveOfflineApproxReference(
    const ProblemInstance& problem, const OfflineApproxOptions& options = {});

/// Pre-optimization greedy slot-assignment baseline with linear booked
/// scans.
StatusOr<OfflineApproxResult> SolveOfflineGreedyReference(
    const ProblemInstance& problem, const OfflineGreedyOptions& options = {});

}  // namespace webmon

#endif  // WEBMON_OFFLINE_REFERENCE_SOLVERS_H_
