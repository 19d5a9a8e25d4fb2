#include "offline/exact_solver.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <utility>
#include <vector>

#include "model/completeness.h"
#include "util/bitset256.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace webmon {

namespace {

// Flattened instance view used by the search.
struct FlatEi {
  ResourceId resource;
  Chronon start;
  Chronon finish;
  uint32_t cei;  // index into FlatCei vector
};

struct FlatCei {
  Bitset256 mask;                // bit per flattened EI index
  std::vector<uint32_t> ei_idx;  // the same bits, as indices
  uint32_t required = 0;         // captures needed to satisfy the CEI
  double weight = 1.0;           // client utility of capturing the CEI
};

// A probe-able resource at some chronon together with the EI bits the probe
// would capture.
struct Candidate {
  ResourceId resource;
  Bitset256 gain;
};

// Advances `idx` to the next lexicographic `idx.size()`-combination of
// {0, ..., n - 1}; returns false when `idx` was already the last one.
bool NextCombination(std::vector<size_t>& idx, size_t n) {
  for (size_t i = idx.size(); i > 0;) {
    --i;
    if (idx[i] != i + n - idx.size()) {
      ++idx[i];
      for (size_t j = i + 1; j < idx.size(); ++j) idx[j] = idx[j - 1] + 1;
      return true;
    }
  }
  return false;
}

// Search diagnostics, copied into ExactResult after the run.
struct SearchCounters {
  int64_t states = 0;
  int64_t pruned = 0;
  int64_t dominated = 0;
  int64_t memo_hits = 0;
};

class Search {
 public:
  Search(const ProblemInstance& problem, const ExactSolverOptions& options)
      : problem_(problem),
        options_(options),
        k_(problem.num_chronons()),
        memo_(static_cast<size_t>(std::max<Chronon>(k_, 0))) {
    for (const auto& profile : problem.profiles()) {
      for (const auto& cei : profile.ceis) {
        const uint32_t ci = static_cast<uint32_t>(ceis_.size());
        ceis_.push_back({});
        ceis_[ci].required = static_cast<uint32_t>(cei.RequiredCaptures());
        ceis_[ci].weight = cei.weight;
        for (const auto& ei : cei.eis) {
          const uint32_t e = static_cast<uint32_t>(eis_.size());
          eis_.push_back({ei.resource, ei.start, ei.finish, ci});
          if (e < static_cast<uint32_t>(Bitset256::kBits)) {
            ceis_[ci].mask.Set(static_cast<int>(e));
            ceis_[ci].ei_idx.push_back(e);
          }
        }
      }
    }
  }

  StatusOr<ExactResult> Run() {
    const int64_t cap =
        std::min<int64_t>(options_.max_eis, Bitset256::kBits);
    if (static_cast<int64_t>(eis_.size()) > cap) {
      return Status::InvalidArgument(
          "instance too large for exact search: " +
          std::to_string(eis_.size()) + " EIs > max " + std::to_string(cap));
    }

    ExactResult result{Schedule(problem_.num_resources(), k_)};

    // Phase 1 — establish the optimal value, memoizing every expanded
    // state's exact value.
    Stopwatch search_watch;
    WEBMON_ASSIGN_OR_RETURN(const double opt, Value(0, Bitset256()));
    result.search_seconds = search_watch.ElapsedSeconds();
    result.captured_weight = opt;

    // Phase 2 — canonical reconstruction against the memoized values.
    Stopwatch reconstruct_watch;
    WEBMON_RETURN_IF_ERROR(Reconstruct(opt, &result.schedule));
    result.reconstruct_seconds = reconstruct_watch.ElapsedSeconds();

    result.states_expanded = counters_.states;
    result.subtrees_pruned = counters_.pruned;
    result.dominated_skipped = counters_.dominated;
    result.memo_hits = counters_.memo_hits;
    result.captured_ceis = CapturedCeiCount(problem_, result.schedule);
    result.completeness = GainedCompleteness(problem_, result.schedule);
    result.weighted_completeness =
        WeightedCompleteness(problem_, result.schedule);
    return result;
  }

 private:
  // True iff CEI ci is already satisfied under its capture semantics.
  bool Completed(uint32_t ci, const Bitset256& captured) const {
    return static_cast<uint32_t>(captured.CountAnd(ceis_[ci].mask)) >=
           ceis_[ci].required;
  }

  // True iff CEI ci can still be completed: the EIs whose windows have not
  // fully passed by chronon t, plus those already captured, suffice.
  bool Alive(uint32_t ci, Chronon t, const Bitset256& captured) const {
    uint32_t failed = 0;
    for (const uint32_t e : ceis_[ci].ei_idx) {
      if (captured.Test(static_cast<int>(e))) continue;
      if (eis_[e].finish < t) ++failed;
    }
    return static_cast<uint32_t>(ceis_[ci].ei_idx.size()) - failed >=
           ceis_[ci].required;
  }

  // Total weight of CEIs satisfied by `captured`, summed in ascending CEI
  // order. Every weight sum in the search uses this order, so a superset of
  // completed CEIs never float-sums below a subset (monotone rounding) —
  // the property the admissible bound and the reconstruction rely on.
  double CompletedWeight(const Bitset256& captured) const {
    double done = 0.0;
    for (uint32_t ci = 0; ci < ceis_.size(); ++ci) {
      if (Completed(ci, captured)) done += ceis_[ci].weight;
    }
    return done;
  }

  // Admissible upper bound on the final captured weight from (t, captured):
  // weight already locked in plus the weight of every CEI that is still
  // alive. A CEI neither completed nor alive can never contribute, and the
  // ascending-order float sum dominates any reachable CompletedWeight.
  double Bound(Chronon t, const Bitset256& captured) const {
    double ub = 0.0;
    for (uint32_t ci = 0; ci < ceis_.size(); ++ci) {
      if (Completed(ci, captured) || Alive(ci, t, captured)) {
        ub += ceis_[ci].weight;
      }
    }
    return ub;
  }

  // Candidate resources at chronon t: those with an active uncaptured EI
  // whose parent CEI is still alive and incomplete, in ascending resource
  // order — the reference solver's enumeration order, which reconstruction
  // must reproduce exactly.
  std::vector<Candidate> Candidates(Chronon t,
                                    const Bitset256& captured) const {
    std::unordered_map<ResourceId, Bitset256> gain;
    for (uint32_t e = 0; e < eis_.size(); ++e) {
      if (captured.Test(static_cast<int>(e))) continue;
      const FlatEi& ei = eis_[e];
      if (ei.start > t || ei.finish < t) continue;
      if (Completed(ei.cei, captured)) continue;  // nothing to gain
      if (!Alive(ei.cei, t, captured)) continue;
      gain[ei.resource].Set(static_cast<int>(e));
    }
    std::vector<Candidate> out;
    out.reserve(gain.size());
    // unordered-iter-ok: sorted drain — the map is emptied into `out`,
    // which the sort below orders by resource id (a unique map key), so
    // bucket order never reaches the search.
    for (const auto& [resource, mask] : gain) out.push_back({resource, mask});
    // total-order: resource ids are the map's keys, hence unique — no ties.
    std::sort(out.begin(), out.end(), [](const Candidate& a,
                                         const Candidate& b) {
      return a.resource < b.resource;
    });
    return out;
  }

  // Dominance filter: drop a candidate whose gain is a subset of another's
  // (ties keep the smaller resource id). Probing the dominator captures a
  // superset of EIs at the same unit cost, and captured-set supersets never
  // lower the reachable weight, so the optimal VALUE is unaffected —
  // reconstruction still enumerates the full list.
  std::vector<Candidate> FilterDominated(const std::vector<Candidate>& full) {
    if (full.size() <= 1) return full;
    std::vector<Candidate> out;
    out.reserve(full.size());
    for (size_t i = 0; i < full.size(); ++i) {
      bool dominated = false;
      for (size_t j = 0; j < full.size() && !dominated; ++j) {
        if (i == j) continue;
        if (!full[i].gain.IsSubsetOf(full[j].gain)) continue;
        dominated = (full[i].gain != full[j].gain) || j < i;
      }
      if (dominated) {
        ++counters_.dominated;
      } else {
        out.push_back(full[i]);
      }
    }
    return out;
  }

  // Exact best final captured weight reachable from (t, captured), as a
  // branch-and-bound with an internal incumbent: a child is skipped when
  // its bound cannot strictly beat the best sibling value so far, and the
  // node exits early once `best` meets its own bound. Both cuts preserve
  // the exact maximum (and the exact double: some surviving leaf always
  // attains it), so memoized values equal the reference solver's.
  StatusOr<double> Value(Chronon t, const Bitset256& captured) {
    if (t >= k_) return CompletedWeight(captured);
    auto& memo = memo_[static_cast<size_t>(t)];
    if (auto it = memo.find(captured); it != memo.end()) {
      ++counters_.memo_hits;
      return it->second;
    }
    if (options_.max_states > 0 && ++counters_.states > options_.max_states) {
      return Status::ResourceExhausted("exact search state budget exceeded");
    }

    const auto cands = FilterDominated(Candidates(t, captured));
    const int64_t budget = problem_.budget().At(t);
    const size_t pick =
        std::min<size_t>(cands.size(),
                         static_cast<size_t>(std::max<int64_t>(budget, 0)));
    double best = 0.0;
    if (pick == 0) {
      WEBMON_ASSIGN_OR_RETURN(best, Value(t + 1, captured));
    } else {
      const double ub = Bound(t, captured);
      std::vector<size_t> idx(pick);
      std::iota(idx.begin(), idx.end(), size_t{0});
      while (true) {
        Bitset256 next = captured;
        for (const size_t i : idx) next |= cands[i].gain;
        if (Bound(t + 1, next) <= best) {
          ++counters_.pruned;
        } else {
          WEBMON_ASSIGN_OR_RETURN(const double sub, Value(t + 1, next));
          best = std::max(best, sub);
          if (best >= ub) break;  // nothing left to gain at this node
        }
        if (!NextCombination(idx, cands.size())) break;
      }
    }
    WEBMON_DCHECK_GE(best, CompletedWeight(captured) - 1e-12)
        << "DFS bound dropped below the already-captured weight at chronon "
        << t;
    memo[captured] = best;
    return best;
  }

  // Replays an optimal path against exact values, writing probes into
  // `schedule`. Enumerates the FULL candidate list in reference order and
  // accepts the first combination whose subtree value meets the target, so
  // the schedule is byte-identical to the reference solver's. A bound
  // check fast-rejects combinations whose subtree could not reach the
  // target (bound >= value, so every skipped combination is one the
  // reference also rejects).
  Status Reconstruct(double opt, Schedule* schedule) {
    constexpr double kEps = 1e-9;
    Chronon t = 0;
    Bitset256 captured;
    double target = opt;
    while (t < k_) {
      const auto candidates = Candidates(t, captured);
      const int64_t budget = problem_.budget().At(t);
      const size_t pick = std::min<size_t>(
          candidates.size(),
          static_cast<size_t>(std::max<int64_t>(budget, 0)));
      if (pick == 0) {
        // No probes possible: the value carries over unchanged.
        t += 1;
        continue;
      }
      std::vector<size_t> idx(pick);
      std::iota(idx.begin(), idx.end(), size_t{0});
      bool advanced = false;
      while (!advanced) {
        Bitset256 next = captured;
        for (const size_t i : idx) next |= candidates[i].gain;
        bool accept = false;
        double sub = 0.0;
        if (Bound(t + 1, next) >= target - kEps) {
          WEBMON_ASSIGN_OR_RETURN(sub, Value(t + 1, next));
          accept = sub >= target - kEps;
        }
        if (accept) {
          for (const size_t i : idx) {
            WEBMON_RETURN_IF_ERROR(
                schedule->AddProbe(candidates[i].resource, t));
          }
          captured = next;
          target = sub;
          t += 1;
          advanced = true;
        } else if (!NextCombination(idx, candidates.size())) {
          return Status::Internal("exact reconstruction diverged from search");
        }
      }
    }
    return Status::OK();
  }

  const ProblemInstance& problem_;
  ExactSolverOptions options_;
  Chronon k_;
  std::vector<FlatEi> eis_;
  std::vector<FlatCei> ceis_;
  // Exact-value memo, one table per chronon: the search fills it and the
  // reconstruction reads it.
  std::vector<std::unordered_map<Bitset256, double, Bitset256::Hash>> memo_;
  SearchCounters counters_;
};

}  // namespace

StatusOr<ExactResult> SolveExact(const ProblemInstance& problem,
                                 const ExactSolverOptions& options) {
  Search search(problem, options);
  return search.Run();
}

}  // namespace webmon
