// The Policy::BeginChronon contract (policy/policy.h): the scheduler hands
// the policy its own active list before the chronon's rank pass prunes it,
// so stale entries may remain and policies that read the list (WIC, Random)
// skip every entry whose CandidateEi::IsLive() is false. This suite records
// the live entries at every chronon and checks them against the active set
// rebuilt from scratch by the test's own model — arrived and activated,
// start <= t <= finish, uncaptured, CEI live — in activation order, over
// every chronon of the epoch with cancels and pushes. The model learns
// captures only from the scheduler's public outputs (probed resources) and
// the test's own pushes and cancels.

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "model/cei.h"
#include "online/online_scheduler.h"
#include "policy/policy.h"
#include "util/rng.h"

namespace webmon {
namespace {

using EiRef = std::pair<CeiId, uint32_t>;

// Records the live entries of the list BeginChronon receives; values are
// S-EDF deadlines, so the run probes and captures like a real policy.
class RecordingPolicy final : public Policy {
 public:
  std::string name() const override { return "Recording"; }
  Level level() const override { return Level::kIndividualEi; }

  void BeginChronon(const std::vector<CandidateEi>& active,
                    Chronon now) override {
    live_.clear();
    for (const CandidateEi& cand : active) {
      if (cand.IsLive()) {
        live_.emplace_back(cand.state->cei->id, cand.ei_index);
      } else {
        ++stale_;
      }
    }
    chronon_ = now;
  }

  double Value(const CandidateEi& cand, Chronon now) const override {
    return static_cast<double>(SEdfValue(cand.ei(), now));
  }

  const std::vector<EiRef>& live() const { return live_; }
  Chronon chronon() const { return chronon_; }
  // Entries received that were not live (stale, awaiting pruning).
  int64_t stale() const { return stale_; }

 private:
  std::vector<EiRef> live_;
  Chronon chronon_ = -1;
  int64_t stale_ = 0;
};

// The test's from-scratch view of one CEI.
struct ModelCei {
  const Cei* cei = nullptr;
  Chronon arrived = -1;            // chronon it was registered at
  size_t seq = 0;                  // registration order
  std::vector<Chronon> activated;  // per EI; -1 = never activated
  std::vector<bool> captured;
  size_t num_captured = 0;
  bool cancelled = false;

  bool Complete() const { return num_captured >= cei->RequiredCaptures(); }
  // Failed EIs as of the start of chronon t: closed before arrival, or
  // activated and closed before t uncaptured.
  bool Dead(Chronon t) const {
    size_t failed = 0;
    for (size_t i = 0; i < cei->eis.size(); ++i) {
      const ExecutionInterval& ei = cei->eis[i];
      if (ei.finish < arrived ||
          (activated[i] >= 0 && ei.finish < t && !captured[i])) {
        ++failed;
      }
    }
    return cei->eis.size() - failed < cei->RequiredCaptures();
  }
  bool Live(Chronon t) const {
    return arrived >= 0 && !cancelled && !Complete() && !Dead(t);
  }
};

std::vector<Cei> MakeCeis(Rng& rng, uint32_t n, Chronon k, int count) {
  std::vector<Cei> ceis;
  for (int c = 0; c < count; ++c) {
    Cei cei;
    cei.id = static_cast<CeiId>(c);
    cei.arrival =
        static_cast<Chronon>(rng.UniformU64(static_cast<uint64_t>(k)));
    const uint32_t rank = 1 + static_cast<uint32_t>(rng.UniformU64(3));
    for (uint32_t e = 0; e < rank; ++e) {
      ExecutionInterval ei;
      ei.id = static_cast<EiId>(c * 4 + static_cast<int>(e));
      ei.resource = static_cast<ResourceId>(rng.UniformU64(n));
      // Starts up to a few chronons before arrival (admitted on arrival,
      // some already closed) or after it (parked until their start).
      const Chronon offset = static_cast<Chronon>(rng.UniformU64(10)) - 3;
      ei.start = std::clamp<Chronon>(cei.arrival + offset, 0, k - 1);
      ei.finish = std::min<Chronon>(
          ei.start + static_cast<Chronon>(rng.UniformU64(8)), k - 1);
      cei.eis.push_back(ei);
    }
    // A third of the multi-EI needs are k-of-n.
    if (rank > 1 && rng.UniformU64(3) == 0) {
      cei.required = 1 + static_cast<uint32_t>(rng.UniformU64(rank - 1));
    }
    ceis.push_back(std::move(cei));
  }
  return ceis;
}

void RunContract(uint64_t seed) {
  constexpr uint32_t kResources = 12;
  constexpr Chronon kChronons = 60;
  Rng rng(seed);
  const std::vector<Cei> ceis = MakeCeis(rng, kResources, kChronons, 90);

  RecordingPolicy policy;
  OnlineScheduler scheduler(kResources, kChronons, BudgetVector::Uniform(2),
                            &policy);

  std::vector<ModelCei> model(ceis.size());
  for (size_t c = 0; c < ceis.size(); ++c) {
    model[c].cei = &ceis[c];
    model[c].activated.assign(ceis[c].eis.size(), -1);
    model[c].captured.assign(ceis[c].eis.size(), false);
  }
  size_t next_seq = 0;
  std::vector<ResourceId> probed;

  for (Chronon t = 0; t < kChronons; ++t) {
    for (size_t c = 0; c < ceis.size(); ++c) {
      if (ceis[c].arrival != t) continue;
      ASSERT_TRUE(scheduler.AddArrival(&ceis[c], t).ok());
      ModelCei& m = model[c];
      m.arrived = t;
      m.seq = next_seq++;
      for (size_t i = 0; i < ceis[c].eis.size(); ++i) {
        const ExecutionInterval& ei = ceis[c].eis[i];
        if (ei.finish >= t && ei.start <= t) m.activated[i] = t;
      }
    }
    // Cancels: a few registered CEIs, live or not (terminal ones exercise
    // the no-op path).
    std::vector<CeiId> cancels;
    for (size_t c = 0; c < ceis.size(); ++c) {
      if (model[c].arrived >= 0 && model[c].arrived < t &&
          !model[c].cancelled && rng.UniformU64(40) == 0) {
        cancels.push_back(ceis[c].id);
        if (!model[c].Complete()) model[c].cancelled = true;
      }
    }
    ASSERT_TRUE(scheduler.RemoveCeiBatch(cancels, t).ok());
    // Resources whose content is available at t: pushed now, or probed
    // successfully by the Step below.
    std::vector<uint8_t> available(kResources, 0);
    if (t % 3 == 0) {
      const auto r = static_cast<ResourceId>(rng.UniformU64(kResources));
      ASSERT_TRUE(scheduler.AddPush(r, t).ok());
      available[r] = 1;
    }
    // EIs parked until their start chronon activate at it.
    for (ModelCei& m : model) {
      if (m.arrived < 0) continue;
      for (size_t i = 0; i < m.cei->eis.size(); ++i) {
        if (m.cei->eis[i].start == t && m.arrived < t) m.activated[i] = t;
      }
    }

    // The active set at t, rebuilt from scratch, in activation order:
    // chronon, then EIs admitted on arrival before parked ones activating
    // at their start, then registration order, then EI index.
    std::vector<std::tuple<Chronon, int, size_t, uint32_t, CeiId>> keyed;
    for (const ModelCei& m : model) {
      if (!m.Live(t)) continue;
      for (uint32_t i = 0; i < m.cei->eis.size(); ++i) {
        const ExecutionInterval& ei = m.cei->eis[i];
        if (m.activated[i] < 0 || m.captured[i]) continue;
        if (ei.start > t || t > ei.finish) continue;
        const int parked = ei.start > m.arrived ? 1 : 0;
        keyed.emplace_back(m.activated[i], parked, m.seq, i, m.cei->id);
      }
    }
    std::sort(keyed.begin(), keyed.end());
    std::vector<EiRef> expected;
    for (const auto& k : keyed) {
      expected.emplace_back(std::get<4>(k), std::get<3>(k));
    }

    ASSERT_TRUE(scheduler.Step(t, nullptr, &probed).ok());
    ASSERT_EQ(policy.chronon(), t);
    ASSERT_EQ(policy.live(), expected) << "chronon " << t;

    // Captures: every live CEI's active, uncaptured EIs on a probed or
    // pushed resource.
    for (ResourceId r : probed) available[r] = 1;
    for (ModelCei& m : model) {
      if (!m.Live(t)) continue;
      for (size_t i = 0; i < m.cei->eis.size(); ++i) {
        const ExecutionInterval& ei = m.cei->eis[i];
        if (m.activated[i] < 0 || m.captured[i] || ei.finish < t) continue;
        if (!available[ei.resource]) continue;
        m.captured[i] = true;
        ++m.num_captured;
      }
    }
    // Cross-check the model's liveness against the scheduler's lifecycle.
    for (const ModelCei& m : model) {
      if (m.arrived < 0) continue;
      ASSERT_EQ(scheduler.LifecycleOf(m.cei->id) == CeiLifecycle::kPending,
                m.Live(t + 1))
          << "CEI " << m.cei->id << " after chronon " << t;
    }
  }
  EXPECT_GT(scheduler.stats().eis_captured, 0);
  EXPECT_GT(scheduler.stats().ceis_cancelled, 0);
  EXPECT_GT(scheduler.stats().pushes_delivered, 0);
  EXPECT_GT(policy.stale(), 0) << "no stale entry ever reached the policy";
}

TEST(ActiveSetContractTest, LiveEntriesEqualActiveSetRebuiltFromScratch) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunContract(seed);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace webmon
