// Unit tests of the deterministic fault model (spec, serialization,
// injector).

#include "faults/fault_model.h"

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace webmon {
namespace {

TEST(FaultSpecTest, DefaultIsIdeal) {
  FaultSpec spec;
  EXPECT_TRUE(spec.IsIdeal());
  EXPECT_TRUE(spec.defaults.IsIdeal());
  EXPECT_TRUE(spec.Validate().ok());
}

TEST(FaultSpecTest, OverridesBreakIdeality) {
  FaultSpec spec;
  spec.overrides[3].transient_error_prob = 0.25;
  EXPECT_FALSE(spec.IsIdeal());
  EXPECT_EQ(spec.For(3).transient_error_prob, 0.25);
  EXPECT_EQ(spec.For(0).transient_error_prob, 0.0);
}

TEST(FaultSpecTest, OutageWithoutFailureIsStillIdeal) {
  // A chain that enters the bad state but never fails probes there cannot
  // fail anything.
  ResourceFaultProfile p;
  p.outage_enter_prob = 0.5;
  p.outage_exit_prob = 0.5;
  p.outage_fail_prob = 0.0;
  EXPECT_TRUE(p.IsIdeal());
}

TEST(FaultSpecTest, ValidationRejectsBadProbabilities) {
  FaultSpec spec;
  spec.defaults.transient_error_prob = 1.5;
  EXPECT_FALSE(spec.Validate().ok());

  FaultSpec trapped;
  trapped.defaults.outage_enter_prob = 0.1;
  trapped.defaults.outage_exit_prob = 0.0;
  EXPECT_FALSE(trapped.Validate().ok());  // enterable but not exitable

  FaultSpec negative_window;
  negative_window.overrides[0].rate_limit_window = -1;
  EXPECT_FALSE(negative_window.Validate().ok());
}

TEST(FaultSpecTest, TextRoundTrip) {
  FaultSpec spec;
  spec.defaults.transient_error_prob = 0.125;
  spec.defaults.timeout_prob = 0.0625;
  spec.overrides[2].outage_enter_prob = 0.25;
  spec.overrides[2].outage_exit_prob = 0.5;
  spec.overrides[2].outage_fail_prob = 0.875;
  spec.overrides[5].rate_limit_window = 4;
  spec.overrides[5].rate_limit_max = 2;

  const std::string text = FaultSpecToText(spec);
  auto parsed = FaultSpecFromText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed->defaults == spec.defaults);
  ASSERT_EQ(parsed->overrides.size(), 2u);
  EXPECT_TRUE(parsed->For(2) == spec.For(2));
  EXPECT_TRUE(parsed->For(5) == spec.For(5));
}

TEST(FaultSpecTest, RetryBudgetRoundTrips) {
  FaultSpec spec;
  spec.defaults.transient_error_prob = 0.25;
  spec.retry_budget = 12.5;

  const std::string text = FaultSpecToText(spec);
  EXPECT_NE(text.find("retrybudget 12.5"), std::string::npos) << text;
  auto parsed = FaultSpecFromText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->retry_budget, 12.5);

  // Unlimited (the default, negative) emits no line and parses back as
  // unlimited.
  spec.retry_budget = -1.0;
  const std::string unlimited = FaultSpecToText(spec);
  EXPECT_EQ(unlimited.find("retrybudget"), std::string::npos) << unlimited;
  auto reparsed = FaultSpecFromText(unlimited);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_LT(reparsed->retry_budget, 0.0);

  EXPECT_FALSE(FaultSpecFromText("webmon-faults 1\nretrybudget nope\n").ok());
}

TEST(FaultSpecTest, ResourceLinesInheritDefaults) {
  // A hand-written resource line only overrides the fields it names; the
  // rest come from the default profile parsed above it.
  auto parsed = FaultSpecFromText(
      "webmon-faults 1\n"
      "default transient 0.125 timeout 0.0625\n"
      "resource 2 outage 0.25 0.5 0.875\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->For(2).transient_error_prob, 0.125);
  EXPECT_EQ(parsed->For(2).timeout_prob, 0.0625);
  EXPECT_EQ(parsed->For(2).outage_enter_prob, 0.25);
}

TEST(FaultSpecTest, ParserRejectsGarbage) {
  EXPECT_FALSE(FaultSpecFromText("").ok());
  EXPECT_FALSE(FaultSpecFromText("webmon-faults 2\n").ok());
  EXPECT_FALSE(FaultSpecFromText("webmon-faults 1\nbogus record\n").ok());
  EXPECT_FALSE(
      FaultSpecFromText("webmon-faults 1\ndefault transient nope\n").ok());
  EXPECT_FALSE(FaultSpecFromText("webmon-faults 1\nresource\n").ok());
  // Comments and blank lines are fine.
  EXPECT_TRUE(
      FaultSpecFromText("webmon-faults 1\n# a comment\n\n").ok());
}

TEST(FaultInjectorTest, IdealSpecAlwaysSucceeds) {
  FaultInjector injector(FaultSpec{}, 4, /*seed=*/7);
  for (Chronon t = 0; t < 50; ++t) {
    for (ResourceId r = 0; r < 4; ++r) {
      EXPECT_EQ(injector.OnProbe(r, t), ProbeOutcome::kSuccess);
    }
  }
}

TEST(FaultInjectorTest, DeterministicAcrossRuns) {
  FaultSpec spec;
  spec.defaults.transient_error_prob = 0.3;
  spec.defaults.timeout_prob = 0.1;
  spec.defaults.outage_enter_prob = 0.05;
  spec.defaults.outage_exit_prob = 0.4;

  FaultInjector a(spec, 3, /*seed=*/99);
  FaultInjector b(spec, 3, /*seed=*/99);
  for (Chronon t = 0; t < 200; ++t) {
    for (ResourceId r = 0; r < 3; ++r) {
      EXPECT_EQ(a.OnProbe(r, t), b.OnProbe(r, t))
          << "resource " << r << " chronon " << t;
    }
  }
}

TEST(FaultInjectorTest, SeedsChangeOutcomes) {
  FaultSpec spec;
  spec.defaults.transient_error_prob = 0.5;
  FaultInjector a(spec, 1, /*seed=*/1);
  FaultInjector b(spec, 1, /*seed=*/2);
  bool differ = false;
  for (Chronon t = 0; t < 64 && !differ; ++t) {
    differ = a.OnProbe(0, t) != b.OnProbe(0, t);
  }
  EXPECT_TRUE(differ);
}

TEST(FaultInjectorTest, OutageChainIndependentOfProbeCount) {
  // The Gilbert-Elliott chain must advance per chronon, not per probe:
  // probing a resource more often must not change WHEN it is in outage.
  FaultSpec spec;
  spec.defaults.outage_enter_prob = 0.2;
  spec.defaults.outage_exit_prob = 0.3;

  FaultInjector sparse(spec, 1, /*seed=*/42);
  FaultInjector dense(spec, 1, /*seed=*/42);
  for (Chronon t = 0; t < 300; ++t) {
    // `dense` probes every chronon; `sparse` only asks every 7th.
    (void)dense.InOutage(0, t);
    if (t % 7 == 0) {
      EXPECT_EQ(sparse.InOutage(0, t), dense.InOutage(0, t))
          << "chronon " << t;
    }
  }
}

TEST(FaultInjectorTest, OutageFailsProbesWhileBad) {
  FaultSpec spec;
  spec.defaults.outage_enter_prob = 0.3;
  spec.defaults.outage_exit_prob = 0.3;
  // outage_fail_prob defaults to 1.0: every probe in the bad state fails.
  FaultInjector injector(spec, 1, /*seed=*/5);
  int outages = 0;
  for (Chronon t = 0; t < 400; ++t) {
    const bool bad = injector.InOutage(0, t);
    const ProbeOutcome outcome = injector.OnProbe(0, t);
    if (bad) {
      EXPECT_EQ(outcome, ProbeOutcome::kOutage) << "chronon " << t;
      ++outages;
    } else {
      EXPECT_EQ(outcome, ProbeOutcome::kSuccess) << "chronon " << t;
    }
  }
  EXPECT_GT(outages, 0);  // the chain did visit the bad state
}

TEST(FaultInjectorTest, RateLimiterCountsPerWindow) {
  FaultSpec spec;
  spec.defaults.rate_limit_window = 5;
  spec.defaults.rate_limit_max = 1;
  FaultInjector injector(spec, 1, /*seed=*/3);
  // One attempt per window succeeds; the second in the same window is
  // rejected; a new window resets the counter.
  EXPECT_EQ(injector.OnProbe(0, 0), ProbeOutcome::kSuccess);
  EXPECT_EQ(injector.OnProbe(0, 3), ProbeOutcome::kRateLimited);
  EXPECT_EQ(injector.OnProbe(0, 5), ProbeOutcome::kSuccess);
  EXPECT_EQ(injector.OnProbe(0, 6), ProbeOutcome::kRateLimited);
  EXPECT_EQ(injector.OnProbe(0, 10), ProbeOutcome::kSuccess);
}

TEST(FaultInjectorTest, TimeoutPrecedesOtherDraws) {
  FaultSpec spec;
  spec.defaults.timeout_prob = 1.0;
  spec.defaults.transient_error_prob = 1.0;
  FaultInjector injector(spec, 1, /*seed=*/1);
  for (Chronon t = 0; t < 20; ++t) {
    EXPECT_EQ(injector.OnProbe(0, t), ProbeOutcome::kTimeout);
  }
}

TEST(FaultInjectorTest, PerResourceStreamsAreIndependent) {
  FaultSpec spec;
  spec.defaults.transient_error_prob = 0.5;
  FaultInjector injector(spec, 2, /*seed=*/11);
  // Interleaving probes of resource 1 must not perturb resource 0's
  // sequence.
  FaultInjector reference(spec, 2, /*seed=*/11);
  std::vector<ProbeOutcome> expected;
  for (Chronon t = 0; t < 100; ++t) {
    expected.push_back(reference.OnProbe(0, t));
  }
  for (Chronon t = 0; t < 100; ++t) {
    (void)injector.OnProbe(1, t);
    EXPECT_EQ(injector.OnProbe(0, t), expected[static_cast<size_t>(t)])
        << "chronon " << t;
  }
}

// First-touch identity: a resource's state is created on its first
// OnProbe or InOutage with its streams seeded from (seed, resource) alone,
// so neither the order nor the chronon nor the call of first touches may
// change a draw. The spec exercises every draw: incidents, rate limits,
// timeouts, outages and transients.
constexpr uint32_t kTouchResources = 48;
constexpr Chronon kTouchChronons = 120;
constexpr uint64_t kTouchSeed = 0x5EED;

FaultSpec FirstTouchSpec() {
  FaultSpec spec;
  spec.defaults.transient_error_prob = 0.2;
  spec.defaults.timeout_prob = 0.05;
  spec.defaults.outage_enter_prob = 0.05;
  spec.defaults.outage_exit_prob = 0.3;
  spec.defaults.outage_fail_prob = 0.9;
  for (ResourceId r = 0; r < kTouchResources; r += 5) {
    ResourceFaultProfile limited = spec.defaults;
    limited.rate_limit_window = 6;
    limited.rate_limit_max = 3;
    spec.overrides[r] = limited;
  }
  IncidentDomain domain;
  domain.name = "edge";
  domain.stride = 3;
  domain.enter_prob = 0.05;
  domain.exit_prob = 0.2;
  domain.fail_prob = 0.7;
  spec.incidents.push_back(domain);
  return spec;
}

// Resource r is first probed at chronon (13 r) mod 50, then at two of
// every three chronons.
bool Planned(ResourceId r, Chronon t) {
  const auto first = static_cast<Chronon>((r * 13) % 50);
  return t == first || (t > first && (t + r) % 3 != 0);
}

struct Touches {
  std::map<std::pair<ResourceId, Chronon>, ProbeOutcome> outcomes;
  std::map<std::pair<ResourceId, Chronon>, bool> outages;
};

enum class TouchOrder { kAscending, kShuffled };
// How each resource is first touched: by its first planned OnProbe, by an
// InOutage just before it, or by an InOutage of every resource at chronon
// 0 (as if every state existed from construction).
enum class FirstTouch { kProbe, kOutage, kAllAtZero };

// Runs the plan on a fresh injector, asking OnProbe and InOutage at every
// planned (resource, chronon), resources in `order` within a chronon.
Touches RunPlan(TouchOrder order, FirstTouch first) {
  FaultInjector injector(FirstTouchSpec(), kTouchResources, kTouchSeed);
  if (first == FirstTouch::kAllAtZero) {
    for (ResourceId r = 0; r < kTouchResources; ++r) {
      (void)injector.InOutage(r, 0);
    }
  }
  std::vector<ResourceId> resources(kTouchResources);
  std::iota(resources.begin(), resources.end(), ResourceId{0});
  Rng shuffle(17);
  Touches out;
  for (Chronon t = 0; t < kTouchChronons; ++t) {
    if (order == TouchOrder::kShuffled) shuffle.Shuffle(resources);
    for (ResourceId r : resources) {
      if (!Planned(r, t)) continue;
      const std::pair<ResourceId, Chronon> key{r, t};
      if (first == FirstTouch::kOutage) {
        out.outages[key] = injector.InOutage(r, t);
        out.outcomes[key] = injector.OnProbe(r, t);
      } else {
        out.outcomes[key] = injector.OnProbe(r, t);
        out.outages[key] = injector.InOutage(r, t);
      }
    }
  }
  return out;
}

TEST(FaultInjectorFirstTouchTest, PlanDrawsEveryOutcome) {
  const Touches touches = RunPlan(TouchOrder::kAscending, FirstTouch::kProbe);
  std::set<ProbeOutcome> seen;
  for (const auto& [key, outcome] : touches.outcomes) seen.insert(outcome);
  EXPECT_EQ(seen.size(), 6u) << "the plan must exercise every draw";
  int outage_chronons = 0;
  for (const auto& [key, bad] : touches.outages) outage_chronons += bad;
  EXPECT_GT(outage_chronons, 0);
}

TEST(FaultInjectorFirstTouchTest, ResourceOrderChangesNoOutcome) {
  const Touches ascending =
      RunPlan(TouchOrder::kAscending, FirstTouch::kProbe);
  const Touches shuffled = RunPlan(TouchOrder::kShuffled, FirstTouch::kProbe);
  EXPECT_EQ(ascending.outcomes, shuffled.outcomes);
  EXPECT_EQ(ascending.outages, shuffled.outages);
}

TEST(FaultInjectorFirstTouchTest, FirstChrononChangesNoOutcome) {
  // Resources first touched at chronons 0-49 against every resource
  // touched at chronon 0.
  const Touches staggered =
      RunPlan(TouchOrder::kAscending, FirstTouch::kProbe);
  const Touches all_at_zero =
      RunPlan(TouchOrder::kAscending, FirstTouch::kAllAtZero);
  EXPECT_EQ(staggered.outcomes, all_at_zero.outcomes);
  EXPECT_EQ(staggered.outages, all_at_zero.outages);
}

TEST(FaultInjectorFirstTouchTest, OnProbeFirstMatchesInOutageFirst) {
  const Touches probe_first =
      RunPlan(TouchOrder::kShuffled, FirstTouch::kProbe);
  const Touches outage_first =
      RunPlan(TouchOrder::kShuffled, FirstTouch::kOutage);
  EXPECT_EQ(probe_first.outcomes, outage_first.outcomes);
  EXPECT_EQ(probe_first.outages, outage_first.outages);
}

TEST(ProbeOutcomeTest, Strings) {
  EXPECT_STREQ(ProbeOutcomeToString(ProbeOutcome::kSuccess), "success");
  EXPECT_STREQ(ProbeOutcomeToString(ProbeOutcome::kTransientError),
               "transient-error");
  EXPECT_STREQ(ProbeOutcomeToString(ProbeOutcome::kOutage), "outage");
  EXPECT_STREQ(ProbeOutcomeToString(ProbeOutcome::kRateLimited),
               "rate-limited");
  EXPECT_STREQ(ProbeOutcomeToString(ProbeOutcome::kTimeout), "timeout");
  EXPECT_TRUE(ProbeSucceeded(ProbeOutcome::kSuccess));
  EXPECT_FALSE(ProbeSucceeded(ProbeOutcome::kOutage));
}

}  // namespace
}  // namespace webmon
