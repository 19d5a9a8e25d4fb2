#include "query/engine.h"

#include <cstdint>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "query/parser.h"
#include "policy/policy_factory.h"

namespace webmon {
namespace {

std::unique_ptr<Policy> Mrsf() {
  auto policy = MakePolicy("mrsf");
  EXPECT_TRUE(policy.ok());
  return std::move(*policy);
}

// A blog (feed 0) posting every 10 chronons, always mentioning oil, plus
// two quiet news feeds (1, 2).
EventTrace BlogTrace(Chronon k = 100) {
  EventTrace trace(3, k);
  for (Chronon t = 0; t < k; t += 10) {
    EXPECT_TRUE(trace.AddEvent(0, t).ok());
  }
  trace.Finalize();
  return trace;
}

FeedWorldOptions AlwaysOil() {
  FeedWorldOptions options;
  options.keywords = {"oil"};
  options.keyword_prob = 1.0;
  return options;
}

FeedWorldOptions NeverOil() {
  FeedWorldOptions options;
  options.keywords = {};
  options.keyword_prob = 0.0;
  return options;
}

constexpr const char* kExample2 =
    "SELECT item AS F1 FROM feed(MishBlog) "
    "  WHEN EVERY 10 MINUTES AS T1 WITHIN T1+2 MINUTES;"
    "SELECT item AS F2 FROM feed(CNNBreakingNews) "
    "  WHEN F1 CONTAINS %oil% WITHIN T1+10 MINUTES;"
    "SELECT item AS F3 FROM feed(CNNMoney) "
    "  WHEN F1 CONTAINS %oil% WITHIN T1+10 MINUTES";

std::map<std::string, ResourceId> Example2Feeds() {
  return {{"MishBlog", 0}, {"CNNBreakingNews", 1}, {"CNNMoney", 2}};
}

TEST(QueryEngineTest, Example2EndToEnd) {
  const EventTrace trace = BlogTrace();
  auto world = FeedWorld::Create(trace, AlwaysOil());
  ASSERT_TRUE(world.ok());
  auto queries = ParseQueries(kExample2);
  ASSERT_TRUE(queries.ok()) << queries.status();
  auto engine =
      QueryEngine::Create(*queries, Example2Feeds(), &*world, Mrsf(), 100,
                          BudgetVector::Uniform(1));
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE((*engine)->Run().ok());

  auto f1 = (*engine)->StatsFor("F1");
  auto f2 = (*engine)->StatsFor("F2");
  auto f3 = (*engine)->StatsFor("F3");
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  ASSERT_TRUE(f3.ok());
  // Ten periodic rounds over 100 chronons.
  EXPECT_EQ(f1->triggers_fired, 10);
  EXPECT_EQ(f1->needs_submitted, 10);
  EXPECT_GE(f1->needs_captured, 9);  // C=1 is plenty for this load
  // The blog posts exactly once per round; every post mentions oil.
  EXPECT_GE(f1->items_delivered, 9);
  EXPECT_GE(f2->triggers_fired, 9);
  EXPECT_EQ(f2->triggers_fired, f3->triggers_fired);
  // Crossings are captured (CNN feeds have no contention).
  EXPECT_GE(f2->needs_captured, 9);
  EXPECT_EQ(f2->needs_captured, f3->needs_captured);
}

TEST(QueryEngineTest, NoKeywordNoCrossing) {
  const EventTrace trace = BlogTrace();
  auto world = FeedWorld::Create(trace, NeverOil());
  ASSERT_TRUE(world.ok());
  auto queries = ParseQueries(kExample2);
  ASSERT_TRUE(queries.ok());
  auto engine =
      QueryEngine::Create(*queries, Example2Feeds(), &*world, Mrsf(), 100,
                          BudgetVector::Uniform(1));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Run().ok());
  auto f1 = (*engine)->StatsFor("F1");
  auto f2 = (*engine)->StatsFor("F2");
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  EXPECT_GE(f1->items_delivered, 9);
  EXPECT_EQ(f2->triggers_fired, 0);
  EXPECT_EQ(f2->needs_submitted, 0);
}

TEST(QueryEngineTest, Example3PushAnchorsCrossing) {
  // Push feed 0; dependents cross feeds 1 and 2 within 1 chronon.
  EventTrace trace(3, 50);
  ASSERT_TRUE(trace.AddEvent(0, 7).ok());
  ASSERT_TRUE(trace.AddEvent(0, 30).ok());
  trace.Finalize();
  FeedWorldOptions options;
  options.keywords = {"oil"};
  options.keyword_prob = 1.0;
  auto world = FeedWorld::Create(trace, options);
  ASSERT_TRUE(world.ok());

  auto queries = ParseQueries(
      "SELECT item AS F1 FROM feed(StockExchange) WHEN ON PUSH AS T1;"
      "SELECT item AS F2 FROM feed(FuturesExchange) "
      "  WHEN F1 CONTAINS %oil% WITHIN T1+1 SECONDS;"
      "SELECT item AS F3 FROM feed(CurrencyExchange) "
      "  WHEN F1 CONTAINS %oil% WITHIN T1+1 SECONDS");
  ASSERT_TRUE(queries.ok()) << queries.status();
  std::map<std::string, ResourceId> feeds = {
      {"StockExchange", 0}, {"FuturesExchange", 1}, {"CurrencyExchange", 2}};
  auto engine = QueryEngine::Create(*queries, feeds, &*world, Mrsf(), 50,
                                    BudgetVector::Uniform(1));
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE((*engine)->Run().ok());

  auto f1 = (*engine)->StatsFor("F1");
  auto f2 = (*engine)->StatsFor("F2");
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  EXPECT_EQ(f1->triggers_fired, 2);       // two pushes
  EXPECT_EQ(f1->items_delivered, 2);      // items arrive with the push
  EXPECT_EQ(f1->needs_submitted, 0);      // push costs no monitoring need
  EXPECT_EQ(f2->triggers_fired, 2);
  // With C=1 and a 2-chronon window per crossing, both EIs fit ([t,t+1]).
  EXPECT_EQ(f2->needs_captured, 2);
  EXPECT_EQ((*engine)->proxy().stats().pushes_delivered, 2);
}

TEST(QueryEngineTest, CrossingDeadlineRespectsAnchor) {
  // The blog round fires at T1 = 0 with slack 2; the post lands at chronon
  // 0 but the probe may see it at 0..2. The crossing deadline must be
  // T1 + 4 = 4 regardless of when the probe landed.
  EventTrace trace(2, 30);
  ASSERT_TRUE(trace.AddEvent(0, 0).ok());
  trace.Finalize();
  FeedWorldOptions options;
  options.keywords = {"oil"};
  options.keyword_prob = 1.0;
  auto world = FeedWorld::Create(trace, options);
  ASSERT_TRUE(world.ok());
  auto queries = ParseQueries(
      "SELECT item AS F1 FROM feed(Blog) WHEN EVERY 20 AS T1 WITHIN T1+2;"
      "SELECT item AS F2 FROM feed(News) WHEN F1 CONTAINS %oil% "
      "WITHIN T1+4");
  ASSERT_TRUE(queries.ok());
  std::map<std::string, ResourceId> feeds = {{"Blog", 0}, {"News", 1}};
  auto engine = QueryEngine::Create(*queries, feeds, &*world, Mrsf(), 30,
                                    BudgetVector::Uniform(1));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Run().ok());
  auto f2 = (*engine)->StatsFor("F2");
  ASSERT_TRUE(f2.ok());
  EXPECT_EQ(f2->triggers_fired, 1);
  EXPECT_EQ(f2->needs_captured, 1);
  // The News probe happened within [discovery, 4].
  const auto& probes = (*engine)->proxy().schedule().ProbesOf(1);
  ASSERT_EQ(probes.size(), 1u);
  EXPECT_LE(probes[0], 4);
}

TEST(QueryEngineTest, OneCrossingPerRound) {
  // Two oil posts observed by the SAME round probe must fire only one
  // crossing. Budget forces the blog probe to chronon 2, after both posts.
  EventTrace trace(2, 20);
  ASSERT_TRUE(trace.AddEvent(0, 0).ok());
  ASSERT_TRUE(trace.AddEvent(0, 1).ok());
  trace.Finalize();
  FeedWorldOptions options;
  options.keywords = {"oil"};
  options.keyword_prob = 1.0;
  options.buffer_capacity = 10;
  auto world = FeedWorld::Create(trace, options);
  ASSERT_TRUE(world.ok());
  auto queries = ParseQueries(
      "SELECT item AS F1 FROM feed(Blog) WHEN EVERY 15 AS T1 WITHIN T1+3;"
      "SELECT item AS F2 FROM feed(News) WHEN F1 CONTAINS %oil% "
      "WITHIN T1+8");
  ASSERT_TRUE(queries.ok());
  std::map<std::string, ResourceId> feeds = {{"Blog", 0}, {"News", 1}};
  std::vector<int64_t> budgets(20, 1);
  budgets[0] = budgets[1] = 0;  // delay the round probe to chronon 2
  auto engine = QueryEngine::Create(*queries, feeds, &*world, Mrsf(), 20,
                                    BudgetVector::PerChronon(budgets));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Run().ok());
  auto f1 = (*engine)->StatsFor("F1");
  auto f2 = (*engine)->StatsFor("F2");
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  EXPECT_EQ(f1->items_delivered, 2);  // one probe saw both posts
  EXPECT_EQ(f2->needs_submitted, 1);  // a single crossing for the round
}

TEST(QueryEngineTest, NotifyRequiresCrossingTheStream) {
  // The paper (Figure 4 discussion): a pub/sub notification informs the
  // proxy of an update to the blog, but the proxy still has to probe to
  // get the content — unlike ON PUSH, ON NOTIFY submits a capture need
  // that consumes budget.
  EventTrace trace(2, 40);
  ASSERT_TRUE(trace.AddEvent(0, 5).ok());
  ASSERT_TRUE(trace.AddEvent(0, 20).ok());
  trace.Finalize();
  FeedWorldOptions options;
  options.keywords = {"oil"};
  options.keyword_prob = 1.0;
  auto world = FeedWorld::Create(trace, options);
  ASSERT_TRUE(world.ok());
  auto queries = ParseQueries(
      "SELECT item AS F1 FROM feed(Blog) WHEN ON NOTIFY AS T1 WITHIN T1+3;"
      "SELECT item AS F2 FROM feed(News) WHEN F1 CONTAINS %oil% "
      "WITHIN T1+6");
  ASSERT_TRUE(queries.ok()) << queries.status();
  std::map<std::string, ResourceId> feeds = {{"Blog", 0}, {"News", 1}};
  auto engine = QueryEngine::Create(*queries, feeds, &*world, Mrsf(), 40,
                                    BudgetVector::Uniform(1));
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE((*engine)->Run().ok());

  auto f1 = (*engine)->StatsFor("F1");
  auto f2 = (*engine)->StatsFor("F2");
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  EXPECT_EQ(f1->triggers_fired, 2);   // two notifications
  EXPECT_EQ(f1->needs_submitted, 2);  // unlike push, probes are needed
  EXPECT_EQ(f1->needs_captured, 2);
  EXPECT_EQ(f1->items_delivered, 2);  // items arrive via the probes
  EXPECT_EQ(f2->triggers_fired, 2);   // oil content found -> crossings
  EXPECT_EQ(f2->needs_captured, 2);
  // No free pushes happened.
  EXPECT_EQ((*engine)->proxy().stats().pushes_delivered, 0);
  // Budget was spent on the blog probes AND the crossings.
  EXPECT_GE((*engine)->proxy().stats().probes_issued, 4);
}

TEST(QueryEngineTest, CreateValidation) {
  const EventTrace trace = BlogTrace();
  auto world = FeedWorld::Create(trace);
  ASSERT_TRUE(world.ok());
  auto queries = ParseQueries(kExample2);
  ASSERT_TRUE(queries.ok());

  // Missing feed mapping.
  std::map<std::string, ResourceId> incomplete = {{"MishBlog", 0}};
  EXPECT_FALSE(QueryEngine::Create(*queries, incomplete, &*world, Mrsf(),
                                   100, BudgetVector::Uniform(1))
                   .ok());
  // Feed id outside the world.
  std::map<std::string, ResourceId> bad = Example2Feeds();
  bad["CNNMoney"] = 99;
  EXPECT_FALSE(QueryEngine::Create(*queries, bad, &*world, Mrsf(), 100,
                                   BudgetVector::Uniform(1))
                   .ok());
  // Null world / policy.
  EXPECT_FALSE(QueryEngine::Create(*queries, Example2Feeds(), nullptr,
                                   Mrsf(), 100, BudgetVector::Uniform(1))
                   .ok());
  EXPECT_FALSE(QueryEngine::Create(*queries, Example2Feeds(), &*world,
                                   nullptr, 100, BudgetVector::Uniform(1))
                   .ok());
}

// Needs submitted by a periodic query on the blog and a content query
// crossing a news feed, both WITHIN T + `offset`, over 50 chronons.
std::pair<int64_t, int64_t> NeedsWithinOffset(const std::string& offset) {
  const EventTrace trace = BlogTrace(50);
  auto world = FeedWorld::Create(trace, AlwaysOil());
  EXPECT_TRUE(world.ok());
  auto queries = ParseQueries(
      "SELECT item AS A FROM feed(Blog) WHEN EVERY 5 AS T WITHIN T + " +
      offset +
      "; SELECT item AS B FROM feed(News) WHEN A CONTAINS %oil% WITHIN T + " +
      offset);
  EXPECT_TRUE(queries.ok()) << queries.status();
  if (!world.ok() || !queries.ok()) return {-1, -1};
  auto engine = QueryEngine::Create(*queries, {{"Blog", 0}, {"News", 1}},
                                    &*world, Mrsf(), 50,
                                    BudgetVector::Uniform(1));
  EXPECT_TRUE(engine.ok()) << engine.status();
  if (!engine.ok()) return {-1, -1};
  EXPECT_TRUE((*engine)->Run().ok());
  return {(*engine)->StatsFor("A")->needs_submitted,
          (*engine)->StatsFor("B")->needs_submitted};
}

// The proxy clamps every window to the epoch, so a WITHIN offset past the
// horizon acts as offset = horizon: a huge offset must neither overflow
// `chronon + offset` nor lose rounds.
TEST(QueryEngineTest, HugeWithinOffsetActsAsOffsetHorizon) {
  const auto at_horizon = NeedsWithinOffset("50");
  EXPECT_EQ(at_horizon.first, 10);  // one need per periodic round
  EXPECT_GT(at_horizon.second, 0);
  EXPECT_EQ(NeedsWithinOffset("1000"), at_horizon);
  EXPECT_EQ(NeedsWithinOffset("9223372036854775800"), at_horizon);
  EXPECT_EQ(NeedsWithinOffset("9223372036854775807"), at_horizon);
}

TEST(QueryEngineTest, StatsForUnknownAlias) {
  const EventTrace trace = BlogTrace();
  auto world = FeedWorld::Create(trace);
  ASSERT_TRUE(world.ok());
  auto queries =
      ParseQueries("SELECT item AS F1 FROM feed(MishBlog) WHEN EVERY 10");
  ASSERT_TRUE(queries.ok());
  auto engine = QueryEngine::Create(
      *queries, {{"MishBlog", 0}}, &*world, Mrsf(), 100,
      BudgetVector::Uniform(1));
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->StatsFor("nope").status().code(),
            StatusCode::kNotFound);
}

TEST(QueryEnginePushLossTest, SequenceGapTriggersFallbackPull) {
  // A lossy push channel: some pushes vanish silently; the next push that
  // does arrive skips sequence numbers, and the engine falls back to a
  // budgeted pull to recover the missed items from the feed's buffer.
  EventTrace trace(1, 100);
  for (Chronon t = 2; t < 80; t += 4) ASSERT_TRUE(trace.AddEvent(0, t).ok());
  trace.Finalize();
  FeedWorldOptions options;
  options.push_loss_prob = 0.4;
  options.buffer_capacity = 50;
  auto world = FeedWorld::Create(trace, options);
  ASSERT_TRUE(world.ok());

  auto queries =
      ParseQueries("SELECT item AS F1 FROM feed(Blog) WHEN ON PUSH AS T1");
  ASSERT_TRUE(queries.ok()) << queries.status();
  auto engine = QueryEngine::Create(*queries, {{"Blog", 0}}, &*world, Mrsf(),
                                    100, BudgetVector::Uniform(1));
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE((*engine)->Run().ok());

  ASSERT_GT(world->total_pushes_lost(), 0);
  auto f1 = (*engine)->StatsFor("F1");
  ASSERT_TRUE(f1.ok());
  // Each observed gap scheduled one fallback pull (budget permitting).
  EXPECT_GT(f1->push_gaps_detected, 0);
  EXPECT_GT(f1->fallback_pulls, 0);
  EXPECT_LE(f1->fallback_pulls, f1->push_gaps_detected);
  EXPECT_EQ(f1->needs_submitted, f1->fallback_pulls);
  // The pulls recovered items the push channel dropped: the query saw more
  // items than pushes reached it.
  EXPECT_GT(f1->items_delivered, world->total_pushes_delivered())
      << "gaps=" << f1->push_gaps_detected << " pulls=" << f1->fallback_pulls
      << " captured=" << f1->needs_captured << " lost="
      << world->total_pushes_lost() << " published="
      << world->total_published();
}

TEST(QueryEnginePushLossTest, LosslessChannelSchedulesNoFallbacks) {
  const EventTrace trace = BlogTrace();
  auto world = FeedWorld::Create(trace);
  ASSERT_TRUE(world.ok());
  auto queries =
      ParseQueries("SELECT item AS F1 FROM feed(Blog) WHEN ON PUSH AS T1");
  ASSERT_TRUE(queries.ok());
  auto engine = QueryEngine::Create(*queries, {{"Blog", 0}}, &*world, Mrsf(),
                                    100, BudgetVector::Uniform(1));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Run().ok());
  auto f1 = (*engine)->StatsFor("F1");
  ASSERT_TRUE(f1.ok());
  EXPECT_EQ(f1->push_gaps_detected, 0);
  EXPECT_EQ(f1->fallback_pulls, 0);
  EXPECT_EQ(f1->needs_submitted, 0);
}

}  // namespace
}  // namespace webmon
