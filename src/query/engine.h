// QueryEngine: executes a set of continuous queries against a simulated
// feed world through the monitoring proxy.
//
// This is the glue the paper's Section II sketches: periodic queries
// (WHEN EVERY) become recurring execution intervals; content queries
// (WHEN F1 CONTAINS %...%) submit crossing CEIs on the fly, with deadlines
// anchored at the triggering round (WITHIN T1+n); push queries (WHEN ON
// PUSH) ride server pushes for free and anchor their dependents. All probe
// scheduling is delegated to the Proxy and its policy — the engine only
// translates query semantics into complex execution intervals and content
// evaluation.

#ifndef WEBMON_QUERY_ENGINE_H_
#define WEBMON_QUERY_ENGINE_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "feedsim/feed_world.h"
#include "online/proxy.h"
#include "query/ast.h"
#include "util/status.h"

namespace webmon {

/// Per-query execution counters.
struct QueryRuntimeStats {
  /// Periodic rounds begun / pushes received / content matches fired.
  int64_t triggers_fired = 0;
  /// New feed items this query observed (via probes or pushes).
  int64_t items_delivered = 0;
  /// Monitoring needs (CEIs) submitted on the query's behalf.
  int64_t needs_submitted = 0;
  int64_t needs_captured = 0;
  int64_t needs_expired = 0;
  /// Push-loss fallback: sequence gaps spotted on the push channel, and
  /// the pull needs scheduled to recover the missed items.
  int64_t push_gaps_detected = 0;
  int64_t fallback_pulls = 0;
};

/// Binds parsed queries to a FeedWorld and drives an epoch.
class QueryEngine {
 public:
  /// `feed_ids` maps query feed names to FeedWorld resources; every feed a
  /// query references must be present. `world` must outlive the engine.
  static StatusOr<std::unique_ptr<QueryEngine>> Create(
      std::vector<QuerySpec> queries,
      const std::map<std::string, ResourceId>& feed_ids, FeedWorld* world,
      std::unique_ptr<Policy> policy, Chronon horizon, BudgetVector budget);

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Executes one chronon: fires due periodic triggers, delivers pushes,
  /// lets the proxy probe, evaluates content over fetched items.
  Status Step();

  /// Runs Step() to the end of the epoch.
  Status Run();

  bool Done() const { return proxy_->Done(); }
  Chronon now() const { return proxy_->now(); }

  /// Stats for `alias`; NotFound for unknown aliases.
  StatusOr<QueryRuntimeStats> StatsFor(const std::string& alias) const;

  const Proxy& proxy() const { return *proxy_; }

 private:
  struct QueryState {
    QuerySpec spec;
    ResourceId resource = 0;
    // Probe-window slack past the anchor: 0 without WITHIN, else the
    // offset capped at the horizon. Proxy::Submit clamps every window to
    // the epoch, so the cap changes no window; it keeps `chronon + slack`
    // from overflowing on a huge offset.
    Chronon slack = 0;
    QueryRuntimeStats stats;
    // Periodic bookkeeping.
    Chronon next_trigger = 0;
    Chronon current_anchor = kInvalidChronon;
    // Content dedup: last anchor a crossing fired for (per root query).
    Chronon last_fired_anchor = kInvalidChronon;
    // Highest item id this query has observed.
    uint64_t last_seen_item = 0;
    // Highest per-feed sequence number observed (probes and pushes); a
    // push arriving with seq > last_seen_seq + 1 reveals lost items.
    uint64_t last_seen_seq = 0;
    // Open gap-recovery windows (exclusive item-id bounds): the items lost
    // on the push channel have ids strictly between the last item seen
    // before the gap and the gap-revealing push. A fallback pull may
    // re-deliver ids inside these windows even though the max-id dedup has
    // already advanced past them; the next pull on the feed clears them
    // (the pull returned the whole buffer — anything still missing was
    // evicted and is unrecoverable).
    std::vector<std::pair<uint64_t, uint64_t>> recovery_ranges;
    bool seen_any_item = false;
    // Indices of content queries depending on this one.
    std::vector<size_t> dependents;
  };

  QueryEngine(FeedWorld* world, std::unique_ptr<Policy> policy,
              uint32_t num_resources, Chronon horizon, BudgetVector budget);

  // Fires due periodic triggers at `now`.
  Status FirePeriodic(Chronon now);
  // Delivers queued pushes at `now` (push + anchor + dependents).
  Status DeliverPushes(Chronon now);
  // Handles queued pub/sub notifications at `now`: submits a capture need
  // on the notified feed (the proxy still has to cross the stream).
  Status DeliverNotifies(Chronon now);
  // Delivers newly observable items of `resource` to its queries and fires
  // content dependents.
  Status DeliverItems(ResourceId resource, Chronon now);
  // Submits the crossing CEI for the dependents in `fired` of root `root`.
  Status SubmitCrossing(size_t root, const std::vector<size_t>& fired,
                        Chronon now);

  FeedWorld* world_;
  std::unique_ptr<Proxy> proxy_;
  std::vector<QueryState> queries_;
  std::unordered_map<std::string, size_t> by_alias_;
  // CEI id -> indices of the queries it serves (for capture attribution).
  std::unordered_map<CeiId, std::vector<size_t>> need_owners_;
  // Pushes collected by world subscriptions, pending for the next Step.
  std::vector<std::pair<size_t, FeedItem>> pending_pushes_;
  // Pub/sub notifications (query index only — the content stays remote).
  std::vector<size_t> pending_notifies_;
};

}  // namespace webmon

#endif  // WEBMON_QUERY_ENGINE_H_
