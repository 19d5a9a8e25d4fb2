#include "query/engine.h"

#include <algorithm>

#include "util/string_util.h"

namespace webmon {

QueryEngine::QueryEngine(FeedWorld* world, std::unique_ptr<Policy> policy,
                         uint32_t num_resources, Chronon horizon,
                         BudgetVector budget)
    : world_(world),
      proxy_(std::make_unique<Proxy>(num_resources, horizon,
                                     std::move(budget), std::move(policy))) {}

StatusOr<std::unique_ptr<QueryEngine>> QueryEngine::Create(
    std::vector<QuerySpec> queries,
    const std::map<std::string, ResourceId>& feed_ids, FeedWorld* world,
    std::unique_ptr<Policy> policy, Chronon horizon, BudgetVector budget) {
  WEBMON_RETURN_IF_ERROR(ValidateQueries(queries));
  if (world == nullptr) {
    return Status::InvalidArgument("QueryEngine needs a feed world");
  }
  if (policy == nullptr) {
    return Status::InvalidArgument("QueryEngine needs a policy");
  }

  std::unique_ptr<QueryEngine> engine(new QueryEngine(
      world, std::move(policy), world->num_feeds(), horizon,
      std::move(budget)));

  engine->queries_.reserve(queries.size());
  for (auto& spec : queries) {
    auto it = feed_ids.find(spec.feed);
    if (it == feed_ids.end()) {
      return Status::NotFound("query " + spec.alias +
                              " references unmapped feed " + spec.feed);
    }
    if (it->second >= world->num_feeds()) {
      return Status::OutOfRange("feed " + spec.feed +
                                " maps outside the feed world");
    }
    QueryState state;
    state.spec = std::move(spec);
    state.resource = it->second;
    state.slack = state.spec.within_anchor.empty()
                      ? 0
                      : std::min(state.spec.within_offset, horizon);
    engine->by_alias_.emplace(state.spec.alias, engine->queries_.size());
    engine->queries_.push_back(std::move(state));
  }

  // Wire dependency edges and push subscriptions.
  for (size_t i = 0; i < engine->queries_.size(); ++i) {
    QueryState& state = engine->queries_[i];
    if (state.spec.trigger == TriggerKind::kContent) {
      const size_t root = engine->by_alias_.at(state.spec.depends_on);
      engine->queries_[root].dependents.push_back(i);
    }
    if (state.spec.trigger == TriggerKind::kPush) {
      QueryEngine* raw = engine.get();
      WEBMON_RETURN_IF_ERROR(world->Subscribe(
          state.resource, [raw, i](const FeedItem& item) {
            raw->pending_pushes_.emplace_back(i, item);
          }));
    }
    if (state.spec.trigger == TriggerKind::kNotify) {
      QueryEngine* raw = engine.get();
      // The notification carries no content — only the fact of an update.
      WEBMON_RETURN_IF_ERROR(world->Subscribe(
          state.resource,
          [raw, i](const FeedItem& /*item*/) {
            raw->pending_notifies_.push_back(i);
          }));
    }
  }

  // Capture attribution callbacks.
  QueryEngine* raw = engine.get();
  engine->proxy_->set_on_cei_captured([raw](CeiId id) {
    auto it = raw->need_owners_.find(id);
    if (it == raw->need_owners_.end()) return;
    for (size_t q : it->second) ++raw->queries_[q].stats.needs_captured;
  });
  engine->proxy_->set_on_cei_expired([raw](CeiId id) {
    auto it = raw->need_owners_.find(id);
    if (it == raw->need_owners_.end()) return;
    for (size_t q : it->second) ++raw->queries_[q].stats.needs_expired;
  });
  return engine;
}

Status QueryEngine::FirePeriodic(Chronon now) {
  for (size_t i = 0; i < queries_.size(); ++i) {
    QueryState& state = queries_[i];
    if (state.spec.trigger != TriggerKind::kEvery) continue;
    if (state.next_trigger != now) continue;
    state.next_trigger += state.spec.period;
    state.current_anchor = now;
    ++state.stats.triggers_fired;
    // The probe window: WITHIN <own anchor> + offset, default slack 0.
    auto need = proxy_->Submit({{state.resource, now, now + state.slack}});
    if (!need.ok()) {
      // A window that no longer fits the epoch is not an error for the
      // engine; the round simply cannot be monitored.
      continue;
    }
    ++state.stats.needs_submitted;
    need_owners_[*need] = {i};
  }
  return Status::OK();
}

Status QueryEngine::SubmitCrossing(size_t root,
                                   const std::vector<size_t>& fired,
                                   Chronon now) {
  if (fired.empty()) return Status::OK();
  QueryState& root_state = queries_[root];
  const Chronon anchor = root_state.current_anchor == kInvalidChronon
                             ? now
                             : root_state.current_anchor;
  std::vector<std::tuple<ResourceId, Chronon, Chronon>> eis;
  eis.reserve(fired.size());
  for (size_t q : fired) {
    const QueryState& dep = queries_[q];
    // The anchor is never later than now, so without WITHIN (slack 0) the
    // window is [now, now].
    eis.emplace_back(dep.resource, now, std::max(anchor + dep.slack, now));
  }
  auto need = proxy_->Submit(eis);
  if (!need.ok()) return Status::OK();  // window beyond the epoch
  for (size_t q : fired) {
    ++queries_[q].stats.needs_submitted;
    ++queries_[q].stats.triggers_fired;
  }
  need_owners_[*need] = fired;
  root_state.last_fired_anchor = anchor;
  return Status::OK();
}

Status QueryEngine::DeliverPushes(Chronon now) {
  std::vector<std::pair<size_t, FeedItem>> pushes;
  pushes.swap(pending_pushes_);
  for (auto& [qi, item] : pushes) {
    QueryState& state = queries_[qi];
    ++state.stats.triggers_fired;
    ++state.stats.items_delivered;
    // Staleness detection: a gap in the feed's sequence numbers means
    // pushes were lost in flight. The push channel cannot resend, so fall
    // back to a scheduled pull — the missed items may still sit in the
    // feed's buffer. (A lost FINAL push stays invisible until the next
    // push or pull; sequence gaps are the only client-side signal.)
    // last_seen_seq starts at 0 and subscriptions are wired before the
    // world publishes, so a FIRST push with seq > 1 is also a gap.
    if (item.seq > state.last_seen_seq + 1) {
      ++state.stats.push_gaps_detected;
      // The lost items' ids lie strictly between the last item seen and
      // this push; remember the window so the pull's re-delivery survives
      // the max-id dedup below.
      state.recovery_ranges.emplace_back(
          state.seen_any_item ? state.last_seen_item : 0, item.id);
      // The pull must start NEXT chronon: this same push marks the feed
      // pushed at `now`, and a need whose window contains `now` would be
      // captured by the push itself — without any probe ever fetching the
      // lost items from the buffer.
      auto need =
          proxy_->Submit({{state.resource, now + 1, now + 1 + state.slack}});
      if (need.ok()) {
        ++state.stats.fallback_pulls;
        ++state.stats.needs_submitted;
        need_owners_[*need] = {qi};
      }
    }
    state.seen_any_item = true;
    state.last_seen_item = std::max(state.last_seen_item, item.id);
    state.last_seen_seq = std::max(state.last_seen_seq, item.seq);
    state.current_anchor = now;
    WEBMON_RETURN_IF_ERROR(proxy_->Push(state.resource));

    // Content dependents evaluate directly on the pushed item.
    std::vector<size_t> fired;
    for (size_t d : state.dependents) {
      if (ContainsIgnoreCase(item.content, queries_[d].spec.needle)) {
        fired.push_back(d);
      }
    }
    if (!fired.empty() && state.last_fired_anchor != now) {
      WEBMON_RETURN_IF_ERROR(SubmitCrossing(qi, fired, now));
    }
  }
  return Status::OK();
}

Status QueryEngine::DeliverNotifies(Chronon now) {
  std::vector<size_t> notifies;
  notifies.swap(pending_notifies_);
  for (size_t qi : notifies) {
    QueryState& state = queries_[qi];
    ++state.stats.triggers_fired;
    state.current_anchor = now;
    // The proxy must still cross the stream: submit a capture need on the
    // notified feed with the query's WITHIN slack.
    auto need = proxy_->Submit({{state.resource, now, now + state.slack}});
    if (!need.ok()) continue;  // window beyond the epoch
    ++state.stats.needs_submitted;
    need_owners_[*need] = {qi};
  }
  return Status::OK();
}

Status QueryEngine::DeliverItems(ResourceId resource, Chronon now) {
  auto probed = world_->Probe(resource, now);
  if (!probed.ok()) {
    // A failed fetch (fault-injected world: outage, rate limit, timeout)
    // delivers nothing — the probe's budget is already spent and the items
    // may still be caught by a later probe. Anything else is a real bug.
    const StatusCode code = probed.status().code();
    if (code == StatusCode::kUnavailable ||
        code == StatusCode::kResourceExhausted ||
        code == StatusCode::kDeadlineExceeded) {
      return Status::OK();
    }
    return probed.status();
  }
  std::vector<FeedItem> items = std::move(probed).value();
  for (size_t i = 0; i < queries_.size(); ++i) {
    QueryState& state = queries_[i];
    if (state.resource != resource) continue;
    std::vector<size_t> fired;
    for (const FeedItem& item : items) {
      state.last_seen_seq = std::max(state.last_seen_seq, item.seq);
      if (state.seen_any_item && item.id <= state.last_seen_item) {
        // Already past this id — unless it sits in an open gap-recovery
        // window, in which case this pull is re-delivering an item the
        // push channel lost.
        bool recovered = false;
        for (const auto& [lo, hi] : state.recovery_ranges) {
          if (item.id > lo && item.id < hi) {
            recovered = true;
            break;
          }
        }
        if (!recovered) continue;
      }
      state.seen_any_item = true;
      state.last_seen_item = std::max(state.last_seen_item, item.id);
      ++state.stats.items_delivered;
      for (size_t d : state.dependents) {
        if (ContainsIgnoreCase(item.content, queries_[d].spec.needle) &&
            std::find(fired.begin(), fired.end(), d) == fired.end()) {
          fired.push_back(d);
        }
      }
    }
    // This pull saw the feed's whole buffer: every recoverable lost item
    // was just re-delivered, and anything still missing was evicted.
    state.recovery_ranges.clear();
    const Chronon anchor = state.current_anchor == kInvalidChronon
                               ? now
                               : state.current_anchor;
    if (!fired.empty() && state.last_fired_anchor != anchor) {
      WEBMON_RETURN_IF_ERROR(SubmitCrossing(i, fired, now));
    }
  }
  return Status::OK();
}

Status QueryEngine::Step() {
  if (proxy_->Done()) {
    return Status::OutOfRange("epoch already finished");
  }
  const Chronon now = proxy_->now();
  // Publish this chronon's items first so pushes precede scheduling.
  world_->AdvanceTo(now);
  WEBMON_RETURN_IF_ERROR(DeliverPushes(now));
  WEBMON_RETURN_IF_ERROR(DeliverNotifies(now));
  WEBMON_RETURN_IF_ERROR(FirePeriodic(now));
  WEBMON_ASSIGN_OR_RETURN(std::vector<ResourceId> probed, proxy_->Tick());
  for (ResourceId r : probed) {
    WEBMON_RETURN_IF_ERROR(DeliverItems(r, now));
  }
  return Status::OK();
}

Status QueryEngine::Run() {
  while (!Done()) {
    WEBMON_RETURN_IF_ERROR(Step());
  }
  return Status::OK();
}

StatusOr<QueryRuntimeStats> QueryEngine::StatsFor(
    const std::string& alias) const {
  auto it = by_alias_.find(alias);
  if (it == by_alias_.end()) {
    return Status::NotFound("unknown query alias " + alias);
  }
  return queries_[it->second].stats;
}

}  // namespace webmon
