#include "shard/aggregator.h"

#include <algorithm>
#include <limits>

#include "model/cei.h"
#include "util/check.h"
#include "util/id_map.h"
#include "util/string_util.h"

namespace webmon {

std::string SerializeAggregateResult(const AggregateResult& result) {
  std::string out = "webmon-aggregate 1\nshards ";
  AppendNumber(&out, result.num_shards);
  out += "\nceis ";
  AppendNumber(&out, result.total_ceis);
  out += " captured ";
  AppendNumber(&out, result.ceis_captured);
  out += " cancelled ";
  AppendNumber(&out, result.ceis_cancelled);
  out += "\ncross ";
  AppendNumber(&out, result.cross_shard_ceis);
  out += " cross-captured ";
  AppendNumber(&out, result.cross_shard_captured);
  out += "\nprobes ";
  AppendNumber(&out, result.probes);
  out += " pushes ";
  AppendNumber(&out, result.pushes);
  out += " attempts ";
  AppendNumber(&out, result.total_attempts);
  out += " max-spend ";
  AppendNumber(&out, result.max_chronon_spend);
  out += "\ncompleteness ";
  AppendNumber(&out, result.completeness);
  out += " weighted ";
  AppendNumber(&out, result.weighted_completeness);
  out += '\n';
  for (const auto& [chronon, cei] : result.captures) {
    out += "capture ";
    AppendNumber(&out, chronon);
    out += ' ';
    AppendNumber(&out, cei);
    out += '\n';
  }
  return out;
}

StatusOr<AggregateResult> AggregateShardStreams(
    const std::vector<ShardStream>& streams,
    const std::vector<ShardCeiSpec>& ceis, const PartitionPlan& plan,
    const BudgetVector& global_budget) {
  const uint32_t num_shards = plan.num_shards;
  if (streams.size() != num_shards) {
    return Status::InvalidArgument(
        "expected one stream per shard (" + std::to_string(num_shards) +
        "), got " + std::to_string(streams.size()));
  }
  // Accept streams in any order; index them by shard id and check headers.
  std::vector<const ShardStream*> by_shard(num_shards, nullptr);
  Chronon horizon = -1;
  for (const ShardStream& stream : streams) {
    WEBMON_RETURN_IF_ERROR(AuditShardStream(stream));
    if (stream.num_shards != num_shards ||
        stream.num_resources != plan.num_resources) {
      return Status::InvalidArgument(
          "stream header disagrees with the partition plan");
    }
    if (horizon < 0) horizon = stream.horizon;
    if (stream.horizon != horizon) {
      return Status::InvalidArgument("streams disagree on the horizon");
    }
    if (by_shard[stream.shard_id] != nullptr) {
      return Status::InvalidArgument("two streams claim shard " +
                                     std::to_string(stream.shard_id));
    }
    by_shard[stream.shard_id] = &stream;
  }

  // --- Global CEI tables: flat EI columns, the per-CEI capture mask, and
  // the per-resource CSR the availability sweep walks.
  const size_t num_ceis = ceis.size();
  std::vector<size_t> ei_offset(num_ceis + 1, 0);
  for (size_t i = 0; i < num_ceis; ++i) {
    ei_offset[i + 1] = ei_offset[i] + ceis[i].eis.size();
  }
  const size_t num_eis = ei_offset[num_ceis];
  std::vector<ResourceId> ei_resource(num_eis);
  std::vector<Chronon> ei_start(num_eis), ei_finish(num_eis);
  std::vector<uint32_t> ei_cei(num_eis);
  std::vector<size_t> required(num_ceis);
  std::vector<uint32_t> fragments_expected(num_ceis);
  std::vector<uint8_t> cross(num_ceis);
  FlatIdMap<uint32_t> cei_of_id;
  cei_of_id.Reserve(num_ceis);
  for (size_t i = 0; i < num_ceis; ++i) {
    const ShardCeiSpec& cei = ceis[i];
    if (cei.eis.empty()) {
      return Status::InvalidArgument("CEI " + std::to_string(cei.id) +
                                     " has no EIs");
    }
    if (!IsValidWeight(cei.weight)) {
      return Status::InvalidArgument("CEI " + std::to_string(cei.id) +
                                     " weight must be finite and positive");
    }
    size_t e = ei_offset[i];
    for (const auto& [resource, start, finish] : cei.eis) {
      if (resource >= plan.num_resources) {
        return Status::OutOfRange("CEI window beyond the global space");
      }
      ei_resource[e] = resource;
      ei_start[e] = start;
      ei_finish[e] = finish;
      ei_cei[e] = static_cast<uint32_t>(i);
      ++e;
    }
    required[i] =
        cei.required == 0 ? cei.eis.size() : static_cast<size_t>(cei.required);
    const uint32_t touched = plan.ShardsTouched(cei);
    fragments_expected[i] = touched;
    cross[i] = touched > 1 ? 1 : 0;
    cei_of_id.Insert(cei.id, static_cast<uint32_t>(i));
  }
  // Counting-sort CSR: EIs of each resource in flat (CEI, window) order.
  std::vector<size_t> res_offset(static_cast<size_t>(plan.num_resources) + 1,
                                 0);
  for (size_t e = 0; e < num_eis; ++e) ++res_offset[ei_resource[e] + 1];
  for (size_t r = 1; r <= plan.num_resources; ++r) {
    res_offset[r] += res_offset[r - 1];
  }
  std::vector<uint32_t> res_eis(num_eis);
  {
    std::vector<size_t> cursor = res_offset;
    for (size_t e = 0; e < num_eis; ++e) {
      res_eis[cursor[ei_resource[e]]++] = static_cast<uint32_t>(e);
    }
  }

  // Per-CEI merge state.
  enum : uint8_t { kLive = 0, kCaptured = 1, kCancelled = 2 };
  std::vector<uint8_t> ei_captured(num_eis, 0);
  std::vector<size_t> captured_count(num_ceis, 0);
  std::vector<uint8_t> terminal(num_ceis, kLive);
  std::vector<uint32_t> fragments_captured(num_ceis, 0);

  AggregateResult result;
  result.num_shards = num_shards;
  result.total_ceis = static_cast<int64_t>(num_ceis);
  for (size_t i = 0; i < num_ceis; ++i) {
    if (cross[i]) ++result.cross_shard_ceis;
  }

  auto find_cei = [&](CeiId id) -> const uint32_t* {
    return cei_of_id.Find(id);
  };
  auto available = [&](ResourceId r, Chronon t) {
    for (size_t k = res_offset[r]; k < res_offset[r + 1]; ++k) {
      const uint32_t e = res_eis[k];
      const uint32_t c = ei_cei[e];
      if (terminal[c] != kLive || ei_captured[e]) continue;
      if (t < ceis[c].arrival || t < ei_start[e] || t > ei_finish[e]) {
        continue;
      }
      ei_captured[e] = 1;
      ++captured_count[c];
      if (captured_count[c] >= required[c]) {
        terminal[c] = kCaptured;
        ++result.ceis_captured;
        if (cross[c]) ++result.cross_shard_captured;
        result.captures.emplace_back(t, ceis[c].id);
      }
    }
  };

  // --- The (chronon, shard, seq) merge. Event-driven: jump to the next
  // chronon any stream has records at, then sweep that chronon's records
  // shard by shard — cancels first (within a tick every shard drains
  // cancels before issuing probes, so the canonical serial order must
  // too), then the availability / lifecycle / spend records.
  std::vector<size_t> cursor(num_shards, 0);
  constexpr Chronon kDone = std::numeric_limits<Chronon>::max();
  for (;;) {
    Chronon t = kDone;
    for (uint32_t s = 0; s < num_shards; ++s) {
      const auto& events = by_shard[s]->events;
      if (cursor[s] < events.size()) {
        t = std::min(t, events[cursor[s]].chronon);
      }
    }
    if (t == kDone) break;
    // Phase 1: this chronon's cancels, in (shard, seq) order.
    for (uint32_t s = 0; s < num_shards; ++s) {
      const auto& events = by_shard[s]->events;
      for (size_t k = cursor[s];
           k < events.size() && events[k].chronon == t; ++k) {
        if (events[k].kind != ShardEventKind::kCancel) continue;
        const uint32_t* c = find_cei(events[k].cei);
        if (c == nullptr) {
          return Status::InvalidArgument(
              "stream cancels unknown CEI " + std::to_string(events[k].cei));
        }
        if (terminal[*c] == kLive) {
          terminal[*c] = kCancelled;
          ++result.ceis_cancelled;
        }
      }
    }
    // Phase 2: availability, fragment lifecycle, and spend, in
    // (shard, seq) order.
    int64_t spend = 0;
    for (uint32_t s = 0; s < num_shards; ++s) {
      const auto& events = by_shard[s]->events;
      size_t k = cursor[s];
      for (; k < events.size() && events[k].chronon == t; ++k) {
        const ShardEvent& event = events[k];
        switch (event.kind) {
          case ShardEventKind::kProbe:
            ++result.probes;
            available(event.resource, t);
            break;
          case ShardEventKind::kPush:
            ++result.pushes;
            available(event.resource, t);
            break;
          case ShardEventKind::kCapture: {
            const uint32_t* c = find_cei(event.cei);
            if (c == nullptr) {
              return Status::InvalidArgument(
                  "stream captures unknown CEI " +
                  std::to_string(event.cei));
            }
            ++fragments_captured[*c];
            break;
          }
          case ShardEventKind::kExpire:
          case ShardEventKind::kCancel:
            break;  // expiries are informational; cancels ran in phase 1
          case ShardEventKind::kSpend:
            // Checked adds: a sum that wrapped could slip under the
            // global budget below.
            if (__builtin_add_overflow(spend, event.attempts, &spend) ||
                __builtin_add_overflow(result.total_attempts, event.attempts,
                                       &result.total_attempts)) {
              return Status::FailedPrecondition(
                  "fleet spend overflows at chronon " + std::to_string(t));
            }
            break;
        }
      }
      cursor[s] = k;
    }
    // Budget audit: the fleet's summed attempts never exceed the GLOBAL
    // per-chronon budget (failed attempts included — they spent budget).
    if (spend > global_budget.At(t)) {
      return Status::FailedPrecondition(
          "fleet spent " + std::to_string(spend) + " attempts at chronon " +
          std::to_string(t) + ", over the global budget of " +
          std::to_string(global_budget.At(t)));
    }
    result.max_chronon_spend = std::max(result.max_chronon_spend, spend);
  }

  // --- AND cross-check: the mask verdict must match the shards' own
  // fragment lifecycle for every AND CEI (see header).
  for (size_t i = 0; i < num_ceis; ++i) {
    if (ceis[i].required != 0) continue;
    const bool mask_captured = terminal[i] == kCaptured;
    const bool fragments_all = fragments_expected[i] > 0 &&
                               fragments_captured[i] == fragments_expected[i];
    if (mask_captured != fragments_all) {
      return Status::Internal(
          "AND cross-check failed for CEI " + std::to_string(ceis[i].id) +
          ": mask says " + (mask_captured ? "captured" : "uncaptured") +
          " but " + std::to_string(fragments_captured[i]) + "/" +
          std::to_string(fragments_expected[i]) + " fragments captured");
    }
  }

  if (num_ceis > 0) {
    result.completeness = static_cast<double>(result.ceis_captured) /
                          static_cast<double>(num_ceis);
    double total_weight = 0.0;
    double captured_weight = 0.0;
    for (size_t i = 0; i < num_ceis; ++i) {
      total_weight += ceis[i].weight;
      if (terminal[i] == kCaptured) captured_weight += ceis[i].weight;
    }
    if (total_weight > 0.0) {
      result.weighted_completeness = captured_weight / total_weight;
    }
  }
  return result;
}

}  // namespace webmon
