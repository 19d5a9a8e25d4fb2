#include "shard/shard_runtime.h"

#include <algorithm>

#include "policy/policy.h"
#include "util/check.h"

namespace webmon {

ShardRuntime::ShardRuntime(const PartitionPlan& plan, uint32_t shard_id,
                           Chronon horizon, BudgetVector budget,
                           std::unique_ptr<Policy> policy,
                           SchedulerOptions options)
    : plan_(&plan),
      shard_id_(shard_id),
      proxy_(static_cast<uint32_t>(plan.resources_of_shard.at(shard_id).size()),
             horizon, std::move(budget), std::move(policy), options) {
  WEBMON_CHECK_LT(shard_id, plan.num_shards);
  stream_.shard_id = shard_id;
  stream_.num_shards = plan.num_shards;
  stream_.num_resources = plan.num_resources;
  stream_.horizon = horizon;
  // Lifecycle callbacks fire on the ticking thread inside Tick(); Tick()
  // translates the buffered local ids to global stream records afterwards.
  proxy_.set_on_cei_captured(
      [this](CeiId local) { captured_buffer_.push_back(local); });
  proxy_.set_on_cei_expired(
      [this](CeiId local) { expired_buffer_.push_back(local); });
  proxy_.set_on_cei_cancelled(
      [this](CeiId local) { cancelled_buffer_.push_back(local); });
}

void ShardRuntime::Emit(ShardEventKind kind, Chronon chronon,
                        ResourceId resource, CeiId cei, int64_t attempts) {
  ShardEvent event;
  event.seq = static_cast<uint64_t>(stream_.events.size());
  event.chronon = chronon;
  event.kind = kind;
  event.resource = resource;
  event.cei = cei;
  event.attempts = attempts;
  stream_.events.push_back(event);
}

Status ShardRuntime::SubmitFragment(const ShardCeiSpec& cei) {
  local_eis_scratch_.clear();
  for (const auto& [resource, start, finish] : cei.eis) {
    if (resource >= plan_->num_resources) {
      return Status::OutOfRange("fragment references resource " +
                                std::to_string(resource) +
                                " beyond the global space");
    }
    if (plan_->shard_of_resource[resource] != shard_id_) continue;
    local_eis_scratch_.emplace_back(plan_->local_id[resource], start, finish);
  }
  if (local_eis_scratch_.empty()) return Status::OK();

  // AND CEIs stay AND over the local EIs; k-of-n CEIs keep as much of the
  // subset pressure as the fragment can express. Scoring is the
  // aggregator's job either way (see the header).
  const uint32_t local_required =
      cei.required == 0
          ? 0u
          : std::min(cei.required,
                     static_cast<uint32_t>(local_eis_scratch_.size()));
  StatusOr<CeiId> local =
      proxy_.Submit(local_eis_scratch_, cei.weight, local_required);
  if (!local.ok()) {
    // The proxy validated the fragment away (every owned window closed
    // before the fragment arrived). The CEI proceeds without this shard.
    ++fragments_rejected_;
    return Status::OK();
  }
  ++fragments_submitted_;
  WEBMON_CHECK_EQ(*local, global_of_local_.size());
  global_of_local_.push_back(cei.id);
  local_of_global_.Insert(cei.id, static_cast<uint32_t>(*local));
  return Status::OK();
}

Status ShardRuntime::Push(ResourceId global_resource) {
  if (global_resource >= plan_->num_resources) {
    return Status::OutOfRange("pushed resource beyond the global space");
  }
  if (plan_->shard_of_resource[global_resource] != shard_id_) {
    return Status::InvalidArgument(
        "push routed to a shard that does not own resource " +
        std::to_string(global_resource));
  }
  WEBMON_RETURN_IF_ERROR(proxy_.Push(plan_->local_id[global_resource]));
  pending_pushes_.push_back(global_resource);
  return Status::OK();
}

Status ShardRuntime::Cancel(CeiId global_id) {
  const uint32_t* local = local_of_global_.Find(global_id);
  if (local == nullptr) return Status::OK();  // no fragment here
  Status status = proxy_.Cancel(*local);
  // A second cancel of the same fragment is the mailbox's duplicate
  // rejection; the fleet driver never sends one, but replays of recorded
  // cancel traffic may race a fragment that was rejected at submit.
  if (status.code() == StatusCode::kFailedPrecondition) return Status::OK();
  return status;
}

Status ShardRuntime::TakeOutputs(ShardStream* stream, ArrivalLog* log) {
  WEBMON_ASSIGN_OR_RETURN(*log, proxy_.TakeArrivalLog());
  *stream = std::move(stream_);
  return Status::OK();
}

StatusOr<std::vector<ResourceId>> ShardRuntime::Tick() {
  const Chronon chronon = proxy_.now();
  captured_buffer_.clear();
  expired_buffer_.clear();
  cancelled_buffer_.clear();
  StatusOr<std::vector<ResourceId>> probed = proxy_.Tick();
  if (!probed.ok()) return probed.status();

  const std::vector<ResourceId>& owned =
      plan_->resources_of_shard[shard_id_];
  // Fixed per-chronon record order (see event_stream.h): pushes, probes,
  // fragment lifecycle (captures, expiries, cancels), spend.
  for (const ResourceId global : pending_pushes_) {
    Emit(ShardEventKind::kPush, chronon, global, 0, 0);
  }
  pending_pushes_.clear();
  probed_global_scratch_.clear();
  for (const ResourceId local : *probed) {
    const ResourceId global = owned[local];
    probed_global_scratch_.push_back(global);
    Emit(ShardEventKind::kProbe, chronon, global, 0, 0);
  }
  for (const CeiId local : captured_buffer_) {
    Emit(ShardEventKind::kCapture, chronon, 0, global_of_local_[local], 0);
  }
  for (const CeiId local : expired_buffer_) {
    Emit(ShardEventKind::kExpire, chronon, 0, global_of_local_[local], 0);
  }
  for (const CeiId local : cancelled_buffer_) {
    Emit(ShardEventKind::kCancel, chronon, 0, global_of_local_[local], 0);
  }
  const int64_t attempts = proxy_.stats().probes_issued - last_probes_issued_;
  last_probes_issued_ = proxy_.stats().probes_issued;
  if (attempts > 0) {
    Emit(ShardEventKind::kSpend, chronon, 0, 0, attempts);
  }
  return probed_global_scratch_;
}

}  // namespace webmon
