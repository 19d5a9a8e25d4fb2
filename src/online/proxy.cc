#include "online/proxy.h"

#include <algorithm>
#include <optional>
#include <string>

#include "util/check.h"
#include "util/mutex.h"
#include "util/stopwatch.h"

namespace webmon {

Proxy::Proxy(uint32_t num_resources, Chronon horizon, BudgetVector budget,
             std::unique_ptr<Policy> policy, SchedulerOptions options)
    : num_resources_(num_resources),
      horizon_(horizon),
      policy_(std::move(policy)),
      schedule_(num_resources, horizon),
      scheduler_(num_resources, horizon, std::move(budget), policy_.get(),
                 options) {}

StatusOr<CeiId> Proxy::Submit(
    const std::vector<std::tuple<ResourceId, Chronon, Chronon>>& eis,
    double weight, uint32_t required) {
  // All validation runs inside the mailbox closure: the stamped chronon is
  // only known under the lock, and acceptance must be atomic with stamping
  // so a serial replay of the log reproduces every id assignment exactly.
  Status status = Status::OK();
  CeiId id = 0;
  mailbox_.Push([&](uint64_t /*seq*/,
                    int64_t epoch) -> std::optional<PendingEvent> {
    // SeqMailbox::Push runs this closure inside its critical section; the
    // assert makes that fact visible to the thread-safety analysis.
    mailbox_.mu().AssertHeld();
    return MakeSubmitEventLocked(eis, weight, required, epoch, status, id);
  });
  if (!status.ok()) return status;
  return id;
}

std::optional<Proxy::PendingEvent> Proxy::MakeSubmitEventLocked(
    const std::vector<std::tuple<ResourceId, Chronon, Chronon>>& eis,
    double weight, uint32_t required, int64_t epoch, Status& status,
    CeiId& id) {
  auto reject = [&](Status s) {
    status = std::move(s);
    // The counter bump is covered by the enclosing REQUIRES; re-assert for
    // the analysis, which examines this lambda as its own function.
    mailbox_.mu().AssertHeld();
    ++ingestion_.submits_rejected;
    return std::nullopt;
  };
  if (epoch >= horizon_) {
    return reject(Status::OutOfRange("proxy epoch already finished"));
  }
  if (eis.empty()) {
    return reject(Status::InvalidArgument(
        "a complex need requires at least one EI"));
  }
  if (!IsValidWeight(weight)) {
    return reject(
        Status::InvalidArgument("need weight must be finite and positive"));
  }
  if (required > eis.size()) {
    return reject(Status::InvalidArgument(
        "cannot require more captures than the need has EIs"));
  }
  Cei cei;
  cei.profile = 0;  // the streaming API tracks needs, not profiles
  cei.arrival = epoch;
  cei.weight = weight;
  cei.required = required;
  // hotpath-alloc-ok: the CEI's one window vector, sized exactly
  cei.eis.reserve(eis.size());
  bool clamped = false;
  for (const auto& [resource, start, finish] : eis) {
    if (resource >= num_resources_) {
      return reject(Status::InvalidArgument(
          "EI names unknown resource " + std::to_string(resource)));
    }
    if (start > finish) {
      return reject(Status::InvalidArgument("EI start exceeds its finish"));
    }
    ExecutionInterval ei;
    ei.resource = resource;
    // Clamp the window into the remaining epoch; a need expressed for the
    // past cannot be monitored.
    ei.start = std::max(start, epoch);
    ei.finish = std::min(finish, horizon_ - 1);
    if (ei.start > ei.finish) {
      return reject(Status::InvalidArgument(
          "EI window lies entirely in the past or beyond the horizon"));
    }
    clamped = clamped || ei.start != start || ei.finish != finish;
    cei.eis.push_back(ei);  // hotpath-alloc-ok: reserved above
  }
  // Commit: ids are assigned only to accepted needs, so id allocation is
  // a pure function of the accepted-arrival order and a serial replay
  // re-assigns identical CeiIds and EiIds.
  cei.id = next_cei_id_++;
  for (ExecutionInterval& ei : cei.eis) ei.id = next_ei_id_++;
  // hotpath-alloc-ok: one deque block per several CEIs
  ceis_.push_back(std::move(cei));
  const Cei* stored = &ceis_.back();
  id = stored->id;
  cancel_requested_.push_back(0);  // hotpath-alloc-ok: amortized growth
  ++ingestion_.submits_accepted;
  // The log reads an unclamped submit's windows back from its Cei; only a
  // clamped one keeps the windows the producer passed.
  if (clamped) {
    for (const auto& [resource, start, finish] : eis) {
      // hotpath-alloc-ok: clamped submits only, amortized growth
      raw_windows_.push_back(RawWindow{id, resource, start, finish});
    }
  }
  PendingEvent event;
  event.kind = ArrivalKind::kSubmit;
  event.cei = stored;
  return event;
}

Status Proxy::Push(ResourceId resource) {
  Status status = Status::OK();
  mailbox_.Push([&](uint64_t /*seq*/,
                    int64_t epoch) -> std::optional<PendingEvent> {
    mailbox_.mu().AssertHeld();
    return MakePushEventLocked(resource, epoch, status);
  });
  return status;
}

std::optional<Proxy::PendingEvent> Proxy::MakePushEventLocked(
    ResourceId resource, int64_t epoch, Status& status) {
  if (epoch >= horizon_) {
    status = Status::OutOfRange("proxy epoch already finished");
    ++ingestion_.pushes_rejected;
    return std::nullopt;
  }
  if (resource >= num_resources_) {
    status = Status::OutOfRange("pushed resource out of range");
    ++ingestion_.pushes_rejected;
    return std::nullopt;
  }
  ++ingestion_.pushes_accepted;
  PendingEvent event;
  event.kind = ArrivalKind::kPush;
  event.resource = resource;
  return event;
}

Status Proxy::Cancel(CeiId id) {
  Status status = Status::OK();
  mailbox_.Push([&](uint64_t /*seq*/,
                    int64_t epoch) -> std::optional<PendingEvent> {
    mailbox_.mu().AssertHeld();
    return MakeCancelEventLocked(id, epoch, status);
  });
  return status;
}

std::optional<Proxy::PendingEvent> Proxy::MakeCancelEventLocked(
    CeiId id, int64_t epoch, Status& status) {
  auto reject = [&](Status s) {
    status = std::move(s);
    mailbox_.mu().AssertHeld();
    ++ingestion_.cancels_rejected;
    return std::nullopt;
  };
  if (epoch >= horizon_) {
    return reject(Status::OutOfRange("proxy epoch already finished"));
  }
  if (id >= next_cei_id_) {
    return reject(Status::NotFound("cancel names unknown CEI " +
                                   std::to_string(id)));
  }
  if (cancel_requested_[id]) {
    return reject(Status::FailedPrecondition(
        "CEI " + std::to_string(id) + " was already cancelled"));
  }
  // Whether the target is still pending is scheduler state this closure
  // cannot observe (the mailbox lock does not cover the scheduler). Accept,
  // and let the drain resolve cancel-vs-capture/expire races by sequence —
  // a cancel landing after the terminal event is a deterministic no-op.
  cancel_requested_[id] = 1;
  ++ingestion_.cancels_accepted;
  PendingEvent event;
  event.kind = ArrivalKind::kCancel;
  event.target = id;
  return event;
}

IngestionStats Proxy::ingestion_stats() const {
  MutexLock lock(mailbox_.mu());
  return ingestion_;
}

StatusOr<std::vector<ResourceId>> Proxy::Tick() {
  const Chronon now = now_.load(std::memory_order_relaxed);
  if (now >= horizon_) {
    return Status::OutOfRange("proxy epoch already finished");
  }
  if (in_tick_.exchange(true, std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        "Proxy::Tick is single-consumer and not reentrant: it must not be "
        "called from a CEI callback or from a second thread while a tick is "
        "in flight");
  }
  struct TickGuard {
    std::atomic<bool>& flag;
    ~TickGuard() { flag.store(false, std::memory_order_release); }
  } guard{in_tick_};

  // Drain the mailbox: advance the stamping epoch to now + 1 first (still
  // under the mailbox lock), so arrivals racing with this tick — including
  // ones made from CEI callbacks below — are stamped for the next chronon.
  // Every drained event was stamped exactly `now`, and applying the batch
  // in sequence order makes the tick a pure function of the arrival log.
  Stopwatch drain_watch;
  mailbox_.DrainAndAdvance(now + 1, drain_batch_);
  if (!drain_batch_.empty()) {
    drain_ceis_.clear();
    drain_cancels_.clear();
    for (const Record& entry : drain_batch_) {
      WEBMON_DCHECK(entry.epoch == now)
          << "mailbox entry stamped " << entry.epoch << " drained at " << now;
      switch (entry.item.kind) {
        case ArrivalKind::kSubmit:
          // hotpath-alloc-ok: drain scratch, retained capacity
          drain_ceis_.push_back(entry.item.cei);
          break;
        case ArrivalKind::kCancel:
          // hotpath-alloc-ok: drain scratch, retained capacity
          drain_cancels_.push_back(entry.item.target);
          break;
        case ArrivalKind::kPush:
          break;
      }
    }
    // Apply all submits, then all cancels, each in sequence order. This is
    // provably equivalent to strict interleaved sequence order: a cancel's
    // target was validated against next_cei_id_ under the mailbox lock, so
    // the target's submit carries an earlier sequence number (possibly from
    // an earlier tick), and a cancel commutes with every later-sequenced
    // submit in the batch (they name different CEIs). Pushes only mark
    // resources for this chronon's Step, which reads them after both.
    WEBMON_RETURN_IF_ERROR(scheduler_.AddArrivalBatch(drain_ceis_, now));
    WEBMON_RETURN_IF_ERROR(scheduler_.RemoveCeiBatch(drain_cancels_, now));
    for (const Record& entry : drain_batch_) {
      if (entry.item.kind == ArrivalKind::kPush) {
        WEBMON_RETURN_IF_ERROR(scheduler_.AddPush(entry.item.resource, now));
      }
      if (num_records_ == record_blocks_.size() * kRecordsPerBlock) {
        // hotpath-alloc-ok: one block per kRecordsPerBlock records
        record_blocks_.push_back(std::make_unique<Record[]>(kRecordsPerBlock));
      }
      record_blocks_.back()[num_records_++ % kRecordsPerBlock] = entry;
    }
  }
  // Fold the drain stats in under the mailbox lock: producers bump the
  // accept/reject counters of the same struct inside Push closures, so the
  // whole struct stays consistent for mid-run ingestion_stats() readers.
  {
    const double drain_elapsed = drain_watch.ElapsedSeconds();
    MutexLock lock(mailbox_.mu());
    if (!drain_batch_.empty()) {
      ++ingestion_.drain_batches;
      ingestion_.max_batch = std::max(
          ingestion_.max_batch, static_cast<int64_t>(drain_batch_.size()));
    }
    ingestion_.drain_seconds += drain_elapsed;
  }

  // hotpath-alloc-ok: the returned probe vector, one allocation per Tick
  std::vector<ResourceId> probed;
  WEBMON_RETURN_IF_ERROR(scheduler_.Step(now, &schedule_, &probed));
  now_.store(now + 1, std::memory_order_release);
  return probed;
}

ArrivalLog Proxy::BuildArrivalLogLocked() const {
  ArrivalLog log(num_records_);
  // Submits appear in id order both here and in raw_windows_, so one
  // cursor pairs each clamped submit with its raw windows.
  size_t raw = 0;
  for (size_t i = 0; i < num_records_; ++i) {
    const Record& record =
        record_blocks_[i / kRecordsPerBlock][i % kRecordsPerBlock];
    ArrivalEvent& event = log[i];
    event.seq = record.seq;
    event.effective = record.epoch;
    event.kind = record.item.kind;
    switch (record.item.kind) {
      case ArrivalKind::kSubmit: {
        const Cei& cei = *record.item.cei;
        event.weight = cei.weight;
        event.required = cei.required;
        event.assigned_id = cei.id;
        event.eis.reserve(cei.eis.size());
        for (; raw < raw_windows_.size() && raw_windows_[raw].id == cei.id;
             ++raw) {
          const RawWindow& window = raw_windows_[raw];
          event.eis.emplace_back(window.resource, window.start,
                                 window.finish);
        }
        if (event.eis.empty()) {  // unclamped: the stored windows are raw
          for (const ExecutionInterval& ei : cei.eis) {
            event.eis.emplace_back(ei.resource, ei.start, ei.finish);
          }
        }
        WEBMON_DCHECK(event.eis.size() == cei.eis.size())
            << "CEI " << cei.id << " logs " << event.eis.size()
            << " raw windows for " << cei.eis.size() << " stored";
        break;
      }
      case ArrivalKind::kPush:
        event.resource = record.item.resource;
        break;
      case ArrivalKind::kCancel:
        event.assigned_id = record.item.target;
        break;
    }
  }
  return log;
}

ArrivalLog Proxy::arrival_log() const {
  MutexLock lock(mailbox_.mu());
  return BuildArrivalLogLocked();
}

StatusOr<ArrivalLog> Proxy::TakeArrivalLog() {
  if (!Done()) {
    return Status::FailedPrecondition(
        "the arrival log is released only once the epoch is done");
  }
  MutexLock lock(mailbox_.mu());
  ArrivalLog log = BuildArrivalLogLocked();
  record_blocks_.clear();
  record_blocks_.shrink_to_fit();
  num_records_ = 0;
  raw_windows_.clear();
  raw_windows_.shrink_to_fit();
  return log;
}

double Proxy::CompletenessSoFar() const {
  const auto& s = scheduler_.stats();
  if (s.ceis_seen == 0) return 0.0;
  return static_cast<double>(s.ceis_captured) /
         static_cast<double>(s.ceis_seen);
}

void Proxy::set_on_cei_captured(std::function<void(CeiId)> cb) {
  scheduler_.set_on_cei_captured(
      [cb = std::move(cb)](const Cei& cei) { cb(cei.id); });
}

void Proxy::set_on_cei_expired(std::function<void(CeiId)> cb) {
  scheduler_.set_on_cei_expired(
      [cb = std::move(cb)](const Cei& cei) { cb(cei.id); });
}

void Proxy::set_on_cei_cancelled(std::function<void(CeiId)> cb) {
  scheduler_.set_on_cei_cancelled(
      [cb = std::move(cb)](const Cei& cei) { cb(cei.id); });
}

StatusOr<ProxyReplayResult> ReplayArrivalLog(
    const ArrivalLog& log, uint32_t num_resources, Chronon horizon,
    BudgetVector budget, std::unique_ptr<Policy> policy,
    SchedulerOptions options) {
  if (policy == nullptr) {
    return Status::InvalidArgument("ReplayArrivalLog: policy must not be "
                                   "null");
  }
  for (size_t i = 0; i < log.size(); ++i) {
    const ArrivalEvent& event = log[i];
    if (event.effective < 0 || event.effective >= horizon) {
      return Status::OutOfRange("arrival log event outside the epoch");
    }
    if (i > 0 && (event.seq <= log[i - 1].seq ||
                  event.effective < log[i - 1].effective)) {
      return Status::InvalidArgument("arrival log is not in drain order");
    }
  }

  Proxy proxy(num_resources, horizon, std::move(budget), std::move(policy),
              options);
  std::vector<std::pair<Chronon, CeiId>> captured;
  std::vector<std::pair<Chronon, CeiId>> expired;
  std::vector<std::pair<Chronon, CeiId>> cancelled;
  proxy.set_on_cei_captured(
      [&](CeiId id) { captured.emplace_back(proxy.now(), id); });
  proxy.set_on_cei_expired(
      [&](CeiId id) { expired.emplace_back(proxy.now(), id); });
  proxy.set_on_cei_cancelled(
      [&](CeiId id) { cancelled.emplace_back(proxy.now(), id); });

  size_t next = 0;
  while (!proxy.Done()) {
    const Chronon t = proxy.now();
    for (; next < log.size() && log[next].effective == t; ++next) {
      const ArrivalEvent& event = log[next];
      switch (event.kind) {
        case ArrivalKind::kPush:
          WEBMON_RETURN_IF_ERROR(proxy.Push(event.resource));
          break;
        case ArrivalKind::kCancel:
          // A logged cancel was accepted by the recording run, so the
          // replaying proxy must accept it too (ids replay identically and
          // duplicates never reach the log).
          WEBMON_RETURN_IF_ERROR(proxy.Cancel(event.assigned_id));
          break;
        case ArrivalKind::kSubmit: {
          auto id = proxy.Submit(event.eis, event.weight, event.required);
          WEBMON_RETURN_IF_ERROR(id.status());
          if (*id != event.assigned_id) {
            return Status::Internal(
                "replayed Submit assigned CEI id " + std::to_string(*id) +
                " where the log recorded " +
                std::to_string(event.assigned_id));
          }
          break;
        }
      }
    }
    WEBMON_RETURN_IF_ERROR(proxy.Tick().status());
  }
  if (next != log.size()) {
    return Status::OutOfRange(
        "arrival log extends beyond the replayed epoch");
  }

  return ProxyReplayResult{proxy.schedule(),
                           proxy.stats(),
                           proxy.ingestion_stats(),
                           proxy.arrival_log(),
                           proxy.attempt_log(),
                           std::move(captured),
                           std::move(expired),
                           std::move(cancelled),
                           proxy.CompletenessSoFar()};
}

}  // namespace webmon
