// Proxy: the streaming facade of the library's public API.
//
// A Proxy models the paper's personalized-portal proxy: clients Submit()
// complex execution intervals as their information needs materialize (e.g.
// a keyword match on a blog probe triggers the crossing of two more
// streams), and the proxy Tick()s once per chronon, deciding which resources
// to probe under its budget. This is the interface the example applications
// exercise; batch experiments use RunOnline instead.
//
// Threading model (docs/CONCURRENCY.md). Submit() and Push() are safe to
// call from any number of producer threads concurrently with Tick():
// arrivals land in a mutex-guarded ingestion mailbox where each accepted
// event is stamped with a monotonically increasing sequence number and the
// chronon it will take effect at. Tick() drains the mailbox at the top of
// the chronon in sequence order, so the emitted schedule is a deterministic
// function of the recorded arrival log, independent of how producer threads
// interleaved — record the log of a concurrent run, replay it serially with
// ReplayArrivalLog(), and every probe, stat, and capture event reproduces
// byte for byte. Tick() itself is single-consumer: exactly one thread may
// drive it, and calling it from a CEI callback (or from a second thread
// while a tick is in flight) fails with FailedPrecondition instead of
// deadlocking. now(), Done(), and ingestion_stats() are safe from any
// thread; arrival_log() takes the mailbox lock but reads the ticking
// thread's record store, so it belongs to the ticking thread, like every
// other accessor (schedule(), stats(), ...), or to any thread once
// producers and the ticking thread have quiesced.
//
// Lock discipline is compiler-checked: the members the mailbox lock guards
// are declared GUARDED_BY(mailbox_.mu()) and the Submit/Push closure bodies
// live in *Locked() helpers annotated REQUIRES(mailbox_.mu()), so the
// `thread-safety` preset (clang -Wthread-safety) rejects any unguarded
// access path at compile time (docs/STATIC_ANALYSIS.md).
//
// CEI callbacks run on the ticking thread, inside Tick(). A callback may
// call Submit() or Push() — the event lands in the mailbox and takes effect
// at the next chronon — but must not call Tick() (see above).

#ifndef WEBMON_ONLINE_PROXY_H_
#define WEBMON_ONLINE_PROXY_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "model/schedule.h"
#include "online/online_scheduler.h"
#include "policy/policy.h"
#include "util/mailbox.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace webmon {

/// What an arrival-log record describes. Serialized (tools and the golden
/// suite pin the encoding — see online/arrival_log.h, format
/// "webmon-arrivals 2"), so the enumerator values are part of the format.
enum class ArrivalKind : uint8_t {
  kSubmit = 0,
  kPush = 1,
  /// A client cancel of a previously assigned CeiId (mid-epoch profile
  /// churn). Added in format version 2.
  kCancel = 2,
};

/// One accepted ingestion event as recorded in the proxy's arrival log: the
/// raw (pre-clamp) payload of a Submit(), Push(), or Cancel(), stamped with
/// its mailbox sequence number and the chronon it took effect at. The log is
/// a complete replayable record of the run's inputs — feeding it to
/// ReplayArrivalLog() serially reproduces a concurrent run byte for byte.
struct ArrivalEvent {
  /// Position in the mailbox's total arrival order.
  uint64_t seq = 0;
  /// The chronon the event took effect at (the Tick() that drained it).
  Chronon effective = 0;
  ArrivalKind kind = ArrivalKind::kSubmit;
  /// Submit payload: the windows exactly as the producer passed them.
  /// Replaying clamps them at `effective` again, rebuilding the stored CEI
  /// exactly.
  std::vector<std::tuple<ResourceId, Chronon, Chronon>> eis;
  double weight = 1.0;
  uint32_t required = 0;
  /// Submit: the id Submit() returned (a serial replay must re-assign the
  /// same). Cancel: the id the client cancelled.
  CeiId assigned_id = 0;
  /// Push payload.
  ResourceId resource = 0;

  friend bool operator==(const ArrivalEvent& a, const ArrivalEvent& b) {
    return a.seq == b.seq && a.effective == b.effective && a.kind == b.kind &&
           a.eis == b.eis && a.weight == b.weight &&
           a.required == b.required && a.assigned_id == b.assigned_id &&
           a.resource == b.resource;
  }
  friend bool operator!=(const ArrivalEvent& a, const ArrivalEvent& b) {
    return !(a == b);
  }
};
using ArrivalLog = std::vector<ArrivalEvent>;

/// Ingestion-side counters. All fields are guarded by the mailbox lock:
/// producers bump the accept/reject counters inside Submit/Push closures,
/// the ticking thread folds in the drain fields under the same lock, and
/// Proxy::ingestion_stats() snapshots the whole struct under it — so the
/// counters are consistent from any thread at any time.
struct IngestionStats {
  int64_t submits_accepted = 0;
  int64_t submits_rejected = 0;
  int64_t pushes_accepted = 0;
  int64_t pushes_rejected = 0;
  /// Cancel() outcomes. An accepted cancel may still be a scheduler no-op
  /// (target already captured/expired when the cancel drains — see
  /// SchedulerStats::cancels_noop); rejected means the mailbox refused it
  /// (unknown id, duplicate cancel, epoch finished).
  int64_t cancels_accepted = 0;
  int64_t cancels_rejected = 0;
  /// Ticks that drained at least one event.
  int64_t drain_batches = 0;
  /// Largest single drained batch.
  int64_t max_batch = 0;
  /// Wall seconds spent draining the mailbox into the scheduler index.
  double drain_seconds = 0.0;
};

/// A pull-based monitoring proxy over `num_resources` resources for an epoch
/// of `horizon` chronons.
class Proxy {
 public:
  Proxy(uint32_t num_resources, Chronon horizon, BudgetVector budget,
        std::unique_ptr<Policy> policy, SchedulerOptions options = {});

  Proxy(const Proxy&) = delete;
  Proxy& operator=(const Proxy&) = delete;

  /// Registers a complex need. Each element of `eis` is (resource, start,
  /// finish). `weight` is the client utility of satisfying the need;
  /// `required` = 0 demands ALL EIs be captured (AND semantics), otherwise
  /// any `required` of them suffice. Returns the assigned CEI id.
  ///
  /// Thread-safe: callable from any producer thread (and from CEI
  /// callbacks) concurrently with Tick(). The need takes effect at the
  /// chronon it is stamped with — the next Tick() if none is in flight, the
  /// one after when racing with (or called from inside) a tick. Validation
  /// (empty EI list, a weight that is not finite and positive, `required` >
  /// |eis|, unknown resource, start > finish, window entirely in the past)
  /// happens against the stamped chronon; rejected needs consume no CEI id
  /// and are not logged.
  StatusOr<CeiId> Submit(
      const std::vector<std::tuple<ResourceId, Chronon, Chronon>>& eis,
      double weight = 1.0, uint32_t required = 0);

  /// Delivers a server push of `resource`: every pending need with an
  /// active EI on the resource is captured for free when the stamped
  /// chronon's Tick() executes (the paper's Example 3 "WHEN ON PUSH").
  /// Thread-safe, same stamping rules as Submit().
  Status Push(ResourceId resource);

  /// Cancels need `id` (mid-epoch profile churn): the CEI stops being
  /// scheduled as of the chronon the cancel is stamped with, its index
  /// entries are unwound incrementally, and the on-cancelled callback fires
  /// during that chronon's Tick(). Thread-safe, same stamping rules as
  /// Submit(); callable from CEI callbacks (lands next chronon).
  ///
  /// Validation under the mailbox lock: an id never assigned fails with
  /// NotFound, a second cancel of the same id with FailedPrecondition, and
  /// a finished epoch with OutOfRange — none of which consume a sequence
  /// number or appear in the log. Whether the target is still pending,
  /// however, is scheduler state the mailbox cannot observe, so a cancel
  /// racing its target's capture/expiry is ACCEPTED and resolved
  /// deterministically by mailbox sequence when it drains: if the target
  /// reached a terminal state first, the cancel becomes a recorded no-op
  /// (SchedulerStats::cancels_noop) — replays reproduce the no-op exactly.
  Status Cancel(CeiId id);

  /// Executes the current chronon and advances time: drains the ingestion
  /// mailbox in sequence order, steps the scheduler, fires CEI callbacks.
  /// Returns the resources the proxy probed. Fails with OutOfRange once the
  /// horizon is reached. Single consumer: one thread at a time, and not
  /// reentrant from callbacks (FailedPrecondition, never a deadlock).
  StatusOr<std::vector<ResourceId>> Tick();

  /// The chronon the next Tick() will execute. Safe from any thread.
  Chronon now() const { return now_.load(std::memory_order_acquire); }
  /// True once the whole epoch has been executed. Safe from any thread.
  bool Done() const { return now() >= horizon_; }

  /// Full probe history so far. Ticking thread / quiesced only.
  const Schedule& schedule() const { return schedule_; }
  const SchedulerStats& stats() const { return scheduler_.stats(); }
  /// Per-CEI state slots currently resident in the scheduler. Equal to the
  /// total admissions unless SchedulerOptions::compact_terminal_states
  /// reclaims terminal slots (the churn-soak footprint bound). Ticking
  /// thread / quiesced only.
  size_t num_resident_states() const {
    return scheduler_.NumResidentStates();
  }
  /// Every accepted ingestion event in drain order (the replay record),
  /// built from the proxy's fixed-size records on each call: O(events),
  /// one window vector per submit, under the mailbox lock (producers wait
  /// for it). Bind the result once rather than indexing the call in a
  /// loop. Ticking thread / quiesced only.
  ArrivalLog arrival_log() const;
  /// Builds the finished epoch's arrival log like arrival_log() and then
  /// frees the proxy's records, so the proxy's log is empty afterwards.
  /// Fails with FailedPrecondition before Done(), while the log may still
  /// grow. Ticking thread / quiesced only.
  StatusOr<ArrivalLog> TakeArrivalLog();
  /// Consistent snapshot of the mailbox accept/reject/drain counters, taken
  /// under the mailbox lock. Safe from any thread, mid-run included.
  IngestionStats ingestion_stats() const;
  /// Probe attempts with outcomes (only populated when the proxy runs with
  /// a fault injector; empty otherwise).
  const std::vector<ProbeAttempt>& attempt_log() const {
    return scheduler_.attempt_log();
  }
  /// Failure-handling state of `resource` (healthy default without an
  /// injector).
  ResourceHealth health(ResourceId resource) const {
    return scheduler_.health(resource);
  }
  /// Fleet incident detector (null unless the injector's spec names
  /// incident domains and detection is on). Ticking thread / quiesced only.
  const IncidentDetector* incident_detector() const {
    return scheduler_.incident_detector();
  }

  /// Fraction of submitted CEIs captured so far.
  double CompletenessSoFar() const;

  /// Invoked when a submitted CEI completes / dies. Callbacks run on the
  /// ticking thread, in the deterministic activation order documented in
  /// docs/CONCURRENCY.md; they may Submit()/Push() but not Tick(). Set
  /// before the first Tick() and do not change mid-run.
  void set_on_cei_captured(std::function<void(CeiId)> cb);
  void set_on_cei_expired(std::function<void(CeiId)> cb);
  /// Invoked when a Cancel() removes a still-pending CEI (no-op cancels of
  /// already-terminal CEIs fire nothing). Same rules as the other
  /// callbacks.
  void set_on_cei_cancelled(std::function<void(CeiId)> cb);

 private:
  // One mailbox entry: the event's kind and a one-word payload. A submit
  // carries its stored, immutable Cei, from which the log reads the id,
  // weight, `required` and (unless clamped) the windows back.
  struct PendingEvent {
    ArrivalKind kind = ArrivalKind::kSubmit;
    union {
      const Cei* cei = nullptr;  // kSubmit
      ResourceId resource;       // kPush
      CeiId target;              // kCancel
    };
  };
  // A stamped mailbox entry is the arrival-log record as stored: {seq,
  // effective, kind, payload}.
  using Record = SeqMailbox<PendingEvent>::Entry;
  static_assert(sizeof(Record) == 32, "an arrival record is 32 bytes");
  // The raw (pre-clamp) window of a submit whose windows Submit clamped;
  // every window of such a submit is kept, in order.
  struct RawWindow {
    CeiId id = 0;
    ResourceId resource = 0;
    Chronon start = 0;
    Chronon finish = 0;
  };
  // Records per block of the arrival-record store (32 KiB blocks).
  static constexpr size_t kRecordsPerBlock = 1024;

  // Closure bodies of Submit()/Push(): validate against the stamped
  // (seq, epoch), allocate ids, and build the mailbox entry. They run under
  // the mailbox lock (SeqMailbox::Push invokes them inside its critical
  // section), which is what lets them touch the guarded members below.
  std::optional<PendingEvent> MakeSubmitEventLocked(
      const std::vector<std::tuple<ResourceId, Chronon, Chronon>>& eis,
      double weight, uint32_t required, int64_t epoch, Status& status,
      CeiId& id) REQUIRES(mailbox_.mu());
  std::optional<PendingEvent> MakePushEventLocked(ResourceId resource,
                                                  int64_t epoch,
                                                  Status& status)
      REQUIRES(mailbox_.mu());
  std::optional<PendingEvent> MakeCancelEventLocked(CeiId id, int64_t epoch,
                                                    Status& status)
      REQUIRES(mailbox_.mu());
  // Materializes the records drained so far as an ArrivalLog.
  ArrivalLog BuildArrivalLogLocked() const REQUIRES(mailbox_.mu());

  uint32_t num_resources_;
  Chronon horizon_;
  // The ticking clock; written only by Tick(), read from any thread.
  std::atomic<Chronon> now_{0};
  // Reentrancy / concurrent-consumer guard for Tick().
  std::atomic<bool> in_tick_{false};
  std::unique_ptr<Policy> policy_;
  // The ingestion mailbox. Its lock (mailbox_.mu()) also guards the proxy's
  // own ingestion state declared GUARDED_BY below.
  SeqMailbox<PendingEvent> mailbox_;
  // Owns submitted CEI definitions; deque keeps pointers stable for the
  // scheduler. The container is mutated only under the mailbox lock; the
  // Cei objects themselves are immutable once the lock is released, so the
  // scheduler may read them through stored pointers lock-free.
  std::deque<Cei> ceis_ GUARDED_BY(mailbox_.mu());
  CeiId next_cei_id_ GUARDED_BY(mailbox_.mu()) = 0;
  EiId next_ei_id_ GUARDED_BY(mailbox_.mu()) = 0;
  // cancel_requested_[id] is set when a Cancel(id) was accepted; duplicate
  // cancels are rejected under the lock so the log never carries two cancel
  // records for one id (one flag byte per submitted CEI).
  std::vector<uint8_t> cancel_requested_ GUARDED_BY(mailbox_.mu());
  // Raw windows of the clamped submits, in id order (ids grow with seq).
  std::vector<RawWindow> raw_windows_ GUARDED_BY(mailbox_.mu());
  IngestionStats ingestion_ GUARDED_BY(mailbox_.mu());
  // Drain-order record of every accepted event, in blocks of
  // kRecordsPerBlock that never move once written. Ticking thread only.
  std::vector<std::unique_ptr<Record[]>> record_blocks_;
  size_t num_records_ = 0;
  // Drain scratch, reused across ticks; drain_batch_ trades buffers with
  // the mailbox's pending list at every drain.
  std::vector<Record> drain_batch_;
  std::vector<const Cei*> drain_ceis_;
  std::vector<CeiId> drain_cancels_;
  Schedule schedule_;
  OnlineScheduler scheduler_;
};

/// Snapshot of a run replayed from an arrival log.
struct ProxyReplayResult {
  Schedule schedule;
  SchedulerStats stats;
  IngestionStats ingestion;
  /// The replaying proxy's own recorded log (equal to the input log for a
  /// well-formed replay).
  ArrivalLog log;
  std::vector<ProbeAttempt> attempts;
  /// Capture / expiry / cancellation callback streams, in firing order.
  std::vector<std::pair<Chronon, CeiId>> captured;
  std::vector<std::pair<Chronon, CeiId>> expired;
  std::vector<std::pair<Chronon, CeiId>> cancelled;
  double completeness = 0.0;
};

/// Replays `log` serially: a fresh proxy re-Submit()s / re-Push()es every
/// event at its recorded effective chronon in sequence order and ticks
/// through the whole epoch. The determinism contract (docs/CONCURRENCY.md)
/// guarantees the result is byte-identical to the run that recorded the log
/// — same schedule, stats, attempt log, and capture/expiry event streams —
/// provided `policy` and `options` (including any fault injector seed)
/// match the original run. Fails if the log is not in drain order, lies
/// outside the epoch, or re-assigns different CEI ids.
StatusOr<ProxyReplayResult> ReplayArrivalLog(
    const ArrivalLog& log, uint32_t num_resources, Chronon horizon,
    BudgetVector budget, std::unique_ptr<Policy> policy,
    SchedulerOptions options = {});

}  // namespace webmon

#endif  // WEBMON_ONLINE_PROXY_H_
