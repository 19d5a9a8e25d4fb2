// OnlineScheduler: the generic online complex-monitoring algorithm
// (paper Appendix A, Algorithm 1 + procedure probeEIs).
//
// At each chronon T_j the scheduler
//   1. receives the CEIs arriving at T_j (AddArrivals) and the client
//      cancellations taking effect at T_j (RemoveCeiBatch — mid-epoch
//      profile churn; cancelled CEIs stop consuming budget immediately),
//   2. activates their EIs as the EIs' start chronons are reached,
//   3. asks the policy to rank the active candidate EIs and greedily probes
//      up to C_j distinct resources (non-preemptive mode first serves EIs of
//      CEIs that already had an EI captured),
//   4. captures every active EI whose resource was probed this chronon
//      (exploiting intra-resource overlap, the R_ids set of Algorithm 1),
//   5. kills CEIs for which an EI expired uncaptured at T_j — they can never
//      be completed, so their remaining EIs stop consuming budget.
//
// Implementation (docs/PERFORMANCE.md "Memory & sustained throughput"):
// activations, expiries, and pushes flow through per-chronon buckets kept as
// flat chunked rings (EventRing) carved from one Arena — after warm-up the
// chunk population recycles and a steady-state chronon performs zero heap
// allocations (enforced by the counter-based regression test). Ranking and
// capture take one of two paths, chosen from what the scheduler can
// observe:
//   ordered index — the policy declares ValueStableBetweenCaptures() (MRSF,
//     W-MRSF), costs are uniform and no fault injector is attached: every
//     activated EI sits in a lazily pruned 4-ary heap keyed by the
//     candidate total order, re-keyed only when its CEI captures an EI, and
//     a chronon pops until C distinct eligible resources are found
//     (docs/PERFORMANCE.md "Ordered index for value-stable policies"). For
//     capture, each activated EI is also a slot entry in one of a fixed
//     number of arena-backed buckets keyed by resource hash: a chronon
//     visits only the buckets of the resources it probed or that pushed,
//     captures their live EIs in admission order, and drops the spent
//     entries there; a round-robin sweep that each admitted EI pays for
//     drops spent entries elsewhere.
//   scan — every other configuration: the active candidates live in
//     structure-of-arrays slot columns in activation order (the handle,
//     plus cached resource/finish columns the scan reads sequentially).
//     Each chronon's one serial rank pass compacts the columns stably in
//     place, computes every live candidate's value, and keeps one best
//     candidate per resource (resource dedup) under a bounded top-C
//     selection: small uniform budgets keep a C-entry board and never touch
//     the per-resource table (which is then never even allocated); larger
//     or varying-cost budgets use the table. The capture sweep walks the
//     columns.
// Both paths select exactly the same probes — the documented value/
// deadline/EI-id tie-break defines a position-independent total order —
// and capture in the same activation order.

// When a FaultInjector is attached (SchedulerOptions::fault_injector) probes
// can fail: a failed probe still spends budget but captures nothing. The
// scheduler then reacts per FaultHandlingOptions — capped exponential
// backoff with deterministic jitter between retries, a per-resource circuit
// breaker (closed -> open -> half-open) that stops wasting budget on a dead
// resource, and a deadline shrink that makes urgency ranking account for the
// expected retries on flaky resources. Each attempted resource's
// ResourceHealth (health(), created by its first attempt) holds that state;
// the rank scan, the fleet-breaker trials and the walk read an 8-byte gate
// word per resource instead, which IssueProbe re-derives from the health
// entry after every recorded outcome (next
// probeable chronon, deadline shrink, live-streak and covered flags;
// docs/PERFORMANCE.md "Top-C selection"). The word holds a 32-bit chronon,
// so with an injector the constructor rejects epochs beyond 2^31 - 1
// chronons. With no injector (or an injector whose failure probabilities
// are all zero) the schedule is byte-identical to the fault-free algorithm
// (pay-for-use, enforced by the fault property tests).
//
// When the injector's spec additionally names fleet incident domains
// (docs/ROBUSTNESS.md), an online IncidentDetector watches the attempt
// stream per domain — no oracle access — and opens a fleet-level breaker on
// a sustained windowed failure spike: covered resources are withheld from
// ranking (their budget flows to unaffected work) except for one
// deterministic re-probe trial per reprobe interval, which is also how the
// detector notices the incident ended. Detector state is a pure function of
// the attempt stream and is only read while the rank scan gates its
// candidates — and then only while some domain is open, for resources a
// domain covers. Specs without incident lines construct no detector and
// schedule byte-identically to before.

#ifndef WEBMON_ONLINE_ONLINE_SCHEDULER_H_
#define WEBMON_ONLINE_ONLINE_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "model/cei.h"
#include "model/probe_outcome.h"
#include "model/schedule.h"
#include "model/types.h"
#include "policy/policy.h"
#include "util/arena.h"
#include "util/event_ring.h"
#include "util/id_map.h"
#include "util/status.h"

namespace webmon {

class FaultInjector;
class IncidentDetector;

/// Capacity hints for long-running deployments. All default to 0 ("let the
/// containers grow on demand"); a server that knows its steady-state load
/// can pre-reserve and skip the cold-start reallocation burst that
/// otherwise shows up in the per-phase timers over the first few chronons.
struct SchedulerSizingHints {
  /// Expected peak number of simultaneously active candidate EIs: sizes the
  /// scan path's slot columns, or the ordered-index path's heap (its slot
  /// buckets take arena chunks as they fill).
  size_t expected_active_eis = 0;
  /// Expected total probe attempts over the run (only used when a fault
  /// injector is attached): pre-reserves the attempt log, and pre-sizes
  /// the two tables created on a resource's first attempt, the scheduler's
  /// health entries and the injector's states (FaultInjector::Reserve),
  /// for min(num_resources, expected_attempts) resources, since no run of
  /// that many attempts touches more. Without it the log and the tables
  /// grow inside Step, so a fault-injected tick allocates each time one
  /// outgrows its capacity; a zero-allocation fault path needs the hint.
  size_t expected_attempts = 0;
  /// Expected total CEIs registered over the run: pre-sizes the id -> state
  /// lookup serving RemoveCei, so steady-state churn never grows it.
  size_t expected_ceis = 0;
};

/// Execution options for the online algorithm.
struct SchedulerOptions {
  /// Preemptive mode considers all candidate EIs in one pool; non-preemptive
  /// mode first exhausts EIs of previously probed (started) CEIs
  /// (paper Section IV-A).
  bool preemptive = true;
  /// Varying probe costs (the extension Section III-C defers): when
  /// non-empty (must have one entry per resource, each > 0), the
  /// per-chronon budget C_j is a cost capacity and probing resource r
  /// consumes resource_costs[r] of it, instead of every probe costing 1.
  std::vector<double> resource_costs;
  /// Failure model for issued probes (non-owning; must outlive the
  /// scheduler). Null means the ideal network: every probe succeeds and no
  /// fault bookkeeping is allocated.
  FaultInjector* fault_injector = nullptr;
  /// Reaction to probe failures; only consulted when fault_injector is set.
  FaultHandlingOptions fault_handling;
  /// Steady-state capacity hints (see SchedulerSizingHints).
  SchedulerSizingHints sizing;
  /// Reclaim per-CEI state once a CEI reaches a terminal state (captured,
  /// expired, cancelled): its states_ slot is recycled for a later arrival
  /// and its id -> state entry is dropped, so resident footprint tracks the
  /// LIVE population instead of total arrivals (docs/PERFORMANCE.md
  /// "Churn"). The schedule, callbacks, and every counter are byte-
  /// identical with the flag on or off (the churn-compaction suite); the
  /// observable differences are diagnostic only: LifecycleOf on a retired
  /// CEI answers kUnknown instead of the terminal state, and a RemoveCei
  /// naming an id the scheduler has forgotten counts as a cancels_noop
  /// instead of failing NotFound (through the Proxy this is unreachable —
  /// the mailbox rejects ids it never assigned). A retired id may be
  /// registered again. Off by default.
  bool compact_terminal_states = false;
};

/// Counters accumulated over a run.
struct SchedulerStats {
  int64_t ceis_seen = 0;
  int64_t ceis_captured = 0;
  int64_t ceis_expired = 0;
  /// CEIs removed live by RemoveCei / RemoveCeiBatch (client cancels that
  /// reached a still-pending CEI).
  int64_t ceis_cancelled = 0;
  /// Cancels that arrived after their CEI already reached a terminal state
  /// (captured or expired) — accepted as deterministic no-ops.
  int64_t cancels_noop = 0;
  int64_t eis_seen = 0;
  int64_t eis_captured = 0;
  /// Probe attempts issued (each spends budget whether or not it succeeds).
  int64_t probes_issued = 0;
  /// Server pushes delivered (captures they caused count in eis_captured).
  int64_t pushes_delivered = 0;
  /// Non-empty ingestion batches folded in via AddArrivalBatch, and the
  /// total CEIs they carried (the Proxy's mailbox-drain path; zero when the
  /// scheduler is fed arrival by arrival).
  int64_t drain_batches = 0;
  int64_t drained_arrivals = 0;
  /// Attempts that failed (transient error, outage, rate limit, timeout).
  int64_t probes_failed = 0;
  /// Attempts issued to a resource with a live failure streak (retries).
  int64_t probes_retried = 0;
  /// Budget units spent on those retry attempts (counted against
  /// FaultSpec::retry_budget when a cap is set).
  double retry_budget_spent = 0.0;
  /// Chronon x live candidate EI pairs withheld from ranking because the
  /// retry budget was exhausted while the EI's resource was otherwise
  /// available for a retry, plus ranked picks withheld from issuance when
  /// the budget ran out mid-chronon (one per resource). Resources no live
  /// EI wants probed are never counted.
  int64_t retries_suppressed = 0;
  /// Transitions of any resource's circuit breaker to the open state.
  int64_t breaker_trips = 0;
  /// Budget units spent on attempts that captured nothing.
  double budget_lost_to_failures = 0.0;
  // --- Fleet incident counters (all zero without incident domains). The
  // window tallies compare the injector's ground truth against the
  // detector's belief — measurement only, never a scheduling input.
  /// Fleet-breaker open transitions (detector closed -> open).
  int64_t incident_openings = 0;
  /// Ground-truth incident windows during which the detector opened at
  /// least once, and completed windows it never caught. Windows still in
  /// progress when the run ends are counted in neither.
  int64_t incident_windows_detected = 0;
  int64_t incident_windows_missed = 0;
  /// Chronon x domain pairs of ground-truth incident exposure.
  int64_t incident_chronons = 0;
  /// Chronon x live candidate EI pairs withheld from ranking by an open
  /// fleet breaker while the EI's resource was otherwise available — the
  /// demand whose budget was redirected. Resources no live EI wants probed
  /// are never counted.
  int64_t incident_probes_suppressed = 0;
  /// End-of-incident re-probe trials issued while a covering breaker was
  /// open.
  int64_t incident_trial_probes = 0;
  /// Cumulative wall seconds spent per Step phase (reported under the
  /// --timing flag): index maintenance (activation — on the ordered-index
  /// path this includes computing each admitted EI's value and pushing it —
  /// and pushes), candidate ranking (BeginChronon + top-C
  /// selection: the scan's values and per-resource dedup, or the ordered
  /// index's pops), probe issuance (greedy walk + fault handling), and
  /// capture/expiry sweeps (on the ordered-index path the visited slot
  /// buckets, the round-robin sweep, and the re-keying of CEIs that
  /// captured an EI).
  double activate_seconds = 0.0;
  double rank_seconds = 0.0;
  double probe_seconds = 0.0;
  double capture_seconds = 0.0;
};

/// Observable per-resource failure-handling state (diagnostics, tests).
/// The scheduler creates one on a resource's first recorded outcome; a
/// resource never attempted is in the default (healthy) state. The 8-byte
/// fields come first so the struct packs to 56 bytes.
struct ResourceHealth {
  enum class Breaker : uint8_t { kClosed = 0, kOpen = 1, kHalfOpen = 2 };
  /// First chronon at which an attempt may be issued again after a failure
  /// (backoff gate; 0 = no gate).
  Chronon retry_not_before = 0;
  /// While the breaker is open: first chronon of the half-open trial.
  Chronon open_until = 0;
  /// Current open-period length; doubles on failed half-open trials.
  Chronon cooldown = 0;
  int64_t failures = 0;
  int64_t successes = 0;
  /// EWMA failure-rate estimate driving the deadline shrink.
  double ewma_failure = 0.0;
  int32_t consecutive_failures = 0;
  Breaker breaker = Breaker::kClosed;
};
static_assert(sizeof(ResourceHealth) <= 56);

/// The online proxy scheduling engine. Drive it from a single chronon loop
/// that steps every chronon in order: the public API is not thread-safe,
/// and a Step runs entirely on the calling thread.
class OnlineScheduler {
 public:
  /// `policy` must outlive the scheduler. `num_chronons` bounds the epoch.
  OnlineScheduler(uint32_t num_resources, Chronon num_chronons,
                  BudgetVector budget, Policy* policy,
                  SchedulerOptions options = {});

  OnlineScheduler(const OnlineScheduler&) = delete;
  OnlineScheduler& operator=(const OnlineScheduler&) = delete;
  ~OnlineScheduler();

  /// Registers a CEI arriving at chronon `now`, which must be the next
  /// chronon to step (FailedPrecondition otherwise): between Steps that is
  /// the last stepped chronon + 1 (0 before the first Step), and a callback
  /// fired inside Step(t) registers for t + 1. `cei` must stay valid for
  /// the scheduler's lifetime. Rejects an empty CEI, and a CEI whose id the
  /// scheduler still maps (a live CEI, or any earlier one unless
  /// compact_terminal_states retired it), with InvalidArgument. A CEI whose
  /// windows closed too early for it ever to complete is registered dead
  /// on arrival (on_cei_expired fires).
  Status AddArrival(const Cei* cei, Chronon now);

  /// Registers a whole drained ingestion batch arriving at chronon `now`,
  /// in batch order (the Proxy mailbox's sequence order). Equivalent to
  /// calling AddArrival for each element, plus the drain counters in
  /// SchedulerStats. Stops at the first invalid CEI.
  Status AddArrivalBatch(const std::vector<const Cei*>& batch, Chronon now);

  /// Cancels a previously registered CEI at chronon `now`, which must be the
  /// next chronon to step, as for AddArrival (mid-epoch profile churn;
  /// FailedPrecondition otherwise). A still-pending CEI is removed: it is
  /// never probed again, its event-ring entries are purged or tombstoned
  /// (amortized-O(1) compaction), its slot-column entries fall to the next
  /// compaction's lazy pruning (on the ordered path its slot entries and
  /// index entries are screened out and deleted lazily), and
  /// on_cei_cancelled fires. A CEI that
  /// already completed or expired yields a deterministic no-op (the
  /// `cancels_noop` counter) — never an error, because the caller (the
  /// Proxy mailbox) cannot observe scheduler state when it accepts the
  /// cancel. Per-resource fault health (backoff, breaker, EWMA) is
  /// deliberately retained: it describes the resource, not the need.
  /// Fails on an id the scheduler never saw.
  Status RemoveCei(CeiId id, Chronon now);

  /// Removes a whole drained cancel batch, in batch order (the Proxy
  /// mailbox's sequence order). Equivalent to calling RemoveCei for each
  /// element; stops at the first unknown id.
  Status RemoveCeiBatch(const std::vector<CeiId>& batch, Chronon now);

  /// Registers a server push of `resource` delivered at chronon `t`
  /// (paper Section III: "occasionally a server may push an update").
  /// Pushed content captures every EI on the resource active at `t` for
  /// free — no probe budget is consumed and nothing is written to the
  /// Schedule. `t` must not precede the next Step.
  Status AddPush(ResourceId resource, Chronon t);

  /// Executes chronon `now`, which must follow the last stepped chronon
  /// (0 first): every chronon of the epoch is stepped once, in order, as in
  /// the paper's Algorithm 1 (FailedPrecondition otherwise). Selects and
  /// issues probes, updates capture state, expires CEIs. If `schedule` is
  /// non-null, issued probes are recorded in it.
  /// Returns the resources probed this chronon via `probed` if non-null.
  Status Step(Chronon now, Schedule* schedule,
              std::vector<ResourceId>* probed = nullptr);

  /// Called with every CEI id that completes (all EIs captured).
  void set_on_cei_captured(std::function<void(const Cei&)> cb) {
    on_cei_captured_ = std::move(cb);
  }
  /// Called with every CEI id that dies (an EI expired uncaptured).
  void set_on_cei_expired(std::function<void(const Cei&)> cb) {
    on_cei_expired_ = std::move(cb);
  }
  /// Called with every still-pending CEI removed by RemoveCei (no-op
  /// cancels of already-terminal CEIs do not fire it).
  void set_on_cei_cancelled(std::function<void(const Cei&)> cb) {
    on_cei_cancelled_ = std::move(cb);
  }

  /// Terminal-state audit of CEI `id`: kUnknown for ids never registered,
  /// kPending while live, else the terminal state (diagnostics, tests).
  /// Under SchedulerOptions::compact_terminal_states a retired CEI's entry
  /// is gone, so terminal ids answer kUnknown once reclaimed.
  CeiLifecycle LifecycleOf(CeiId id) const;

  const SchedulerStats& stats() const { return stats_; }

  /// Every probe attempt with its outcome, in issue order. Only populated
  /// when a fault injector is attached (empty otherwise); feed it to
  /// AuditFaultRun to verify the failure-handling invariants. It keeps
  /// every attempt of the run and grows inside Step unless
  /// SchedulerSizingHints::expected_attempts reserved room for them.
  const std::vector<ProbeAttempt>& attempt_log() const {
    return attempt_log_;
  }

  /// Failure-handling state of `resource`. Only meaningful when a fault
  /// injector is attached; returns a default (healthy) state otherwise.
  ResourceHealth health(ResourceId resource) const;

  /// The fleet incident detector; null unless the attached injector's spec
  /// names incident domains and FaultHandlingOptions::incident_detection is
  /// on. Diagnostics and tests.
  const IncidentDetector* incident_detector() const {
    return detector_.get();
  }

  /// Number of currently live candidate CEIs (diagnostics).
  size_t NumCandidateCeis() const;
  /// Number of CEI state slots currently resident (allocated and not on
  /// the free list). Without compact_terminal_states this is every CEI
  /// ever registered; with it, live CEIs plus terminal ones awaiting their
  /// release chronon — the bounded-footprint quantity the churn soak
  /// asserts on (docs/PERFORMANCE.md "Churn").
  size_t NumResidentStates() const { return states_.size() - free_states_.size(); }
  /// Number of currently live active candidate EIs (diagnostics; counts the
  /// live slot-column entries or slot entries, excluding captured/failed
  /// stragglers awaiting lazy pruning).
  size_t NumActiveEis() const;

 private:
  // A resource's best candidate surviving per-resource dedup, with its
  // policy value, cached deadline/resource (so comparisons and dedup skip
  // the EI deref), and (non-preemptive mode) started flag.
  struct Ranked {
    CandidateEi cand;
    double value = 0.0;
    Chronon finish = 0;
    ResourceId resource = 0;
    bool started = false;
  };
  // One activated EI in the ordered index, with the rank key it had when
  // pushed. The entry is current while its state's generation word still
  // equals `gen` (no capture, terminal transition or slot reuse since) and
  // its window has not closed; anything else is deleted lazily.
  struct IndexEntry {
    double value = 0.0;
    Chronon finish = 0;
    CeiId cei_id = 0;
    uint32_t state = 0;  // states_ index
    uint32_t gen = 0;
    uint32_t ei_index = 0;
    bool started = false;
  };
  // One activated EI in the ordered path's slot buckets. The entry names a
  // live EI while its window is open, its state is not terminal (low bit
  // of the generation word clear), and its state slot still holds the CEI
  // it was admitted for (`occupant`): an entry may outlive its state.
  struct SlotEntry {
    uint64_t seq = 0;  // admission order
    Chronon finish = 0;
    uint32_t state = 0;  // states_ index
    uint32_t occupant = 0;
    ResourceId resource = 0;
    uint32_t ei_index = 0;
  };
  // The ordered path's slot entries are spread over 2^kSlotBucketBits
  // buckets by resource hash. More buckets shorten each capture visit but
  // spread the appends over more, colder bucket tails.
  static constexpr uint32_t kSlotBucketBits = 10;
  static constexpr size_t kSlotBuckets = size_t{1} << kSlotBucketBits;
  // The fault path's rank gates of one resource in 8 bytes, re-derived
  // from its ResourceHealth (GateFor) each time IssueProbe records an
  // outcome on it. The rank scan, the fleet-breaker trials and the walk
  // read this word, not the 56-byte health entry, and the shrink division
  // runs once per outcome instead of once per valued candidate.
  struct ResourceGate {
    // First chronon at which the resource may be probed: open_until while
    // the breaker is open, else retry_not_before. Clamped to
    // [0, num_chronons_], which changes no comparison with a chronon of
    // the epoch; the constructor rejects epochs beyond 32 bits.
    int32_t probe_from = 0;
    // ShrinkFor(resource), at most 19.
    uint8_t shrink = 0;
    // A live failure streak: the next attempt is a retry.
    bool streak = false;
    // Some incident domain of the detector covers the resource.
    bool covered = false;
    friend bool operator==(const ResourceGate&,
                           const ResourceGate&) = default;
  };
  static_assert(sizeof(ResourceGate) <= 8);
  // A terminal state awaiting reclamation: the id to unmap and the
  // states_ slot to free.
  struct RetireItem {
    CeiId id = 0;
    uint32_t slot = 0;
  };
  // Largest uniform budget served by the table-free bounded top-C path; a
  // C-entry scan board stops beating the per-resource table somewhere
  // beyond this.
  static constexpr int64_t kMaxBoundedTopC = 64;

  // The documented candidate total order: (non-preemptive: started CEIs
  // first), then ascending value, earlier deadline, CEI id, EI index.
  // Position-independent, which is what legalizes per-resource dedup and
  // bounded top-C selection: any subset ranks exactly as it did inside the
  // legacy full sort. One definition serves the scan's Ranked candidates
  // and the ordered index's entries.
  template <typename Key>
  static bool RankedBefore(const Key& a, const Key& b, bool split_started);

  // Indexes `cand` as active at `now`: appends it to its finish chronon's
  // expiry bucket and to the slot columns, or on the ordered path to the
  // staged slot entries and the index.
  void AdmitActive(const CandidateEi& cand, Chronon now);
  // Activates EIs whose start chronon is `now`.
  void Activate(Chronon now);
  // Records that live `cand`'s window expired uncaptured (no-op if it is
  // no longer live); kills the CEI when its semantics can no longer be
  // satisfied.
  void MarkFailed(const CandidateEi& cand);
  // Marks every still-live candidate whose window closes at `now` failed,
  // in activation order (draining its expiry bucket). Called after the
  // capture sweep. Afterwards every uncaptured, unfailed EI of a live CEI
  // ends after `now`: the invariant Policy::ValueFloor may rely on.
  void ProcessExpiries(Chronon now);
  // compact_terminal_states: schedules `s` (just turned terminal) for
  // reclamation at its release chronon, in O(1): release_at_[s.index] (the
  // last chronon at which any event-ring bucket may still hold a reference
  // to the state, fixed by AddArrival), floored by retire_floor_ (set by
  // the terminal site to the first chronon whose rank pass has provably
  // pruned the state's slot-column entries; the ordered path keeps the
  // same floor, though its slot entries and index entries are screened by
  // the occupant and generation words and so hold nothing), clamped to the
  // epoch. The retire ring drains at the END of Step(release), after every
  // structure that could reach the state has let go, so slot reuse by a
  // later arrival can never resurrect a stale reference. No-op unless the
  // option is on.
  void RetireTerminalState(const CeiState& s);
  // Scan path: copies slot `from` over slot `to` in every column
  // (compaction).
  void MoveSlot(size_t to, size_t from);
  // Scan path: truncates every slot column to its first `n` entries.
  void ResizeSlots(size_t n);
  // The scan's fused compact-and-rank pass over the whole slot list:
  // compacts live entries in place (stable, writing only across gaps) and —
  // when `compute_values` — computes policy values and leaves the
  // selection's candidates in merged_, at most one per resource, unsorted.
  // Two selection modes, both provably schedule-identical (see
  // RankedBefore):
  //   bounded (top_c > 0) — uniform costs, C <= kMaxBoundedTopC: a C-entry
  //     board with linear-scan resource dedup; a candidate that cannot beat
  //     the board's worst entry is skipped outright, so the per-resource
  //     table is never touched (a resource evicted or skipped that way is
  //     provably outside the top-C). At the paper's canonical C = 1 the
  //     board is one running minimum. Once the board is full a candidate is
  //     first bounded: a finite Policy::ValueFloor above the worst entry's
  //     value (same started class), or any finite floor for a fresh
  //     candidate behind a started worst entry, skips its Value call. The
  //     floors rest on an invariant of the scheduler: every uncaptured,
  //     unfailed EI of a live CEI ends at or after `now` (ProcessExpiries
  //     fails windows as they close, AddArrival those closed on arrival).
  //     Debug builds check each skipping floor against Value.
  //   table (top_c == 0) — varying costs or large C: every eligible
  //     resource's best candidate, found through best_at_.
  // `check_attempted` is false when no resource was contacted before the
  // rank phase (no pushes or fleet trials) — the common case, which skips
  // the per-candidate attempted_now_ lookup. kFaulty (an injector is
  // attached) gates each live candidate on its own resource's gate word —
  // backoff and breaker, the retry budget, then fleet-breaker suppression,
  // asked of the detector only while a domain is open and only for covered
  // resources — counts the withheld ones in stats_, and shrinks the
  // others' deadlines.
  template <bool kFaulty>
  void RankScan(Chronon now, bool compute_values, size_t top_c,
                bool check_attempted);

  // --- Ordered index (ordered_ only) ---
  // Pushes live, activated `cand` of states_[state] with its current value
  // and generation. Current entries never outnumber the slot entries, so
  // once the heap holds twice as many entries, at least half are stale and
  // it is rebuilt in place first (RebuildIndex); AdmitActive keeps its
  // capacity at least twice the slot entries, so a push never grows it.
  void IndexPush(const CandidateEi& cand, uint32_t state, Chronon now);
  // The index's heap order: RankedBefore under this run's preemption mode.
  auto IndexBefore() const {
    return [split_started = !options_.preemptive](const IndexEntry& a,
                                                  const IndexEntry& b) {
      return RankedBefore(a, b, split_started);
    };
  }
  // True iff `e` still describes a live, activated, uncaptured EI whose
  // window is open at `now`.
  bool IndexCurrent(const IndexEntry& e, Chronon now) const {
    return state_gen_[e.state] == e.gen && e.finish >= now;
  }
  // Removes every entry that is no longer current at `now` and re-heaps.
  void RebuildIndex(Chronon now);
  // Fills merged_ with the chronon's selection: pops entries in rank order,
  // dropping stale ones, until `top_c` distinct resources are found (first
  // rebuilding the heap when many windows closed since the last one). Every
  // current entry popped is on a resource this chronon probes or pushes,
  // so the capture sweep spends it anyway and none is pushed back.
  void SelectFromIndex(Chronon now, size_t top_c);
  // Re-pushes every live, activated EI of states_[state] after its CEI's
  // capture count changed at `now` (the change invalidated their entries).
  void RekeyCei(uint32_t state, Chronon now);
  // The slot bucket of resource `r` (Fibonacci hashing).
  static size_t SlotBucket(ResourceId r) {
    return (r * uint32_t{0x9E3779B9}) >> (32 - kSlotBucketBits);
  }
  // True iff slot entry `e` still names a live EI that can be captured at
  // chronon `t` or later (see SlotEntry). Reads no CeiState.
  bool SlotHeld(const SlotEntry& e, Chronon t) const {
    return e.finish >= t && (state_gen_[e.state] & 1) == 0 &&
           state_occupant_[e.state] == e.occupant;
  }
  // The capture sweep: appends the staged slot entries to their buckets,
  // visits the buckets of the resources probed or pushed at `now` once
  // each, captures their live EIs in admission order, then drops the spent
  // entries of those buckets.
  void CaptureSlots(Chronon now);
  // The round-robin sweep, run after the chronon's expiries: filters whole
  // buckets from a rotating cursor, spending two entry visits of credit per
  // admitted EI (an empty bucket costs one), so the spent entries left
  // outside visited buckets stay below the live ones in steady state.
  void SweepSlots(Chronon now);
  // Captures live `cand` at `now` (its resource's content is available this
  // chronon) and completes its CEI when satisfied. Returns true iff the CEI
  // completed.
  bool Capture(const CandidateEi& cand, Chronon now);

  // Issues one probe attempt of `resource` at `now`, costing `cost` budget
  // units — the single issue point for fleet-breaker trials and the ranked
  // walk alike (callers check the budget first): marks the resource
  // contacted, notifies the policy, and with an injector attached draws
  // the outcome and folds it into health, the attempt log, and the
  // incident detector. Returns true iff the probe succeeded.
  bool IssueProbe(ResourceId resource, Chronon now, double cost);
  // Records a successful probe that captures this chronon: marks
  // `resource` in R_ids and appends the probe to `schedule` (if non-null).
  Status RecordProbe(ResourceId resource, Chronon now, Schedule* schedule);

  // --- Failure handling (active only when a fault injector is attached) ---
  // True iff `resource` may be probed at `now`: its breaker is not open
  // (or its cooldown elapsed, allowing the half-open trial) and no backoff
  // gate is pending. Reads the gate word.
  bool ResourceAvailable(ResourceId resource, Chronon now) const;
  // The health entry of `resource`, created healthy on its first attempt.
  // IssueProbe calls it once per attempt and hands the entry on, so an
  // attempt looks the sparse table up once.
  ResourceHealth& TouchHealth(ResourceId resource);
  // Folds one attempt outcome into `h`, the health of `resource`: streaks,
  // EWMA, backoff gate, breaker transitions, and the fault counters.
  void RecordOutcome(ResourceHealth& h, ResourceId resource, Chronon now,
                     bool success, double cost);
  // Deadline shrink for EIs on a resource of health `h`, from its EWMA
  // failure rate f: ceil(f/(1-f)) expected extra attempts, with f capped at
  // 0.95 (so at most 19) and the result at deadline_shrink_cap; 0 on
  // healthy resources. Evaluated by GateFor, once per recorded outcome.
  Chronon ShrinkFor(const ResourceHealth& h) const;
  // The gate word of `resource`, of health `h`, as derived from `h` and the
  // detector's coverage.
  ResourceGate GateFor(ResourceId resource, const ResourceHealth& h) const;
  // True iff FaultSpec::retry_budget is set and already spent, so no
  // further retry attempts may be issued.
  bool RetryBudgetExhausted() const;
  // Advances the incident detector to `now` and folds the injector's
  // ground-truth incident state into the detected/missed window counters
  // (measurement only — scheduling reads the detector alone). Called once
  // per Step when the spec names incident domains.
  void UpdateIncidentState(Chronon now);

  uint32_t num_resources_;
  Chronon num_chronons_;
  BudgetVector budget_;
  Policy* policy_;
  SchedulerOptions options_;

  // Owned CEI scheduling states, one 64-byte cache line each (CeiState). A
  // deque so pointers stay stable (we never erase) while states of CEIs
  // that arrived together stay contiguous — the ranking scan visits slots
  // in activation order, so neighboring liveness checks walk adjacent
  // lines.
  std::deque<CeiState> states_;
  // CeiId -> index into states_, maintained by AddArrival and looked up by
  // RemoveCei / LifecycleOf. Flat open addressing with backward-shift
  // deletion (util/id_map.h): inserts allocate only at high-water growth,
  // so steady-state churn keeps the zero-allocation tick contract. AddArrival
  // rejects an id that is still mapped, so each entry names the one state
  // registered under its id. Entries are erased only when
  // compact_terminal_states reclaims their state; otherwise terminal states
  // stay queryable for the lifecycle audit.
  FlatIdMap<uint32_t> cei_index_;

  // Scan path: the active candidate list in activation order, split into
  // parallel structure-of-arrays columns so the ranking scan streams
  // exactly the bytes it needs: the handle (liveness), and the
  // resource/finish columns that replace the state->cei->eis pointer chase
  // for dedup, gating, and deadline tie-breaks. All columns compact
  // together, stably, every chronon in the rank pass, so between Steps
  // they hold at most one tick's worth of stale entries. Empty on the
  // ordered path.
  std::vector<CandidateEi> slot_cand_;
  std::vector<ResourceId> slot_resource_;
  std::vector<Chronon> slot_finish_;
  // Ordered path: activated EIs whose windows closed since the last
  // selection (SelectFromIndex).
  size_t expired_since_select_ = 0;

  // True when the ordered index ranks (see the file comment): the policy
  // declares ValueStableBetweenCaptures(), costs are uniform and no fault
  // injector is attached.
  bool ordered_ = false;
  // Ordered path: 4-ary min-heap (front = best by RankedBefore) over every
  // activated EI's entry, current or stale. Its capacity is kept at least
  // twice the slot entries (see IndexPush).
  std::vector<IndexEntry> index_;
  // Ordered path: one generation word per states_ index. +2 on every
  // capture of one of the CEI's EIs, low bit set once the CEI is terminal,
  // +1 when the slot is reused by a later arrival — so an index entry is
  // current iff its `gen` still matches, and a slot entry's CEI is
  // terminal iff the low bit is set.
  std::vector<uint32_t> state_gen_;
  // Ordered path: one occupant word per states_ index, +1 each time the
  // slot is reused by a later arrival, so a slot entry admitted for an
  // earlier occupant no longer matches.
  std::vector<uint32_t> state_occupant_;
  // Ordered path: admission sequence number of the next slot entry.
  uint64_t next_seq_ = 0;
  // Ordered path: slot entries held in slots_ or staged, live or spent.
  size_t slot_entries_ = 0;
  // Ordered path: entry visits the round-robin sweep may still spend, and
  // the bucket it filters next.
  int64_t slot_credit_ = 0;
  size_t slot_cursor_ = 0;

  // Backing store for every per-chronon event bucket below. Grows to the
  // high-water chunk population and is never reset — EventRing recycles
  // drained chunks through its free list, so steady state allocates
  // nothing.
  Arena arena_;
  // expiring_ring_[t] = activated EIs whose window closes at t, in
  // activation order; drained at the end of Step(t).
  EventRing<CandidateEi> expiring_ring_;
  // pending_ring_[t] = EIs becoming active at chronon t.
  EventRing<CandidateEi> pending_ring_;
  // push_ring_[t] = resources whose servers push at chronon t.
  EventRing<ResourceId> push_ring_;
  // retire_ring_[t] = terminal CEIs whose last possible reference expires
  // at t; drained at the end of Step(t), which unmaps each id and frees
  // its slot into free_states_ (compact_terminal_states only — otherwise
  // never pushed to).
  EventRing<RetireItem> retire_ring_;
  // Ordered path: slots_[SlotBucket(r)] holds the slot entries of EIs on
  // resource r (among others). No buckets on the scan path.
  EventRing<SlotEntry> slots_;
  // Recycled states_ slots awaiting reuse by AddArrival.
  std::vector<uint32_t> free_states_;
  // compact_terminal_states only (empty otherwise): release_at_[i] is the
  // last chronon at which a pending or expiry bucket may reference
  // states_[i]'s CEI, clamped to the epoch. AddArrival writes it while it
  // walks the EIs, so retiring the state reads neither the Cei nor its EIs.
  std::vector<Chronon> release_at_;
  // Floor for the next RetireTerminalState's release chronon (see above).
  Chronon retire_floor_ = 0;

  // Scratch: marks resources whose content is available this step (R_ids:
  // successful probes and pushes) — these capture their active EIs.
  std::vector<uint8_t> probed_now_;
  // Scratch: marks resources contacted this step (attempts and pushes),
  // successful or not; dedups the greedy walk. Equal to probed_now_ when no
  // injector is attached.
  std::vector<uint8_t> attempted_now_;
  // Per-step scratch for the resources pushed / probed this chronon,
  // reused across chronons (steady state must not allocate).
  std::vector<ResourceId> pushed_now_scratch_;
  std::vector<ResourceId> r_ids_scratch_;
  // Ordered path: slot entries admitted since the last capture sweep,
  // which appends them to their buckets.
  std::vector<SlotEntry> slot_staged_;
  // Ordered path, per-step scratch of the capture sweep: the slot buckets
  // of the chronon's probed and pushed resources, and the live slot entries
  // it captures.
  std::vector<size_t> slot_visits_;
  std::vector<SlotEntry> slot_captures_;

  // The chronon's selection handed to the greedy walk, in rank order. The
  // rank scan fills it (bounded mode uses it as its board, reserved in the
  // constructor), Step sorts it; the ordered index pops into it sorted.
  std::vector<Ranked> merged_;
  // Table mode (allocated on first use): best_at_[r] is the position of
  // resource r's best candidate in merged_, valid iff it is in range and
  // that entry's resource is r — so no per-chronon reset is needed, and
  // stale positions from earlier chronons fail the check.
  std::vector<uint32_t> best_at_;

  // Failure-handling state of the resources attempted so far, created by
  // a resource's first attempt (TouchHealth), so it holds at most
  // sum_j C_j entries, not num_resources; a resource without one is
  // healthy. Empty when no injector is set. The source of truth for
  // health() and the audits; only RecordOutcome (and IssueProbe's
  // half-open transition) write it. The rank scan never reads it.
  FlatIdMap<ResourceHealth> health_;
  // gates_[r] == GateFor(r, health(r)) between outcomes: IssueProbe
  // rewrites it right after RecordOutcome, so at most C words change per
  // chronon. Dense, one word per resource from construction, unlike
  // health_: the rank scan reads one per candidate, on any resource.
  // Empty when no injector is set.
  std::vector<ResourceGate> gates_;
  std::vector<ProbeAttempt> attempt_log_;
  // Fleet incident machinery; allocated only when the injector's spec
  // names incident domains (pay-for-use). detector_ additionally requires
  // incident_detection — the oblivious ablation keeps it null but still
  // tallies the ground-truth exposure counters.
  bool track_incidents_ = false;
  std::unique_ptr<IncidentDetector> detector_;
  // Ground-truth window tracking per domain: inside a bad window, and
  // whether the detector caught it.
  std::vector<uint8_t> gt_in_window_;
  std::vector<uint8_t> gt_window_detected_;

  // The last stepped chronon; every chronon up to it has been stepped.
  Chronon last_step_ = -1;
  SchedulerStats stats_;
  std::function<void(const Cei&)> on_cei_captured_;
  std::function<void(const Cei&)> on_cei_expired_;
  std::function<void(const Cei&)> on_cei_cancelled_;
};

}  // namespace webmon

#endif  // WEBMON_ONLINE_ONLINE_SCHEDULER_H_
