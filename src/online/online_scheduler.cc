#include "online/online_scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "faults/fault_model.h"
#include "faults/incident_detector.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace webmon {

namespace {

// The fault path keeps each resource's gate chronon in 32 bits
// (ResourceGate::probe_from), clamped to the epoch end: reject epochs that
// do not fit before any per-chronon structure is sized from them.
Chronon CheckedEpoch(Chronon num_chronons, const SchedulerOptions& options) {
  WEBMON_CHECK(options.fault_injector == nullptr ||
               num_chronons <= std::numeric_limits<int32_t>::max())
      << "an epoch of " << num_chronons
      << " chronons does not fit the fault path's 32-bit gate chronons";
  return num_chronons;
}

}  // namespace

OnlineScheduler::OnlineScheduler(uint32_t num_resources, Chronon num_chronons,
                                 BudgetVector budget, Policy* policy,
                                 SchedulerOptions options)
    : num_resources_(num_resources),
      num_chronons_(CheckedEpoch(num_chronons, options)),
      budget_(std::move(budget)),
      policy_(policy),
      options_(options),
      // The ordered index needs values that only captures move, one budget
      // unit per probe (so C distinct resources is the whole selection), and
      // probes that always succeed (so every selected resource is captured).
      ordered_(policy != nullptr && policy->ValueStableBetweenCaptures() &&
               options_.resource_costs.empty() &&
               options_.fault_injector == nullptr),
      expiring_ring_(&arena_,
                     static_cast<size_t>(std::max<Chronon>(num_chronons, 0))),
      pending_ring_(&arena_,
                    static_cast<size_t>(std::max<Chronon>(num_chronons, 0))),
      push_ring_(&arena_,
                 static_cast<size_t>(std::max<Chronon>(num_chronons, 0))),
      retire_ring_(&arena_,
                   static_cast<size_t>(std::max<Chronon>(num_chronons, 0))),
      slots_(&arena_, ordered_ ? kSlotBuckets : 0),
      probed_now_(num_resources, 0),
      attempted_now_(num_resources, 0) {
  // Fault bookkeeping is pay-for-use: without an injector no health state
  // exists and the rank scan runs its gate-free instantiation.
  if (options_.fault_injector != nullptr) {
    const FaultSpec& spec = options_.fault_injector->spec();
    if (!spec.incidents.empty()) {
      track_incidents_ = true;
      gt_in_window_.assign(spec.incidents.size(), 0);
      gt_window_detected_.assign(spec.incidents.size(), 0);
      if (options_.fault_handling.incident_detection) {
        detector_ = std::make_unique<IncidentDetector>(
            options_.fault_injector->coverage(), num_resources,
            options_.fault_handling);
      }
    }
    // Every resource starts healthy; its health entry is created by its
    // first recorded outcome, but its gate word exists from the start
    // because the rank scan reads one per candidate.
    const ResourceHealth healthy;
    gates_.reserve(num_resources);
    for (ResourceId r = 0; r < num_resources; ++r) {
      gates_.push_back(GateFor(r, healthy));
    }
  }
  // The per-resource rank table (best_at_) is allocated on first use — the
  // bounded top-C path never needs it. The C-entry board is tiny and
  // reserved up front so the rank phase never grows it.
  merged_.reserve(static_cast<size_t>(kMaxBoundedTopC) + 1);

  // Steady-state capacity hints: everything below also grows on demand,
  // but pre-reserving moves the reallocation burst out of the first
  // chronons (visible in the per-phase timers).
  const SchedulerSizingHints& hints = options_.sizing;
  if (hints.expected_active_eis > 0) {
    if (ordered_) {
      index_.reserve(2 * hints.expected_active_eis);
    } else {
      slot_cand_.reserve(hints.expected_active_eis);
      slot_resource_.reserve(hints.expected_active_eis);
      slot_finish_.reserve(hints.expected_active_eis);
    }
  }
  if (options_.fault_injector != nullptr && hints.expected_attempts > 0) {
    attempt_log_.reserve(hints.expected_attempts);
    // A run of that many attempts touches at most this many resources.
    const size_t touched =
        std::min<size_t>(num_resources, hints.expected_attempts);
    health_.Reserve(touched);
    options_.fault_injector->Reserve(touched);
  }
  if (hints.expected_ceis > 0) {
    cei_index_.Reserve(hints.expected_ceis);
  }
}

OnlineScheduler::~OnlineScheduler() = default;

ResourceHealth OnlineScheduler::health(ResourceId resource) const {
  const ResourceHealth* h = health_.Find(resource);
  return h == nullptr ? ResourceHealth{} : *h;
}

ResourceHealth& OnlineScheduler::TouchHealth(ResourceId resource) {
  // hotpath-alloc-ok: first touch only; pre-sized from expected_attempts
  return *health_.FindOrInsert(resource).first;
}

bool OnlineScheduler::ResourceAvailable(ResourceId resource,
                                        Chronon now) const {
  return gates_.empty() || now >= gates_[resource].probe_from;
}

OnlineScheduler::ResourceGate OnlineScheduler::GateFor(
    ResourceId resource, const ResourceHealth& h) const {
  // Open until the cooldown elapsed; then the half-open trial may go out.
  const Chronon from = h.breaker == ResourceHealth::Breaker::kOpen
                           ? h.open_until
                           : h.retry_not_before;
  ResourceGate gate;
  gate.probe_from =
      static_cast<int32_t>(std::clamp<Chronon>(from, 0, num_chronons_));
  gate.shrink = static_cast<uint8_t>(ShrinkFor(h));
  gate.streak = h.consecutive_failures > 0;
  gate.covered = detector_ != nullptr && detector_->Covers(resource);
  return gate;
}

Chronon OnlineScheduler::ShrinkFor(const ResourceHealth& h) const {
  if (options_.fault_handling.deadline_shrink_cap <= 0) return 0;
  const double f = std::min(h.ewma_failure, 0.95);
  if (f <= 0.0) return 0;
  // Expected extra attempts per successful probe under failure rate f is
  // f/(1-f); each costs at least one chronon of the EI's window.
  const auto extra = static_cast<Chronon>(std::ceil(f / (1.0 - f)));
  return std::min(extra, options_.fault_handling.deadline_shrink_cap);
}

void OnlineScheduler::RecordOutcome(ResourceHealth& h, ResourceId resource,
                                    Chronon now, bool success, double cost) {
  const FaultHandlingOptions& fh = options_.fault_handling;
  if (h.consecutive_failures > 0) {
    ++stats_.probes_retried;
    stats_.retry_budget_spent += cost;
  }
  h.ewma_failure = (1.0 - fh.failure_ewma_alpha) * h.ewma_failure +
                   fh.failure_ewma_alpha * (success ? 0.0 : 1.0);
  if (success) {
    ++h.successes;
    h.consecutive_failures = 0;
    h.retry_not_before = 0;
    if (h.breaker == ResourceHealth::Breaker::kHalfOpen) {
      h.breaker = ResourceHealth::Breaker::kClosed;
      h.cooldown = 0;
    }
    return;
  }
  ++stats_.probes_failed;
  stats_.budget_lost_to_failures += cost;
  ++h.failures;
  ++h.consecutive_failures;
  if (h.breaker == ResourceHealth::Breaker::kHalfOpen) {
    // Failed trial: re-open with the cooldown doubled (capped).
    h.cooldown = std::min(h.cooldown * 2, fh.breaker_max_cooldown);
    h.open_until = now + h.cooldown;
    h.breaker = ResourceHealth::Breaker::kOpen;
    ++stats_.breaker_trips;
    return;
  }
  if (fh.breaker_failure_threshold > 0 &&
      h.consecutive_failures >= fh.breaker_failure_threshold) {
    h.cooldown = fh.breaker_cooldown;
    h.open_until = now + h.cooldown;
    h.breaker = ResourceHealth::Breaker::kOpen;
    ++stats_.breaker_trips;
    return;
  }
  // Capped exponential backoff; the shift is bounded so it cannot overflow.
  const int32_t streak = std::min(h.consecutive_failures, 30);
  Chronon backoff = std::min(fh.backoff_base << (streak - 1), fh.backoff_cap);
  if (backoff < 1) backoff = 1;
  if (fh.backoff_jitter) {
    // Deterministic jitter in [0, backoff/2]: a pure function of the seed,
    // resource, streak, and chronon, so runs replay exactly while retry
    // herds across resources stay desynchronized. Only ever adds delay, so
    // the auditor's pure-backoff lower bound remains valid.
    uint64_t state = fh.jitter_seed ^
                     (0x9E3779B97F4A7C15ULL * (resource + 1)) ^
                     (static_cast<uint64_t>(now) << 20) ^
                     static_cast<uint64_t>(h.consecutive_failures);
    const uint64_t draw = SplitMix64Next(state);
    backoff += static_cast<Chronon>(
        draw % static_cast<uint64_t>(backoff / 2 + 1));
  }
  h.retry_not_before = now + backoff;
}

bool OnlineScheduler::RetryBudgetExhausted() const {
  if (options_.fault_injector == nullptr) return false;
  const double cap = options_.fault_injector->spec().retry_budget;
  return cap >= 0.0 && stats_.retry_budget_spent >= cap;
}

Status OnlineScheduler::AddPush(ResourceId resource, Chronon t) {
  if (resource >= num_resources_) {
    return Status::OutOfRange("pushed resource out of range");
  }
  if (t < 0 || t >= num_chronons_) {
    return Status::OutOfRange("push chronon outside the epoch");
  }
  if (t <= last_step_) {
    return Status::FailedPrecondition(
        "pushes must precede the Step for their chronon");
  }
  push_ring_.Push(t, resource);
  return Status::OK();
}

Status OnlineScheduler::AddArrival(const Cei* cei, Chronon now) {
  if (cei == nullptr || cei->eis.empty()) {
    return Status::InvalidArgument("arriving CEI must have at least one EI");
  }
  if (now < 0 || now >= num_chronons_) {
    return Status::OutOfRange("arrival chronon outside the epoch");
  }
  if (now != last_step_ + 1) {
    return Status::FailedPrecondition(
        "arrivals must be for the next chronon to step");
  }
  if (cei_index_.Find(cei->id) != nullptr) {
    return Status::InvalidArgument("CEI " + std::to_string(cei->id) +
                                   " is already registered");
  }
  uint32_t state_index;
  if (!free_states_.empty()) {
    // Recycle a reclaimed slot (compact_terminal_states): by the release-
    // chronon argument in RetireTerminalState no index structure still
    // references the old occupant, so overwriting it is invisible.
    state_index = free_states_.back();
    free_states_.pop_back();
    states_[state_index] = CeiState(cei);
    if (ordered_) {
      // Only terminal states are reclaimed, so the word is odd: the new
      // occupant starts even, above every generation its predecessor had.
      ++state_gen_[state_index];
      ++state_occupant_[state_index];
    }
  } else {
    states_.emplace_back(cei);
    state_index = static_cast<uint32_t>(states_.size() - 1);
    if (ordered_) {
      state_gen_.push_back(0);
      state_occupant_.push_back(0);
    }
    if (options_.compact_terminal_states) release_at_.push_back(0);
  }
  CeiState* state = &states_[state_index];
  state->index = state_index;
  // Amortized map growth; pre-reservable through
  // SchedulerSizingHints::expected_ceis. Outside the Step hot path, so the
  // zero-allocation tick contract is untouched.
  cei_index_.Insert(cei->id, state_index);
  ++stats_.ceis_seen;
  stats_.eis_seen += static_cast<int64_t>(cei->eis.size());

  // EIs whose windows have already closed on arrival count as failed; the
  // CEI is dead on arrival when the remaining EIs cannot satisfy it
  // (cannot happen for instances passing ProblemInstance::Validate, but
  // the streaming Proxy may submit late). The same walk finds the last
  // chronon at which a pending or expiry bucket may still reference the
  // state: an EI starting inside the epoch sits in its finish bucket when
  // its window closes inside the epoch, else only in its start bucket (EIs
  // starting at or beyond the epoch end are never indexed). Whether each
  // reference is later drained or skipped does not matter: after that
  // chronon none can be read again.
  Chronon held_until = 0;
  for (uint32_t i = 0; i < state->num_eis; ++i) {
    const ExecutionInterval& ei = cei->eis[i];
    if (ei.finish < now) {
      state->SetFailed(i);
      ++state->num_failed;
    }
    if (ei.start < num_chronons_) {
      held_until = std::max(
          held_until, ei.finish < num_chronons_ ? ei.finish : ei.start);
    }
  }
  if (options_.compact_terminal_states) {
    release_at_[state_index] = std::min(held_until, num_chronons_ - 1);
  }
  if (state->BeyondRepair()) {
    state->dead = true;
    if (ordered_) state_gen_[state_index] |= 1;
    ++stats_.ceis_expired;
    // Dead on arrival: nothing was indexed, so the state is reclaimable as
    // soon as this chronon's step completes.
    retire_floor_ = now;
    RetireTerminalState(*state);
    if (on_cei_expired_) on_cei_expired_(*cei);
    return Status::OK();
  }

  for (uint32_t i = 0; i < cei->eis.size(); ++i) {
    const ExecutionInterval& ei = cei->eis[i];
    if (state->Failed(i)) continue;
    CandidateEi cand{state, i};
    if (ei.start <= now) {
      AdmitActive(cand, now);
    } else if (ei.start < num_chronons_) {
      pending_ring_.Push(ei.start, cand);
    }
    // EIs starting at or beyond the epoch end can never be probed; the CEI
    // will die when too many siblings expire or the epoch ends.
  }
  return Status::OK();
}

Status OnlineScheduler::AddArrivalBatch(const std::vector<const Cei*>& batch,
                                        Chronon now) {
  if (batch.empty()) return Status::OK();
  for (const Cei* cei : batch) {
    WEBMON_RETURN_IF_ERROR(AddArrival(cei, now));
  }
  ++stats_.drain_batches;
  stats_.drained_arrivals += static_cast<int64_t>(batch.size());
  return Status::OK();
}

Status OnlineScheduler::RemoveCei(CeiId id, Chronon now) {
  if (now < 0 || now >= num_chronons_) {
    return Status::OutOfRange("cancel chronon outside the epoch");
  }
  if (now != last_step_ + 1) {
    return Status::FailedPrecondition(
        "cancels must be for the next chronon to step");
  }
  const uint32_t* index = cei_index_.Find(id);
  if (index == nullptr) {
    if (options_.compact_terminal_states) {
      // With terminal-state reclamation the only forgotten ids are CEIs
      // that already reached a terminal state — exactly the case the
      // uncompacted scheduler resolves as a deterministic no-op cancel.
      // (Ids never assigned at all cannot reach here through the Proxy:
      // the mailbox rejects them with NotFound before the drain.)
      ++stats_.cancels_noop;
      return Status::OK();
    }
    return Status::NotFound("cancel names unknown CEI " + std::to_string(id));
  }
  const uint32_t state_index = *index;
  CeiState* state = &states_[state_index];
  if (state->dead || state->Complete()) {
    // The CEI already reached a terminal state (captured, expired, or a
    // second direct cancel). Deterministic no-op: the race between a cancel
    // and a same-chronon capture/expiry was resolved by mailbox sequence
    // when the cancel was accepted, and a cancel sequenced after the
    // terminal event simply finds nothing left to remove.
    ++stats_.cancels_noop;
    return Status::OK();
  }
  state->cancelled = true;
  state->dead = true;
  if (ordered_) state_gen_[state_index] |= 1;
  ++stats_.ceis_cancelled;

  // The flags alone remove the CEI from ranking and capture as of this
  // chronon: the slot columns, top-C boards and the policy's BeginChronon
  // view screen on IsLive() / !dead, the ordered index and slot buckets on
  // the generation word, and Activate and ProcessExpiries skip its pending
  // and expiry entries where those buckets drain, as they skip a captured
  // or expired CEI's. Its slot-column entries fall to the rank pass
  // Step(now) runs, so the state is releasable once every ring bucket that
  // still names it has drained (RetireTerminalState's release formula).
  retire_floor_ = now;
  RetireTerminalState(*state);
  if (on_cei_cancelled_) on_cei_cancelled_(*state->cei);
  return Status::OK();
}

Status OnlineScheduler::RemoveCeiBatch(const std::vector<CeiId>& batch,
                                       Chronon now) {
  for (CeiId id : batch) {
    WEBMON_RETURN_IF_ERROR(RemoveCei(id, now));
  }
  return Status::OK();
}

CeiLifecycle OnlineScheduler::LifecycleOf(CeiId id) const {
  const uint32_t* index = cei_index_.Find(id);
  if (index == nullptr) return CeiLifecycle::kUnknown;
  const CeiState& state = states_[*index];
  if (state.cancelled) return CeiLifecycle::kCancelled;
  if (state.Complete()) return CeiLifecycle::kCaptured;
  if (state.dead) return CeiLifecycle::kExpired;
  return CeiLifecycle::kPending;
}

void OnlineScheduler::AdmitActive(const CandidateEi& cand, Chronon now) {
  const ExecutionInterval& ei = cand.ei();
  if (ordered_) {
    const uint32_t state = cand.state->index;
    // hotpath-alloc-ok: retained capacity
    slot_staged_.push_back(SlotEntry{next_seq_++, ei.finish, state,
                                     state_occupant_[state], ei.resource,
                                     cand.ei_index});
    ++slot_entries_;
    slot_credit_ += 2;  // what SweepSlots may spend on this EI
    // The slot entries hold every current index entry's EI, so a heap of
    // twice their number leaves a rebuild at least half of it free. The
    // capacity doubles ahead of them (pre-reservable through
    // SchedulerSizingHints::expected_active_eis).
    if (index_.capacity() < 2 * slot_entries_) {
      index_.reserve(4 * slot_entries_);
    }
    IndexPush(cand, state, now);
  } else {
    // Amortized column growth, pre-reservable through
    // SchedulerSizingHints::expected_active_eis.
    slot_cand_.push_back(cand);         // hotpath-alloc-ok: amortized growth
    slot_resource_.push_back(ei.resource);  // hotpath-alloc-ok: amortized
    slot_finish_.push_back(ei.finish);  // hotpath-alloc-ok: amortized growth
  }
  if (ei.finish < num_chronons_) {
    expiring_ring_.Push(ei.finish, cand);
  }
  // EIs closing at or beyond the epoch end never hit an expiry bucket; they
  // leave the slot columns or buckets only through capture, CEI death, or
  // stale-entry pruning.
}

void OnlineScheduler::Activate(Chronon now) {
  pending_ring_.Drain(now, [this, now](const CandidateEi& cand) {
    if (cand.state->dead || cand.state->Complete()) return;
    AdmitActive(cand, now);
  });
}

void OnlineScheduler::RetireTerminalState(const CeiState& s) {
  if (!options_.compact_terminal_states) return;
  // release_at_ is already clamped to the epoch's last chronon; the floor
  // reaches num_chronons_ when the last chronon's sweep retires a state.
  const Chronon release = std::max(
      std::min(retire_floor_, num_chronons_ - 1), release_at_[s.index]);
  retire_ring_.Push(release, RetireItem{s.cei->id, s.index});
}

void OnlineScheduler::MarkFailed(const CandidateEi& cand) {
  if (!cand.IsLive()) return;
  CeiState& s = *cand.state;
  s.SetFailed(cand.ei_index);
  ++s.num_failed;
  if (s.BeyondRepair()) {
    s.dead = true;
    if (ordered_) state_gen_[s.index] |= 1;
    ++stats_.ceis_expired;
    RetireTerminalState(s);
    if (on_cei_expired_) on_cei_expired_(*s.cei);
  }
}

void OnlineScheduler::ProcessExpiries(Chronon now) {
  // A CEI dying here still has slot-column entries until the next rank
  // pass prunes them, so its state releases no earlier than now + 1.
  retire_floor_ = now + 1;
  expired_since_select_ += expiring_ring_.Size(now);
  expiring_ring_.Drain(now,
                       [this](const CandidateEi& cand) { MarkFailed(cand); });
}

namespace {

// The ordered index is a 4-ary min-heap (front = best): half the depth of
// a binary heap, so a pop waits on half as many cache misses down a heap
// far larger than L2, while a node's children share adjacent cache lines.
// On perfbench resident (4-vCPU VM) it ran ~12% more chronons/s than
// std::push_heap/pop_heap over the same entries, winning 13 of 15 rounds
// of alternating runs.
constexpr size_t kHeapArity = 4;

template <typename T, typename Before>
void HeapSiftUp(std::vector<T>& heap, size_t i, const Before& before) {
  const T item = heap[i];
  while (i > 0) {
    const size_t parent = (i - 1) / kHeapArity;
    if (!before(item, heap[parent])) break;
    heap[i] = heap[parent];
    i = parent;
  }
  heap[i] = item;
}

template <typename T, typename Before>
void HeapSiftDown(std::vector<T>& heap, size_t i, const Before& before) {
  const size_t n = heap.size();
  if (i >= n) return;
  const T item = heap[i];
  for (;;) {
    const size_t first = i * kHeapArity + 1;
    if (first >= n) break;
    const size_t end = std::min(first + kHeapArity, n);
    size_t best = first;
    for (size_t c = first + 1; c < end; ++c) {
      if (before(heap[c], heap[best])) best = c;
    }
    if (!before(heap[best], item)) break;
    heap[i] = heap[best];
    i = best;
  }
  heap[i] = item;
}

// The key fields RankedBefore reads beyond value/finish/started: the scan's
// candidates reach the CEI id through the handle, index entries carry it.
template <typename Key>
CeiId CeiIdOf(const Key& k) {
  if constexpr (requires { k.cei_id; }) {
    return k.cei_id;
  } else {
    return k.cand.state->cei->id;
  }
}
template <typename Key>
uint32_t EiIndexOf(const Key& k) {
  if constexpr (requires { k.ei_index; }) {
    return k.ei_index;
  } else {
    return k.cand.ei_index;
  }
}

}  // namespace

template <typename Key>
bool OnlineScheduler::RankedBefore(const Key& a, const Key& b,
                                   bool split_started) {
  if (split_started && a.started != b.started) {
    // Non-preemptive: EIs of previously probed CEIs (cands+) strictly
    // before fresh ones (cands-).
    return a.started;
  }
  if (a.value != b.value) return a.value < b.value;
  if (a.finish != b.finish) return a.finish < b.finish;  // earlier deadline
  if (CeiIdOf(a) != CeiIdOf(b)) return CeiIdOf(a) < CeiIdOf(b);
  return EiIndexOf(a) < EiIndexOf(b);
}

void OnlineScheduler::MoveSlot(size_t to, size_t from) {
  slot_cand_[to] = slot_cand_[from];
  slot_resource_[to] = slot_resource_[from];
  slot_finish_[to] = slot_finish_[from];
}

void OnlineScheduler::ResizeSlots(size_t n) {
  slot_cand_.resize(n);
  slot_resource_.resize(n);
  slot_finish_.resize(n);
}

template <bool kFaulty>
void OnlineScheduler::RankScan(Chronon now, bool compute_values, size_t top_c,
                               bool check_attempted) {
  const size_t n = slot_cand_.size();
  const bool split_started = !options_.preemptive;
  // Fault gates (kFaulty only): the retry-budget state is fixed for the
  // whole rank phase, and so is the detector's, which a fleet-breaker trial
  // issued ahead of the scan may have just closed. While no domain is open
  // no resource is suppressed, so the detector is not consulted at all.
  const bool no_retries = kFaulty && RetryBudgetExhausted();
  const IncidentDetector* detector =
      kFaulty && detector_ != nullptr && detector_->AnyOpen() ? detector_.get()
                                                              : nullptr;

  // The fault-shrunk chronon a candidate closing at `finish` on resource r
  // is valued at. On healthy resources (and always without an injector) the
  // shrink is 0.
  auto valued_at = [&](Chronon finish, ResourceId r) {
    const Chronon shrink = kFaulty ? gates_[r].shrink : 0;
    return shrink == 0 ? now : std::min(now + shrink, finish);
  };
  // Skip resources already served by a push or fleet trial (the legacy
  // greedy walk skipped their candidates one by one, so dropping them
  // pre-selection issues the identical probes). check_attempted is false
  // when nothing was contacted before the rank phase, skipping the table
  // lookup entirely. With an injector, the candidate's own resource is
  // then gated by backoff or an open breaker, a spent retry budget, and
  // fleet-breaker suppression. Every gate is stable within the rank phase
  // (health, the retry spend and the detector change only when outcomes
  // are recorded, after ranking), so gating per candidate selects exactly
  // what a per-resource pre-pass would.
  auto eligible = [&](ResourceId r) {
    if (check_attempted && attempted_now_[r]) return false;
    if constexpr (kFaulty) {
      const ResourceGate gate = gates_[r];
      WEBMON_DCHECK(gate == GateFor(r, health(r)))
          << "stale gate word of resource " << r << " at chronon " << now;
      if (now < gate.probe_from) return false;
      if (no_retries && gate.streak) {
        // The retry budget is spent: resources with a live failure streak
        // stop being offered for the rest of the run.
        ++stats_.retries_suppressed;
        return false;
      }
      if (gate.covered && detector != nullptr && detector->Suppressed(r)) {
        // A covering fleet breaker is open and this resource is not the
        // chronon's end-of-incident trial: withhold the probe and let the
        // budget flow to unaffected work.
        ++stats_.incident_probes_suppressed;
        return false;
      }
    }
    return true;
  };

  size_t w = 0;
  if (compute_values && top_c > 0) {
    // Bounded top-C (uniform costs, C <= kMaxBoundedTopC): keep the C
    // best-ranked candidates over distinct resources on a small board
    // instead of a per-resource table. Sound because RankedBefore is a
    // position-independent strict total order: a candidate skipped or
    // evicted while the board is full is beaten by C entries for C
    // distinct other resources, each of which upper-bounds its own
    // resource's best — so the skipped resource cannot be in the top-C of
    // per-resource bests, and every true top-C resource's best survives on
    // the board exactly.
    std::vector<Ranked>& kept = merged_;
    // Once the board is full, `bar` is a copy of its worst entry: the
    // common case, a candidate that cannot beat it, is rejected against a
    // local without touching the board.
    bool full = false;
    size_t worst = 0;
    Ranked bar{};
    for (size_t i = 0; i < n; ++i) {
      const CandidateEi cand = slot_cand_[i];
      if (!cand.IsLive()) continue;  // lazy stale-entry removal
      // Compact first (slot i stays readable), so ranking may stop early.
      if (w != i) MoveSlot(w, i);
      ++w;
      const ResourceId r = slot_resource_[i];
      if (!eligible(r)) continue;
      const Chronon finish = slot_finish_[i];
      const Chronon t = valued_at(finish, r);
      const bool started = split_started && cand.state->Started();
      // Bound before valuing: a candidate RankedBefore provably puts behind
      // the bar is skipped before its Value. In the bar's started class
      // that takes a value floor above the bar's value (at equal values
      // the deadline and id could still win); a fresh candidate behind a
      // started bar loses whatever its value. A started candidate always
      // beats a fresh bar. Only finite floors skip, so a policy keeping
      // the default floor is valued exactly as before.
      if (full && (bar.started || !started)) {
        const double floor = policy_->ValueFloor(cand, finish, t, now);
        if (floor > (started == bar.started
                         ? bar.value
                         : -std::numeric_limits<double>::infinity())) {
          WEBMON_DCHECK_LE(floor, policy_->Value(cand, t))
              << "value floor of CEI " << cand.state->cei->id << " EI "
              << cand.ei_index << " at chronon " << now;
          continue;
        }
      }
      const Ranked cur{cand, policy_->Value(cand, t), finish, r, started};
      // A full board whose worst entry outranks the candidate cannot
      // change — not even via resource dedup: the board's entry for this
      // resource, if any, outranks it too.
      if (full && !RankedBefore(cur, bar, split_started)) continue;
      size_t j = 0;
      while (j < kept.size() && kept[j].resource != r) ++j;
      if (j < kept.size()) {
        if (RankedBefore(cur, kept[j], split_started)) kept[j] = cur;
      } else if (full) {
        kept[worst] = cur;
      } else {
        // The board is reserved to kMaxBoundedTopC+1 in the constructor,
        // so this never reallocates.
        kept.push_back(cur);  // hotpath-alloc-ok: board reserved in ctor
        full = kept.size() == top_c;
      }
      if (full) {
        worst = 0;
        for (size_t k = 1; k < kept.size(); ++k) {
          if (RankedBefore(kept[worst], kept[k], split_started)) worst = k;
        }
        bar = kept[worst];
      }
    }
    ResizeSlots(w);
    return;
  }

  // The table is allocated by the first table-mode scan and never resized.
  if (compute_values && best_at_.size() != num_resources_) {
    best_at_.assign(num_resources_, 0);
  }
  for (size_t i = 0; i < n; ++i) {
    const CandidateEi cand = slot_cand_[i];
    if (!cand.IsLive()) continue;  // lazy stale-entry removal
    if (compute_values) {
      const ResourceId r = slot_resource_[i];
      if (eligible(r)) {
        const Chronon finish = slot_finish_[i];
        const Ranked cur{cand, policy_->Value(cand, valued_at(finish, r)),
                         finish, r, split_started && cand.state->Started()};
        const uint32_t at = best_at_[r];
        if (at >= merged_.size() || merged_[at].resource != r) {
          best_at_[r] = static_cast<uint32_t>(merged_.size());
          merged_.push_back(cur);  // hotpath-alloc-ok: retained capacity
        } else if (RankedBefore(cur, merged_[at], split_started)) {
          merged_[at] = cur;
        }
      }
    }
    // Compact in place, writing only across gaps left by pruned slots —
    // the common all-live tick touches no memory beyond the reads.
    if (w != i) MoveSlot(w, i);
    ++w;
  }
  ResizeSlots(w);
}

bool OnlineScheduler::IssueProbe(ResourceId resource, Chronon now,
                                 double cost) {
  attempted_now_[resource] = 1;
  ++stats_.probes_issued;
  policy_->NotifyProbed(resource, now);
  FaultInjector* injector = options_.fault_injector;
  if (injector == nullptr) return true;
  // The attempt's one health lookup: the entry is passed on to the outcome
  // and the gate derivation below.
  ResourceHealth& h = TouchHealth(resource);
  if (h.breaker == ResourceHealth::Breaker::kOpen) {
    // The cooldown elapsed (ResourceAvailable); this attempt is the
    // half-open trial.
    h.breaker = ResourceHealth::Breaker::kHalfOpen;
  }
  const ProbeOutcome outcome = injector->OnProbe(resource, now);
  uint8_t inc_flags = 0;
  if (track_incidents_) {
    if (detector_ != nullptr && detector_->OpenFor(resource)) {
      // A covering fleet breaker is open yet the probe went out: by
      // construction this is a domain's end-of-incident trial. (A due trial
      // keeps its domain open until its own success is recorded, so trials
      // issued ahead of the ranked walk always land here.)
      inc_flags |= ProbeAttempt::kDetectorOpen;
      ++stats_.incident_trial_probes;
    }
    if (injector->ResourceInIncident(resource, now)) {
      inc_flags |= ProbeAttempt::kFleetIncident;
    }
  }
  // hotpath-alloc-ok: fault-path log, reservable via sizing hints
  attempt_log_.push_back({resource, now, outcome, inc_flags});
  const bool success = ProbeSucceeded(outcome);
  RecordOutcome(h, resource, now, success, cost);
  gates_[resource] = GateFor(resource, h);
  if (detector_ != nullptr) detector_->RecordAttempt(resource, now, success);
  return success;
}

Status OnlineScheduler::RecordProbe(ResourceId resource, Chronon now,
                                    Schedule* schedule) {
  probed_now_[resource] = 1;
  r_ids_scratch_.push_back(resource);  // hotpath-alloc-ok: retained capacity
  return schedule != nullptr ? schedule->AddProbe(resource, now)
                             : Status::OK();
}

bool OnlineScheduler::Capture(const CandidateEi& cand, Chronon now) {
  CeiState& s = *cand.state;
  // A capture is only legal inside the EI's window [T_s, T_f].
  WEBMON_DCHECK(cand.ei().Contains(now))
      << "capturing EI " << cand.ei().ToString() << " outside its window";
  s.SetCaptured(cand.ei_index);
  ++s.num_captured;
  ++stats_.eis_captured;
  if (ordered_) state_gen_[s.index] += 2;
  if (!s.Complete()) return false;
  if (ordered_) state_gen_[s.index] |= 1;
  ++stats_.ceis_captured;
  RetireTerminalState(s);
  if (on_cei_captured_) on_cei_captured_(*s.cei);
  return true;
}

void OnlineScheduler::IndexPush(const CandidateEi& cand, uint32_t state,
                                Chronon now) {
  if (index_.size() >= 2 * slot_entries_) RebuildIndex(now);
  const CeiState& s = *cand.state;
  // hotpath-alloc-ok: never grows, a rebuild leaves half the capacity free
  index_.push_back({policy_->Value(cand, now), cand.ei().finish, s.cei->id,
                    state, state_gen_[state], cand.ei_index, s.Started()});
  HeapSiftUp(index_, index_.size() - 1, IndexBefore());
}

void OnlineScheduler::RebuildIndex(Chronon now) {
  std::erase_if(index_,
                [&](const IndexEntry& e) { return !IndexCurrent(e, now); });
  WEBMON_DCHECK_LE(index_.size(), slot_entries_)
      << "more current index entries than slot entries";
  for (size_t i = index_.size() / kHeapArity + 1; i-- > 0;) {
    HeapSiftDown(index_, i, IndexBefore());
  }
}

void OnlineScheduler::SelectFromIndex(Chronon now, size_t top_c) {
  // Each window closed since the last selection left a stale entry that
  // would be popped on its own, for ~log4(H) cache-missing steps. Once they
  // exceed 1/32 of the heap, one sequential rebuild deletes them for less.
  if (32 * expired_since_select_ > index_.size()) RebuildIndex(now);
  expired_since_select_ = 0;
  const bool split_started = !options_.preemptive;
  while (merged_.size() < top_c && !index_.empty()) {
    const IndexEntry e = index_.front();
    index_.front() = index_.back();
    index_.pop_back();
    if (!index_.empty()) HeapSiftDown(index_, 0, IndexBefore());
    if (!IndexCurrent(e, now)) continue;  // lazy deletion
    CeiState* state = &states_[e.state];
    const ResourceId r = state->cei->eis[e.ei_index].resource;
    // Pushed this chronon, or already selected through a better entry: the
    // resource's content is available either way, so the capture sweep
    // captures this EI and its entry is spent.
    if (attempted_now_[r]) continue;
    attempted_now_[r] = 1;
    // hotpath-alloc-ok: retained capacity
    merged_.push_back({CandidateEi{state, e.ei_index}, e.value, e.finish, r,
                       split_started && e.started});
  }
  // The walk marks the resources it contacts itself.
  for (const Ranked& sel : merged_) attempted_now_[sel.resource] = 0;
}

void OnlineScheduler::RekeyCei(uint32_t state, Chronon now) {
  CeiState& s = states_[state];
  for (uint32_t i = 0; i < s.num_eis; ++i) {
    if (s.Spent(i)) continue;
    const ExecutionInterval& ei = s.cei->eis[i];
    // A window closing now is spent: captured now or failed after the
    // sweep. Indexed iff activated: every EI starting by now was admitted
    // on arrival or by Activate at its start chronon.
    if (ei.finish > now && ei.start <= now) {
      IndexPush(CandidateEi{&s, i}, state, now);
    }
  }
}

void OnlineScheduler::CaptureSlots(Chronon now) {
  // The scan's floor: a CEI completing here releases its state no earlier
  // than now + 1 on either path.
  retire_floor_ = now + 1;
  // One batch of independent appends overlaps the cache misses of cold
  // bucket tails, which appends made one at a time on admission waited on
  // in turn.
  for (const SlotEntry& e : slot_staged_) {
    slots_.Push(static_cast<int64_t>(SlotBucket(e.resource)), e);
  }
  slot_staged_.clear();
  // Each bucket holding a probed or pushed resource, once.
  slot_visits_.clear();
  for (ResourceId r : r_ids_scratch_) {
    slot_visits_.push_back(SlotBucket(r));  // hotpath-alloc-ok: retained
  }
  for (ResourceId r : pushed_now_scratch_) {
    slot_visits_.push_back(SlotBucket(r));  // hotpath-alloc-ok: retained
  }
  // total-order: plain integers.
  std::sort(slot_visits_.begin(), slot_visits_.end());
  slot_visits_.erase(std::unique(slot_visits_.begin(), slot_visits_.end()),
                     slot_visits_.end());
  slot_captures_.clear();
  for (const size_t bucket : slot_visits_) {
    slots_.Visit(static_cast<int64_t>(bucket), [&](const SlotEntry& e) {
      if (!probed_now_[e.resource] || !SlotHeld(e, now)) return;
      if (CandidateEi{&states_[e.state], e.ei_index}.IsLive()) {
        slot_captures_.push_back(e);  // hotpath-alloc-ok: retained capacity
      }
    });
  }
  // Admission order is the scan's activation order, so sibling captures (a
  // CEI completing mid-sweep stops capturing) and the completion callbacks
  // match the scan path's capture sweep.
  // total-order: admission sequence numbers are unique.
  std::sort(slot_captures_.begin(), slot_captures_.end(),
            [](const SlotEntry& a, const SlotEntry& b) {
              return a.seq < b.seq;
            });
  for (const SlotEntry& e : slot_captures_) {
    const CandidateEi cand{&states_[e.state], e.ei_index};
    // An earlier capture may have completed the CEI, or its callback
    // cancelled it.
    if (cand.IsLive() && !Capture(cand, now)) RekeyCei(e.state, now);
  }
  // Every entry on a probed or pushed resource is captured or spent (EIs
  // a callback admitted for a later chronon are still staged).
  for (const size_t bucket : slot_visits_) {
    slot_entries_ -= slots_.Filter(
        static_cast<int64_t>(bucket), [&](const SlotEntry& e) {
          return !probed_now_[e.resource] && SlotHeld(e, now + 1);
        });
  }
}

void OnlineScheduler::SweepSlots(Chronon now) {
  while (slot_credit_ > 0 && slot_entries_ > 0) {
    const auto bucket = static_cast<int64_t>(slot_cursor_);
    slot_credit_ -=
        static_cast<int64_t>(std::max<size_t>(slots_.Size(bucket), 1));
    slot_entries_ -= slots_.Filter(
        bucket, [&](const SlotEntry& e) { return SlotHeld(e, now + 1); });
    slot_cursor_ = (slot_cursor_ + 1) & (kSlotBuckets - 1);
  }
}

Status OnlineScheduler::Step(Chronon now, Schedule* schedule,
                             std::vector<ResourceId>* probed) {
  if (now < 0 || now >= num_chronons_) {
    return Status::OutOfRange("step chronon outside the epoch");
  }
  if (now != last_step_ + 1) {
    return Status::FailedPrecondition(
        "chronons must be stepped once each, in order from 0");
  }
  if (!options_.resource_costs.empty() &&
      options_.resource_costs.size() != num_resources_) {
    return Status::InvalidArgument(
        "resource_costs must have one entry per resource");
  }
  last_step_ = now;
  // This chronon's attempts are the attempt log's tail from here (empty
  // without an injector).
  const size_t first_attempt = attempt_log_.size();
  if (probed) probed->clear();
  if (track_incidents_) UpdateIncidentState(now);

  Stopwatch phase;
  // --- Index maintenance: O(events), not O(active). Admit this chronon's
  // activations (the previous Step already closed every window that ended
  // before `now`).
  Activate(now);

  // --- Server pushes: free captures, no budget consumed. ---
  pushed_now_scratch_.clear();
  push_ring_.Drain(now, [&](ResourceId r) {
    if (probed_now_[r]) return;
    probed_now_[r] = 1;
    attempted_now_[r] = 1;  // a pushed resource needs no probe this chronon
    // hotpath-alloc-ok: capacity retained across chronons.
    pushed_now_scratch_.push_back(r);
    ++stats_.pushes_delivered;
  });
  stats_.activate_seconds += phase.ElapsedSeconds();

  phase.Reset();
  // The policy sees the slot list before this chronon's rank pass prunes
  // it: its IsLive() entries are exactly the active set, in activation
  // order. The ordered path keeps no slot list, so value-stable policies
  // see an empty one.
  policy_->BeginChronon(slot_cand_, now);

  // --- probeEIs: greedy selection of resources within the budget. One
  // fused pass compacts the flat candidate list and computes each
  // available resource's best candidate (resource dedup); the bounded
  // top-C selection and merge restore the documented global order, so the
  // serial walk below issues byte-identical probes to the legacy full sort
  // over all candidates. On budget-0 chronons the pass still runs for its
  // compaction (the legacy per-tick Compact), but calls no policy Value —
  // stochastic policies must not see extra draws.
  const int64_t budget = budget_.At(now);
  const bool uniform_costs = options_.resource_costs.empty();
  const bool split_started = !options_.preemptive;
  r_ids_scratch_.clear();  // resources probed this chronon
  const double capacity = static_cast<double>(budget);
  double cost_used = 0.0;
  int64_t attempts = 0;

  // --- Fleet-breaker trials: a domain whose breaker is open gets its due
  // end-of-incident trial issued ahead of the ranked walk — the ranking
  // would almost never pick that exact resource, and without trials the
  // breaker could never observe recovery and close. Trials spend budget
  // like any probe and respect the per-resource gates (backoff, breaker,
  // retry budget), so the fault audit's discipline still holds; marking
  // the resource attempted_now_ excludes it from the ranking below. ---
  if (detector_ != nullptr && budget > 0) {
    for (size_t d = 0; d < detector_->num_domains(); ++d) {
      ResourceId r = 0;
      if (!detector_->TrialDue(d, &r)) continue;
      if (attempted_now_[r]) continue;  // push or an earlier domain's trial
      if (!ResourceAvailable(r, now)) continue;
      if (gates_[r].streak && RetryBudgetExhausted()) continue;
      const double cost = uniform_costs ? 1.0 : options_.resource_costs[r];
      if (cost_used + cost > capacity) break;
      cost_used += cost;
      ++attempts;
      if (!IssueProbe(r, now, cost)) continue;  // budget spent, no capture
      // A successful trial enters the schedule only when it can legally
      // capture — some live candidate EI on the resource has a window
      // containing `now`. Otherwise it was a pure health check: the
      // attempt log records it (tagged kDetectorOpen), but the schedule
      // holds only window-legal probes (AuditFaultRun exempts exactly
      // these successes from the schedule/log agreement).
      bool capturable = false;
      for (size_t i = 0; i < slot_cand_.size() && !capturable; ++i) {
        capturable = slot_resource_[i] == r && slot_cand_[i].IsLegalAt(now);
      }
      if (capturable) WEBMON_RETURN_IF_ERROR(RecordProbe(r, now, schedule));
    }
  }

  merged_.clear();
  const size_t n = slot_cand_.size();
  const size_t top_c = static_cast<size_t>(std::min<int64_t>(
      budget, static_cast<int64_t>(num_resources_) + 1));
  if (ordered_) {
    // No Value calls here: the index computed them on admission and
    // re-keying.
    if (budget > 0) SelectFromIndex(now, top_c);
  } else if (n > 0) {
    const bool compute_values = budget > 0;
    const bool bounded = uniform_costs && budget <= kMaxBoundedTopC;
    // Whether anything was contacted before the rank phase (pushes, fleet
    // trials). Usually nothing was, and the scan skips the per-candidate
    // attempted_now_ lookup.
    const bool check_attempted = !pushed_now_scratch_.empty() || attempts > 0;
    const size_t scan_top_c = bounded ? top_c : 0;
    // The scan is instantiated on whether an injector is attached, so the
    // fault-free scan carries no gate branches.
    if (gates_.empty()) {
      RankScan<false>(now, compute_values, scan_top_c, check_attempted);
    } else {
      RankScan<true>(now, compute_values, scan_top_c, check_attempted);
    }
    // merged_ holds one candidate per resource: the board's C (bounded),
    // or every eligible resource's best (table). Under uniform costs at
    // most C distinct resources are probed, so only the C best matter.
    // (With varying costs a cheap candidate beyond the C-th may still fit,
    // so every resource's best is kept.)
    if (uniform_costs && merged_.size() > top_c) {
      std::nth_element(merged_.begin(),
                       merged_.begin() + static_cast<std::ptrdiff_t>(top_c),
                       merged_.end(),
                       [split_started](const Ranked& a, const Ranked& b) {
                         return RankedBefore(a, b, split_started);
                       });
      merged_.resize(top_c);
    }
    // total-order: RankedBefore breaks every tie down to the unique
    // (CEI id, EI index) pair — no equal elements.
    std::sort(merged_.begin(), merged_.end(),
              [split_started](const Ranked& a, const Ranked& b) {
                return RankedBefore(a, b, split_started);
              });
  }
  stats_.rank_seconds += phase.ElapsedSeconds();

  phase.Reset();
  if (!merged_.empty()) {
#if WEBMON_DCHECK_IS_ON()
    // Preemption legality: in non-preemptive mode the ranking must serve
    // every EI of a started CEI (cands+) before any fresh one (cands-).
    if (split_started) {
      bool seen_fresh = false;
      for (const Ranked& sel : merged_) {
        WEBMON_DCHECK(!(sel.started && seen_fresh))
            << "non-preemptive ranking put a fresh CEI before a started one "
               "at chronon "
            << now;
        seen_fresh = seen_fresh || !sel.started;
      }
    }
#endif

    // With uniform costs the chronon records at most min(C, trials +
    // ranked resources) probes: with room for them, the schedule's list for
    // this chronon grows once instead of at every doubling.
    if (schedule != nullptr && uniform_costs) {
      schedule->ReserveProbesAt(
          now, std::min(static_cast<size_t>(budget),
                        r_ids_scratch_.size() + merged_.size()));
    }
    // With uniform costs every probe consumes one budget unit; with the
    // varying-cost extension, probing r consumes resource_costs[r] of the
    // chronon's cost capacity and cheaper candidates further down the
    // ranking may still fit after an expensive one does not. Fleet-breaker
    // trials issued above already spent part of the capacity.
    for (const Ranked& sel : merged_) {
      // Candidate legality: the index must only ever hand the policy EIs
      // that are probeable right now.
      WEBMON_DCHECK(sel.cand.IsLegalAt(now))
          << "illegal candidate (CEI " << sel.cand.state->cei->id
          << ", EI index " << sel.cand.ei_index << ") at chronon " << now;
      const ResourceId r = sel.resource;
      // Ranking already excluded contacted and unavailable resources, and
      // merged_ holds one candidate per resource.
      WEBMON_DCHECK(!attempted_now_[r]);
      WEBMON_DCHECK(ResourceAvailable(r, now));
      if (!gates_.empty() && gates_[r].streak && RetryBudgetExhausted()) {
        // The retry budget ran out mid-chronon (an earlier retry in this
        // walk spent the rest): withhold this attempt too.
        ++stats_.retries_suppressed;
        continue;
      }
      const double cost = uniform_costs ? 1.0 : options_.resource_costs[r];
      if (cost_used + cost > capacity) {
        if (uniform_costs) break;
        continue;
      }
      cost_used += cost;
      ++attempts;
      if (!IssueProbe(r, now, cost)) continue;  // budget spent, no capture
      WEBMON_RETURN_IF_ERROR(RecordProbe(r, now, schedule));
    }
  }
  // probeEIs contract: the chronon's budget C_j is never exceeded,
  // whether budget counts probes or (varying-cost extension) cost units —
  // and failed attempts (fleet-breaker trials included) count against it
  // exactly like successful ones.
  if (uniform_costs) {
    WEBMON_CHECK_LE(attempts, budget)
        << "probeEIs issued more probes than C_j at chronon " << now;
  } else {
    WEBMON_CHECK_LE(cost_used, capacity)
        << "probeEIs exceeded the cost capacity C_j at chronon " << now;
  }
  stats_.probe_seconds += phase.ElapsedSeconds();

  phase.Reset();
  // --- Capture every active EI whose resource was probed or pushed this
  // chronon. The flat list is activation-ordered, so one in-order sweep
  // keeps sibling-capture interactions (a CEI completing mid-sweep stops
  // capturing) and completion callbacks byte-identical to the legacy flat
  // sweep. Entries with closed windows were marked failed by the expiry
  // sweep and pruned by the rank pass above, so `failed` screens them.
  if (ordered_) {
    CaptureSlots(now);
  } else if (!pushed_now_scratch_.empty() || !r_ids_scratch_.empty()) {
    // A CEI completing here keeps slot entries until Step(now + 1)'s rank
    // pass prunes them, so its state releases no earlier than now + 1.
    retire_floor_ = now + 1;
    const size_t live = slot_cand_.size();
    for (size_t i = 0; i < live; ++i) {
      if (!probed_now_[slot_resource_[i]]) continue;
      const CandidateEi& cand = slot_cand_[i];
      if (cand.IsLive()) Capture(cand, now);
    }
  }

  // --- Expire: an EI closing uncaptured at `now` fails; the CEI dies once
  // too many EIs have failed for its semantics (with AND semantics, one).
  ProcessExpiries(now);
  if (ordered_) SweepSlots(now);

  // --- Reclaim terminal CEI states whose release chronon is `now`: every
  // structure that could reference them has provably let go (the rank
  // pass above pruned their slot entries, their ring buckets have all
  // passed), so the slot can host a later arrival and the id mapping can
  // shrink. Each item carries the id and the slot, so the drain reads
  // neither the state nor the Cei. Empty unless compact_terminal_states is
  // on.
  retire_ring_.Drain(now, [this](const RetireItem& item) {
    cei_index_.Erase(item.id);
    free_states_.push_back(item.slot);  // hotpath-alloc-ok: retained capacity
  });

  if (probed) *probed = r_ids_scratch_;
  // Clear the per-step masks where they were set: probed and pushed
  // resources, plus this chronon's attempts (failed ones and capture-less
  // trial successes never entered r_ids).
  for (ResourceId r : r_ids_scratch_) probed_now_[r] = attempted_now_[r] = 0;
  for (ResourceId r : pushed_now_scratch_) {
    probed_now_[r] = attempted_now_[r] = 0;
  }
  for (size_t i = first_attempt; i < attempt_log_.size(); ++i) {
    attempted_now_[attempt_log_[i].resource] = 0;
  }
  stats_.capture_seconds += phase.ElapsedSeconds();
  return Status::OK();
}

void OnlineScheduler::UpdateIncidentState(Chronon now) {
  if (detector_ != nullptr) detector_->BeginChronon(now);
  FaultInjector* injector = options_.fault_injector;
  // Fold the injector's ground truth into the detected/missed counters.
  // Measurement only: FleetIncidentActive is the oracle the detector must
  // never consult, so nothing here feeds back into scheduling.
  for (size_t d = 0; d < injector->num_incident_domains(); ++d) {
    const bool actual = injector->FleetIncidentActive(d, now);
    const bool open = detector_ != nullptr && detector_->Open(d);
    if (actual) {
      if (!gt_in_window_[d]) {
        gt_in_window_[d] = 1;
        gt_window_detected_[d] = 0;
      }
      if (open && !gt_window_detected_[d]) {
        gt_window_detected_[d] = 1;
        ++stats_.incident_windows_detected;
      }
      ++stats_.incident_chronons;
    } else if (gt_in_window_[d]) {
      gt_in_window_[d] = 0;
      if (!gt_window_detected_[d]) ++stats_.incident_windows_missed;
    }
  }
  if (detector_ != nullptr) {
    stats_.incident_openings = detector_->stats().opens;
  }
}

size_t OnlineScheduler::NumCandidateCeis() const {
  size_t live = 0;
  for (const CeiState& s : states_) {
    if (!s.dead && !s.Complete()) ++live;
  }
  return live;
}

size_t OnlineScheduler::NumActiveEis() const {
  size_t live = 0;
  if (ordered_) {
    // A captured EI's entry left with its bucket's capture visit, and a
    // failed EI's window closed before the next chronon, so the held
    // entries are exactly the live EIs.
    const auto count = [&](const SlotEntry& e) {
      if (SlotHeld(e, last_step_ + 1)) ++live;
    };
    for (size_t b = 0; b < kSlotBuckets; ++b) {
      slots_.Visit(static_cast<int64_t>(b), count);
    }
    for (const SlotEntry& e : slot_staged_) count(e);
    return live;
  }
  for (const CandidateEi& cand : slot_cand_) {
    if (cand.IsLive()) ++live;
  }
  return live;
}

}  // namespace webmon
