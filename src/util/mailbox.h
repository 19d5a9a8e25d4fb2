// SeqMailbox: a mutex-guarded multi-producer mailbox with deterministic
// drain order.
//
// Producers Push() items from any thread; every accepted item is stamped
// with a monotonically increasing sequence number and the mailbox's current
// epoch (for the proxy, the chronon the item will take effect at). The
// single consumer calls DrainAndAdvance(next_epoch), which atomically
// advances the epoch and removes every pending item in sequence order.
// Because stamping and appending happen under one lock, the drained batch is
// a total order of arrivals: any computation that consumes batches purely as
// a function of their (seq, epoch, item) content is deterministic given the
// arrival log, no matter how producer threads interleaved
// (docs/CONCURRENCY.md).
//
// The lock is held only for the duration of the producer's `make` closure
// (validation + stamping) or the drain's vector swap, so producers never
// block on the consumer's processing of a drained batch. Once the pending
// buffer and the consumer's batch buffer have each held the largest round,
// neither Push nor the drain touches the heap (see DrainAndAdvance).

#ifndef WEBMON_UTIL_MAILBOX_H_
#define WEBMON_UTIL_MAILBOX_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace webmon {

/// A thread-safe multi-producer / single-consumer mailbox whose entries are
/// stamped with (sequence number, epoch) under one lock, making the drain
/// order a deterministic function of the arrival log.
template <typename T>
class SeqMailbox {
 public:
  /// One accepted item with its stamps.
  struct Entry {
    /// Position in the mailbox's total arrival order (0, 1, 2, ...).
    uint64_t seq = 0;
    /// The epoch the item was accepted in — the consumer's
    /// DrainAndAdvance(e + 1) call is the one that delivers it.
    int64_t epoch = 0;
    T item;
  };

  explicit SeqMailbox(int64_t initial_epoch = 0) : epoch_(initial_epoch) {}

  SeqMailbox(const SeqMailbox&) = delete;
  SeqMailbox& operator=(const SeqMailbox&) = delete;

  /// Producer side, callable from any thread. Runs `make(seq, epoch)` under
  /// the mailbox lock, where `seq` is the sequence number the item would be
  /// stamped with and `epoch` the epoch it would take effect in. If `make`
  /// returns an engaged optional the item is appended with those stamps and
  /// Push returns true; a disengaged optional rejects the item, consumes no
  /// sequence number, and returns false. `make` must be cheap (it runs under
  /// the producers' shared lock) and must not touch the mailbox.
  /// The closure runs while `mu()` is held; a closure that touches state of
  /// its own declared GUARDED_BY(mailbox.mu()) should open with
  /// `mailbox.mu().AssertHeld()` so the analysis sees that fact (the lock
  /// acquisition below is invisible across the std::function-free template
  /// boundary).
  template <typename F>
  bool Push(F&& make) {
    MutexLock lock(mu_);
    std::optional<T> item = make(next_seq_, epoch_);
    if (!item.has_value()) return false;
    pending_.push_back(Entry{next_seq_, epoch_, *std::move(item)});
    ++next_seq_;
    return true;
  }

  /// Consumer side (single consumer). Atomically advances the epoch to
  /// `next_epoch` and moves every pending entry, in sequence order, into
  /// `batch`, discarding what `batch` held before. Producers that acquire
  /// the lock after this call stamp `next_epoch`; every entry in `batch`
  /// was stamped with an earlier epoch. `batch`'s emptied buffer becomes
  /// the new pending buffer, so a consumer that keeps `batch` from drain to
  /// drain recycles both buffers' capacity.
  void DrainAndAdvance(int64_t next_epoch, std::vector<Entry>& batch) {
    batch.clear();
    MutexLock lock(mu_);
    epoch_ = next_epoch;
    batch.swap(pending_);
  }

  /// The epoch new items are currently stamped with.
  int64_t epoch() const {
    MutexLock lock(mu_);
    return epoch_;
  }

  /// Number of accepted items awaiting the next drain.
  size_t pending() const {
    MutexLock lock(mu_);
    return pending_.size();
  }

  /// The mailbox's lock, exposed as a capability so owners can co-locate
  /// their own ingestion state under it: declare members
  /// GUARDED_BY(mailbox_.mu()) and take `MutexLock lock(mailbox_.mu())` to
  /// read them outside a Push closure (the proxy's ingestion counters do
  /// exactly this). Use it for annotation and short reads — never to call
  /// back into the mailbox, whose methods acquire it themselves.
  Mutex& mu() const RETURN_CAPABILITY(mu_) { return mu_; }

 private:
  mutable Mutex mu_;
  uint64_t next_seq_ GUARDED_BY(mu_) = 0;
  int64_t epoch_ GUARDED_BY(mu_) = 0;
  std::vector<Entry> pending_ GUARDED_BY(mu_);
};

}  // namespace webmon

#endif  // WEBMON_UTIL_MAILBOX_H_
