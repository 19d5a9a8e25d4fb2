// Flat chunked event ring keyed by chronon, backed by an Arena.
//
// The online scheduler used to bucket future events (activations, expiries,
// pushes) as vector<vector<T>> indexed by chronon — every bucket was its own
// heap allocation, cleared-and-shrunk after draining, so steady-state ticks
// churned the allocator. EventRing replaces the inner vectors with chains of
// fixed-size chunks carved from a shared Arena: Push appends to the bucket's
// tail chunk, Drain visits items in insertion order and recycles the chunks
// onto a free list, and after warm-up the chunk population stabilizes and no
// call touches the heap (the Arena grows only on high-water marks).
//
// Items cannot be erased by key (chunks hold no per-item index). A caller
// that invalidates items logically (a captured, expired or cancelled CEI)
// leaves them in place and skips them when their bucket drains; Filter
// rewrites a bucket in place keeping the items a predicate accepts, and
// Visit reads a bucket without draining it, so a ring can also hold
// long-lived items in buckets keyed by something other than a chronon.
// Chunks return to the free list through Drain and Filter.
//
// Determinism: per-bucket visit order is exactly push order, independent of
// chunk placement. Not thread-safe — single-owner, like the Arena.

#ifndef WEBMON_UTIL_EVENT_RING_H_
#define WEBMON_UTIL_EVENT_RING_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "util/arena.h"
#include "util/check.h"

namespace webmon {

template <typename T>
class EventRing {
  static_assert(std::is_trivially_copyable<T>::value &&
                    std::is_trivially_destructible<T>::value,
                "EventRing items live in raw arena chunks");

 public:
  // ~512-byte chunks: big enough to amortize the link hop, small enough
  // that sparse buckets don't waste the arena.
  static constexpr size_t kChunkCapacity =
      sizeof(T) >= 496 ? 1 : 496 / sizeof(T);

  EventRing(Arena* arena, size_t num_buckets)
      : arena_(arena), buckets_(num_buckets) {
    WEBMON_DCHECK(arena != nullptr) << "EventRing needs a backing arena";
  }

  EventRing(const EventRing&) = delete;
  EventRing& operator=(const EventRing&) = delete;

  size_t num_buckets() const { return buckets_.size(); }

  void Push(int64_t bucket, const T& item) {
    WEBMON_DCHECK(bucket >= 0 &&
                  static_cast<size_t>(bucket) < buckets_.size())
        << "event bucket " << bucket << " out of range";
    Bucket& b = buckets_[static_cast<size_t>(bucket)];
    if (b.tail == nullptr || b.tail->count == kChunkCapacity) {
      Chunk* c = AcquireChunk();
      if (b.tail == nullptr) {
        b.head = c;
      } else {
        b.tail->next = c;
      }
      b.tail = c;
    }
    b.tail->items[b.tail->count++] = item;
    ++b.size;
  }

  bool Empty(int64_t bucket) const {
    return buckets_[static_cast<size_t>(bucket)].size == 0;
  }
  size_t Size(int64_t bucket) const {
    return buckets_[static_cast<size_t>(bucket)].size;
  }

  /// Visits every item in `bucket` in push order, then recycles its chunks.
  /// The visitor may Push into this ring (any bucket, including `bucket`):
  /// a chunk is recycled only after its items are visited, and items pushed
  /// to `bucket` during the drain land on fresh chunks that this call does
  /// not visit — they wait for the next Drain.
  template <typename Fn>
  void Drain(int64_t bucket, Fn&& fn) {
    Bucket& b = buckets_[static_cast<size_t>(bucket)];
    Chunk* c = b.head;
    // Detach first so visitor pushes to this bucket start a new chain.
    b.head = nullptr;
    b.tail = nullptr;
    b.size = 0;
    while (c != nullptr) {
      Chunk* next = c->next;
      for (uint32_t i = 0; i < c->count; ++i) fn(c->items[i]);
      ReleaseChunk(c);
      c = next;
    }
  }

  /// Visits every item in `bucket` in push order, leaving the bucket as it
  /// is. The visitor must not Push into this ring.
  template <typename Fn>
  void Visit(int64_t bucket, Fn&& fn) const {
    for (const Chunk* c = buckets_[static_cast<size_t>(bucket)].head;
         c != nullptr; c = c->next) {
      for (uint32_t i = 0; i < c->count; ++i) fn(c->items[i]);
    }
  }

  /// Rewrites `bucket` in place keeping only the items for which keep(item)
  /// is true: stable (push order preserved) and allocation-free (emptied
  /// tail chunks recycle onto the free list). `keep` is called once per
  /// item, in push order, and must not Push into this ring. Returns the
  /// number of items removed.
  template <typename Keep>
  size_t Filter(int64_t bucket, Keep&& keep) {
    Bucket& b = buckets_[static_cast<size_t>(bucket)];
    Chunk* write = b.head;
    uint32_t wi = 0;
    uint32_t kept = 0;
    for (Chunk* c = b.head; c != nullptr; c = c->next) {
      const uint32_t n = c->count;
      for (uint32_t i = 0; i < n; ++i) {
        // Copy out: once write catches up to c, items[wi] aliases items[i].
        const T item = c->items[i];
        if (!keep(item)) continue;
        if (wi == kChunkCapacity) {
          write->count = kChunkCapacity;
          // The write cursor trails the read cursor (kept <= visited), so
          // the next chunk always exists.
          write = write->next;
          wi = 0;
        }
        write->items[wi++] = item;
        ++kept;
      }
    }
    Chunk* excess;
    if (kept == 0) {
      excess = b.head;
      b.head = nullptr;
      b.tail = nullptr;
    } else {
      write->count = wi;
      excess = write->next;
      write->next = nullptr;
      b.tail = write;
    }
    while (excess != nullptr) {
      Chunk* next = excess->next;
      ReleaseChunk(excess);
      excess = next;
    }
    const size_t removed = b.size - kept;
    b.size = kept;
    return removed;
  }

  /// Number of chunks ever carved from the arena (monotone; a flat curve
  /// after warm-up is the steady-state no-allocation signal).
  int64_t chunks_allocated() const { return chunks_allocated_; }

 private:
  struct Chunk {
    Chunk* next;
    uint32_t count;
    T items[kChunkCapacity];
  };

  struct Bucket {
    Chunk* head = nullptr;
    Chunk* tail = nullptr;
    uint32_t size = 0;
  };

  Chunk* AcquireChunk() {
    Chunk* c = free_list_;
    if (c != nullptr) {
      free_list_ = c->next;
    } else {
      c = static_cast<Chunk*>(arena_->Allocate(sizeof(Chunk), alignof(Chunk)));
      ++chunks_allocated_;
    }
    c->next = nullptr;
    c->count = 0;
    return c;
  }

  void ReleaseChunk(Chunk* c) {
    c->next = free_list_;
    free_list_ = c;
  }

  Arena* arena_;
  std::vector<Bucket> buckets_;
  Chunk* free_list_ = nullptr;
  int64_t chunks_allocated_ = 0;
};

}  // namespace webmon

#endif  // WEBMON_UTIL_EVENT_RING_H_
