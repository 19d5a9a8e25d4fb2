// Deterministic monotonic/pool allocator for per-chronon scratch.
//
// The online scheduler's sustained-throughput path (docs/PERFORMANCE.md
// "Memory & sustained throughput") needs bounded, recyclable scratch: the
// per-chronon event buckets churn through small nodes every tick, and
// general-purpose heap allocation both costs time and defeats the
// 0-allocations-per-chronon steady-state contract. Arena carves aligned
// allocations out of blocks obtained from the global heap, each of the
// minimum block size (64 KiB by default) or, for a larger request, of that
// request's size, so a slowly growing pool takes one heap allocation per
// block. It never frees them individually, and rewinds the whole pool in
// O(1) with Reset() — blocks are retained and reused in order, so after
// warm-up a Reset/refill cycle touches the heap zero times.
//
// Not thread-safe: each Arena must be owned by a single thread (the
// scheduler uses one arena, mutated only in the serial Tick phase). All
// counters are plain integers on purpose — no atomics in the hot path.

#ifndef WEBMON_UTIL_ARENA_H_
#define WEBMON_UTIL_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <new>

#include "util/check.h"

namespace webmon {

class Arena {
 public:
  static constexpr size_t kDefaultBlockBytes = size_t{1} << 16;  // 64 KiB

  /// `min_block_bytes` is the smallest block the arena requests from the
  /// heap; oversized allocations get a dedicated block of their own size.
  explicit Arena(size_t min_block_bytes = kDefaultBlockBytes)
      : min_block_payload_(min_block_bytes > sizeof(Block)
                               ? min_block_bytes - sizeof(Block)
                               : kDefaultBlockBytes - sizeof(Block)) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ~Arena() {
    Block* b = head_;
    while (b != nullptr) {
      Block* next = b->next;
      ::operator delete(static_cast<void*>(b));
      b = next;
    }
  }

  /// Returns `size` bytes aligned to `align` (a power of two). Zero-size
  /// requests return a valid aligned pointer without consuming space, so
  /// repeated zero-size allocations may alias — arena pointers are scratch,
  /// not identities. Never returns nullptr (the underlying operator new
  /// throws on exhaustion).
  void* Allocate(size_t size, size_t align = alignof(std::max_align_t)) {
    WEBMON_DCHECK(align != 0 && (align & (align - 1)) == 0)
        << "alignment must be a power of two, got " << align;
    uintptr_t p = (cursor_ + align - 1) & ~(uintptr_t{align} - 1);
    if (p + size > limit_ || limit_ == 0) {
      p = AdvanceBlock(size, align);
    }
    cursor_ = p + size;
    ++allocation_count_;
    cumulative_bytes_ += size;
    live_bytes_ += size;
    if (live_bytes_ > high_water_bytes_) high_water_bytes_ = live_bytes_;
    return reinterpret_cast<void*>(p);
  }

  /// Typed convenience: uninitialized storage for `n` objects of T.
  template <typename T>
  T* AllocateArray(size_t n) {
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  /// Rewinds the pool in O(1). All previously returned pointers become
  /// logically dead (the memory stays mapped and is handed out again by
  /// subsequent allocations, first-block-first — an identical allocation
  /// sequence after Reset() yields identical pointers). Blocks are kept.
  void Reset() {
    current_ = head_;
    if (head_ != nullptr) {
      cursor_ = PayloadStart(head_);
      limit_ = cursor_ + head_->capacity;
    }
    live_bytes_ = 0;
  }

  /// Cumulative user bytes handed out since construction (monotone).
  size_t cumulative_bytes() const { return cumulative_bytes_; }
  /// Cumulative number of Allocate() calls since construction (monotone).
  int64_t allocation_count() const { return allocation_count_; }
  /// User bytes handed out since the last Reset().
  size_t live_bytes() const { return live_bytes_; }
  /// Maximum live_bytes() ever observed — sizes the steady-state footprint.
  size_t high_water_bytes() const { return high_water_bytes_; }
  /// Number of heap blocks owned (never shrinks until destruction).
  size_t blocks_allocated() const { return num_blocks_; }
  /// Total heap bytes owned, including block headers.
  size_t bytes_reserved() const { return bytes_reserved_; }

 private:
  struct Block {
    Block* next;
    size_t capacity;  // payload bytes following the header
  };

  static uintptr_t PayloadStart(Block* b) {
    return reinterpret_cast<uintptr_t>(b) + sizeof(Block);
  }

  /// Slow path: move to the next retained block that fits, or grow.
  /// Returns the aligned allocation start; callers bump the cursor.
  uintptr_t AdvanceBlock(size_t size, size_t align) {
    // Worst-case slack so "fits" is checkable from capacity alone.
    const size_t needed = size + align - 1;
    Block* candidate = (current_ != nullptr) ? current_->next : head_;
    // Retained blocks are reused in chain order; a retained block too small
    // for this request is skipped for the rest of this Reset() cycle (the
    // scheduler's uniform chunk sizes never hit this).
    while (candidate != nullptr && candidate->capacity < needed) {
      candidate = candidate->next;
    }
    if (candidate == nullptr) {
      const size_t capacity =
          needed > min_block_payload_ ? needed : min_block_payload_;
      candidate = static_cast<Block*>(::operator new(sizeof(Block) + capacity));
      candidate->capacity = capacity;
      // Link after current_ so the in-order reuse walk finds it next cycle.
      if (current_ != nullptr) {
        candidate->next = current_->next;
        current_->next = candidate;
      } else {
        candidate->next = head_;
        head_ = candidate;
      }
      ++num_blocks_;
      bytes_reserved_ += sizeof(Block) + capacity;
    }
    current_ = candidate;
    cursor_ = PayloadStart(candidate);
    limit_ = cursor_ + candidate->capacity;
    return (cursor_ + align - 1) & ~(uintptr_t{align} - 1);
  }

  Block* head_ = nullptr;     // reuse starts here on Reset()
  Block* current_ = nullptr;  // block the cursor lives in
  uintptr_t cursor_ = 0;
  uintptr_t limit_ = 0;
  size_t min_block_payload_;

  size_t cumulative_bytes_ = 0;
  int64_t allocation_count_ = 0;
  size_t live_bytes_ = 0;
  size_t high_water_bytes_ = 0;
  size_t num_blocks_ = 0;
  size_t bytes_reserved_ = 0;
};

/// STL-compatible allocator view over an Arena. deallocate() is a no-op —
/// memory comes back only via Arena::Reset() — so containers using it must
/// not outlive a Reset() of the backing arena. Equality compares the
/// backing arena, and the allocator propagates on move/swap so containers
/// carry their arena with them.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;
  using is_always_equal = std::false_type;

  explicit ArenaAllocator(Arena* arena) : arena_(arena) {
    WEBMON_DCHECK(arena != nullptr) << "ArenaAllocator needs a backing arena";
  }

  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) : arena_(other.arena()) {}

  T* allocate(size_t n) {
    return static_cast<T*>(arena_->Allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T*, size_t) {}  // reclaimed wholesale by Arena::Reset()

  Arena* arena() const { return arena_; }

  friend bool operator==(const ArenaAllocator& a, const ArenaAllocator& b) {
    return a.arena_ == b.arena_;
  }
  friend bool operator!=(const ArenaAllocator& a, const ArenaAllocator& b) {
    return a.arena_ != b.arena_;
  }

 private:
  Arena* arena_;
};

}  // namespace webmon

#endif  // WEBMON_UTIL_ARENA_H_
