// Process-wide heap-allocation counting for the allocation-regression tests
// and perfbench's per-chronon tick allocations (docs/PERFORMANCE.md "Memory
// & sustained throughput").
//
// The counters are only live in binaries that opt in by expanding
// WEBMON_DEFINE_COUNTING_OPERATOR_NEW() in exactly one translation unit:
// the macro defines replacement global operator new/delete that bump the
// counters and forward to malloc/free. Binaries that do not expand the
// macro link the standard operators and GlobalAllocCounters() stays at
// zero. Keep the macro out of the main test binary — replacing global
// operator new is a whole-binary decision and belongs in small, dedicated
// executables (webmon_alloc_tests, perfbench).

#ifndef WEBMON_UTIL_ALLOC_COUNTER_H_
#define WEBMON_UTIL_ALLOC_COUNTER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace webmon {

/// Cumulative heap churn since process start. `allocations`/`bytes` count
/// every successful operator new (they never decrease — this measures
/// churn, not live size); `frees` counts operator delete calls with a
/// non-null pointer.
struct AllocCounters {
  std::atomic<int64_t> allocations{0};
  std::atomic<int64_t> bytes{0};
  std::atomic<int64_t> frees{0};
};

inline AllocCounters& GlobalAllocCounters() {
  static AllocCounters counters;
  return counters;
}

/// Point-in-time snapshot for windowed deltas (counters are monotone).
struct AllocSnapshot {
  int64_t allocations = 0;
  int64_t bytes = 0;
  int64_t frees = 0;
};

inline AllocSnapshot SnapshotAllocCounters() {
  AllocCounters& c = GlobalAllocCounters();
  return {c.allocations.load(std::memory_order_relaxed),
          c.bytes.load(std::memory_order_relaxed),
          c.frees.load(std::memory_order_relaxed)};
}

namespace alloc_counter_internal {

inline void* CountedAlloc(std::size_t size, std::size_t align) {
  // operator new must return a distinct pointer for size 0.
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else {
    // aligned_alloc requires the size to be a multiple of the alignment.
    const std::size_t rounded = (size + align - 1) / align * align;
    p = std::aligned_alloc(align, rounded);
  }
  if (p != nullptr) {
    AllocCounters& c = GlobalAllocCounters();
    c.allocations.fetch_add(1, std::memory_order_relaxed);
    c.bytes.fetch_add(static_cast<int64_t>(size), std::memory_order_relaxed);
  }
  return p;
}

inline void CountedFree(void* p) {
  if (p == nullptr) return;
  GlobalAllocCounters().frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

}  // namespace alloc_counter_internal
}  // namespace webmon

// Expand once per opted-in binary, at namespace scope in a .cc file. The
// throwing forms loop through std::get_new_handler like the standard ones
// so OOM behavior stays conforming.
#define WEBMON_DEFINE_COUNTING_OPERATOR_NEW()                               \
  namespace webmon_alloc_counter_detail {                                   \
  inline void* ThrowingAlloc(std::size_t size, std::size_t align) {         \
    for (;;) {                                                              \
      void* p = ::webmon::alloc_counter_internal::CountedAlloc(size, align);\
      if (p != nullptr) return p;                                           \
      std::new_handler handler = std::get_new_handler();                    \
      if (handler == nullptr) throw std::bad_alloc();                       \
      handler();                                                            \
    }                                                                       \
  }                                                                         \
  }                                                                         \
  void* operator new(std::size_t size) {                                    \
    return webmon_alloc_counter_detail::ThrowingAlloc(                      \
        size, alignof(std::max_align_t));                                   \
  }                                                                         \
  void* operator new[](std::size_t size) {                                  \
    return webmon_alloc_counter_detail::ThrowingAlloc(                      \
        size, alignof(std::max_align_t));                                   \
  }                                                                         \
  void* operator new(std::size_t size, std::align_val_t align) {            \
    return webmon_alloc_counter_detail::ThrowingAlloc(                      \
        size, static_cast<std::size_t>(align));                             \
  }                                                                         \
  void* operator new[](std::size_t size, std::align_val_t align) {          \
    return webmon_alloc_counter_detail::ThrowingAlloc(                      \
        size, static_cast<std::size_t>(align));                             \
  }                                                                         \
  void* operator new(std::size_t size, const std::nothrow_t&) noexcept {    \
    return ::webmon::alloc_counter_internal::CountedAlloc(                  \
        size, alignof(std::max_align_t));                                   \
  }                                                                         \
  void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {  \
    return ::webmon::alloc_counter_internal::CountedAlloc(                  \
        size, alignof(std::max_align_t));                                   \
  }                                                                         \
  void* operator new(std::size_t size, std::align_val_t align,              \
                     const std::nothrow_t&) noexcept {                      \
    return ::webmon::alloc_counter_internal::CountedAlloc(                  \
        size, static_cast<std::size_t>(align));                             \
  }                                                                         \
  void* operator new[](std::size_t size, std::align_val_t align,            \
                       const std::nothrow_t&) noexcept {                    \
    return ::webmon::alloc_counter_internal::CountedAlloc(                  \
        size, static_cast<std::size_t>(align));                             \
  }                                                                         \
  void operator delete(void* p) noexcept {                                  \
    ::webmon::alloc_counter_internal::CountedFree(p);                       \
  }                                                                         \
  void operator delete[](void* p) noexcept {                                \
    ::webmon::alloc_counter_internal::CountedFree(p);                       \
  }                                                                         \
  void operator delete(void* p, std::size_t) noexcept {                     \
    ::webmon::alloc_counter_internal::CountedFree(p);                       \
  }                                                                         \
  void operator delete[](void* p, std::size_t) noexcept {                   \
    ::webmon::alloc_counter_internal::CountedFree(p);                       \
  }                                                                         \
  void operator delete(void* p, std::align_val_t) noexcept {                \
    ::webmon::alloc_counter_internal::CountedFree(p);                       \
  }                                                                         \
  void operator delete[](void* p, std::align_val_t) noexcept {              \
    ::webmon::alloc_counter_internal::CountedFree(p);                       \
  }                                                                         \
  void operator delete(void* p, std::size_t, std::align_val_t) noexcept {   \
    ::webmon::alloc_counter_internal::CountedFree(p);                       \
  }                                                                         \
  void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { \
    ::webmon::alloc_counter_internal::CountedFree(p);                       \
  }                                                                         \
  void operator delete(void* p, const std::nothrow_t&) noexcept {           \
    ::webmon::alloc_counter_internal::CountedFree(p);                       \
  }                                                                         \
  void operator delete[](void* p, const std::nothrow_t&) noexcept {         \
    ::webmon::alloc_counter_internal::CountedFree(p);                       \
  }                                                                         \
  static_assert(true, "require a trailing semicolon")

#endif  // WEBMON_UTIL_ALLOC_COUNTER_H_
