// Annotated locking primitives: the only mutex surface of the repository.
//
// webmon::Mutex wraps std::mutex with clang Thread Safety attributes
// (util/thread_annotations.h), so holding-discipline is checked at compile
// time under the `thread-safety` preset: members declared GUARDED_BY(mu_)
// cannot be touched without the lock, *Locked() helpers declare REQUIRES,
// and MutexLock scopes are tracked by the analysis. std::lock_guard on a
// bare std::mutex carries no annotations (libstdc++ is unannotated), which
// is why locking code uses these wrappers instead — the webmon_lint rule
// `rawmutex` enforces that choice repo-wide.
//
// Both are zero-cost veneers: Mutex is exactly a std::mutex and MutexLock
// is exactly a lock_guard.

#ifndef WEBMON_UTIL_MUTEX_H_
#define WEBMON_UTIL_MUTEX_H_

#include <mutex>

#include "util/thread_annotations.h"

namespace webmon {

/// A std::mutex with thread-safety annotations. Prefer MutexLock over
/// manual Lock/Unlock pairs.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// Tells the analysis the lock is held at this point without touching the
  /// mutex. For code that provably runs under the lock but where the
  /// acquisition is not visible to the analysis — e.g. a closure invoked by
  /// SeqMailbox::Push, which locks before calling it.
  void AssertHeld() const ASSERT_CAPABILITY(this) {}

 private:
  std::mutex mu_;
};

/// RAII lock scope over a Mutex (the annotated lock_guard).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace webmon

#endif  // WEBMON_UTIL_MUTEX_H_
