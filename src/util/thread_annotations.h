// Clang Thread Safety Analysis attribute shims.
//
// These macros expand to clang's `capability`-family attributes when the
// compiler supports them (-Wthread-safety turns them into compile-time lock
// discipline checks) and to nothing everywhere else, so gcc builds are
// unaffected. Annotate with them instead of raw attributes:
//
//   class CAPABILITY("mutex") Mutex { ... };
//   Mutex mu_;
//   int64_t count_ GUARDED_BY(mu_);
//   void FlushLocked() REQUIRES(mu_);
//
// The annotated locking surface of the repo is util/mutex.h (Mutex,
// MutexLock); every type owning a lock declares its guarded members
// with GUARDED_BY and splits lock-requiring paths into *Locked() helpers
// annotated REQUIRES. The `thread-safety` CMake preset compiles all of src/
// with -Wthread-safety -Werror=thread-safety under clang; the webmon_lint
// rule `rawmutex` keeps raw std::mutex members out of files that do not
// include this header. See docs/STATIC_ANALYSIS.md ("Thread safety
// annotations").

#ifndef WEBMON_UTIL_THREAD_ANNOTATIONS_H_
#define WEBMON_UTIL_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define WEBMON_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef WEBMON_THREAD_ANNOTATION
#define WEBMON_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

// A type that models a capability (a lock). The string names the kind of
// capability in diagnostics ("mutex").
#define CAPABILITY(x) WEBMON_THREAD_ANNOTATION(capability(x))

// An RAII type that acquires a capability in its constructor and releases
// it in its destructor (MutexLock).
#define SCOPED_CAPABILITY WEBMON_THREAD_ANNOTATION(scoped_lockable)

// Data member access requires holding the named capability.
#define GUARDED_BY(x) WEBMON_THREAD_ANNOTATION(guarded_by(x))

// Dereferencing the annotated pointer requires the named capability.
#define PT_GUARDED_BY(x) WEBMON_THREAD_ANNOTATION(pt_guarded_by(x))

// Lock-ordering declarations (deadlock prevention).
#define ACQUIRED_BEFORE(...) \
  WEBMON_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) \
  WEBMON_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

// The function may only be called while holding (exclusively / shared) the
// given capabilities; it does not acquire or release them.
#define REQUIRES(...) \
  WEBMON_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  WEBMON_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

// The function acquires / releases the given capabilities.
#define ACQUIRE(...) \
  WEBMON_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  WEBMON_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) \
  WEBMON_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  WEBMON_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
  WEBMON_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))

// The function acquires the capability iff it returns the given value.
#define TRY_ACQUIRE(...) \
  WEBMON_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  WEBMON_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))

// The function must NOT be called while holding the given capabilities
// (it acquires them itself; prevents self-deadlock).
#define EXCLUDES(...) WEBMON_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// Runtime no-op that injects "this capability is held here" into the
// analysis — the escape hatch for callbacks that run under a lock the
// analysis cannot see across (e.g. SeqMailbox::Push closures).
#define ASSERT_CAPABILITY(x) \
  WEBMON_THREAD_ANNOTATION(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) \
  WEBMON_THREAD_ANNOTATION(assert_shared_capability(x))

// The function returns a reference to the named capability; lets accessors
// like SeqMailbox::mu() appear in GUARDED_BY expressions of client code.
#define RETURN_CAPABILITY(x) WEBMON_THREAD_ANNOTATION(lock_returned(x))

// Turns the analysis off for one function (last resort; justify in a
// comment).
#define NO_THREAD_SAFETY_ANALYSIS \
  WEBMON_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif  // WEBMON_UTIL_THREAD_ANNOTATIONS_H_
