// Fixed-size worker pool for deterministic fork-join parallelism.
//
// The scheduler's sharded ranking phase (docs/PERFORMANCE.md) is the primary
// client: ParallelFor(n, fn) runs fn(0) .. fn(n-1) across the workers plus
// the calling thread and returns once every task has finished. Determinism
// is the caller's side of the contract: tasks must write only their own
// output slots, so the combined result is independent of which worker ran
// which task and of interleaving. The pool adds no ordering of its own.
//
// This is the only file in the repository allowed to spawn raw std::thread
// (webmon_lint rule `thread`); everything concurrent goes through here so
// sizing, shutdown, and TSan coverage stay centralized.

#ifndef WEBMON_UTIL_THREAD_POOL_H_
#define WEBMON_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace webmon {

/// Non-owning reference to a callable invoked as fn(task_index): a pointer
/// to the callable plus a pointer to a function that calls it, so passing
/// one never allocates (a std::function whose lambda outgrows the small
/// buffer would, on every call). The referenced callable must outlive every
/// call through the reference; ParallelFor's caller keeps its argument
/// alive until the join, which is the only place the pool stores one.
class TaskRef {
 public:
  // Implicit, so call sites pass their lambda straight to ParallelFor.
  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::decay_t<F>, TaskRef>>>
  TaskRef(F&& fn)  // NOLINT(runtime/explicit)
      : callable_(const_cast<void*>(
            static_cast<const void*>(std::addressof(fn)))),
        call_([](void* callable, int task) {
          (*static_cast<std::remove_reference_t<F>*>(callable))(task);
        }) {}

  void operator()(int task) const { call_(callable_, task); }

 private:
  void* callable_;
  void (*call_)(void*, int);
};

/// A fixed pool of worker threads executing fork-join parallel loops.
/// Construction spawns the workers once; ParallelFor reuses them, so the
/// per-call overhead is one wakeup, not thread creation.
class ThreadPool {
 public:
  /// Spawns `num_threads - 1` workers; the thread calling ParallelFor is the
  /// remaining lane, so `num_threads` tasks make progress concurrently.
  /// Values below 1 are treated as 1 (no workers; ParallelFor runs inline).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency: workers + the calling thread.
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs fn(0) .. fn(num_tasks - 1), each exactly once, distributed over
  /// the workers and the calling thread; returns after the last task
  /// completes. All writes made by the tasks happen-before the return.
  /// Not reentrant: fn must not call ParallelFor on the same pool, and only
  /// one thread may drive the pool at a time (the scheduler's single
  /// chronon loop satisfies both).
  void ParallelFor(int num_tasks, TaskRef fn);

  /// Hardware concurrency clamped to at least 1 (the conventional default
  /// for a `--threads 0` style "use all cores" knob).
  static int DefaultThreads();

 private:
  void WorkerLoop();

  // Written in the constructor, joined in the destructor; never touched
  // while workers run, so no guard is needed (or possible — the workers
  // themselves would need it).
  std::vector<std::thread> workers_;

  Mutex mu_;
  CondVar work_cv_;  // signaled when a job is published
  CondVar done_cv_;  // signaled when a worker leaves a job
  // Current job, published under mu_ with a bumped epoch; workers adopt the
  // newest job exactly once per wakeup, so a worker can never mix one job's
  // task counter with another job's function. ParallelFor resets it to null
  // once the job is done; a worker waking after that skips the epoch
  // instead of adopting the retired job.
  const TaskRef* job_ GUARDED_BY(mu_) = nullptr;
  int job_tasks_ GUARDED_BY(mu_) = 0;
  uint64_t job_epoch_ GUARDED_BY(mu_) = 0;
  int workers_in_job_ GUARDED_BY(mu_) = 0;
  bool shutdown_ GUARDED_BY(mu_) = false;
  // Next unclaimed task index of the current job; tasks are claimed with
  // fetch_add so each index runs exactly once. Deliberately atomic rather
  // than GUARDED_BY(mu_): claiming must not serialize the workers.
  std::atomic<int> next_task_{0};
};

}  // namespace webmon

#endif  // WEBMON_UTIL_THREAD_POOL_H_
