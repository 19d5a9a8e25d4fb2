// Fixed-size worker pool for deterministic fork-join parallelism.
//
// Its clients are the exact solver's parallel root split, the concurrent
// ingestion driver's producer lanes and RunSharded's parallel shards:
// ParallelFor(n, fn) runs fn(0) .. fn(n-1) across the workers plus the
// calling thread and returns once every task has finished. Determinism
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
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace webmon {

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
  /// one thread may drive the pool at a time.
  void ParallelFor(int num_tasks, const std::function<void(int)>& fn);

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
  const std::function<void(int)>* job_ GUARDED_BY(mu_) = nullptr;
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
