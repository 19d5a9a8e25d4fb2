#include "util/thread_pool.h"

#include <algorithm>

#include "util/check.h"

namespace webmon {

ThreadPool::ThreadPool(int num_threads) {
  const int workers = std::max(num_threads, 1) - 1;
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& w : workers_) w.join();
}

int ThreadPool::DefaultThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ThreadPool::ParallelFor(int num_tasks,
                             const std::function<void(int)>& fn) {
  if (num_tasks <= 0) return;
  if (workers_.empty() || num_tasks == 1) {
    for (int t = 0; t < num_tasks; ++t) fn(t);
    return;
  }
  {
    MutexLock lock(mu_);
    WEBMON_CHECK(job_ == nullptr) << "ParallelFor is not reentrant";
    job_ = &fn;
    job_tasks_ = num_tasks;
    next_task_.store(0, std::memory_order_relaxed);
    ++job_epoch_;
  }
  work_cv_.NotifyAll();
  // The calling thread is a full lane: claim and run tasks like a worker.
  for (int t = next_task_.fetch_add(1); t < num_tasks;
       t = next_task_.fetch_add(1)) {
    fn(t);
  }
  // All tasks are claimed; wait for workers still running theirs. Workers
  // that never woke up for this job are not in workers_in_job_ and will
  // find the task counter exhausted when they do wake.
  MutexLock lock(mu_);
  while (workers_in_job_ != 0) done_cv_.Wait(mu_);
  job_ = nullptr;
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_epoch = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    int num_tasks = 0;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && job_epoch_ == seen_epoch) work_cv_.Wait(mu_);
      if (shutdown_) return;
      seen_epoch = job_epoch_;
      // Woke too late: ParallelFor already retired this epoch's job. Its
      // task counter may belong to the next job by now, so claiming from it
      // would run a null function — wait for the next epoch instead.
      if (job_ == nullptr) continue;
      job = job_;
      num_tasks = job_tasks_;
      ++workers_in_job_;
    }
    for (int t = next_task_.fetch_add(1); t < num_tasks;
         t = next_task_.fetch_add(1)) {
      (*job)(t);
    }
    {
      MutexLock lock(mu_);
      --workers_in_job_;
    }
    done_cv_.NotifyOne();
  }
}

}  // namespace webmon
