// ThreadPool: every index runs exactly once, results are visible after
// ParallelFor returns, and the pool survives heavy reuse (the fork-join
// handshake is exercised thousands of times to shake out wakeup races;
// run it under the tsan preset for the full story).

#include "util/thread_pool.h"

#include <atomic>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

namespace webmon {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  constexpr int kTasks = 1000;
  std::vector<std::atomic<int>> hits(kTasks);
  pool.ParallelFor(kTasks, [&](int i) {
    hits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
  });
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, WritesAreVisibleAfterReturn) {
  ThreadPool pool(8);
  constexpr int kTasks = 512;
  std::vector<int> out(kTasks, 0);
  // Each task owns its slot — the scheduler's sharding contract.
  pool.ParallelFor(kTasks, [&](int i) { out[static_cast<size_t>(i)] = i * i; });
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_EQ(out[static_cast<size_t>(i)], i * i);
  }
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  int sum = 0;
  // No workers: tasks run on the calling thread, in order.
  std::vector<int> order;
  pool.ParallelFor(5, [&](int i) {
    sum += i;
    order.push_back(i);
  });
  EXPECT_EQ(sum, 10);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, SubOneThreadCountsClampToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  ThreadPool negative(-3);
  EXPECT_EQ(negative.num_threads(), 1);
}

TEST(ThreadPoolTest, ZeroTasksIsANoOp) {
  ThreadPool pool(4);
  bool ran = false;
  pool.ParallelFor(0, [&](int) { ran = true; });
  pool.ParallelFor(-7, [&](int) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, SurvivesHeavyReuse) {
  // Hammer the wakeup/epoch handshake with thousands of small jobs.
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  int64_t expected = 0;
  for (int round = 0; round < 4000; ++round) {
    const int tasks = 1 + round % 7;
    for (int i = 0; i < tasks; ++i) expected += i;
    pool.ParallelFor(tasks, [&](int i) {
      total.fetch_add(i, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), expected);
}

TEST(ThreadPoolTest, MoreTasksThanThreadsAndViceVersa) {
  ThreadPool pool(6);
  for (int tasks : {1, 2, 5, 6, 7, 64}) {
    std::atomic<int> count{0};
    pool.ParallelFor(tasks, [&](int) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(count.load(), tasks);
  }
}

TEST(ThreadPoolTest, DefaultThreadsIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreads(), 1);
}

// Late-wakeup regression: with more workers than tasks, the calling thread
// and a few workers finish each job before the rest wake up, so most
// wakeups land after ParallelFor retired the job — and, back to back, often
// after the next job reset the task counter. A worker that adopted the
// retired (null) job then claimed a fresh index and called through a null
// function. The loop is sized so the old pool crashed on most runs.
TEST(ThreadPoolStressTest, BackToBackSmallJobsOnAWidePool) {
  ThreadPool pool(8);
  constexpr int kJobs = 1000000;
  constexpr int kTasks = 4;
  std::atomic<int64_t> runs{0};
  for (int job = 0; job < kJobs; ++job) {
    pool.ParallelFor(kTasks, [&](int) {
      runs.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(runs.load(), int64_t{kJobs} * kTasks);
}

}  // namespace
}  // namespace webmon
