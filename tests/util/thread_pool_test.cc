// RunLanes: every lane runs exactly once, lane 0 on the calling thread and
// each other lane on a thread of its own, all lanes run at once, and their
// writes are visible after the call returns (run it under the tsan preset
// for the full story).

#include "util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace webmon {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  constexpr int kLanes = 16;
  std::vector<std::atomic<int>> hits(kLanes);
  RunLanes(kLanes, [&](int lane) {
    hits[static_cast<size_t>(lane)].fetch_add(1, std::memory_order_relaxed);
  });
  for (int i = 0; i < kLanes; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "lane " << i;
  }
}

TEST(ThreadPoolTest, WritesAreVisibleAfterReturn) {
  constexpr int kLanes = 8;
  constexpr size_t kSlots = 512;
  std::vector<int> out(kSlots, 0);
  // Lane l owns slots l, l + kLanes, ... — RunSharded's striding contract.
  RunLanes(kLanes, [&](int lane) {
    for (size_t i = static_cast<size_t>(lane); i < kSlots; i += kLanes) {
      out[i] = static_cast<int>(i * i);
    }
  });
  for (size_t i = 0; i < kSlots; ++i) {
    ASSERT_EQ(out[i], static_cast<int>(i * i));
  }
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  int runs = 0;
  RunLanes(1, [&](int lane) {
    EXPECT_EQ(lane, 0);
    ran_on = std::this_thread::get_id();
    ++runs;
  });
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(ran_on, caller);
}

// The ingestion driver's ticking lane spins until every producer lane has
// released its events, so RunLanes must run all lanes at once: here each
// lane waits until every lane has arrived. A helper that ran lanes one
// after another, or on fewer threads than lanes, would leave the first
// lane waiting alone; the wait is bounded so that fails instead of hangs.
// Lane 0 runs on the calling thread.
TEST(ThreadPoolTest, AllLanesRunAtOnce) {
  constexpr int kLanes = 8;
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id lane0_ran_on;
  std::atomic<int> arrived{0};
  std::vector<int> met_everyone(kLanes, 0);
  RunLanes(kLanes, [&](int lane) {
    if (lane == 0) lane0_ran_on = std::this_thread::get_id();
    arrived.fetch_add(1, std::memory_order_acq_rel);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (arrived.load(std::memory_order_acquire) < kLanes &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    met_everyone[static_cast<size_t>(lane)] =
        arrived.load(std::memory_order_acquire) == kLanes ? 1 : 0;
  });
  EXPECT_EQ(lane0_ran_on, caller);
  for (int lane = 0; lane < kLanes; ++lane) {
    EXPECT_EQ(met_everyone[static_cast<size_t>(lane)], 1) << "lane " << lane;
  }
}

TEST(ThreadPoolTest, ZeroTasksIsANoOp) {
  bool ran = false;
  RunLanes(0, [&](int) { ran = true; });
  RunLanes(-7, [&](int) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, DefaultThreadsIsPositive) {
  EXPECT_GE(DefaultThreads(), 1);
}

}  // namespace
}  // namespace webmon
