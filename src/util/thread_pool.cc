#include "util/thread_pool.h"

#include <thread>
#include <vector>

namespace webmon {

void RunLanes(int lanes, const std::function<void(int)>& fn) {
  if (lanes <= 0) return;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(lanes - 1));
  for (int lane = 1; lane < lanes; ++lane) {
    threads.emplace_back([&fn, lane] { fn(lane); });
  }
  fn(0);
  for (std::thread& thread : threads) thread.join();
}

int DefaultThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace webmon
