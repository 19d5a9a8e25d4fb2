// Spawn-and-join lanes for deterministic fork-join parallelism.
//
// Its clients are the concurrent ingestion driver's producer lanes and
// RunSharded's parallel shards: RunLanes(n, fn) runs fn(0) on the calling
// thread and fn(1) .. fn(n-1) on threads started for the call, and returns
// once every lane has finished. Every lane has its own thread, so all n run
// at once and a lane may wait on another. Determinism is the caller's side
// of the contract: lanes must write only their own output slots, so the
// combined result is independent of interleaving. RunLanes adds no
// ordering of its own.
//
// This is the only file in the repository allowed to spawn raw std::thread
// (webmon_lint rule `thread`); everything concurrent goes through here so
// thread creation, joining and TSan coverage stay centralized.

#ifndef WEBMON_UTIL_THREAD_POOL_H_
#define WEBMON_UTIL_THREAD_POOL_H_

#include <functional>

namespace webmon {

/// Runs fn(0) .. fn(lanes - 1), each exactly once and all concurrently:
/// lane 0 on the calling thread, every other lane on a thread of its own.
/// Returns after the last lane completes; all writes made by the lanes
/// happen-before the return. `lanes` below 1 runs nothing. Lanes report
/// failure through their own output slots: an exception escaping a lane
/// ends the program.
void RunLanes(int lanes, const std::function<void(int)>& fn);

/// Hardware concurrency clamped to at least 1.
int DefaultThreads();

}  // namespace webmon

#endif  // WEBMON_UTIL_THREAD_POOL_H_
