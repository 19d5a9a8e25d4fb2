// Wall-clock stopwatch for the runtime-cost experiments (Section V-D), and
// process-memory sampling for the sustained-throughput benches
// (docs/PERFORMANCE.md "Memory & sustained throughput").

#ifndef WEBMON_UTIL_STOPWATCH_H_
#define WEBMON_UTIL_STOPWATCH_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>

#if defined(__GLIBC__) || defined(__linux__)
#include <malloc.h>
#endif

namespace webmon {

/// Measures elapsed wall time with steady_clock; starts on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the measurement.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed time in seconds since construction or the last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed time in milliseconds.
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

  /// Elapsed time in whole nanoseconds.
  int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Point-in-time process memory counters. Fields are -1 when the platform
/// does not expose the underlying source (both are Linux/glibc facilities;
/// callers must treat negative values as "unknown", not as data).
struct MemorySample {
  /// Bytes currently handed out by the C heap (glibc mallinfo2 uordblks):
  /// net allocation, so a delta across a steady-state window should be ~0.
  int64_t heap_bytes = -1;
  /// Peak resident set size of the process (/proc/self/status VmHWM).
  int64_t peak_rss_bytes = -1;
  /// Current resident set size of the process (/proc/self/status VmRSS).
  int64_t rss_bytes = -1;
};

/// Samples the process's current memory counters. Not async-signal-safe and
/// not cheap (reads procfs) — call it around measured regions, never inside
/// the per-chronon hot path.
inline MemorySample SampleMemory() {
  MemorySample sample;
#if defined(__GLIBC__) && (__GLIBC__ > 2 || \
                           (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
  const struct mallinfo2 mi = mallinfo2();
  sample.heap_bytes = static_cast<int64_t>(mi.uordblks);
#endif
#if defined(__linux__)
  if (std::FILE* f = std::fopen("/proc/self/status", "re")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      long long kb = 0;
      if (std::sscanf(line, "VmHWM: %lld kB", &kb) == 1) {
        sample.peak_rss_bytes = static_cast<int64_t>(kb) * 1024;
      } else if (std::sscanf(line, "VmRSS: %lld kB", &kb) == 1) {
        sample.rss_bytes = static_cast<int64_t>(kb) * 1024;
      }
    }
    std::fclose(f);
  }
#endif
  return sample;
}

/// Scoped peak-RSS / heap-delta sampler: captures a MemorySample at
/// construction; the accessors report the change up to the call. Used by
/// bench_micro to report bytes/chronon alongside timings — wrap exactly
/// the measured steady-state window.
class ScopedMemorySampler {
 public:
  ScopedMemorySampler() : start_(SampleMemory()) {}

  /// Restarts the measurement window.
  void Reset() { start_ = SampleMemory(); }

  /// Net C-heap growth since construction/Reset (bytes); 0 when the heap
  /// counters are unavailable on this platform.
  int64_t HeapDeltaBytes() const {
    const MemorySample now = SampleMemory();
    if (now.heap_bytes < 0 || start_.heap_bytes < 0) return 0;
    return now.heap_bytes - start_.heap_bytes;
  }

  /// Peak-RSS growth since construction/Reset (bytes); 0 when unavailable.
  /// VmHWM is monotone, so this is how much the measured region pushed the
  /// process's high-water mark.
  int64_t PeakRssDeltaBytes() const {
    const MemorySample now = SampleMemory();
    if (now.peak_rss_bytes < 0 || start_.peak_rss_bytes < 0) return 0;
    return now.peak_rss_bytes - start_.peak_rss_bytes;
  }

  /// Absolute current peak RSS (bytes); -1 when unavailable.
  int64_t PeakRssBytes() const { return SampleMemory().peak_rss_bytes; }

  /// Current-RSS growth since construction/Reset (bytes); 0 when
  /// unavailable. Unlike the high-water mark, it measures the window's own
  /// footprint even when earlier work in the process peaked higher.
  int64_t RssDeltaBytes() const {
    const MemorySample now = SampleMemory();
    if (now.rss_bytes < 0 || start_.rss_bytes < 0) return 0;
    return now.rss_bytes - start_.rss_bytes;
  }

 private:
  MemorySample start_;
};

}  // namespace webmon

#endif  // WEBMON_UTIL_STOPWATCH_H_
