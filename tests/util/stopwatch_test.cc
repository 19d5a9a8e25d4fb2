#include "util/stopwatch.h"

#include <gtest/gtest.h>

namespace webmon {
namespace {

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch watch;
  // Burn a little CPU.
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i * 0.5;
  (void)sink;
  EXPECT_GT(watch.ElapsedNanos(), 0);
  EXPECT_GE(watch.ElapsedSeconds(), 0.0);
  EXPECT_GE(watch.ElapsedMillis(), 0.0);
  // Units are consistent.
  const double s = watch.ElapsedSeconds();
  const double ms = watch.ElapsedMillis();
  EXPECT_NEAR(ms / 1000.0, s, 0.05);
}

TEST(StopwatchTest, ResetRestarts) {
  Stopwatch watch;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i * 0.5;
  (void)sink;
  const double before = watch.ElapsedSeconds();
  watch.Reset();
  EXPECT_LT(watch.ElapsedSeconds(), before + 1e-3);
}

}  // namespace
}  // namespace webmon
