// Tests for the per-rank virtual clock (time accounting is the
// measurement instrument of every benchmark, so it gets its own suite).
#include <gtest/gtest.h>

#include "rt/clock.h"
#include "util/error.h"

namespace {

using clampi::rmasim::TimePolicy;
using clampi::rmasim::VirtualClock;

TEST(VirtualClock, StartsAtZero) {
  VirtualClock c(TimePolicy::kModeled);
  EXPECT_DOUBLE_EQ(c.now_us(), 0.0);
}

TEST(VirtualClock, AdvanceAccumulates) {
  VirtualClock c(TimePolicy::kModeled);
  c.advance_us(1.5);
  c.advance_us(2.5);
  EXPECT_DOUBLE_EQ(c.now_us(), 4.0);
}

TEST(VirtualClock, AdvanceToOnlyMovesForward) {
  VirtualClock c(TimePolicy::kModeled);
  c.advance_us(10.0);
  c.advance_to_us(5.0);  // in the past: no-op
  EXPECT_DOUBLE_EQ(c.now_us(), 10.0);
  c.advance_to_us(15.0);
  EXPECT_DOUBLE_EQ(c.now_us(), 15.0);
}

TEST(VirtualClock, ModeledEnterExitIsFree) {
  VirtualClock c(TimePolicy::kModeled);
  c.start_measurement();
  volatile double x = 1.0;
  for (int i = 0; i < 200000; ++i) x = x * 1.0000001 + 0.1;
  c.enter_runtime();
  c.exit_runtime();
  EXPECT_DOUBLE_EQ(c.now_us(), 0.0);  // burned real CPU, charged nothing
}

TEST(VirtualClock, MeasuredPolicyChargesUserTime) {
  VirtualClock c(TimePolicy::kMeasured);
  c.start_measurement();
  volatile double x = 1.0;
  for (int i = 0; i < 2000000; ++i) x = x * 1.0000001 + 0.1;
  c.enter_runtime();  // accrues the loop above
  const double t1 = c.now_us();
  EXPECT_GT(t1, 50.0);  // a multi-million-iteration loop is >> 50us
  c.exit_runtime();
}

TEST(VirtualClock, NestedRuntimeSectionsAccrueOnce) {
  VirtualClock c(TimePolicy::kMeasured);
  c.start_measurement();
  c.enter_runtime();
  const double t0 = c.now_us();
  // Nested enter/exit (collectives call primitives): inner pairs must not
  // re-anchor or double-charge.
  c.enter_runtime();
  volatile double x = 1.0;
  for (int i = 0; i < 2000000; ++i) x = x * 1.0000001 + 0.1;
  c.exit_runtime();
  c.exit_runtime();
  // Work inside the runtime section is never charged as user time.
  EXPECT_DOUBLE_EQ(c.now_us(), t0);
}

TEST(VirtualClock, MeasuredScaleMultiplies) {
  VirtualClock fast(TimePolicy::kMeasured, /*scale=*/1.0);
  VirtualClock slow(TimePolicy::kMeasured, /*scale=*/3.0);
  fast.start_measurement();
  slow.start_measurement();
  volatile double x = 1.0;
  for (int i = 0; i < 3000000; ++i) x = x * 1.0000001 + 0.1;
  fast.enter_runtime();
  slow.enter_runtime();
  // Same real work, 3x the scale: the ratio should be ~3 (loose bounds:
  // the two measurements bracket slightly different instants).
  EXPECT_GT(slow.now_us(), 1.5 * fast.now_us());
  fast.exit_runtime();
  slow.exit_runtime();
}

// A time sample (Process::now_us) reads the clock once: it charges the
// user time since the last anchor and re-anchors, so neither a second
// sample nor the next runtime call charges the same work again.
TEST(VirtualClock, MeasuredSampleChargesOnceAndReanchors) {
  VirtualClock c(TimePolicy::kMeasured);
  c.start_measurement();
  volatile double x = 1.0;
  for (int i = 0; i < 2000000; ++i) x = x * 1.0000001 + 0.1;
  const double t1 = c.sample_us();
  EXPECT_GT(t1, 50.0);
  EXPECT_DOUBLE_EQ(c.now_us(), t1);
  // Loose bounds: only the few instructions between the reads are
  // charged, far below the loop's cost even on a loaded machine.
  const double t2 = c.sample_us();
  EXPECT_GE(t2, t1);
  EXPECT_LT(t2 - t1, t1 / 2);
  c.enter_runtime();
  const double t3 = c.now_us();
  EXPECT_DOUBLE_EQ(c.sample_us(), t3);  // inside the runtime: the plain value
  c.exit_runtime();
  EXPECT_GE(t3, t2);
  EXPECT_LT(t3 - t2, t1 / 2);
}

TEST(VirtualClock, ModeledSampleIsTheClock) {
  VirtualClock c(TimePolicy::kModeled);
  c.start_measurement();
  c.advance_us(3.5);
  volatile double x = 1.0;
  for (int i = 0; i < 200000; ++i) x = x * 1.0000001 + 0.1;
  EXPECT_DOUBLE_EQ(c.sample_us(), 3.5);
  EXPECT_DOUBLE_EQ(c.now_us(), 3.5);
}

// Before start_measurement() nothing is charged; the first sample anchors
// the clock, as an enter/exit pair does, so later work is charged.
TEST(VirtualClock, SampleBeforeStartMeasurementAnchors) {
  VirtualClock sampled(TimePolicy::kMeasured);
  VirtualClock paired(TimePolicy::kMeasured);
  volatile double x = 1.0;
  for (int i = 0; i < 2000000; ++i) x = x * 1.0000001 + 0.1;
  EXPECT_DOUBLE_EQ(sampled.sample_us(), 0.0);
  paired.enter_runtime();
  EXPECT_DOUBLE_EQ(paired.now_us(), 0.0);
  paired.exit_runtime();
  for (int i = 0; i < 2000000; ++i) x = x * 1.0000001 + 0.1;
  EXPECT_GT(sampled.sample_us(), 50.0);
  paired.enter_runtime();
  EXPECT_GT(paired.now_us(), 50.0);
  paired.exit_runtime();
}

TEST(VirtualClock, NegativeAdvanceAborts) {
  VirtualClock c(TimePolicy::kModeled);
  EXPECT_DEATH(c.advance_us(-1.0), "backwards");
}

}  // namespace
