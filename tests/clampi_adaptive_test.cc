// Tests for the adaptive parameter selection (Sec. III-E1).
#include <gtest/gtest.h>

#include "clampi/adaptive.h"
#include "util/align.h"

namespace {

using clampi::AdaptiveTuner;
using clampi::Config;
using clampi::Stats;

Config cfg() {
  Config c;
  c.adaptive = true;
  c.conflict_threshold = 0.05;
  c.capacity_threshold = 0.10;
  c.stable_threshold = 0.60;
  c.sparsity_threshold = 0.25;
  c.free_threshold = 0.50;
  c.min_index_entries = 64;
  c.max_index_entries = 1 << 20;
  c.min_storage_bytes = 64 << 10;
  c.max_storage_bytes = 1 << 30;
  return c;
}

Stats gets(std::uint64_t n) {
  Stats s;
  s.total_gets = n;
  return s;
}

TEST(Adaptive, NoChangeOnQuietWindow) {
  AdaptiveTuner t(cfg());
  Stats d = gets(1000);
  d.hits_full = 500;  // healthy but not stable enough to shrink
  const auto dec = t.evaluate(d, 1024, 1 << 20, 1 << 19);
  EXPECT_FALSE(dec.change);
}

TEST(Adaptive, NoChangeWithoutTraffic) {
  AdaptiveTuner t(cfg());
  const auto dec = t.evaluate(Stats{}, 1024, 1 << 20, 0);
  EXPECT_FALSE(dec.change);
}

TEST(Adaptive, ConflictsGrowIndex) {
  AdaptiveTuner t(cfg());
  Stats d = gets(1000);
  d.conflicting = 100;  // 10% > 5% threshold
  const auto dec = t.evaluate(d, 1024, 1 << 20, 0);
  EXPECT_TRUE(dec.change);
  EXPECT_EQ(dec.index_entries, 2048u);
  EXPECT_EQ(dec.storage_bytes, std::size_t{1} << 20);
}

TEST(Adaptive, ConflictsBelowThresholdDoNotGrowIndex) {
  AdaptiveTuner t(cfg());
  Stats d = gets(1000);
  d.conflicting = 40;  // 4% < 5%
  const auto dec = t.evaluate(d, 1024, 1 << 20, 0);
  EXPECT_EQ(dec.index_entries, 1024u);
}

TEST(Adaptive, SparseIndexShrinksAfterPatience) {
  // q = nonempty/visited below the sparsity threshold signals a sparse
  // I_w that degrades victim selection. Shrinking is hysteretic: it fires
  // only after `shrink_patience` consecutive qualifying windows.
  AdaptiveTuner t(cfg());
  Stats d = gets(1000);
  d.eviction_rounds = 50;
  d.visited_slots = 2000;
  d.visited_nonempty = 100;  // q = 0.05 < 0.25
  auto dec = t.evaluate(d, 4096, 1 << 20, 0);
  EXPECT_FALSE(dec.change);  // first window: patience not yet exhausted
  dec = t.evaluate(d, 4096, 1 << 20, 0);
  EXPECT_TRUE(dec.change);
  EXPECT_EQ(dec.index_entries, 2048u);
}

TEST(Adaptive, ShrinkStreakResetsOnHealthyWindow) {
  AdaptiveTuner t(cfg());
  Stats sparse = gets(1000);
  sparse.eviction_rounds = 50;
  sparse.visited_slots = 2000;
  sparse.visited_nonempty = 100;
  EXPECT_FALSE(t.evaluate(sparse, 4096, 1 << 20, 0).change);
  Stats healthy = gets(1000);
  healthy.hits_full = 500;
  EXPECT_FALSE(t.evaluate(healthy, 4096, 1 << 20, 0).change);  // streak reset
  EXPECT_FALSE(t.evaluate(sparse, 4096, 1 << 20, 0).change);   // starts over
  EXPECT_TRUE(t.evaluate(sparse, 4096, 1 << 20, 0).change);
}

TEST(Adaptive, SparsityIgnoredWithoutEvictionRounds) {
  AdaptiveTuner t(cfg());
  Stats d = gets(1000);
  d.visited_slots = 0;
  d.visited_nonempty = 0;
  const auto dec = t.evaluate(d, 4096, 1 << 20, 0);
  EXPECT_EQ(dec.index_entries, 4096u);
}

TEST(Adaptive, CapacityAndFailingGrowMemory) {
  AdaptiveTuner t(cfg());
  Stats d = gets(1000);
  d.capacity = 70;
  d.failing = 50;
  d.failed_capacity = 50;  // (70+50)/1000 = 12% > 10%
  const auto dec = t.evaluate(d, 1024, 1 << 20, 0);
  EXPECT_TRUE(dec.change);
  EXPECT_EQ(dec.storage_bytes, std::size_t{1} << 21);
}

TEST(Adaptive, IndexInducedFailuresGrowIndexNotMemory) {
  // A full-and-conflicted index produces failing accesses whose cause is
  // I_w; the tuner must grow the index instead of ballooning |S_w|.
  AdaptiveTuner t(cfg());
  Stats d = gets(1000);
  d.failing = 200;
  d.failed_index = 200;
  const auto dec = t.evaluate(d, 1024, 1 << 20, 1 << 18);
  EXPECT_TRUE(dec.change);
  EXPECT_EQ(dec.index_entries, 2048u);
  EXPECT_EQ(dec.storage_bytes, std::size_t{1} << 20);
}

TEST(Adaptive, StableWorkingSetWithFreeSpaceShrinksMemory) {
  AdaptiveTuner t(cfg());
  Stats d = gets(1000);
  d.hits_full = 700;  // 70% > 60% stable
  // 87.5% free > 75% free threshold; needs two qualifying windows.
  auto dec = t.evaluate(d, 1024, 1 << 20, (1 << 20) * 7 / 8);
  EXPECT_FALSE(dec.change);
  dec = t.evaluate(d, 1024, 1 << 20, (1 << 20) * 7 / 8);
  EXPECT_TRUE(dec.change);
  EXPECT_EQ(dec.storage_bytes, std::size_t{1} << 19);
}

TEST(Adaptive, StableButFullDoesNotShrink) {
  AdaptiveTuner t(cfg());
  Stats d = gets(1000);
  d.hits_full = 700;
  const auto dec = t.evaluate(d, 1024, 1 << 20, (1 << 20) / 4);  // only 25% free
  EXPECT_FALSE(dec.change);
}

TEST(Adaptive, GrowthWinsOverShrink) {
  // Capacity pressure and a stable working set cannot both hold, but if
  // the ratios say "grow" the tuner must never shrink in the same window.
  AdaptiveTuner t(cfg());
  Stats d = gets(1000);
  d.capacity = 200;
  d.hits_full = 700;
  const auto dec = t.evaluate(d, 1024, 1 << 20, 1 << 19);
  EXPECT_GT(dec.storage_bytes, std::size_t{1} << 20);
}

TEST(Adaptive, BothStructuresCanGrowTogether) {
  AdaptiveTuner t(cfg());
  Stats d = gets(1000);
  d.conflicting = 100;
  d.capacity = 150;
  const auto dec = t.evaluate(d, 1024, 1 << 20, 0);
  EXPECT_EQ(dec.index_entries, 2048u);
  EXPECT_EQ(dec.storage_bytes, std::size_t{1} << 21);
}

TEST(Adaptive, ClampsAtConfiguredBounds) {
  AdaptiveTuner t(cfg());
  Stats d = gets(1000);
  d.conflicting = 500;
  d.capacity = 500;
  auto dec = t.evaluate(d, 1 << 20, 1 << 30, 0);  // already at max
  EXPECT_FALSE(dec.change);

  Stats shrink = gets(1000);
  shrink.eviction_rounds = 10;
  shrink.visited_slots = 100;
  shrink.visited_nonempty = 1;
  shrink.hits_full = 900;
  dec = t.evaluate(shrink, 64, 64 << 10, 60 << 10);  // already at min
  EXPECT_FALSE(dec.change);
}

TEST(Adaptive, CustomFactorsRespected) {
  Config c = cfg();
  c.index_increase_factor = 4.0;
  c.memory_increase_factor = 3.0;
  AdaptiveTuner t(c);
  Stats d = gets(100);
  d.conflicting = 50;
  d.capacity = 50;
  const auto dec = t.evaluate(d, 100, 1 << 20, 0);
  EXPECT_EQ(dec.index_entries, 400u);
  EXPECT_EQ(dec.storage_bytes, clampi::util::round_up(3u << 20, 64));
}

}  // namespace
