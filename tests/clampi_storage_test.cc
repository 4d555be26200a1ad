// Tests for S_w: best-fit AVL allocation, descriptor list, coalescing,
// in-place extension and the adjacent-free d_c metric (Secs. III-C2/C3).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <vector>

#include "clampi/storage.h"
#include "util/align.h"
#include "util/rng.h"

namespace {

using clampi::Storage;
using clampi::util::kCacheLineBytes;

TEST(Storage, CapacityRoundedToCacheLine) {
  Storage s(1000);
  EXPECT_EQ(s.capacity(), 1024u);
  EXPECT_EQ(s.free_bytes(), 1024u);
  EXPECT_TRUE(s.validate());
}

TEST(Storage, AllocSizesAreCacheLineMultiples) {
  Storage s(4096);
  auto* r = s.alloc(1);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->size, kCacheLineBytes);
  auto* r2 = s.alloc(65);
  ASSERT_NE(r2, nullptr);
  EXPECT_EQ(r2->size, 2 * kCacheLineBytes);
  EXPECT_TRUE(s.validate());
}

TEST(Storage, AllocationsAreDisjointAndWritable) {
  Storage s(4096);
  std::vector<Storage::Region*> regs;
  for (int i = 0; i < 8; ++i) {
    auto* r = s.alloc(128);
    ASSERT_NE(r, nullptr);
    std::memset(s.data(r), i + 1, r->size);
    regs.push_back(r);
  }
  for (int i = 0; i < 8; ++i) {
    for (std::size_t b = 0; b < regs[i]->size; ++b) {
      ASSERT_EQ(std::to_integer<int>(s.data(regs[i])[b]), i + 1);
    }
  }
  EXPECT_TRUE(s.validate());
}

TEST(Storage, ExhaustionReturnsNull) {
  Storage s(256);
  EXPECT_NE(s.alloc(256), nullptr);
  EXPECT_EQ(s.alloc(1), nullptr);
  EXPECT_TRUE(s.validate());
}

TEST(Storage, BestFitPicksSmallestSufficientHole) {
  Storage s(64 * 10);
  auto* a = s.alloc(64);      // [0,64)
  auto* hole1 = s.alloc(128); // [64,192)  -> will become a 128B hole
  auto* b = s.alloc(64);      // [192,256)
  auto* hole2 = s.alloc(64);  // [256,320) -> will become a 64B hole
  auto* c = s.alloc(64);      // [320,384)
  (void)a;
  (void)b;
  (void)c;
  s.dealloc(hole1);
  s.dealloc(hole2);
  // Request 64B: best fit must choose the 64B hole at offset 256, not the
  // 128B hole at 64 (and not the trailing free space).
  auto* r = s.alloc(64);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->offset, 256u);
  EXPECT_TRUE(s.validate());
}

TEST(Storage, DeallocCoalescesBothSides) {
  Storage s(64 * 8);
  auto* a = s.alloc(64);
  auto* b = s.alloc(64);
  auto* c = s.alloc(64);
  s.alloc(64);  // guard so c does not merge with the tail free region
  s.dealloc(a);
  s.dealloc(c);
  EXPECT_TRUE(s.validate());
  s.dealloc(b);  // merges a+b+c into one 192B hole
  EXPECT_TRUE(s.validate());
  auto* r = s.alloc(192);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->offset, 0u);
}

TEST(Storage, ExternalFragmentationBlocksLargeAlloc) {
  // Free space is sufficient in total but split: the allocator must fail,
  // which is exactly the situation the positional score exists to avoid.
  Storage s(64 * 4);
  auto* a = s.alloc(64);
  auto* b = s.alloc(64);
  auto* c = s.alloc(64);
  auto* d = s.alloc(64);
  (void)b;
  (void)d;
  s.dealloc(a);
  s.dealloc(c);
  EXPECT_EQ(s.free_bytes(), 128u);
  EXPECT_EQ(s.largest_free(), 64u);
  EXPECT_EQ(s.alloc(128), nullptr);
  EXPECT_TRUE(s.validate());
}

TEST(Storage, TryExtendInPlace) {
  Storage s(64 * 8);
  auto* a = s.alloc(64);
  EXPECT_TRUE(s.try_extend(a, 128));  // eats the following free space
  EXPECT_EQ(a->size, 128u);
  EXPECT_TRUE(s.validate());
  // Block the next region and try again.
  auto* b = s.alloc(64);
  (void)b;
  EXPECT_FALSE(s.try_extend(a, 256));
  EXPECT_EQ(a->size, 128u);
  EXPECT_TRUE(s.validate());
}

TEST(Storage, TryExtendConsumesWholeNeighbour) {
  Storage s(64 * 4);
  auto* a = s.alloc(64);
  auto* b = s.alloc(64);
  auto* c = s.alloc(64);
  (void)c;
  s.dealloc(b);
  EXPECT_TRUE(s.try_extend(a, 128));  // exactly consumes b's hole
  EXPECT_EQ(a->size, 128u);
  EXPECT_TRUE(s.validate());
}

TEST(Storage, TryExtendNoopWhenAlreadyBigEnough) {
  Storage s(1024);
  auto* a = s.alloc(128);
  const std::size_t free_before = s.free_bytes();
  EXPECT_TRUE(s.try_extend(a, 100));
  EXPECT_EQ(s.free_bytes(), free_before);
}

TEST(Storage, AdjacentFreeTracksNeighbours) {
  Storage s(64 * 6);
  auto* a = s.alloc(64);
  auto* b = s.alloc(64);
  auto* c = s.alloc(64);
  auto* d = s.alloc(64);
  auto* e = s.alloc(64);
  (void)e;
  auto* tail_guard = s.alloc(64);
  (void)tail_guard;
  EXPECT_EQ(s.adjacent_free(b), 0u);
  s.dealloc(a);
  EXPECT_EQ(s.adjacent_free(b), 64u);
  s.dealloc(c);
  EXPECT_EQ(s.adjacent_free(b), 128u);
  s.dealloc(e);
  EXPECT_EQ(s.adjacent_free(d), 128u);  // c's hole + e's hole
  EXPECT_TRUE(s.validate());
}

TEST(Storage, ResetRestoresOneFreeRegion) {
  Storage s(2048);
  for (int i = 0; i < 10; ++i) s.alloc(100);
  s.reset();
  EXPECT_EQ(s.free_bytes(), s.capacity());
  EXPECT_EQ(s.allocated_regions(), 0u);
  EXPECT_EQ(s.largest_free(), s.capacity());
  EXPECT_TRUE(s.validate());
  EXPECT_NE(s.alloc(2048), nullptr);
}

TEST(Storage, RebuildChangesCapacity) {
  Storage s(1024);
  s.alloc(512);
  s.rebuild(4096);
  EXPECT_EQ(s.capacity(), 4096u);
  EXPECT_EQ(s.free_bytes(), 4096u);
  EXPECT_TRUE(s.validate());
}

// Property test: random alloc/free/extend sequences against a brute-force
// shadow allocator; validates byte accounting, disjointness and d_c.
// Resident set size of this process, from /proc/self/statm.
std::size_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t size_pages = 0, resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

TEST(Storage, ArenaPagesAreFaultedInByWritesOnly) {
  // S_w is sized for the largest working set, not the current one: building
  // or rebuilding it must not touch its pages. The bounds leave room for
  // allocator and sanitizer bookkeeping and for 2 MiB transparent huge pages.
  constexpr std::size_t kMiB = std::size_t{1} << 20;
  constexpr std::size_t kArena = 512 * kMiB;
  const std::size_t before = resident_bytes();
  Storage s(kArena);
  const std::size_t built = resident_bytes();
  EXPECT_LT(built - std::min(built, before), 16 * kMiB);

  Storage::Region* r = s.alloc(kMiB);
  ASSERT_NE(r, nullptr);
  std::memset(s.data(r), 0x5a, kMiB);
  const std::size_t written = resident_bytes();
  EXPECT_GE(written - std::min(written, built), kMiB * 3 / 4);
  EXPECT_LT(written - std::min(written, built), 8 * kMiB);

  s.rebuild(kArena);
  const std::size_t rebuilt = resident_bytes();
  EXPECT_LT(rebuilt - std::min(rebuilt, written), 16 * kMiB);
  EXPECT_TRUE(s.validate());
}

class StorageRandomOps : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StorageRandomOps, InvariantsHoldUnderChurn) {
  clampi::util::Xoshiro256 rng(GetParam());
  Storage s(64 * 1024);
  std::vector<Storage::Region*> live;
  for (int step = 0; step < 30000; ++step) {
    const double roll = rng.uniform();
    if (roll < 0.5) {
      const std::size_t want = 1 + rng.bounded(4096);
      auto* r = s.alloc(want);
      if (r != nullptr) {
        EXPECT_GE(r->size, want);
        live.push_back(r);
      }
    } else if (roll < 0.85 && !live.empty()) {
      const std::size_t i = rng.bounded(live.size());
      s.dealloc(live[i]);
      live[i] = live.back();
      live.pop_back();
    } else if (!live.empty()) {
      const std::size_t i = rng.bounded(live.size());
      s.try_extend(live[i], live[i]->size + rng.bounded(512));
    }
    if (step % 2500 == 0) {
      ASSERT_TRUE(s.validate()) << "at step " << step;
      // Disjointness via sorted offsets.
      std::vector<std::pair<std::size_t, std::size_t>> spans;
      spans.reserve(live.size());
      for (auto* r : live) spans.emplace_back(r->offset, r->size);
      std::sort(spans.begin(), spans.end());
      for (std::size_t k = 1; k < spans.size(); ++k) {
        ASSERT_GE(spans[k].first, spans[k - 1].first + spans[k - 1].second);
      }
    }
  }
  ASSERT_TRUE(s.validate());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorageRandomOps, ::testing::Values(1u, 7u, 99u, 12345u));

}  // namespace
