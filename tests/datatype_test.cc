// Tests for the datatype layer (paper Sec. II-B).
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "datatype/datatype.h"
#include "util/error.h"

namespace {

using clampi::dt::Block;
using clampi::dt::Datatype;
using clampi::dt::normalize;

TEST(Normalize, SortsAndMergesAdjacent) {
  auto out = normalize({{8, 4}, {0, 4}, {4, 4}, {20, 2}});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (Block{0, 12}));
  EXPECT_EQ(out[1], (Block{20, 2}));
}

TEST(Normalize, DropsEmptyBlocks) {
  auto out = normalize({{0, 0}, {4, 2}, {10, 0}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (Block{4, 2}));
}

TEST(Normalize, RejectsOverlap) {
  EXPECT_THROW(normalize({{0, 8}, {4, 8}}), clampi::util::ContractError);
}

TEST(Contiguous, SizeExtentBlocks) {
  auto t = Datatype::contiguous(24);
  EXPECT_EQ(t.size(), 24u);
  EXPECT_EQ(t.extent(), 24u);
  EXPECT_TRUE(t.is_contiguous());
  ASSERT_EQ(t.blocks().size(), 1u);
  EXPECT_EQ(t.blocks()[0], (Block{0, 24}));
}

TEST(Contiguous, ZeroSized) {
  auto t = Datatype::contiguous(0);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.blocks().empty());
}

TEST(Vector, StridedLayout) {
  // 3 blocks of 2 doubles, stride 4 doubles.
  auto t = Datatype::vector(3, 2, 4, Datatype::contiguous(8));
  EXPECT_EQ(t.size(), 3u * 2u * 8u);
  EXPECT_EQ(t.extent(), (2u * 4u + 2u) * 8u);
  ASSERT_EQ(t.blocks().size(), 3u);
  EXPECT_EQ(t.blocks()[0], (Block{0, 16}));
  EXPECT_EQ(t.blocks()[1], (Block{32, 16}));
  EXPECT_EQ(t.blocks()[2], (Block{64, 16}));
}

TEST(Vector, UnitStrideCollapsesToContiguous) {
  auto t = Datatype::vector(4, 1, 1, Datatype::contiguous(4));
  EXPECT_TRUE(t.is_contiguous());
  EXPECT_EQ(t.size(), 16u);
}

TEST(Indexed, IrregularBlocks) {
  auto t = Datatype::indexed({2, 1}, {0, 5}, Datatype::contiguous(4));
  EXPECT_EQ(t.size(), 12u);
  ASSERT_EQ(t.blocks().size(), 2u);
  EXPECT_EQ(t.blocks()[0], (Block{0, 8}));
  EXPECT_EQ(t.blocks()[1], (Block{20, 4}));
  EXPECT_EQ(t.extent(), 24u);
}

TEST(Structure, HeterogeneousMembers) {
  // struct { double d; char pad[4]; int i[2]; } -> d at 0, ints at 12.
  auto t = Datatype::structure({1, 2}, {0, 12},
                               {Datatype::contiguous(8), Datatype::contiguous(4)});
  EXPECT_EQ(t.size(), 16u);
  ASSERT_EQ(t.blocks().size(), 2u);
  EXPECT_EQ(t.blocks()[0], (Block{0, 8}));
  EXPECT_EQ(t.blocks()[1], (Block{12, 8}));
}

TEST(Flatten, MultipleCountsMergeTouchingBlocks) {
  auto t = Datatype::contiguous(8);
  auto blocks = t.flatten(5);  // 5 adjacent elements merge into one block
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0], (Block{0, 40}));
}

TEST(Flatten, StridedCountsStaySeparate) {
  auto t = Datatype::vector(2, 1, 2, Datatype::contiguous(4));  // extent 12... blocks at 0,8
  auto blocks = t.flatten(2);
  // element extent is (1*2+1)*4 = 12; blocks: 0,8 then 12,20 -> 8 merges with 12? No:
  // block {8,4} and {12,4} touch, so they merge.
  std::size_t total = 0;
  for (auto& b : blocks) total += b.size;
  EXPECT_EQ(total, t.size_of(2));
}

TEST(PackUnpack, RoundTripVector) {
  auto t = Datatype::vector(4, 2, 3, Datatype::contiguous(4));
  std::vector<std::uint8_t> src(t.extent() * 2);
  std::iota(src.begin(), src.end(), 0);
  std::vector<std::uint8_t> packed(t.size_of(2), 0xff);
  t.pack(src.data(), 2, packed.data());

  std::vector<std::uint8_t> dst(src.size(), 0);
  t.unpack(packed.data(), 2, dst.data());
  // Every byte covered by the type must round-trip; gaps stay zero.
  std::size_t covered = 0;
  for (std::size_t c = 0; c < 2; ++c) {
    for (const Block& b : t.blocks()) {
      for (std::size_t i = 0; i < b.size; ++i) {
        const std::size_t off = c * t.extent() + b.offset + i;
        EXPECT_EQ(dst[off], src[off]);
        ++covered;
      }
    }
  }
  EXPECT_EQ(covered, t.size_of(2));
}

TEST(PackUnpack, PackedBytesAreInLayoutOrder) {
  auto t = Datatype::indexed({1, 1}, {2, 0}, Datatype::contiguous(1));
  // normalize sorts by offset: blocks at 0 and 2.
  std::uint8_t src[3] = {10, 11, 12};
  std::uint8_t packed[2] = {0, 0};
  t.pack(src, 1, packed);
  EXPECT_EQ(packed[0], 10);
  EXPECT_EQ(packed[1], 12);
}

TEST(Signature, DistinguishesLayouts) {
  auto a = Datatype::contiguous(16);
  auto b = Datatype::vector(2, 1, 2, Datatype::contiguous(8));
  auto c = Datatype::contiguous(16);
  EXPECT_NE(a.signature(), b.signature());
  EXPECT_EQ(a.signature(), c.signature());
}

TEST(Nested, VectorOfIndexed) {
  auto inner = Datatype::indexed({1}, {1}, Datatype::contiguous(2));  // 2B at off 2, extent 4
  auto outer = Datatype::vector(2, 1, 2, inner);
  EXPECT_EQ(outer.size(), 4u);
  ASSERT_EQ(outer.blocks().size(), 2u);
  EXPECT_EQ(outer.blocks()[0], (Block{2, 2}));
  EXPECT_EQ(outer.blocks()[1], (Block{10, 2}));
}

TEST(Footprint, EndsAtTheLastFlattenedBlock) {
  EXPECT_EQ(Datatype::vector(2, 8, 64, Datatype::contiguous(1)).footprint(1), 72u);
  EXPECT_EQ(Datatype::contiguous(8).footprint(5), 40u);
  EXPECT_EQ(Datatype::contiguous(8).footprint(0), 0u);
  const Datatype types[] = {
      Datatype::vector(3, 2, 5, Datatype::contiguous(4)),
      Datatype::indexed({1}, {1}, Datatype::contiguous(2)),  // gap before the block
      Datatype::structure({1, 2}, {0, 16}, {Datatype::contiguous(3),
                                            Datatype::contiguous(2)}),
  };
  for (const Datatype& t : types) {
    for (std::size_t count = 1; count <= 4; ++count) {
      const auto blocks = t.flatten(count);
      EXPECT_EQ(t.footprint(count), blocks.back().offset + blocks.back().size);
      EXPECT_GE(t.footprint(count), t.size_of(count));
    }
  }
}

TEST(SizeOf, MatchesBlocksTimesCount) {
  auto t = Datatype::vector(3, 2, 5, Datatype::contiguous(4));
  EXPECT_EQ(t.size_of(7), 7u * t.size());
}

}  // namespace
