// Tests for util::PageBuffer, the mmap-backed memory behind rmasim window
// segments and the CLaMPI S_w arena.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <utility>

#include "util/page_buffer.h"

namespace {

using clampi::util::PageBuffer;

constexpr std::size_t kMiB = std::size_t{1} << 20;

std::size_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t size_pages = 0, resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

bool all_zero(const std::byte* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (p[i] != std::byte{0}) return false;
  }
  return true;
}

std::uintptr_t addr(const PageBuffer& b) { return reinterpret_cast<std::uintptr_t>(b.data()); }

TEST(PageBuffer, ZeroBytesMapsNothing) {
  EXPECT_EQ(PageBuffer(0).data(), nullptr);
  EXPECT_EQ(PageBuffer().data(), nullptr);
}

TEST(PageBuffer, BytesAreZero) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{4097}, 3 * kMiB + 123}) {
    PageBuffer b(n);
    ASSERT_NE(b.data(), nullptr);
    EXPECT_TRUE(all_zero(b.data(), n)) << n << " bytes";
  }
}

TEST(PageBuffer, LargeRequestsAreHugePageAligned) {
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  for (const std::size_t n : {std::size_t{64}, std::size_t{4096}, 2 * kMiB - 1}) {
    PageBuffer b(n);
    EXPECT_EQ(addr(b) % page, 0u) << n << " bytes";
  }
  for (const std::size_t n : {2 * kMiB, 2 * kMiB + 1, 71 * kMiB + 4321}) {
    PageBuffer b(n);
    EXPECT_EQ(addr(b) % PageBuffer::kHugePageBytes, 0u) << n << " bytes";
    // The trimmed mapping still covers every requested byte.
    b.data()[0] = std::byte{1};
    b.data()[n - 1] = std::byte{2};
    EXPECT_EQ(b.data()[n - 1], std::byte{2});
  }
}

TEST(PageBuffer, MoveLeavesTheSourceEmpty) {
  PageBuffer a(3 * kMiB);
  std::byte* p = a.data();
  a.data()[17] = std::byte{42};

  PageBuffer b(std::move(a));
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b.data()[17], std::byte{42});

  PageBuffer c(kMiB);
  c = std::move(b);
  EXPECT_EQ(b.data(), nullptr);
  EXPECT_EQ(c.data(), p);
  EXPECT_EQ(c.data()[17], std::byte{42});
}

TEST(PageBuffer, DestroyingAWrittenBufferReturnsItsMemory) {
  // A wrong munmap length (or none) leaves the written pages resident.
  constexpr std::size_t kBytes = 64 * kMiB;
  const std::size_t before = resident_bytes();
  auto b = std::make_unique<PageBuffer>(kBytes);
  std::memset(b->data(), 0xab, kBytes);
  const std::size_t written = resident_bytes();
  EXPECT_GE(written - std::min(written, before), kBytes - 4 * kMiB);
  b.reset();
  const std::size_t freed = resident_bytes();
  EXPECT_GE(written - std::min(written, freed), kBytes - 4 * kMiB);
}

}  // namespace
