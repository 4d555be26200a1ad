// Regression tests for typed gets whose layout differs from what an
// earlier access cached at the same (target, disp) key — including the
// partial-hit-with-extension case, where the entry must not be left
// PENDING forever (it would become unevictable and block invalidation).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "clampi/clampi.h"
#include "netmodel/model.h"
#include "rt/engine.h"

namespace {

using namespace clampi;
using rmasim::Engine;
using rmasim::Process;

Engine::Config ecfg() {
  Engine::Config cfg;
  cfg.nranks = 2;
  cfg.model = std::make_shared<net::FlatModel>(2.0, 0.001);
  cfg.time_policy = rmasim::TimePolicy::kModeled;
  return cfg;
}

void fill(void* base, std::size_t n, int rank) {
  auto* b = static_cast<std::uint8_t*>(base);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::uint8_t>(i * 11 + rank);
}

std::uint8_t at(std::size_t i, int rank) {
  return static_cast<std::uint8_t>(i * 11 + rank);
}

TEST(TypedMismatch, LargerRequestWithDifferentLayout) {
  // Cache 2 elements of layout A, then request 6 elements of layout B
  // (different signature, different element size) at the same key: the
  // partial-hit extension must resolve cleanly and the data must be
  // correct; afterwards the entry serves layout B.
  Engine e(ecfg());
  e.run([](Process& p) {
    void* base = nullptr;
    Config cfg;
    cfg.mode = Mode::kAlwaysCache;
    cfg.index_entries = 64;
    cfg.storage_bytes = 64 * 1024;
    auto win = CachedWindow::allocate(p, 4096, &base, cfg);
    fill(base, 4096, p.rank());
    p.barrier();
    win.lock_all();
    const int peer = 1 - p.rank();

    const auto a = dt::Datatype::vector(2, 4, 8, dt::Datatype::contiguous(1));  // 8B/elem
    const auto b = dt::Datatype::vector(2, 3, 6, dt::Datatype::contiguous(1));  // 6B/elem
    ASSERT_FALSE(a.is_contiguous());
    ASSERT_FALSE(b.is_contiguous());
    ASSERT_NE(a.signature(), b.signature());

    std::vector<std::uint8_t> bufa(a.size_of(1));
    win.get(bufa.data(), a, 1, peer, 0);
    win.flush_all();
    EXPECT_EQ(win.stats().hits_partial, 0u);

    std::vector<std::uint8_t> bufb(b.size_of(6));
    win.get(bufb.data(), b, 6, peer, 0);  // bigger: partial hit, layout mismatch
    win.flush_all();
    // Data correctness: packed layout-B bytes.
    std::size_t pos = 0;
    for (const auto& blk : b.flatten(6)) {
      for (std::size_t i = 0; i < blk.size; ++i, ++pos) {
        ASSERT_EQ(bufb[pos], at(blk.offset + i, peer));
      }
    }
    // No stuck PENDING entries: invalidate must succeed.
    EXPECT_EQ(win.core().pending_entries(), 0u);
    EXPECT_NO_THROW(clampi_invalidate(win));
    EXPECT_TRUE(win.core().validate());

    win.unlock_all();
    p.barrier();
    win.free_window();
  });
}

TEST(TypedMismatch, RepopulatedEntryServesNewLayout) {
  Engine e(ecfg());
  e.run([](Process& p) {
    void* base = nullptr;
    Config cfg;
    cfg.mode = Mode::kAlwaysCache;
    cfg.index_entries = 64;
    cfg.storage_bytes = 64 * 1024;
    auto win = CachedWindow::allocate(p, 4096, &base, cfg);
    fill(base, 4096, p.rank());
    p.barrier();
    win.lock_all();
    const int peer = 1 - p.rank();

    const auto a = dt::Datatype::vector(2, 4, 8, dt::Datatype::contiguous(1));
    const auto b = dt::Datatype::vector(2, 3, 6, dt::Datatype::contiguous(1));
    std::vector<std::uint8_t> buf(b.size_of(8));
    win.get(buf.data(), a, 1, peer, 0);
    win.flush_all();
    win.get(buf.data(), b, 8, peer, 0);  // mismatch + extension + repopulate
    win.flush_all();
    // The entry now holds layout-B packed bytes: a same-layout re-request
    // is a clean full hit with correct data.
    std::vector<std::uint8_t> buf2(b.size_of(8));
    win.get(buf2.data(), b, 8, peer, 0);
    EXPECT_EQ(win.last_access(), AccessType::kHit);
    EXPECT_EQ(std::memcmp(buf2.data(), buf.data(), buf2.size()), 0);

    win.unlock_all();
    p.barrier();
    win.free_window();
  });
}

TEST(TypedMismatch, SmallerRequestDifferentLayoutBypasses) {
  Engine e(ecfg());
  e.run([](Process& p) {
    void* base = nullptr;
    Config cfg;
    cfg.mode = Mode::kAlwaysCache;
    auto win = CachedWindow::allocate(p, 4096, &base, cfg);
    fill(base, 4096, p.rank());
    p.barrier();
    win.lock_all();
    const int peer = 1 - p.rank();

    const auto a = dt::Datatype::vector(2, 8, 16, dt::Datatype::contiguous(1));    // 16B
    const auto c = dt::Datatype::indexed({1}, {1}, dt::Datatype::contiguous(4));   // 4B at +4
    ASSERT_FALSE(c.is_contiguous());
    std::vector<std::uint8_t> bufa(a.size_of(1));
    win.get(bufa.data(), a, 1, peer, 0);
    win.flush_all();
    std::vector<std::uint8_t> bufc(c.size_of(1));
    win.get(bufc.data(), c, 1, peer, 0);  // smaller, different signature
    win.flush_all();
    std::size_t pos = 0;
    for (const auto& blk : c.flatten(1)) {
      for (std::size_t i = 0; i < blk.size; ++i, ++pos) {
        ASSERT_EQ(bufc[pos], at(blk.offset + i, peer));
      }
    }
    EXPECT_NO_THROW(clampi_invalidate(win));
    win.unlock_all();
    p.barrier();
    win.free_window();
  });
}

// An untyped get is signature 0: a strided entry's packed bytes at the
// same key are not its raw bytes, whether they cover the request (full
// hit) or only a prefix of it (partial hit).
TEST(TypedMismatch, UntypedGetAfterStridedGetIsNotServedPackedBytes) {
  for (const std::size_t untyped_bytes : {std::size_t{16}, std::size_t{32}}) {
    SCOPED_TRACE(testing::Message() << "untyped get of " << untyped_bytes << " bytes");
    Engine e(ecfg());
    e.run([untyped_bytes](Process& p) {
      void* base = nullptr;
      Config cfg;
      cfg.mode = Mode::kAlwaysCache;
      auto win = CachedWindow::allocate(p, 4096, &base, cfg);
      fill(base, 4096, p.rank());
      p.barrier();
      win.lock_all();
      const int peer = 1 - p.rank();

      const auto a = dt::Datatype::vector(2, 8, 16, dt::Datatype::contiguous(1));  // 16B packed
      std::vector<std::uint8_t> bufa(a.size_of(1));
      win.get(bufa.data(), a, 1, peer, 0);
      win.flush_all();
      // Both gets: the first meets the strided entry, the second whatever
      // the first left behind.
      for (int round = 0; round < 2; ++round) {
        std::vector<std::uint8_t> raw(untyped_bytes);
        win.get(raw.data(), raw.size(), peer, 0);
        win.flush_all();
        for (std::size_t i = 0; i < raw.size(); ++i) {
          ASSERT_EQ(raw[i], at(i, peer)) << "round " << round << " byte " << i;
        }
        if (round == 0) {
          // The cache core did find the strided entry.
          const Stats& st = win.stats();
          EXPECT_EQ(untyped_bytes == 16 ? st.hits_full : st.hits_partial, 1u);
        }
      }
      EXPECT_EQ(win.core().pending_entries(), 0u);
      EXPECT_NO_THROW(clampi_invalidate(win));
      EXPECT_TRUE(win.core().validate());
      win.unlock_all();
      p.barrier();
      win.free_window();
    });
  }
}

// A get the core finds as a full hit, but whose layout does not match the
// entry, is fetched from the network: last_access() must not say kHit, or
// a caller that skips the flush on a hit (kv::Store::read_bucket) reads
// before the get completes. Stats keeps the core's classification.
TEST(TypedMismatch, MismatchedHitIsNotReportedAsServedFromCache) {
  Engine e(ecfg());
  e.run([](Process& p) {
    void* base = nullptr;
    Config cfg;
    cfg.mode = Mode::kAlwaysCache;
    auto win = CachedWindow::allocate(p, 4096, &base, cfg);
    fill(base, 4096, p.rank());
    p.barrier();
    win.lock_all();
    const int peer = 1 - p.rank();

    const auto a = dt::Datatype::vector(2, 8, 16, dt::Datatype::contiguous(1));  // 16B packed
    std::vector<std::uint8_t> bufa(a.size_of(1));
    win.get(bufa.data(), a, 1, peer, 0);
    win.flush_all();

    std::vector<std::uint8_t> raw(16);
    win.get(raw.data(), raw.size(), peer, 0);
    EXPECT_NE(win.last_access(), AccessType::kHit);
    EXPECT_EQ(win.last_access(), AccessType::kFailing);
    const Stats& st = win.stats();
    EXPECT_EQ(st.hits_full, 1u);
    EXPECT_EQ(st.failing, 0u);  // failing == failed_index + failed_capacity
    const double before_flush = p.now_us();
    win.flush_all();
    EXPECT_GT(p.now_us(), before_flush);  // the network get completes here
    for (std::size_t i = 0; i < raw.size(); ++i) ASSERT_EQ(raw[i], at(i, peer)) << i;

    win.unlock_all();
    p.barrier();
    win.free_window();
  });
}

// A partial hit that extends the entry gives it the requester's signature;
// the cached prefix was still packed under the old one, so the two layouts
// must be compared before the extension, even when the prefix covers whole
// elements of the new layout.
TEST(TypedMismatch, ExtendedPrefixOfAnotherLayoutWithSameElementSize) {
  Engine e(ecfg());
  e.run([](Process& p) {
    void* base = nullptr;
    Config cfg;
    cfg.mode = Mode::kAlwaysCache;
    auto win = CachedWindow::allocate(p, 4096, &base, cfg);
    fill(base, 4096, p.rank());
    p.barrier();
    win.lock_all();
    const int peer = 1 - p.rank();

    const auto a = dt::Datatype::vector(2, 4, 8, dt::Datatype::contiguous(1));  // 8B/elem
    const auto b = dt::Datatype::vector(4, 2, 4, dt::Datatype::contiguous(1));  // 8B/elem
    ASSERT_EQ(a.size(), b.size());
    ASSERT_NE(a.signature(), b.signature());
    std::vector<std::uint8_t> bufa(a.size_of(1));
    win.get(bufa.data(), a, 1, peer, 0);
    win.flush_all();
    std::vector<std::uint8_t> bufb(b.size_of(2));
    win.get(bufb.data(), b, 2, peer, 0);  // partial hit, head = one whole element
    win.flush_all();
    EXPECT_EQ(win.stats().hits_partial, 1u);
    std::size_t pos = 0;
    for (const auto& blk : b.flatten(2)) {
      for (std::size_t i = 0; i < blk.size; ++i, ++pos) {
        ASSERT_EQ(bufb[pos], at(blk.offset + i, peer)) << "packed byte " << pos;
      }
    }
    EXPECT_EQ(win.core().pending_entries(), 0u);
    EXPECT_NO_THROW(clampi_invalidate(win));
    win.unlock_all();
    p.barrier();
    win.free_window();
  });
}

}  // namespace
