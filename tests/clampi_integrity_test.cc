// Integrity guard: end-to-end checksums, self-healing hits, incremental
// scrubbing, put invalidation and shadow-verify staleness detection
// (docs/INTEGRITY.md).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "clampi/checksum.h"
#include "clampi/clampi.h"
#include "datatype/datatype.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "netmodel/model.h"
#include "rt/engine.h"

namespace {

using namespace clampi;
using rmasim::Engine;
using rmasim::Process;

Engine::Config engine_cfg(int nranks, std::shared_ptr<fault::Injector> inj = nullptr) {
  Engine::Config cfg;
  cfg.nranks = nranks;
  cfg.model = std::make_shared<net::FlatModel>(10.0, 0.0);
  cfg.time_policy = rmasim::TimePolicy::kModeled;
  cfg.injector = std::move(inj);
  return cfg;
}

Config cache_cfg(Mode mode) {
  Config cfg;
  cfg.mode = mode;
  cfg.index_entries = 512;
  cfg.storage_bytes = 256 * 1024;
  return cfg;
}

void fill_pattern(void* base, std::size_t n, int rank) {
  auto* b = static_cast<std::uint8_t*>(base);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>((i * 7 + rank * 13) & 0xff);
  }
}

std::uint8_t pattern_at(std::size_t i, int rank) {
  return static_cast<std::uint8_t>((i * 7 + rank * 13) & 0xff);
}

// Core-only helper: run a miss through access() and materialize it the way
// the CachedWindow driver would (payload copy + mark_cached).
std::uint32_t insert_cached(CacheCore& core, Key key, const std::vector<std::byte>& data) {
  const CacheCore::Result r = core.access(key, data.size());
  EXPECT_NE(r.entry, kNoEntry);
  EXPECT_TRUE(r.inserted);
  std::memcpy(core.entry_data(r.entry), data.data(), data.size());
  core.mark_cached(r.entry);
  return r.entry;
}

std::vector<std::byte> some_bytes(std::size_t n, int salt) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 31 + static_cast<std::size_t>(salt) * 17) & 0xff);
  }
  return v;
}

// --- checksum primitive ---

TEST(Checksum, MatchesXxh64ReferenceVectors) {
  const auto h = [](const char* s, std::uint64_t seed) {
    return checksum64(reinterpret_cast<const std::byte*>(s), std::strlen(s), seed);
  };
  // Canonical XXH64 test vectors (public-domain algorithm, seed 0).
  EXPECT_EQ(h("", 0), 0xef46db3751d8e999ull);
  EXPECT_EQ(h("a", 0), 0xd24ec4f1a98c6e5bull);
  EXPECT_EQ(h("abc", 0), 0x44bc2cf5ad770999ull);
}

TEST(Checksum, SeedAndContentSensitivity) {
  const auto data = some_bytes(1000, 1);
  const std::uint64_t base = checksum64(data.data(), data.size(), 42);
  EXPECT_NE(base, checksum64(data.data(), data.size(), 43));
  auto flipped = data;
  flipped[999] ^= std::byte{0x01};  // single bit in the tail
  EXPECT_NE(base, checksum64(flipped.data(), flipped.size(), 42));
  auto mid = data;
  mid[500] ^= std::byte{0x80};  // single bit in a 32-byte lane
  EXPECT_NE(base, checksum64(mid.data(), mid.size(), 42));
}

// --- hit-time verification and self-healing (CacheCore) ---

TEST(IntegrityCore, ChecksumDetectsBitFlipAndHeals) {
  Config cfg;
  cfg.mode = Mode::kAlwaysCache;
  cfg.verify_every_n = 1;
  CacheCore core(cfg);

  const Key key{1, 64};
  const auto payload = some_bytes(256, 7);
  const std::uint32_t id = insert_cached(core, key, payload);

  // Clean hit: verification passes, nothing healed.
  CacheCore::Result r = core.access(key, 256);
  EXPECT_EQ(r.type, AccessType::kHit);
  EXPECT_FALSE(r.healed);
  EXPECT_EQ(core.stats().checksum_verifications, 1u);
  EXPECT_EQ(core.stats().corruption_detected, 0u);

  // Flip one bit of the cached payload behind the cache's back.
  core.entry_data(id)[100] ^= std::byte{0x04};

  // The next hit detects the mismatch, quarantines the entry and falls
  // through to the miss path (transparent re-fetch).
  r = core.access(key, 256);
  EXPECT_TRUE(r.healed);
  EXPECT_NE(r.type, AccessType::kHit);
  EXPECT_TRUE(r.inserted);
  EXPECT_EQ(core.stats().corruption_detected, 1u);
  EXPECT_EQ(core.stats().self_heals, 1u);

  // Re-materialize (the driver would copy the refetched bytes) and the
  // key hits cleanly again.
  std::memcpy(core.entry_data(r.entry), payload.data(), payload.size());
  core.mark_cached(r.entry);
  r = core.access(key, 256);
  EXPECT_EQ(r.type, AccessType::kHit);
  EXPECT_FALSE(r.healed);
}

TEST(IntegrityCore, VerificationSamplingHonoursEveryN) {
  Config cfg;
  cfg.mode = Mode::kAlwaysCache;
  cfg.verify_every_n = 4;
  CacheCore core(cfg);
  insert_cached(core, Key{0, 0}, some_bytes(64, 3));
  for (int i = 0; i < 8; ++i) core.access(Key{0, 0}, 64);
  EXPECT_EQ(core.stats().checksum_verifications, 2u);  // hits 4 and 8
}

TEST(IntegrityCore, NoChecksumWorkWhenDisabled) {
  Config cfg;  // verify_every_n = 0, scrub_entries_per_epoch = 0
  cfg.mode = Mode::kAlwaysCache;
  CacheCore core(cfg);
  const std::uint32_t id = insert_cached(core, Key{0, 0}, some_bytes(64, 3));
  core.entry_data(id)[0] ^= std::byte{0xff};  // corrupt freely
  const CacheCore::Result r = core.access(Key{0, 0}, 64);
  EXPECT_EQ(r.type, AccessType::kHit);  // nobody looks: stays a plain hit
  EXPECT_EQ(core.stats().checksum_verifications, 0u);
  EXPECT_EQ(core.stats().corruption_detected, 0u);
}

// --- incremental scrubbing (CacheCore) ---

TEST(IntegrityCore, ScrubberCatchesCorruptionWithinBudget) {
  Config cfg;
  cfg.mode = Mode::kAlwaysCache;
  cfg.scrub_entries_per_epoch = 3;
  CacheCore core(cfg);

  std::vector<std::uint32_t> ids;
  for (int i = 0; i < 9; ++i) {
    ids.push_back(insert_cached(core, Key{1, static_cast<std::uint64_t>(i) * 4096},
                                some_bytes(128, i)));
  }
  core.entry_data(ids[5])[17] ^= std::byte{0x20};

  // Each slice scans at most the configured budget; after enough slices
  // the ring walk has visited every entry and quarantined the corrupt one.
  std::size_t corrupted = 0;
  for (int round = 0; round < 3; ++round) {
    const CacheCore::ScrubReport rep = core.scrub(cfg.scrub_entries_per_epoch);
    EXPECT_LE(rep.scanned, cfg.scrub_entries_per_epoch);
    EXPECT_TRUE(rep.invariants_ok);
    corrupted += rep.corrupted;
  }
  EXPECT_EQ(corrupted, 1u);
  EXPECT_EQ(core.stats().scrub_corruptions, 1u);
  EXPECT_EQ(core.stats().corruption_detected, 1u);
  EXPECT_EQ(core.find_cached(Key{1, 5 * 4096}), kNoEntry);   // quarantined
  EXPECT_NE(core.find_cached(Key{1, 4 * 4096}), kNoEntry);   // neighbours intact
  EXPECT_EQ(core.stats().scrub_entries_scanned, 9u);
}

TEST(IntegrityCore, ScrubSurvivesInvalidation) {
  Config cfg;
  cfg.mode = Mode::kAlwaysCache;
  cfg.scrub_entries_per_epoch = 4;
  CacheCore core(cfg);
  for (int i = 0; i < 6; ++i) {
    insert_cached(core, Key{1, static_cast<std::uint64_t>(i) * 4096}, some_bytes(64, i));
  }
  core.scrub(4);       // cursor mid-table
  core.invalidate();   // table emptied under the cursor
  const CacheCore::ScrubReport rep = core.scrub(4);
  EXPECT_EQ(rep.scanned, 0u);
  EXPECT_TRUE(rep.invariants_ok);
}

// --- put invalidation (CacheCore + window) ---

TEST(IntegrityCore, InvalidateOverlapDropsExactlyOverlappingEntries) {
  Config cfg;
  cfg.mode = Mode::kAlwaysCache;
  CacheCore core(cfg);
  insert_cached(core, Key{1, 0}, some_bytes(128, 0));     // [0, 128)
  insert_cached(core, Key{1, 128}, some_bytes(128, 1));   // [128, 256)
  insert_cached(core, Key{1, 256}, some_bytes(128, 2));   // [256, 384)
  insert_cached(core, Key{2, 128}, some_bytes(128, 3));   // other target

  // A put over [100, 200) clips entries 0 and 1, not 2 or the other target.
  EXPECT_EQ(core.invalidate_overlap(1, 100, 100), 2u);
  EXPECT_EQ(core.find_cached(Key{1, 0}), kNoEntry);
  EXPECT_EQ(core.find_cached(Key{1, 128}), kNoEntry);
  EXPECT_NE(core.find_cached(Key{1, 256}), kNoEntry);
  EXPECT_NE(core.find_cached(Key{2, 128}), kNoEntry);
  EXPECT_EQ(core.stats().put_invalidations, 2u);
}

TEST(IntegrityWindow, PutInvalidatesAndNextGetSeesFreshBytes) {
  Engine e(engine_cfg(2));
  e.run([](Process& p) {
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, 4096, &base, cache_cfg(Mode::kAlwaysCache));
    fill_pattern(base, 4096, p.rank());
    p.barrier();
    if (p.rank() == 0) {
      win.lock_all();
      std::vector<std::uint8_t> buf(64);
      win.get(buf.data(), 64, 1, 256);
      win.flush_all();
      ASSERT_EQ(win.last_access(), AccessType::kDirect);
      win.get(buf.data(), 64, 1, 256);
      win.flush_all();
      ASSERT_EQ(win.last_access(), AccessType::kHit);

      // Overwrite the cached range at the target; the cached entry is stale.
      std::vector<std::uint8_t> fresh(64, 0xAB);
      win.put(fresh.data(), 64, 1, 256);
      win.flush_all();
      EXPECT_EQ(win.stats().put_invalidations, 1u);

      // The next get must miss and return the freshly written bytes.
      win.get(buf.data(), 64, 1, 256);
      win.flush_all();
      EXPECT_NE(win.last_access(), AccessType::kHit);
      for (int j = 0; j < 64; ++j) ASSERT_EQ(buf[static_cast<std::size_t>(j)], 0xAB);
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
}

TEST(IntegrityWindow, PutInsideTypedGetFootprintInvalidates) {
  // A strided typed get packs 16 bytes but reads target bytes [0, 72):
  // blocks [0, 8) and [64, 72). A put into the second block must drop the
  // entry even though it lies past the packed size.
  Engine e(engine_cfg(2));
  e.run([](Process& p) {
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, 4096, &base, cache_cfg(Mode::kAlwaysCache));
    fill_pattern(base, 4096, p.rank());
    p.barrier();
    if (p.rank() == 0) {
      const auto strided = dt::Datatype::vector(2, 8, 64, dt::Datatype::contiguous(1));
      ASSERT_EQ(strided.size(), 16u);
      win.lock_all();
      std::vector<std::uint8_t> buf(16);
      win.get(buf.data(), strided, 1, 1, 0);
      win.flush_all();
      ASSERT_EQ(win.last_access(), AccessType::kDirect);
      win.get(buf.data(), strided, 1, 1, 0);
      win.flush_all();
      ASSERT_EQ(win.last_access(), AccessType::kHit);

      std::vector<std::uint8_t> fresh(8, 0xAB);
      win.put(fresh.data(), 8, 1, 64);
      win.flush_all();
      EXPECT_EQ(win.stats().put_invalidations, 1u);

      win.get(buf.data(), strided, 1, 1, 0);
      win.flush_all();
      EXPECT_NE(win.last_access(), AccessType::kHit);
      for (std::size_t j = 0; j < 8; ++j) ASSERT_EQ(buf[j], pattern_at(j, 1));
      for (std::size_t j = 8; j < 16; ++j) ASSERT_EQ(buf[j], 0xAB) << "stale byte " << j;
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
}

// --- stale-put injection caught by shadow-verify (window) ---

TEST(IntegrityWindow, StalePutCaughtByShadowVerify) {
  // The same stale hit read through both get overloads: untyped (one
  // dense block) and a strided datatype packing 64 bytes from the target
  // range [256, 352). Shadow verification is a stage of the one get
  // pipeline, so both must catch it.
  for (const bool typed : {false, true}) {
    fault::Plan plan;
    plan.stale_puts(1.0);  // every put skips its invalidation
    auto inj = std::make_shared<fault::Injector>(plan);
    Engine e(engine_cfg(2, inj));
    e.run([typed](Process& p) {
      SCOPED_TRACE(typed ? "strided typed get" : "untyped get");
      void* base = nullptr;
      Config ccfg = cache_cfg(Mode::kAlwaysCache);
      ccfg.shadow_verify_every_n = 1;  // double-check every full hit
      auto win = CachedWindow::allocate(p, 4096, &base, ccfg);
      fill_pattern(base, 4096, p.rank());
      p.barrier();
      if (p.rank() == 0) {
        const auto strided = dt::Datatype::vector(2, 32, 64, dt::Datatype::contiguous(1));
        ASSERT_EQ(strided.size(), 64u);
        std::vector<std::uint8_t> buf(64);
        const auto read = [&] {
          if (typed) {
            win.get(buf.data(), strided, 1, 1, 256);
          } else {
            win.get(buf.data(), 64, 1, 256);
          }
          win.flush_all();
        };
        win.lock_all();
        read();

        std::vector<std::uint8_t> fresh(96, 0xCD);
        win.put(fresh.data(), fresh.size(), 1, 256);
        win.flush_all();
        EXPECT_EQ(win.stats().stale_puts_injected, 1u);
        EXPECT_EQ(win.stats().put_invalidations, 0u);  // the bug: none happened

        // The hit serves stale bytes; the sampled shadow fetch catches the
        // mismatch, quarantines the entry and re-serves the fresh payload.
        read();
        EXPECT_EQ(win.last_access(), AccessType::kHit);
        for (int j = 0; j < 64; ++j) ASSERT_EQ(buf[static_cast<std::size_t>(j)], 0xCD);
        EXPECT_GE(win.stats().shadow_verifications, 1u);
        EXPECT_EQ(win.stats().shadow_mismatches, 1u);
        EXPECT_GE(win.stats().self_heals, 1u);
        EXPECT_EQ(win.core().find_cached(Key{1, 256}), kNoEntry);  // quarantined
        win.unlock_all();
      }
      p.barrier();
      win.free_window();
    });
  }
}

TEST(IntegrityWindow, TypedGetsReachTheGetObserver) {
  // One GetObservation per completed strided get, whichever stage served
  // it: a miss, a hit, a degraded serve of a partitioned target and a
  // healed hit. A get that throws is never observed.
  const double kPartFrom = 1000.0, kPartUntil = 2000.0;
  fault::Plan plan;
  plan.partition(0, 1, kPartFrom, kPartUntil);
  Engine e(engine_cfg(2, std::make_shared<fault::Injector>(plan)));
  e.run([=](Process& p) {
    void* base = nullptr;
    Config ccfg = cache_cfg(Mode::kAlwaysCache);
    ccfg.degraded_reads = true;
    ccfg.verify_every_n = 1;
    auto win = CachedWindow::allocate(p, 4096, &base, ccfg);
    fill_pattern(base, 4096, p.rank());
    p.barrier();
    if (p.rank() == 0) {
      std::vector<CachedWindow::GetObservation> seen;
      win.observe_gets([&](const CachedWindow::GetObservation& o) { seen.push_back(o); });
      const auto strided = dt::Datatype::vector(4, 8, 16, dt::Datatype::contiguous(1));
      ASSERT_FALSE(strided.is_contiguous());
      std::vector<std::uint8_t> buf(strided.size());
      const auto get_at = [&](std::size_t disp) {
        win.get(buf.data(), strided, 1, 1, disp);
        win.flush_all();
        for (std::size_t j = 0; j < buf.size(); ++j) {
          ASSERT_EQ(buf[j], pattern_at(disp + j / 8 * 16 + j % 8, 1)) << "byte " << j;
        }
      };
      const auto expect_last = [&](std::size_t n, AccessType type, bool degraded,
                                   bool healed, std::size_t disp) {
        ASSERT_EQ(seen.size(), n);
        const CachedWindow::GetObservation& o = seen.back();
        EXPECT_EQ(o.type, type);
        EXPECT_EQ(o.degraded, degraded);
        EXPECT_EQ(o.healed, healed);
        EXPECT_EQ(o.target, 1);
        EXPECT_EQ(o.disp, disp);
        EXPECT_EQ(o.bytes, strided.size());
      };
      win.lock_all();
      get_at(0);
      expect_last(1, AccessType::kDirect, false, false, 0);
      get_at(0);
      expect_last(2, AccessType::kHit, false, false, 0);

      // Partitioned: the cached entry serves degraded; an uncached one
      // throws and is not observed.
      p.compute_us(kPartFrom - p.now_us() + 1.0);
      get_at(0);
      expect_last(3, AccessType::kHit, true, false, 0);
      EXPECT_THROW(win.get(buf.data(), strided, 1, 1, 512), fault::OpFailedError);
      EXPECT_EQ(seen.size(), 3u);

      // Healed: rot in the entry is caught and re-fetched.
      p.compute_us(kPartUntil - p.now_us() + 1.0);
      const std::uint32_t id = win.core().find_cached(Key{1, 0});
      ASSERT_NE(id, kNoEntry);
      win.core().entry_data(id)[3] ^= std::byte{0x10};
      get_at(0);
      expect_last(4, AccessType::kDirect, false, true, 0);
      EXPECT_EQ(win.stats().degraded_hits, 1u);
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
}

// --- injected storage corruption round trip (window) ---

TEST(IntegrityWindow, CorruptionNeverEscapesWithVerificationOn) {
  fault::Plan plan;
  // ~0.05 flips per entry per epoch: entries are usually clean when hit,
  // but over 640 epochs plenty of hits land on rotted payloads.  The scrub
  // budget is kept below the reuse distance so hit-time verification (not
  // the scrubber) must do most of the catching.
  plan.corrupt_storage(1e-4);
  auto inj = std::make_shared<fault::Injector>(plan);
  Engine e(engine_cfg(2, inj));
  e.run([](Process& p) {
    void* base = nullptr;
    Config ccfg = cache_cfg(Mode::kAlwaysCache);
    ccfg.verify_every_n = 1;
    ccfg.scrub_entries_per_epoch = 1;
    auto win = CachedWindow::allocate(p, 16384, &base, ccfg);
    fill_pattern(base, 16384, p.rank());
    p.barrier();
    if (p.rank() == 0) {
      win.lock_all();
      std::vector<std::uint8_t> buf(512);
      for (int round = 0; round < 40; ++round) {
        for (int k = 0; k < 16; ++k) {
          const std::size_t disp = static_cast<std::size_t>(k) * 512;
          win.get(buf.data(), 512, 1, disp);
          win.flush_all();  // epoch boundary: bit rot + one scrub slice
          for (int j = 0; j < 512; ++j) {
            ASSERT_EQ(buf[static_cast<std::size_t>(j)],
                      pattern_at(disp + static_cast<std::size_t>(j), 1))
                << "corruption escaped at round " << round << " key " << k;
          }
        }
      }
      const Stats& st = win.stats();
      EXPECT_GT(st.storage_bitflips, 0u);      // the fault actually fired
      EXPECT_GT(st.corruption_detected, 0u);   // ... and the guard caught it
      EXPECT_GT(st.self_heals, 0u);
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
}

TEST(IntegrityWindow, CorruptorIsDeterministicPerSeed) {
  fault::Plan plan;
  plan.seed = 1234;
  plan.corrupt_storage(0.01);
  fault::Injector inj(plan);
  auto a = some_bytes(4096, 0);
  auto b = some_bytes(4096, 0);
  fault::Corruptor c1 = inj.corruptor(/*rank=*/0, /*epoch=*/3);
  fault::Corruptor c2 = inj.corruptor(/*rank=*/0, /*epoch=*/3);
  const std::size_t f1 = c1.apply(a.data(), a.size());
  const std::size_t f2 = c2.apply(b.data(), b.size());
  EXPECT_EQ(f1, f2);
  EXPECT_GT(f1, 0u);
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size()), 0);

  // A different epoch flips different bytes.
  auto c = some_bytes(4096, 0);
  fault::Corruptor c3 = inj.corruptor(/*rank=*/0, /*epoch=*/4);
  c3.apply(c.data(), c.size());
  EXPECT_NE(std::memcmp(a.data(), c.data(), a.size()), 0);
}

}  // namespace
