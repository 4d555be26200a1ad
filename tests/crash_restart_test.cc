// Crash-restart durability, bottom-up (docs/DURABILITY.md, docs/FAULTS.md
// §9): CrashEpoch validation and injector semantics, the engine's
// wiped-memory restart (lazy zero of the rank's window segment), the
// CLaMPI cache sweep that keeps restarts transparent to cached readers
// (crash_epoch_check / Stats::crash_invalidations), and the full kv
// recovery protocol end to end — snapshot restore, checksum-verified
// journal replay, torn-tail discard — with zero acknowledged-write loss.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <vector>

#include "clampi/clampi.h"
#include "fault/fault.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "kv/store.h"
#include "netmodel/model.h"
#include "rt/engine.h"
#include "util/error.h"

namespace {

using namespace clampi;
using rmasim::Engine;
using rmasim::Process;

Engine::Config engine_cfg(int nranks,
                          std::shared_ptr<fault::Injector> inj = nullptr) {
  Engine::Config cfg;
  cfg.nranks = nranks;
  cfg.model = std::make_shared<net::FlatModel>(2.0, 0.001);
  cfg.time_policy = rmasim::TimePolicy::kModeled;
  cfg.injector = std::move(inj);
  return cfg;
}

void advance_to(Process& p, double t_us) {
  if (p.now_us() < t_us) p.compute_us(t_us - p.now_us());
}

// --- Injector semantics ---

TEST(CrashInjector, RejectsMalformedCrashPlans) {
  {
    fault::Plan p;
    p.crash_rank(1, 100.0, 100.0);  // restart must come strictly after
    EXPECT_THROW(fault::Injector inj(p), util::ContractError);
  }
  {
    fault::Plan p;
    p.crash_rank(1, 100.0, 500.0);
    p.crash_rank(1, 400.0, 900.0);  // overlapping epochs of one rank
    EXPECT_THROW(fault::Injector inj(p), util::ContractError);
  }
  {
    fault::Plan p;
    p.crashes.push_back({-1, 100.0, 200.0});
    EXPECT_THROW(fault::Injector inj(p), util::ContractError);
  }
  {
    fault::Plan p;
    p.torn_write_prob = 1.5;  // probabilities stay in [0,1]
    EXPECT_THROW(fault::Injector inj(p), util::ContractError);
  }
}

TEST(CrashInjector, OutageWindowAndRestartCounting) {
  fault::Plan p;
  p.crash_rank(1, 1000.0, 2000.0);
  p.crash_rank(1, 3000.0, 4000.0);  // a rank may crash repeatedly
  fault::Injector inj(p);

  // dead() covers [at_us, restart_us) per epoch, nothing else.
  EXPECT_FALSE(inj.dead(1, 500.0));
  EXPECT_TRUE(inj.dead(1, 1000.0));
  EXPECT_TRUE(inj.dead(1, 1999.0));
  EXPECT_FALSE(inj.dead(1, 2000.0));  // restart instant: alive (and wiped)
  EXPECT_TRUE(inj.dead(1, 3500.0));
  EXPECT_FALSE(inj.dead(1, 4500.0));
  EXPECT_FALSE(inj.dead(0, 1500.0));  // other ranks untouched

  EXPECT_EQ(inj.restarts_due(1, 1500.0), 0);  // mid-outage: not yet due
  EXPECT_EQ(inj.restarts_due(1, 2000.0), 1);
  EXPECT_EQ(inj.restarts_due(1, 3500.0), 1);
  EXPECT_EQ(inj.restarts_due(1, 4000.0), 2);
  EXPECT_EQ(inj.restarts_due(0, 9999.0), 0);
}

TEST(CrashInjector, PersistenceFaultDrawsAreDeterministic) {
  fault::Plan p;
  p.seed = 42;
  p.crash_rank(1, 1000.0, 2000.0);
  p.torn_writes(1.0);
  fault::Injector a(p), b(p);
  EXPECT_TRUE(a.torn_write(1, 0));  // prob 1: always torn
  EXPECT_EQ(a.torn_write(1, 0), b.torn_write(1, 0));
  // Garbage length is small, non-zero, and a pure function of
  // (seed, rank, crash_idx) — replays must tear identically.
  const std::size_t len = a.torn_garbage_len(1, 0);
  EXPECT_GE(len, 8u);
  EXPECT_LT(len, 64u);
  EXPECT_EQ(len, b.torn_garbage_len(1, 0));

  fault::Plan q = p;
  q.torn_writes(0.0);
  fault::Injector c(q);
  EXPECT_FALSE(c.torn_write(1, 0));
}

// --- Engine: wiped-memory restart ---

TEST(CrashRestart, EngineWipesWindowMemoryLazilyAtRestart) {
  fault::Plan plan;
  plan.crash_rank(1, 5000.0, 10000.0);
  Engine e(engine_cfg(2, std::make_shared<fault::Injector>(plan)));
  e.run([](Process& p) {
    void* base = nullptr;
    auto w = p.win_allocate(256, &base);
    std::memset(base, p.rank() == 1 ? 0x5a : 0x11, 256);
    p.barrier();
    if (p.rank() == 0) {
      p.lock_all(w);
      std::vector<std::uint8_t> buf(64, 0);
      p.get(buf.data(), 64, 1, 0, w);
      p.flush(1, w);
      EXPECT_EQ(buf[0], 0x5a);  // pre-crash contents intact

      advance_to(p, 6000.0);  // inside the outage: the rank is silent
      EXPECT_THROW(
          {
            p.get(buf.data(), 64, 1, 0, w);
            p.flush(1, w);
          },
          fault::OpFailedError);

      advance_to(p, 11000.0);  // past the restart instant
      EXPECT_EQ(p.crash_restarts_due(1), 1);
      EXPECT_EQ(p.crash_wipes_applied(1), 0);  // wipe is lazy: not yet
      p.get(buf.data(), 64, 1, 0, w);
      p.flush(1, w);
      EXPECT_EQ(p.crash_wipes_applied(1), 1);  // first op folded it in
      for (int i = 0; i < 64; ++i) {
        ASSERT_EQ(buf[static_cast<std::size_t>(i)], 0) << "byte " << i;
      }
      p.unlock_all(w);
    }
    p.barrier();
    p.win_free(w);
  });
}

// --- CLaMPI: cached entries must not survive a target's restart ---

TEST(CrashRestart, CachedWindowInvalidatesEntriesOfRestartedTarget) {
  fault::Plan plan;
  plan.crash_rank(1, 5000.0, 10000.0);
  Engine e(engine_cfg(2, std::make_shared<fault::Injector>(plan)));
  e.run([](Process& p) {
    Config ccfg;
    ccfg.mode = Mode::kUserDefined;  // cache survives flushes by design
    ccfg.index_entries = 512;
    ccfg.storage_bytes = 256 * 1024;
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, 4096, &base, ccfg);
    std::memset(base, p.rank() == 1 ? 0x77 : 0x22, 4096);
    p.barrier();
    if (p.rank() == 0) {
      win.lock_all();
      std::vector<std::uint8_t> buf(64, 0);
      win.get(buf.data(), 64, 1, 0);
      win.flush_all();
      win.get(buf.data(), 64, 1, 0);  // second read: a cache hit
      EXPECT_EQ(buf[0], 0x77);
      EXPECT_GE(win.stats().hits_full, 1u);

      // Past the restart the entry holds bytes from a memory image that
      // no longer exists; crash_epoch_check must quarantine it so the
      // read refetches the (zeroed) post-restart memory.
      advance_to(p, 11000.0);
      win.get(buf.data(), 64, 1, 0);
      win.flush_all();
      EXPECT_GE(win.stats().crash_invalidations, 1u);
      for (int i = 0; i < 64; ++i) {
        ASSERT_EQ(buf[static_cast<std::size_t>(i)], 0) << "byte " << i;
      }
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
}

// --- KV: the full recovery protocol, end to end ---

/// 2 servers + 1 client, replication 1 (so the journal is the ONLY copy
/// of server 1's acknowledged writes), every crash leaves a torn tail.
kv::StoreConfig durable_cfg(std::uint64_t nkeys) {
  kv::StoreConfig cfg;
  cfg.nkeys = nkeys;
  cfg.nservers = 2;
  cfg.replication = 1;
  cfg.cache.mode = Mode::kUserDefined;
  cfg.cache.index_entries = 4096;
  cfg.cache.storage_bytes = 8 << 20;
  cfg.group_commit_n = 4;
  return cfg;
}

/// Out-params recorded by the crashed server after its recovery ran
/// (plain values: the phases are separated by barriers).
struct ServerProbe {
  std::uint64_t replayed = 0;
  std::uint64_t torn_dropped = 0;
  std::uint64_t snapshot_loads = 0;
  int restarts_handled = 0;
};

/// Phase structure shared by the e2e tests. rmasim's baton scheduler only
/// switches ranks at sync points (compute_us does not yield), so the
/// server's tick loop is TIME-bounded and the phases meet at barriers:
///   write phase:  client writes `rounds` acked rounds, servers wait
///   outage phase: servers tick crash_tick to `end_us` (server 1 crashes,
///                 restarts and recovers inside its loop), client idles
///   verify phase: client checks every acked write survived
void run_crash_cycle(Process& p, kv::Store& store, const kv::StoreConfig& cfg,
                     std::uint64_t nkeys, std::uint32_t rounds,
                     std::uint32_t vlen, double end_us, ServerProbe* probe) {
  const bool server = p.rank() < cfg.nservers;
  std::vector<std::byte> buf(cfg.layout.value_capacity);
  std::vector<std::uint32_t> acked(nkeys, 0);
  if (!server) {
    store.window().lock_all();
    for (std::uint32_t seq = 1; seq <= rounds; ++seq) {
      for (std::uint64_t i = 0; i < nkeys; ++i) {
        const std::uint64_t key = store.key_at(i);
        kv::fill_value(key, seq, vlen, buf.data());
        kv::PutMeta pm;
        if (store.put(key, seq, buf.data(), vlen, &pm) && pm.applied > 0) {
          acked[i] = seq;
        }
      }
    }
    EXPECT_GT(store.counters().journal_appends, 0u);
    store.window().unlock_all();
  }
  p.barrier();  // all writes acked, strictly before the crash instant

  if (server) {
    // crash_tick is a no-op until the restart instant passes, then runs
    // the whole recovery protocol synchronously inside one call.
    while (p.now_us() < end_us) {
      p.compute_us(500.0);
      store.crash_tick();
    }
  } else {
    advance_to(p, end_us);
  }
  p.barrier();  // outage over, server 1 recovered

  if (!server) {
    store.window().lock_all();
    store.invalidate_cache();
    std::uint64_t lost = 0;
    for (std::uint64_t i = 0; i < nkeys; ++i) {
      if (acked[i] == 0) continue;
      const std::uint64_t key = store.key_at(i);
      kv::GetMeta gm;
      bool ok = false;
      for (int attempt = 0; attempt < 10 && !ok; ++attempt) {
        ok = store.get_uncached(key, buf.data(), &gm);
        if (!ok) p.compute_us(1000.0);
      }
      ASSERT_TRUE(ok) << "key rank " << i << " unreachable after restart";
      // Served seq below the acked seq, or wrong bytes: an acknowledged
      // write failed to survive the crash.
      if (gm.seq < acked[i] || !kv::check_value(key, gm.seq, gm.len, buf.data())) {
        ++lost;
      }
    }
    EXPECT_EQ(lost, 0u) << "acknowledged writes lost across the crash";
    store.window().unlock_all();
  } else if (p.rank() == 1 && probe != nullptr) {
    const kv::StoreCounters& kc = store.counters();
    probe->replayed = kc.journal_replayed;
    probe->torn_dropped = kc.torn_records_dropped;
    probe->snapshot_loads = kc.snapshot_loads;
    probe->restarts_handled = store.crash_restarts_handled();
  }
  p.barrier();
  store.free_window();
}

TEST(CrashRestart, KvJournalReplayLosesNoAcknowledgedWrite) {
  const double kCrashUs = 30000.0, kRestartUs = 50000.0;
  const std::uint64_t kKeys = 200;
  fault::Plan plan;
  plan.crash_rank(1, kCrashUs, kRestartUs);
  plan.torn_writes(1.0);
  Engine e(engine_cfg(3, std::make_shared<fault::Injector>(plan)));
  auto probe = std::make_shared<ServerProbe>();
  // ONE device set shared by every rank: the client's journal appends
  // must land on the same simulated platter the server recovers from.
  kv::StoreConfig cfg = durable_cfg(kKeys);
  cfg.devices = kv::Store::make_device_set(cfg);
  e.run([probe, kKeys, kRestartUs, cfg](Process& p) {
    kv::Store store(p, cfg);
    run_crash_cycle(p, store, cfg, kKeys, /*rounds=*/2, /*vlen=*/48,
                    kRestartUs + 2000.0, probe.get());
  });
  EXPECT_GT(probe->replayed, 0u);      // the journal did the work
  EXPECT_GE(probe->torn_dropped, 1u);  // the torn tail was discarded
  EXPECT_EQ(probe->restarts_handled, 1);
}

TEST(CrashRestart, KvSnapshotBoundsReplayAndRestores) {
  // With periodic snapshots the restored image carries the state and
  // replay only covers the tail since the last snapshot.
  const double kCrashUs = 30000.0, kRestartUs = 50000.0;
  const std::uint64_t kKeys = 100;
  fault::Plan plan;
  plan.crash_rank(1, kCrashUs, kRestartUs);
  Engine e(engine_cfg(3, std::make_shared<fault::Injector>(plan)));
  auto probe = std::make_shared<ServerProbe>();
  kv::StoreConfig cfg = durable_cfg(kKeys);
  cfg.snapshot_every_us = 4000.0;  // several snapshot periods pre-crash
  cfg.devices = kv::Store::make_device_set(cfg);
  e.run([probe, kKeys, kRestartUs, cfg](Process& p) {
    kv::Store store(p, cfg);
    run_crash_cycle(p, store, cfg, kKeys, /*rounds=*/1, /*vlen=*/32,
                    kRestartUs + 2000.0, probe.get());
  });
  EXPECT_GE(probe->snapshot_loads, 1u);
  EXPECT_EQ(probe->restarts_handled, 1);
}

TEST(CrashRestart, KvCountersSurviveAClientWipe) {
  // A client's reboot wipes its cache, hint queues and tail state; the
  // store's counters, like the window's Stats, model external
  // observability and survive it.
  const double kCrashUs = 30000.0, kRestartUs = 40000.0;
  const std::uint64_t kKeys = 50;
  fault::Plan plan;
  plan.crash_rank(2, kCrashUs, kRestartUs);
  Engine e(engine_cfg(3, std::make_shared<fault::Injector>(plan)));
  e.run([=](Process& p) {
    const kv::StoreConfig cfg = durable_cfg(kKeys);
    kv::Store store(p, cfg);
    if (p.rank() == 2) {
      std::vector<std::byte> buf(cfg.layout.value_capacity);
      store.window().lock_all();
      for (std::uint64_t i = 0; i < kKeys; ++i) {
        ASSERT_TRUE(store.get(store.key_at(i), buf.data()));
      }
      store.window().unlock_all();
      const kv::StoreCounters before = store.counters();
      const std::uint64_t gets_before = store.window().stats().total_gets;
      ASSERT_GE(before.bucket_reads, kKeys);
      ASSERT_GT(store.window().core().cached_entries(), 0u);

      advance_to(p, kRestartUs + 1.0);
      store.crash_tick();
      ASSERT_EQ(store.crash_restarts_handled(), 1);
      EXPECT_EQ(store.window().core().cached_entries(), 0u);  // wiped
      EXPECT_EQ(store.counters().bucket_reads, before.bucket_reads);
      EXPECT_EQ(store.counters().chain_reads, before.chain_reads);
      EXPECT_EQ(store.window().stats().total_gets, gets_before);
    }
    p.barrier();
    store.free_window();
  });
}

}  // namespace
