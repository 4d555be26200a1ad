// Tail-latency robustness (docs/FAULTS.md §8): straggler fault epochs
// that slow a rank without failing it, end-to-end deadline budgets
// through the retry loop and the KV replica walk, hedged replica reads
// racing a backup against a straggling primary, and AIMD load shedding
// driven by deadline misses.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "clampi/clampi.h"
#include "clampi/info.h"
#include "clampi/shedder.h"
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
  cfg.model = std::make_shared<net::FlatModel>(10.0, 0.0);  // 10us per transfer
  cfg.time_policy = rmasim::TimePolicy::kModeled;
  cfg.injector = std::move(inj);
  return cfg;
}

void advance_to(Process& p, double t_us) {
  if (p.now_us() < t_us) p.compute_us(t_us - p.now_us());
}

// --- LoadShedder unit behaviour (no engine needed) ---

LoadShedder::Config shedder_cfg() {
  LoadShedder::Config c;
  c.window_us = 100.0;
  c.miss_ratio = 0.5;
  c.decrease_factor = 0.5;
  c.increase = 0.25;
  c.min_admit = 0.25;
  return c;
}

TEST(LoadShedder, AimdDecreaseAndRecovery) {
  LoadShedder s(shedder_cfg());
  EXPECT_DOUBLE_EQ(s.admit_fraction(), 1.0);
  EXPECT_FALSE(s.shedding_background());
  // Window 1: everything admitted, everything misses its deadline.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(s.admit(10.0 * i));
    s.on_deadline_miss(10.0 * i + 1.0);
  }
  // Rolling into window 2 applies the multiplicative decrease; the
  // deterministic credit scheme then admits exactly every second op.
  int admitted = 0;
  for (int i = 0; i < 8; ++i) admitted += s.admit(110.0 + i) ? 1 : 0;
  EXPECT_DOUBLE_EQ(s.admit_fraction(), 0.5);
  EXPECT_EQ(admitted, 4);
  EXPECT_TRUE(s.shedding_background());
  // Clean windows recover additively back to full admission.
  s.admit(210.0);
  EXPECT_DOUBLE_EQ(s.admit_fraction(), 0.75);
  s.admit(310.0);
  EXPECT_DOUBLE_EQ(s.admit_fraction(), 1.0);
  EXPECT_FALSE(s.shedding_background());
}

TEST(LoadShedder, ClampsAtFloorAndIdleGapRecovers) {
  LoadShedder s(shedder_cfg());
  double t = 0.0;
  for (int w = 0; w < 6; ++w) {
    bool got = false;
    for (int i = 0; i < 8 && !got; ++i) got = s.admit(t + i);
    ASSERT_TRUE(got) << "window " << w;
    s.on_deadline_miss(t + 9.0);
    t += 100.0;
  }
  EXPECT_DOUBLE_EQ(s.admit_fraction(), 0.25);  // clamped at min_admit
  // A long idle gap replays clean windows: an unloaded system earns its
  // admission back without traffic.
  s.admit(t + 1000.0);
  EXPECT_DOUBLE_EQ(s.admit_fraction(), 1.0);
}

// --- Straggler fault epochs ---

struct StragglerResult {
  double elapsed_us = 0.0;
  Stats stats;
  TargetStatus status;
};

StragglerResult run_straggled_reader(bool straggle) {
  fault::Plan plan;
  if (straggle) plan.slow_rank(1, 25.0);  // open-ended epoch
  auto res = std::make_shared<StragglerResult>();
  Engine e(engine_cfg(2, std::make_shared<fault::Injector>(plan)));
  e.run([res](Process& p) {
    Config ccfg;
    ccfg.mode = Mode::kUserDefined;
    ccfg.index_entries = 512;
    ccfg.storage_bytes = 256 * 1024;
    ccfg.health_failure_threshold = 2;  // the detector is armed...
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, 4096, &base, ccfg);
    p.barrier();
    if (p.rank() == 0) {
      win.lock_all();
      const double t0 = p.now_us();
      std::vector<std::uint8_t> buf(64);
      for (int i = 0; i < 30; ++i) {
        win.get(buf.data(), 64, 1, static_cast<std::size_t>(i) * 64);
        win.flush_all();
      }
      res->elapsed_us = p.now_us() - t0;
      res->stats = win.stats();
      res->status = win.target_status(1);
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
  return *res;
}

TEST(Straggler, SlowsTransfersButNeverQuarantines) {
  const StragglerResult plain = run_straggled_reader(false);
  const StragglerResult slow = run_straggled_reader(true);

  // Sustained slowness really slows: an open-ended 25x epoch dominates
  // the run even with per-op overheads around it.
  EXPECT_GT(slow.elapsed_us, 5.0 * plain.elapsed_us);

  // ...but slowness is not failure: every op succeeded, the health
  // machine observed SLOW without ever moving off HEALTHY, and the
  // target stayed fully usable. This is the §8 contract: stragglers are
  // hedged around, never quarantined.
  EXPECT_GT(slow.stats.slow_observations, 0u);
  EXPECT_EQ(slow.stats.health_quarantines, 0u);
  EXPECT_EQ(slow.stats.health_suspects, 0u);
  EXPECT_EQ(slow.status.state, HealthState::kHealthy);
  EXPECT_TRUE(slow.status.usable);
  EXPECT_TRUE(slow.status.slow);
  EXPECT_EQ(slow.status.slow_observations, slow.stats.slow_observations);

  EXPECT_EQ(plain.stats.slow_observations, 0u);
  EXPECT_FALSE(plain.status.slow);
}

TEST(Straggler, PlanValidationRejectsSpeedups) {
  fault::Plan p;
  p.slow_rank(1, 0.5);  // a "straggler" that speeds up is a typo
  EXPECT_THROW(fault::Injector{p}, util::ContractError);
  fault::Plan q;
  q.stragglers.push_back({-1, 0.0, fault::kForever, 2.0});
  EXPECT_THROW(fault::Injector{q}, util::ContractError);
}

// --- Deadline budgets ---

TEST(Deadline, RetryBackoffStopsAtTheBudget) {
  fault::Plan plan;
  plan.fail_target(1, 1.0);  // every op against rank 1 fails transiently
  Engine e(engine_cfg(2, std::make_shared<fault::Injector>(plan)));
  e.run([](Process& p) {
    Config ccfg;
    ccfg.mode = Mode::kUserDefined;
    ccfg.index_entries = 512;
    ccfg.storage_bytes = 256 * 1024;
    ccfg.max_retries = 8;
    ccfg.retry_backoff_us = 100.0;
    ccfg.retry_backoff_factor = 2.0;
    ccfg.retry_jitter = 0.0;
    ccfg.op_deadline_us = 150.0;
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, 4096, &base, ccfg);
    p.barrier();
    if (p.rank() == 0) {
      win.lock_all();
      std::vector<std::uint8_t> buf(64);
      const double t0 = p.now_us();
      try {
        win.get(buf.data(), 64, 1, 0);
        win.flush_all();
        FAIL() << "get must not survive a permanently failing target";
      } catch (const fault::OpFailedError& err) {
        // The budget ran out before the retry count did: backoff 100 fits
        // a 150us budget once, the doubled 200 does not.
        EXPECT_EQ(err.failure(), fault::FailureKind::kDeadline);
        EXPECT_FALSE(err.recoverable());
      }
      // The op gave up within its budget (plus at most one op latency),
      // instead of burning through 8 exponential backoffs.
      EXPECT_LT(p.now_us() - t0, 150.0 + 100.0);
      EXPECT_GE(win.stats().deadline_misses, 1u);
      EXPECT_LT(win.stats().retries, 8u);
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
}

TEST(Deadline, ExpiredBudgetStillServesCachedHits) {
  Engine e(engine_cfg(2));
  e.run([](Process& p) {
    Config ccfg;
    ccfg.mode = Mode::kUserDefined;
    ccfg.index_entries = 512;
    ccfg.storage_bytes = 256 * 1024;
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, 4096, &base, ccfg);
    p.barrier();
    if (p.rank() == 0) {
      win.lock_all();
      std::vector<std::uint8_t> buf(64);
      win.get(buf.data(), 64, 1, 0);  // warm the cache
      win.flush_all();

      // The walk-wide (extern) deadline is already in the past: a full
      // hit never touches the network, so it is the legal "best degraded
      // outcome" and still serves.
      win.set_deadline_us(p.now_us() - 1.0);
      EXPECT_NO_THROW(win.get(buf.data(), 64, 1, 0));
      EXPECT_EQ(win.last_access(), AccessType::kHit);

      // An uncached displacement needs the network: it fast-fails as a
      // deadline miss WITHOUT issuing (virtual time must not advance).
      const double before = p.now_us();
      try {
        win.get(buf.data(), 64, 1, 1024);
        FAIL() << "expired budget must not issue a network op";
      } catch (const fault::OpFailedError& err) {
        EXPECT_EQ(err.failure(), fault::FailureKind::kDeadline);
      }
      EXPECT_DOUBLE_EQ(p.now_us(), before);
      EXPECT_EQ(win.stats().deadline_misses, 1u);

      win.set_deadline_us(-1.0);  // cleared: the op works again
      EXPECT_NO_THROW(win.get(buf.data(), 64, 1, 1024));
      win.flush_all();
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
}

// --- Adaptive load shedding through the window ---

TEST(Shedding, OverloadShedsThenRecovers) {
  fault::Plan plan;
  plan.fail_target(1, 1.0);  // rank 1 can never meet a deadline
  Engine e(engine_cfg(3, std::make_shared<fault::Injector>(plan)));
  e.run([](Process& p) {
    Config ccfg;
    ccfg.mode = Mode::kUserDefined;
    ccfg.index_entries = 512;
    ccfg.storage_bytes = 256 * 1024;
    ccfg.max_retries = 2;
    ccfg.retry_backoff_us = 100.0;
    ccfg.retry_jitter = 0.0;
    ccfg.op_deadline_us = 150.0;
    ccfg.load_shedding = true;
    ccfg.shed_window_us = 400.0;
    ccfg.shed_miss_ratio = 0.3;
    ccfg.shed_decrease_factor = 0.5;
    ccfg.shed_increase = 0.5;
    ccfg.shed_min_admit = 0.25;
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, 4096, &base, ccfg);
    p.barrier();
    if (p.rank() == 0) {
      win.lock_all();
      std::vector<std::uint8_t> buf(64);
      std::uint64_t misses = 0, sheds = 0;
      for (int i = 0; i < 60; ++i) {
        try {
          win.get(buf.data(), 64, 1, static_cast<std::size_t>(i % 64) * 64);
          win.flush_all();
        } catch (const fault::OpFailedError& err) {
          if (err.failure() == fault::FailureKind::kDeadline) ++misses;
          if (err.failure() == fault::FailureKind::kShed) ++sheds;
        }
      }
      // Sustained misses pulled admission down; later ops were refused
      // before any network work.
      EXPECT_GT(misses, 0u);
      EXPECT_GT(sheds, 0u);
      EXPECT_LT(win.admit_fraction(), 1.0);
      EXPECT_TRUE(win.shed_background());
      EXPECT_EQ(win.stats().deadline_misses, misses);
      EXPECT_EQ(win.stats().ops_shed, sheds);

      // Redirect the load to the healthy rank 2: clean windows walk the
      // admitted fraction back up and background work resumes.
      for (int i = 0; i < 40; ++i) {
        try {
          win.get(buf.data(), 64, 2, static_cast<std::size_t>(i % 64) * 64);
          win.flush_all();
        } catch (const fault::OpFailedError&) {
          // early ops may still be shed while recovering
        }
        p.compute_us(100.0);
      }
      EXPECT_DOUBLE_EQ(win.admit_fraction(), 1.0);
      EXPECT_FALSE(win.shed_background());
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
}

// --- Hedged replica reads through the KV store ---

TEST(HedgedReads, BackupWinsAgainstAStragglingPrimary) {
  const double kSlowFromUs = 50000.0;
  fault::Plan plan;
  plan.slow_rank(1, 50.0, kSlowFromUs);  // server 1 straggles, forever
  Engine e(engine_cfg(3, std::make_shared<fault::Injector>(plan)));
  e.run([kSlowFromUs](Process& p) {
    kv::StoreConfig cfg;
    cfg.nkeys = 300;
    cfg.nservers = 2;
    cfg.replication = 2;
    cfg.cache.mode = Mode::kUserDefined;
    cfg.cache.index_entries = 4096;
    cfg.cache.storage_bytes = 8 << 20;
    cfg.hedge_quantile = 0.9;
    cfg.hedge_min_samples = 8;
    cfg.hedge_window_us = 1e9;
    kv::Store store(p, cfg);
    if (p.rank() == 2) {
      store.window().lock_all();
      std::vector<std::byte> value(cfg.layout.value_capacity);

      // Calm phase: populate the per-target latency estimators with
      // ordinary waits (the cache is dropped between rounds so reads
      // actually touch the network).
      for (int round = 0; round < 3; ++round) {
        store.invalidate_cache();
        for (std::uint64_t i = 0; i < 60; ++i) {
          ASSERT_TRUE(store.get(store.key_at(i), value.data()));
        }
      }
      EXPECT_EQ(store.counters().hedged_gets, 0u);

      // Straggler phase: reads whose primary is server 1 now wait far
      // past its calm quantile — the hedge fires and the backup (server
      // 0, healthy) answers first.
      advance_to(p, kSlowFromUs + 1.0);
      std::uint64_t hedged = 0, wins = 0, mismatches = 0;
      store.invalidate_cache();
      for (std::uint64_t i = 0; i < 60; ++i) {
        const std::uint64_t key = store.key_at(i);
        kv::GetMeta m;
        ASSERT_TRUE(store.get(key, value.data(), &m));
        if (m.hedged) ++hedged;
        if (m.hedge_won) {
          ++wins;
          EXPECT_EQ(m.replica_pos, 1);  // served by the backup replica
        }
        // Shadow check: a hedge win must serve exactly what the replica
        // holds — first response wins, never a torn or stale byte.
        if (!kv::check_value(key, m.seq, m.len, value.data())) ++mismatches;
      }
      EXPECT_GT(hedged, 0u);
      EXPECT_GT(wins, 0u);
      EXPECT_EQ(mismatches, 0u);

      const kv::StoreCounters& kc = store.counters();
      EXPECT_EQ(kc.hedged_gets, hedged);
      EXPECT_EQ(kc.hedge_wins, wins);
      EXPECT_EQ(kc.hedge_wasted, hedged - wins);
      // Stragglers never quarantine: hedging is the remedy, not eviction.
      EXPECT_EQ(store.window().stats().health_quarantines, 0u);
      store.window().unlock_all();
    }
    p.barrier();
    store.free_window();
  });
}

// --- Stats plumbing ---

TEST(TailStats, CountersSurfaceInInfoAndDeltas) {
  Stats s;
  s.deadline_misses = 3;
  s.ops_shed = 2;
  s.slow_observations = 7;
  const Info info = stats_to_info(s);
  EXPECT_EQ(info.at("clampi_stat_deadline_misses"), "3");
  EXPECT_EQ(info.at("clampi_stat_ops_shed"), "2");
  EXPECT_EQ(info.at("clampi_stat_slow_observations"), "7");
  // The hedge counters belong to the kv layer (kv::Store::counters(), see
  // HedgedReads above), not to the window's Stats block.
  for (const auto& [key, value] : info) {
    EXPECT_NE(key.rfind("clampi_stat_kv_", 0), 0u) << key;
  }

  const Stats d = s.delta_since(Stats{});
  EXPECT_EQ(d.deadline_misses, 3u);
  EXPECT_EQ(d.ops_shed, 2u);
  EXPECT_EQ(d.slow_observations, 7u);
}

}  // namespace
