// Tests for the KV replica-convergence layer (docs/KV.md "Repair &
// convergence"): hinted handoff across rank death and revival, inline
// read-repair of partition-staled replicas, anti-entropy resync with zero
// client traffic, split-brain reconciliation to the highest seq, and the
// workload driver's shadow check across a full fault-heal-repair cycle
// (docs/FAULTS.md §7 describes the partition fault model).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fault/injector.h"
#include "kv/store.h"
#include "kv/workload.h"
#include "netmodel/model.h"
#include "rt/engine.h"
#include "util/error.h"

namespace {

using namespace clampi;
using rmasim::Engine;
using rmasim::Process;

Engine::Config engine_cfg(int nranks,
                          std::shared_ptr<fault::Injector> injector = nullptr) {
  Engine::Config cfg;
  cfg.nranks = nranks;
  cfg.model = std::make_shared<net::FlatModel>(2.0, 0.001);
  cfg.time_policy = rmasim::TimePolicy::kModeled;
  cfg.injector = std::move(injector);
  return cfg;
}

/// 2 servers, replication 2: every key lives on both shards, so replica
/// agreement is total and a convergence check is exhaustive.
kv::StoreConfig repair_cfg(std::uint64_t nkeys = 1000) {
  kv::StoreConfig cfg;
  cfg.nkeys = nkeys;
  cfg.nservers = 2;
  cfg.replication = 2;
  cfg.cache.mode = Mode::kUserDefined;
  cfg.cache.index_entries = 4096;
  cfg.cache.storage_bytes = 8 << 20;
  cfg.cache.health_failure_threshold = 3;
  cfg.cache.degraded_reads = true;
  cfg.cache.degraded_max_staleness_us = 1e9;
  return cfg;
}

/// Drive the health machine of `target` back to HEALTHY after its fault
/// healed: uncached gets generate flushes (each epoch close promotes a
/// dwell-elapsed quarantine to PROBING) and successful probe reads.
bool await_healthy(kv::Store& store, int target) {
  std::vector<std::byte> v(store.config().layout.value_capacity);
  for (std::uint64_t i = 0; i < 400; ++i) {
    const TargetStatus ts = store.window().target_status(target);
    if (ts.usable && ts.state == HealthState::kHealthy) return true;
    kv::GetMeta m;
    store.get_uncached(store.key_at(i % store.config().nkeys), v.data(), &m);
  }
  const TargetStatus ts = store.window().target_status(target);
  return ts.usable && ts.state == HealthState::kHealthy;
}

void advance_to(Process& p, double t_us) {
  if (p.now_us() < t_us) p.compute_us(t_us - p.now_us());
}

TEST(KvRepair, HintedHandoffDrainsAfterRevival) {
  const double kDeathUs = 30000.0, kReviveUs = 60000.0;
  fault::Plan plan;
  plan.kill_rank(1, kDeathUs);
  plan.revive_rank(1, kReviveUs);
  Engine e(engine_cfg(3, std::make_shared<fault::Injector>(plan)));
  e.run([&](Process& p) {
    kv::StoreConfig cfg = repair_cfg();
    cfg.hinted_handoff = true;
    kv::Store store(p, cfg);
    if (p.rank() == 2) {
      store.window().lock_all();
      std::vector<std::byte> buf(cfg.layout.value_capacity);
      advance_to(p, kDeathUs + 1000.0);
      // Server 1 is dead: every put applies on server 0 only and leaves a
      // hint for server 1, coalesced by key (the second seq replaces the
      // first in place, so the pending count stays one hint per key).
      for (std::uint64_t i = 0; i < 40; ++i) {
        const std::uint64_t key = store.key_at(i);
        for (std::uint32_t seq = 1; seq <= 2; ++seq) {
          kv::fill_value(key, seq, 32, buf.data());
          kv::PutMeta pm;
          ASSERT_TRUE(store.put(key, seq, buf.data(), 32, &pm));
          EXPECT_EQ(pm.applied, 1);
          EXPECT_EQ(pm.skipped, 1);
          EXPECT_EQ(pm.hinted, 1);
        }
      }
      EXPECT_EQ(store.hints_pending(), 40u);
      EXPECT_EQ(store.counters().hints_queued, 80u);
      EXPECT_EQ(store.counters().hints_dropped, 0u);

      // Heal, let the health machine recover (quarantine -> probing ->
      // healthy fires the store's drain callback), then replay the queue.
      advance_to(p, kReviveUs + 1000.0);
      ASSERT_TRUE(await_healthy(store, 1));
      store.drain_hints();
      EXPECT_EQ(store.hints_pending(), 0u);
      EXPECT_EQ(store.counters().hints_drained, 40u);

      const auto rep = store.verify_convergence();
      EXPECT_EQ(rep.keys_checked, cfg.nkeys);
      EXPECT_EQ(rep.keys_divergent, 0u);
      EXPECT_EQ(rep.keys_unreachable, 0u);
      store.window().unlock_all();
    }
    p.barrier();
    store.free_window();
  });
}

TEST(KvRepair, HintQueueCapBoundsMemoryAndCountsDrops) {
  fault::Plan plan;
  plan.kill_rank(1, 10000.0);
  Engine e(engine_cfg(3, std::make_shared<fault::Injector>(plan)));
  e.run([&](Process& p) {
    kv::StoreConfig cfg = repair_cfg();
    cfg.hinted_handoff = true;
    cfg.hint_queue_cap = 4;
    kv::Store store(p, cfg);
    if (p.rank() == 2) {
      store.window().lock_all();
      std::vector<std::byte> buf(cfg.layout.value_capacity);
      advance_to(p, 11000.0);
      for (std::uint64_t i = 0; i < 10; ++i) {
        const std::uint64_t key = store.key_at(i);
        kv::fill_value(key, 1, 16, buf.data());
        store.put(key, 1, buf.data(), 16);
      }
      // 4 distinct keys fit; the 6 others are dropped and counted.
      EXPECT_EQ(store.hints_pending(), 4u);
      EXPECT_EQ(store.counters().hints_queued, 4u);
      EXPECT_EQ(store.counters().hints_dropped, 6u);
      // Coalescing bypasses the cap: updating an already-hinted key
      // replaces its payload instead of consuming a new slot.
      kv::fill_value(store.key_at(0), 2, 16, buf.data());
      store.put(store.key_at(0), 2, buf.data(), 16);
      EXPECT_EQ(store.hints_pending(), 4u);
      EXPECT_EQ(store.counters().hints_queued, 5u);
      store.window().unlock_all();
    }
    p.barrier();
    store.free_window();
  });
}

TEST(KvRepair, ReadRepairHealsPartitionStaledReplica) {
  const double kSplitUs = 20000.0, kHealUs = 50000.0;
  fault::Plan plan;
  plan.partition_pair(/*origin=*/2, /*target=*/1, kSplitUs, kHealUs);
  Engine e(engine_cfg(3, std::make_shared<fault::Injector>(plan)));
  e.run([&](Process& p) {
    kv::StoreConfig cfg = repair_cfg();
    cfg.read_repair_every_n = 1;  // sample every cached get
    kv::Store store(p, cfg);
    if (p.rank() == 2) {
      store.window().lock_all();
      std::vector<std::byte> buf(cfg.layout.value_capacity);
      std::vector<std::byte> out(cfg.layout.value_capacity);
      advance_to(p, kSplitUs + 1000.0);
      // Puts during the asymmetric partition reach server 0 only; with
      // handoff off, server 1 is left durably stale at seq 0.
      for (std::uint64_t i = 0; i < 30; ++i) {
        const std::uint64_t key = store.key_at(i);
        kv::fill_value(key, 1, 24, buf.data());
        kv::PutMeta pm;
        ASSERT_TRUE(store.put(key, 1, buf.data(), 24, &pm));
        EXPECT_EQ(pm.skipped, 1);
        EXPECT_EQ(pm.hinted, 0);
      }
      advance_to(p, kHealUs + 1000.0);
      ASSERT_TRUE(await_healthy(store, 1));
      store.invalidate_cache();  // fresh epoch: no stale cached buckets
      // Cached gets now observe the replica disagreement and rewrite the
      // stale copies inline; every served value must stay self-consistent
      // (a repaired get only adopts a fresher value after the serving
      // replica accepted the repair write).
      std::uint64_t repairs = 0;
      for (std::uint64_t i = 0; i < 30; ++i) {
        const std::uint64_t key = store.key_at(i);
        kv::GetMeta m;
        ASSERT_TRUE(store.get(key, out.data(), &m));
        EXPECT_TRUE(kv::check_value(key, m.seq, m.len, out.data()));
        repairs += static_cast<std::uint64_t>(m.read_repairs);
      }
      EXPECT_EQ(repairs, 30u);
      EXPECT_EQ(store.counters().read_repairs, repairs);
      const auto rep = store.verify_convergence();
      EXPECT_EQ(rep.keys_divergent, 0u);
      EXPECT_EQ(rep.keys_unreachable, 0u);
      store.window().unlock_all();
    }
    p.barrier();
    store.free_window();
  });
}

TEST(KvRepair, AntiEntropyConvergesWithZeroClientTraffic) {
  const double kSplitUs = 20000.0, kHealUs = 50000.0;
  fault::Plan plan;
  plan.partition_pair(/*origin=*/2, /*target=*/1, kSplitUs, kHealUs);
  Engine e(engine_cfg(3, std::make_shared<fault::Injector>(plan)));
  e.run([&](Process& p) {
    kv::StoreConfig cfg = repair_cfg();
    cfg.antientropy_keys_per_epoch = 250;  // 4 steps per full pass
    kv::Store store(p, cfg);
    if (p.rank() == 2) {
      store.window().lock_all();
      std::vector<std::byte> buf(cfg.layout.value_capacity);
      advance_to(p, kSplitUs + 1000.0);
      for (std::uint64_t i = 0; i < 30; ++i) {
        const std::uint64_t key = store.key_at(i);
        kv::fill_value(key, 1, 24, buf.data());
        ASSERT_TRUE(store.put(key, 1, buf.data(), 24));
      }
      advance_to(p, kHealUs + 1000.0);
      // No client get/put from here on: the background scan alone must
      // reconcile — its own flushes drive the health recovery, too.
      std::uint64_t repairs = 0;
      for (int step = 0; step < 12; ++step) repairs += store.anti_entropy_step();
      EXPECT_EQ(repairs, 30u);
      EXPECT_EQ(store.counters().antientropy_repairs, repairs);
      EXPECT_EQ(store.counters().read_repairs, 0u);
      EXPECT_EQ(store.hints_pending(), 0u);
      const auto rep = store.verify_convergence();
      EXPECT_EQ(rep.keys_divergent, 0u);
      EXPECT_EQ(rep.keys_unreachable, 0u);
      store.window().unlock_all();
    }
    p.barrier();
    store.free_window();
  });
}

TEST(KvRepair, NoConvergenceControlStaysDivergent) {
  // Honesty check for the layer's A/B story: the identical staling
  // sequence with every convergence feature off must leave a measurable
  // divergence behind (the repairs above are doing real work).
  const double kSplitUs = 20000.0, kHealUs = 50000.0;
  fault::Plan plan;
  plan.partition_pair(/*origin=*/2, /*target=*/1, kSplitUs, kHealUs);
  Engine e(engine_cfg(3, std::make_shared<fault::Injector>(plan)));
  e.run([&](Process& p) {
    kv::Store store(p, repair_cfg());
    if (p.rank() == 2) {
      EXPECT_FALSE(store.convergence_enabled());
      store.window().lock_all();
      std::vector<std::byte> buf(store.config().layout.value_capacity);
      advance_to(p, kSplitUs + 1000.0);
      for (std::uint64_t i = 0; i < 30; ++i) {
        const std::uint64_t key = store.key_at(i);
        kv::fill_value(key, 1, 24, buf.data());
        ASSERT_TRUE(store.put(key, 1, buf.data(), 24));
      }
      advance_to(p, kHealUs + 1000.0);
      ASSERT_TRUE(await_healthy(store, 1));
      const auto rep = store.verify_convergence();
      EXPECT_EQ(rep.keys_divergent, 30u);
      EXPECT_EQ(rep.keys_unreachable, 0u);
      EXPECT_EQ(rep.max_seq_spread, 1u);
      store.window().unlock_all();
    }
    p.barrier();
    store.free_window();
  });
}

TEST(KvRepair, SplitBrainReconcilesToHighestSeq) {
  // Phase A: the client cannot reach server 1 (seq 1 lands on server 0
  // only). Phase B: the partition flips (seq 2 lands on server 1 only).
  // After everything heals, both replicas must reconcile to seq 2 — and
  // the stale seq-1 hint must retire without regressing server 1.
  const double kFlipAUs = 10000.0, kFlipBUs = 40000.0, kHealUs = 70000.0;
  fault::Plan plan;
  plan.partition_pair(/*origin=*/2, /*target=*/1, kFlipAUs, kFlipBUs);
  plan.partition_pair(/*origin=*/2, /*target=*/0, kFlipBUs, kHealUs);
  Engine e(engine_cfg(3, std::make_shared<fault::Injector>(plan)));
  e.run([&](Process& p) {
    kv::StoreConfig cfg = repair_cfg();
    cfg.hinted_handoff = true;
    kv::Store store(p, cfg);
    if (p.rank() == 2) {
      store.window().lock_all();
      std::vector<std::byte> buf(cfg.layout.value_capacity);
      std::vector<std::byte> out(cfg.layout.value_capacity);
      const std::uint64_t key = store.key_at(7);

      advance_to(p, kFlipAUs + 1000.0);
      kv::fill_value(key, 1, 24, buf.data());
      kv::PutMeta pm1;
      ASSERT_TRUE(store.put(key, 1, buf.data(), 24, &pm1));
      EXPECT_EQ(pm1.hinted, 1);  // server 1 missed seq 1

      advance_to(p, kFlipBUs + 1000.0);
      ASSERT_TRUE(await_healthy(store, 1));
      kv::fill_value(key, 2, 24, buf.data());
      kv::PutMeta pm2;
      ASSERT_TRUE(store.put(key, 2, buf.data(), 24, &pm2));
      EXPECT_EQ(pm2.hinted, 1);  // server 0 missed seq 2

      advance_to(p, kHealUs + 1000.0);
      ASSERT_TRUE(await_healthy(store, 0));
      store.drain_hints();
      EXPECT_EQ(store.hints_pending(), 0u);

      kv::GetMeta m;
      ASSERT_TRUE(store.get_uncached(key, out.data(), &m));
      EXPECT_EQ(m.seq, 2u);  // never the stale seq-1 side
      EXPECT_TRUE(kv::check_value(key, m.seq, m.len, out.data()));
      const auto rep = store.verify_convergence();
      EXPECT_EQ(rep.keys_divergent, 0u);
      EXPECT_EQ(rep.keys_unreachable, 0u);
      store.window().unlock_all();
    }
    p.barrier();
    store.free_window();
  });
}

TEST(KvRepair, WorkloadConvergesAcrossDeathAndRevival) {
  const double kDeathUs = 30000.0, kReviveUs = 90000.0;
  fault::Plan plan;
  plan.kill_rank(1, kDeathUs);
  plan.revive_rank(1, kReviveUs);
  Engine e(engine_cfg(4, std::make_shared<fault::Injector>(plan)));
  std::vector<kv::WorkloadReport> reports(2);
  e.run([&](Process& p) {
    kv::StoreConfig scfg = repair_cfg(/*nkeys=*/4000);
    scfg.hinted_handoff = true;
    scfg.hint_queue_cap = 8192;
    scfg.read_repair_every_n = 8;
    scfg.antientropy_keys_per_epoch = 500;
    kv::Store store(p, scfg);
    if (p.rank() >= 2) {
      const int client = p.rank() - 2;
      kv::WorkloadConfig warm;
      warm.ops = 2000;
      warm.get_ratio = 1.0;
      warm.epoch_ops = warm.ops + 1;
      warm.seed = 0x7761726dull;
      kv::Driver warmer(store, warm, client, 2);
      const kv::WorkloadReport wr = warmer.run(p);
      EXPECT_EQ(wr.mismatches, 0u);
      advance_to(p, kDeathUs + 2000.0);

      kv::WorkloadConfig wcfg;
      wcfg.ops = 12000;
      wcfg.get_ratio = 0.9;
      wcfg.zipf_s = 0.99;
      wcfg.epoch_ops = 3000;  // AE ticks + Listing-1 invalidations mid-run
      kv::Driver driver(store, wcfg, client, 2);
      reports[client] = driver.run(p);

      // Post-run: heal, recover the health machine, replay the hint
      // queues, and run the background scan over the full keyspace.
      advance_to(p, kReviveUs + 2000.0);
      store.window().lock_all();
      EXPECT_TRUE(await_healthy(store, 1));
      store.drain_hints();
      const std::uint64_t passes =
          (scfg.nkeys + scfg.antientropy_keys_per_epoch - 1) /
          scfg.antientropy_keys_per_epoch;
      for (std::uint64_t s = 0; s < 2 * passes; ++s) store.anti_entropy_step();
      EXPECT_EQ(store.hints_pending(), 0u);
      store.window().unlock_all();
    }
    p.barrier();  // all repair traffic quiesced before the ground truth
    if (p.rank() == 2) {
      store.window().lock_all();
      const auto rep = store.verify_convergence();
      EXPECT_EQ(rep.keys_divergent, 0u);
      EXPECT_EQ(rep.keys_unreachable, 0u);
      store.window().unlock_all();
    }
    p.barrier();
    store.free_window();
  });
  std::uint64_t hinted = 0;
  for (const auto& r : reports) {
    EXPECT_EQ(r.mismatches, 0u);
    EXPECT_DOUBLE_EQ(r.availability(), 1.0)
        << "served " << r.served << "/" << r.attempted;
    hinted += r.put_replicas_hinted;
  }
  EXPECT_GT(hinted, 0u);  // the dead epoch really exercised the handoff path
}

TEST(KvRepair, RejectsInvalidConvergenceConfigs) {
  Engine e(engine_cfg(3));
  e.run([](Process& p) {
    kv::StoreConfig zero_cap = repair_cfg();
    zero_cap.hinted_handoff = true;
    zero_cap.hint_queue_cap = 0;  // a cap of 0 would silently drop every hint
    EXPECT_THROW(kv::Store store(p, zero_cap), util::ContractError);
    kv::StoreConfig wide = repair_cfg();
    wide.replication = kv::kMaxReplicas + 1;  // would overflow applied_mask use
    EXPECT_THROW(kv::Store store(p, wide), util::ContractError);
    p.barrier();
  });
}

}  // namespace
