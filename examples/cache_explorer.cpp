// cache_explorer — an offline CLaMPI configuration explorer.
//
// Feeds a get trace (recorded from an application, or a synthetic
// micro-workload) through CacheCore under a grid of configurations and
// prints the resulting access statistics, so |I_w| / |S_w| / eviction
// policy can be tuned without re-running the application.
//
// Usage:
//   cache_explorer                            # built-in synthetic trace
//   cache_explorer trace.txt                  # replay a recorded trace
//   cache_explorer trace.txt 4096,16384 1M,8M # sweep |I_w| and |S_w|
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "clampi/health.h"
#include "clampi/info.h"
#include "clampi/trace.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "kv/store.h"
#include "kv/workload.h"
#include "netmodel/model.h"
#include "rt/engine.h"
#include "util/rng.h"

using namespace clampi;

namespace {

trace::Trace synthetic_trace() {
  // The Sec. IV-A micro-workload shape: 1K distinct gets, normal reuse.
  trace::Trace t;
  util::Xoshiro256 rng(1);
  std::vector<std::uint64_t> disp(1000);
  std::vector<std::uint64_t> size(1000);
  std::uint64_t cursor = 0;
  for (int i = 0; i < 1000; ++i) {
    size[i] = std::uint64_t{1} << rng.bounded(17);
    disp[i] = cursor;
    cursor += size[i];
  }
  for (int z = 0; z < 50000; ++z) {
    double g = 0;
    for (int k = 0; k < 12; ++k) g += rng.uniform();  // ~normal via CLT
    const auto i = static_cast<std::size_t>(
        std::min(999.0, std::max(0.0, (g - 6.0) / 3.0 * 250.0 + 500.0)));
    t.add_get(1, disp[i], size[i]);
    if (z % 16 == 15) t.add_flush_all();
  }
  t.add_flush_all();
  return t;
}

std::vector<std::string> split(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(item);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  trace::Trace t;
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    t = trace::Trace::load(in);
  } else {
    t = synthetic_trace();
  }
  std::printf("trace: %zu gets, %zu distinct keys, %.2f MiB total, largest %llu B\n",
              t.num_gets(), t.distinct_keys(),
              static_cast<double>(t.total_bytes()) / (1 << 20),
              static_cast<unsigned long long>(t.max_bytes()));

  // Survivability preview: traces recorded with the health detector on
  // carry `h <target> <state>` annotations (docs/FAULTS.md §6). Replay
  // skips them; summarize them here so a recorded incident is visible.
  std::size_t health_events = 0, quarantines = 0, recoveries = 0;
  for (const auto& ev : t.events) {
    if (ev.kind != trace::Event::Kind::kHealth) continue;
    ++health_events;
    quarantines += ev.disp == static_cast<std::uint64_t>(HealthState::kQuarantined);
    recoveries += ev.disp == static_cast<std::uint64_t>(HealthState::kHealthy);
  }
  if (health_events > 0) {
    std::printf("health: %zu transitions (%zu quarantines, %zu recoveries)\n",
                health_events, quarantines, recoveries);
  }

  const auto index_sweep = split(argc > 2 ? argv[2] : "512,1024,2048,4096");
  const auto storage_sweep = split(argc > 3 ? argv[3] : "1M,4M,16M");

  std::printf("%-8s %-8s %-8s %7s %7s %7s %7s %7s %7s %7s %7s\n", "index", "storage",
              "score", "hit%", "partial", "direct", "confl", "capac", "fail",
              "prb/get", "fbin%");
  for (const auto& iw : index_sweep) {
    for (const auto& sw : storage_sweep) {
      for (const ScoreKind score :
           {ScoreKind::kFull, ScoreKind::kTemporal, ScoreKind::kPositional}) {
        Config cfg;
        cfg.mode = Mode::kAlwaysCache;
        cfg.index_entries = std::strtoull(iw.c_str(), nullptr, 10);
        cfg.storage_bytes = parse_size(sw);
        cfg.score = score;
        CacheCore core(cfg);
        const Stats st = trace::replay_core(t, core);
        const double total = static_cast<double>(st.total_gets ? st.total_gets : 1);
        const std::uint64_t allocs = st.storage_fastbin_allocs + st.storage_tree_allocs;
        std::printf("%-8s %-8s %-8s %6.1f%% %7.3f %7.3f %7.3f %7.3f %7.3f %7.2f %6.1f%%\n",
                    iw.c_str(), sw.c_str(), to_string(score), 100.0 * st.hit_ratio(),
                    static_cast<double>(st.hits_partial) / total,
                    static_cast<double>(st.direct) / total,
                    static_cast<double>(st.conflicting) / total,
                    static_cast<double>(st.capacity) / total,
                    static_cast<double>(st.failing) / total,
                    static_cast<double>(st.index_probes) / total,
                    100.0 * static_cast<double>(st.storage_fastbin_allocs) /
                        static_cast<double>(allocs ? allocs : 1));
      }
    }
  }

  // Integrity-guard preview: replay once more with hit-time verification
  // and scrubbing enabled (docs/INTEGRITY.md) so the checksum work a
  // deployment would pay is visible next to the plain numbers. Offline
  // replay has no bit rot, so detections must be zero.
  Config icfg;
  icfg.mode = Mode::kAlwaysCache;
  icfg.index_entries = std::strtoull(index_sweep.back().c_str(), nullptr, 10);
  icfg.storage_bytes = parse_size(storage_sweep.back());
  icfg.verify_every_n = 1;
  icfg.scrub_entries_per_epoch = 64;
  CacheCore icore(icfg);
  const Stats ist = trace::replay_core(t, icore);
  std::printf(
      "\nintegrity (verify_every_n=1, scrub=64/epoch at %s/%s):\n"
      "  checksum_verifications %llu, scrub_entries_scanned %llu,\n"
      "  corruption_detected %llu, self_heals %llu, scrub_corruptions %llu\n",
      index_sweep.back().c_str(), storage_sweep.back().c_str(),
      static_cast<unsigned long long>(ist.checksum_verifications),
      static_cast<unsigned long long>(ist.scrub_entries_scanned),
      static_cast<unsigned long long>(ist.corruption_detected),
      static_cast<unsigned long long>(ist.self_heals),
      static_cast<unsigned long long>(ist.scrub_corruptions));

  // KV preview: the bucket-read shape a kv::Store workload would push
  // through these counters (docs/KV.md). A small in-simulator run — one
  // server pair, a few thousand Zipf ops — is enough to show bucket hits
  // vs chain follows and the put invalidation fan-out next to the trace
  // numbers above.
  {
    rmasim::Engine::Config ecfg;
    ecfg.nranks = 3;
    ecfg.model = std::make_shared<net::FlatModel>(2.0, 0.001);
    ecfg.time_policy = rmasim::TimePolicy::kModeled;
    rmasim::Engine engine(ecfg);
    engine.run([](rmasim::Process& p) {
      kv::StoreConfig scfg;
      scfg.nkeys = 4000;
      scfg.nservers = 2;
      scfg.load_factor = 1.4;  // oversubscribed so chain follows show up
      scfg.overflow_frac = 1.0;
      scfg.cache.mode = Mode::kUserDefined;
      scfg.cache.index_entries = 4096;
      scfg.cache.storage_bytes = 8 << 20;
      kv::Store store(p, scfg);
      if (p.rank() == 2) {
        kv::WorkloadConfig wcfg;
        wcfg.ops = 8000;
        wcfg.get_ratio = 0.9;
        wcfg.epoch_ops = 4000;
        kv::Driver driver(store, wcfg, /*client_index=*/0, /*nclients=*/1);
        const kv::WorkloadReport rep = driver.run(p);
        const Stats kst = store.window().stats();
        const kv::StoreCounters kc = store.counters();
        const double ops = static_cast<double>(kst.put_invalidation_ops
                                                   ? kst.put_invalidation_ops
                                                   : 1);
        std::printf(
            "\nkv preview (%llu Zipf ops, 90%% gets, mid-run epoch invalidation):\n"
            "  kv_bucket_reads %llu (hit %.1f%%), kv_chain_reads %llu, "
            "kv_version_rereads %llu,\n"
            "  put_invalidation_ops %llu dropping %llu entries "
            "(fan-out %.2f/op), mismatches %llu\n",
            static_cast<unsigned long long>(rep.attempted),
            static_cast<unsigned long long>(kc.bucket_reads),
            100.0 * rep.hit_frac(),
            static_cast<unsigned long long>(kc.chain_reads),
            static_cast<unsigned long long>(kc.version_rereads),
            static_cast<unsigned long long>(kst.put_invalidation_ops),
            static_cast<unsigned long long>(kst.put_invalidations),
            static_cast<double>(kst.put_invalidations) / ops,
            static_cast<unsigned long long>(rep.mismatches));
      }
      p.barrier();
      store.free_window();
    });
  }

  // Convergence preview: the repair counters a faulted kv::Store run
  // pushes (docs/KV.md "Repair & convergence"). One client loses one of
  // the two replica servers for a window mid-run, so puts hint, then the
  // hint drain and anti-entropy scan reconcile the stale replica after
  // the partition heals (docs/FAULTS.md §7).
  {
    rmasim::Engine::Config ecfg;
    ecfg.nranks = 3;
    ecfg.model = std::make_shared<net::FlatModel>(2.0, 0.001);
    ecfg.time_policy = rmasim::TimePolicy::kModeled;
    fault::Plan plan;
    plan.partition_pair(/*origin=*/2, /*target=*/1, 20000.0, 50000.0);
    ecfg.injector = std::make_shared<fault::Injector>(plan);
    rmasim::Engine engine(ecfg);
    engine.run([](rmasim::Process& p) {
      kv::StoreConfig scfg;
      scfg.nkeys = 2000;
      scfg.nservers = 2;
      scfg.replication = 2;
      scfg.cache.mode = Mode::kUserDefined;
      scfg.cache.index_entries = 4096;
      scfg.cache.storage_bytes = 8 << 20;
      scfg.cache.health_failure_threshold = 3;
      scfg.cache.degraded_reads = true;
      scfg.cache.degraded_max_staleness_us = 1e9;
      scfg.hinted_handoff = true;
      scfg.hint_queue_cap = 2000;
      scfg.read_repair_every_n = 4;
      scfg.antientropy_keys_per_epoch = 500;
      kv::Store store(p, scfg);
      if (p.rank() == 2) {
        kv::WorkloadConfig wcfg;
        wcfg.ops = 12000;
        wcfg.get_ratio = 0.8;
        wcfg.epoch_ops = 3000;
        kv::Driver driver(store, wcfg, /*client_index=*/0, /*nclients=*/1);
        const kv::WorkloadReport rep = driver.run(p);
        if (p.now_us() < 52000.0) p.compute_us(52000.0 - p.now_us());
        store.window().lock_all();
        std::vector<std::byte> v(scfg.layout.value_capacity);
        for (std::uint64_t i = 0; i < 400; ++i) {
          kv::GetMeta m;
          store.get_uncached(store.key_at(i % scfg.nkeys), v.data(), &m);
          const clampi::TargetStatus ts = store.window().target_status(1);
          if (ts.usable && ts.state == clampi::HealthState::kHealthy) break;
        }
        store.drain_hints();
        for (int pass = 0; pass < 2 * 4; ++pass) store.anti_entropy_step();
        const kv::Store::ConvergenceReport conv = store.verify_convergence();
        store.window().unlock_all();
        const kv::StoreCounters kc = store.counters();
        std::printf(
            "\nconvergence preview (%llu ops, partition 20-50ms, hinted "
            "handoff + read-repair + anti-entropy, mismatches %llu):\n"
            "  kv_hints_queued %llu, kv_hints_drained %llu, "
            "kv_hints_dropped %llu,\n"
            "  kv_read_repairs %llu, kv_antientropy_repairs %llu, "
            "divergent after repair %llu/%llu\n",
            static_cast<unsigned long long>(rep.attempted),
            static_cast<unsigned long long>(rep.mismatches),
            static_cast<unsigned long long>(kc.hints_queued),
            static_cast<unsigned long long>(kc.hints_drained),
            static_cast<unsigned long long>(kc.hints_dropped),
            static_cast<unsigned long long>(kc.read_repairs),
            static_cast<unsigned long long>(kc.antientropy_repairs),
            static_cast<unsigned long long>(conv.keys_divergent),
            static_cast<unsigned long long>(conv.keys_checked));
      }
      p.barrier();
      store.free_window();
    });
  }

  // Durability preview: the crash-restart counters (docs/DURABILITY.md).
  // Server 1 suffers a wiped-memory crash after every write acked (torn
  // journal tail certain); its recovery replays the write-ahead journal
  // and the client re-reads every acknowledged key to count real loss.
  {
    rmasim::Engine::Config ecfg;
    ecfg.nranks = 3;
    ecfg.model = std::make_shared<net::FlatModel>(2.0, 0.001);
    ecfg.time_policy = rmasim::TimePolicy::kModeled;
    fault::Plan plan;
    plan.crash_rank(/*rank=*/1, /*at_us=*/30000.0, /*restart_us=*/50000.0);
    plan.torn_writes(1.0);
    ecfg.injector = std::make_shared<fault::Injector>(plan);
    rmasim::Engine engine(ecfg);
    kv::StoreConfig scfg;
    scfg.nkeys = 1500;
    scfg.nservers = 2;
    scfg.replication = 1;
    scfg.cache.mode = Mode::kUserDefined;
    scfg.cache.index_entries = 4096;
    scfg.cache.storage_bytes = 8 << 20;
    scfg.group_commit_n = 4;
    scfg.devices = kv::Store::make_device_set(scfg);  // ONCE, outside run
    engine.run([scfg](rmasim::Process& p) {
      kv::Store store(p, scfg);
      const double end_us = 52000.0;
      std::vector<std::byte> v(scfg.layout.value_capacity);
      std::uint64_t acked = 0;
      if (p.rank() == 2) {
        store.window().lock_all();
        for (std::uint64_t i = 0; i < scfg.nkeys; ++i) {
          const std::uint64_t key = store.key_at(i);
          kv::fill_value(key, /*seq=*/1, 48, v.data());
          kv::PutMeta pm;
          if (store.put(key, 1, v.data(), 48, &pm) && pm.applied > 0) ++acked;
        }
        store.window().unlock_all();
      }
      p.barrier();  // every write acked, strictly before the crash
      if (p.rank() < scfg.nservers) {
        while (p.now_us() < end_us) {  // recovery runs inside crash_tick
          p.compute_us(500.0);
          store.crash_tick();
        }
      } else if (p.now_us() < end_us) {
        p.compute_us(end_us - p.now_us());
      }
      p.barrier();  // outage over, server 1 recovered
      if (p.rank() == 2) {
        store.window().lock_all();
        store.invalidate_cache();
        std::uint64_t lost = 0;
        for (std::uint64_t i = 0; i < scfg.nkeys; ++i) {
          const std::uint64_t key = store.key_at(i);
          kv::GetMeta gm;
          bool ok = false;
          for (int a = 0; a < 10 && !ok; ++a) {
            ok = store.get_uncached(key, v.data(), &gm);
            if (!ok) p.compute_us(1000.0);
          }
          if (!ok || gm.seq < 1 || !kv::check_value(key, gm.seq, gm.len, v.data())) {
            ++lost;
          }
        }
        store.window().unlock_all();
        std::printf(
            "\ndurability preview (crash+restart of server 1, torn tail, "
            "journal on):\n"
            "  acked %llu, lost after recovery %llu, crash_invalidations "
            "%llu\n",
            static_cast<unsigned long long>(acked),
            static_cast<unsigned long long>(lost),
            static_cast<unsigned long long>(
                store.window().stats().crash_invalidations));
      }
      p.barrier();
      if (p.rank() == 1) {
        const kv::StoreCounters kc = store.counters();
        std::printf(
            "  server 1: restarts_handled %d, kv_journal_replayed %llu, "
            "kv_torn_records_dropped %llu, kv_snapshot_loads %llu\n",
            store.crash_restarts_handled(),
            static_cast<unsigned long long>(kc.journal_replayed),
            static_cast<unsigned long long>(kc.torn_records_dropped),
            static_cast<unsigned long long>(kc.snapshot_loads));
      }
      p.barrier();
      store.free_window();
    });
  }

  // Tail-latency preview: the counters the robustness layer pushes
  // (docs/FAULTS.md §8). Server 1 straggles 30x from 10ms with some
  // transient failures; hedged reads race its backup, deadline budgets
  // cut doomed retries, and the AIMD shedder reacts to the misses.
  {
    rmasim::Engine::Config ecfg;
    ecfg.nranks = 3;
    ecfg.model = std::make_shared<net::FlatModel>(2.0, 0.001);
    ecfg.time_policy = rmasim::TimePolicy::kModeled;
    fault::Plan plan;
    plan.slow_rank(/*rank=*/1, /*factor=*/30.0, /*from_us=*/10000.0);
    plan.fail_target(/*rank=*/1, 0.4);
    ecfg.injector = std::make_shared<fault::Injector>(plan);
    rmasim::Engine engine(ecfg);
    engine.run([](rmasim::Process& p) {
      kv::StoreConfig scfg;
      scfg.nkeys = 2000;
      scfg.nservers = 2;
      scfg.replication = 2;
      scfg.cache.mode = Mode::kUserDefined;
      scfg.cache.index_entries = 4096;
      scfg.cache.storage_bytes = 8 << 20;
      scfg.cache.max_retries = 1;
      scfg.cache.retry_backoff_us = 30.0;
      scfg.cache.retry_jitter = 0.0;
      scfg.cache.op_deadline_us = 60.0;
      scfg.cache.load_shedding = true;
      scfg.cache.shed_window_us = 500.0;
      scfg.cache.shed_miss_ratio = 0.05;
      scfg.cache.shed_decrease_factor = 0.5;
      scfg.cache.shed_increase = 0.1;
      scfg.cache.shed_min_admit = 0.2;
      scfg.hedge_quantile = 0.9;
      scfg.hedge_min_samples = 8;
      kv::Store store(p, scfg);
      if (p.rank() == 2) {
        // Feeds the per-target latency quantiles. Get-only: a second Driver
        // starts with a fresh shadow model, so any calm-phase put would make
        // the measured driver's exact own-key check see a seq it never wrote.
        kv::WorkloadConfig calm;
        calm.ops = 2000;
        calm.get_ratio = 1.0;
        calm.epoch_ops = 500;
        kv::Driver warmer(store, calm, /*client_index=*/0, /*nclients=*/1);
        warmer.run(p);
        if (p.now_us() < 10001.0) p.compute_us(10001.0 - p.now_us());
        kv::WorkloadConfig wcfg;
        wcfg.ops = 3000;
        wcfg.get_ratio = 0.8;
        wcfg.epoch_ops = 500;
        wcfg.seed = 0x74656cull;
        kv::Driver driver(store, wcfg, /*client_index=*/0, /*nclients=*/1);
        const kv::WorkloadReport rep = driver.run(p);
        const Stats kst = store.window().stats();
        const kv::StoreCounters kc = store.counters();
        std::printf(
            "\ntail preview (%llu ops, 30x straggler on server 1 + 40%% "
            "transients, 60us budgets, mismatches %llu):\n"
            "  slow_observations %llu, kv_hedged_gets %llu "
            "(wins %llu, wasted %llu),\n"
            "  deadline_misses %llu, ops_shed %llu, admit fraction %.2f\n",
            static_cast<unsigned long long>(rep.attempted),
            static_cast<unsigned long long>(rep.mismatches),
            static_cast<unsigned long long>(kst.slow_observations),
            static_cast<unsigned long long>(kc.hedged_gets),
            static_cast<unsigned long long>(kc.hedge_wins),
            static_cast<unsigned long long>(kc.hedge_wasted),
            static_cast<unsigned long long>(kst.deadline_misses),
            static_cast<unsigned long long>(kst.ops_shed),
            store.window().admit_fraction());
      }
      p.barrier();
      store.free_window();
    });
  }
  return 0;
}
