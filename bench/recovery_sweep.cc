// Recovery sweep: replica convergence of the KV/DHT after faults heal
// (docs/KV.md "Repair & convergence", docs/FAULTS.md §7).
//
// Topology: 6 ranks — 4 servers own bucket shards, 2 dedicated clients
// drive src/kv/workload.{h,cc}. Two fault shapes, each run twice:
//
//   death      server rank 1 dies mid-run and revives later. rmasim rank
//              death does not wipe window memory, so the revived shard
//              holds exactly the stale state the convergence layer must
//              repair.
//   partition  asymmetric reachability: client 4 loses server 1 and
//              client 5 loses server 2 over overlapping epochs, so the
//              two writers stale different replicas (split-brain), while
//              every server stays up for everyone else.
//
// Variants per shape:
//   convergence  hinted handoff + inline read-repair + anti-entropy on.
//                After the fault heals the clients drain their hint
//                queues and run the background scan over the full
//                keyspace; the ground-truth check must then find ZERO
//                divergent keys, with availability still 1.0 (the PR-6
//                resilient baseline) and zero shadow-check mismatches.
//   control      the identical schedule with every convergence feature
//                off: the divergence left behind must be measurable
//                (keys_divergent > 0) — the honest A/B that the repairs
//                above are doing real work.
//
// The process exits nonzero if
//   - any shadow-check mismatch is observed anywhere,
//   - a convergence cell ends with divergent or unreachable keys, spills
//     hints, or drops availability below 1.0,
//   - a convergence cell shows no repair activity (nothing was exercised),
//   - a control cell fails to show divergence.
// CI runs this with CLAMPI_BENCH_SCALE for smoke and uploads the JSON.
//
// Output: one JSON document on stdout, also written to
// BENCH_kv_recovery.json (or argv[1]).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "kv/store.h"
#include "kv/workload.h"
#include "rt/engine.h"

namespace {

using namespace clampi;
using rmasim::Process;

constexpr int kServers = 4;
constexpr int kClients = 2;
constexpr int kRanks = kServers + kClients;
constexpr double kFaultUs = 20000.0;   ///< death / first partition onset
constexpr double kHealUs = 60000.0;    ///< revival / first partition heal
constexpr double kSecondFaultUs = 30000.0;  ///< second partition onset
constexpr double kSecondHealUs = 70000.0;   ///< second partition heal

struct CellResult {
  std::uint64_t attempted = 0, served = 0, mismatches = 0;
  std::uint64_t degraded = 0, rerouted = 0;
  std::uint64_t put_applied = 0, put_skipped = 0, put_hinted = 0;
  std::uint64_t hints_queued = 0, hints_drained = 0, hints_dropped = 0;
  std::uint64_t read_repairs = 0, ae_repairs = 0;
  std::uint64_t hints_leftover = 0, ae_steps = 0;
  kv::Store::ConvergenceReport conv;
  double elapsed_us = 0.0;

  double availability() const {
    return attempted == 0 ? 1.0
                          : static_cast<double>(served) / static_cast<double>(attempted);
  }
  std::uint64_t repair_activity() const {
    return hints_drained + read_repairs + ae_repairs;
  }
};

kv::StoreConfig store_cfg(std::uint64_t nkeys, bool convergence) {
  kv::StoreConfig scfg;
  scfg.nkeys = nkeys;
  scfg.nservers = kServers;
  scfg.replication = 2;
  scfg.layout.value_capacity = 64;
  scfg.cache.mode = Mode::kUserDefined;
  scfg.cache.adaptive = false;
  scfg.cache.index_entries = std::size_t{1} << 17;
  scfg.cache.storage_bytes = std::size_t{64} << 20;
  scfg.cache.health_failure_threshold = 3;
  scfg.cache.degraded_reads = true;
  scfg.cache.degraded_max_staleness_us = 1e9;  // covers the whole run
  if (convergence) {
    scfg.hinted_handoff = true;
    scfg.hint_queue_cap = static_cast<std::uint32_t>(nkeys);
    scfg.read_repair_every_n = 16;
    scfg.antientropy_keys_per_epoch = std::max<std::uint64_t>(nkeys / 4, 1);
  }
  return scfg;
}

bool all_servers_healthy(kv::Store& store) {
  for (int t = 0; t < kServers; ++t) {
    const TargetStatus ts = store.window().target_status(t);
    if (!ts.usable || ts.state != HealthState::kHealthy) return false;
  }
  return true;
}

/// Drive every server's health machine back to HEALTHY after the faults
/// healed: uncached gets generate flushes (epoch closes promote
/// dwell-elapsed quarantines to PROBING) and successful probe reads.
void await_recovery(kv::Store& store) {
  std::vector<std::byte> v(store.config().layout.value_capacity);
  for (std::uint64_t i = 0; i < 2000 && !all_servers_healthy(store); ++i) {
    kv::GetMeta m;
    store.get_uncached(store.key_at(i % store.config().nkeys), v.data(), &m);
  }
}

CellResult run_cell(std::uint64_t nkeys, std::uint64_t ops, bool partition,
                    bool convergence) {
  rmasim::Engine::Config ecfg = benchx::modeled_engine(kRanks);
  fault::Plan plan;
  if (partition) {
    // Asymmetric split-brain: each client loses a different server for an
    // overlapping epoch; every server stays reachable for everyone else.
    plan.partition_pair(/*origin=*/kServers + 0, /*target=*/1, kFaultUs, kHealUs);
    plan.partition_pair(/*origin=*/kServers + 1, /*target=*/2, kSecondFaultUs,
                        kSecondHealUs);
  } else {
    plan.kill_rank(/*rank=*/1, kFaultUs);
    plan.revive_rank(/*rank=*/1, kHealUs);
  }
  ecfg.injector = std::make_shared<fault::Injector>(plan);
  rmasim::Engine e(ecfg);

  struct ClientOut {
    kv::WorkloadReport rep;
    kv::StoreCounters kv;
    std::uint64_t ae_steps = 0;
    std::uint64_t hints_leftover = 0;
    kv::Store::ConvergenceReport conv;
  };
  auto outs = std::make_shared<std::vector<ClientOut>>(kRanks);

  e.run([=, &outs](Process& p) {
    kv::Store store(p, store_cfg(nkeys, convergence));
    if (p.rank() >= kServers) {
      const int client = p.rank() - kServers;
      ClientOut& out = (*outs)[static_cast<std::size_t>(p.rank())];

      // Warm the hot set while every pair is reachable, then cross the
      // fault onset with no epoch open and serve through it.
      kv::WorkloadConfig warm;
      warm.ops = std::min<std::uint64_t>(nkeys, 8000);
      warm.get_ratio = 1.0;
      warm.zipf_s = 0.99;
      warm.epoch_ops = warm.ops + 1;
      warm.seed = 0x7761726dull;
      kv::Driver warmer(store, warm, client, kClients);
      out.rep.mismatches += warmer.run(p).mismatches;
      if (p.now_us() < kFaultUs + 2000.0) {
        p.compute_us(kFaultUs + 2000.0 - p.now_us());
      }

      kv::WorkloadConfig wcfg;
      wcfg.ops = ops;
      wcfg.get_ratio = 0.9;
      wcfg.zipf_s = 0.99;
      wcfg.epoch_ops = std::max<std::uint64_t>(ops / 4, 1);  // AE ticks mid-run
      kv::Driver driver(store, wcfg, client, kClients);
      const std::uint64_t warm_mm = out.rep.mismatches;
      out.rep = driver.run(p);
      out.rep.mismatches += warm_mm;

      // Post-heal convergence epoch: recover the health machines, replay
      // the hint queues, and run the background scan over the keyspace.
      if (p.now_us() < kSecondHealUs + 2000.0) {
        p.compute_us(kSecondHealUs + 2000.0 - p.now_us());
      }
      store.window().lock_all();
      await_recovery(store);
      store.drain_hints();
      const std::uint64_t budget = store.config().antientropy_keys_per_epoch;
      if (budget > 0) {
        const std::uint64_t passes = (nkeys + budget - 1) / budget;
        for (std::uint64_t s = 0; s < 2 * passes; ++s) {
          store.anti_entropy_step();
          ++out.ae_steps;
        }
      }
      out.hints_leftover = store.hints_pending();
      store.window().unlock_all();
    }
    p.barrier();  // all repair traffic quiesced before the ground truth
    if (p.rank() == kServers) {
      store.window().lock_all();
      (*outs)[kServers].conv = store.verify_convergence();
      store.window().unlock_all();
    }
    if (p.rank() >= kServers) {
      (*outs)[static_cast<std::size_t>(p.rank())].kv = store.counters();
    }
    p.barrier();
    store.free_window();
  });

  CellResult r;
  for (int c = kServers; c < kRanks; ++c) {
    const ClientOut& o = (*outs)[static_cast<std::size_t>(c)];
    r.attempted += o.rep.attempted;
    r.served += o.rep.served;
    r.mismatches += o.rep.mismatches;
    r.degraded += o.rep.degraded_serves;
    r.rerouted += o.rep.rerouted;
    r.put_applied += o.rep.put_replicas_applied;
    r.put_skipped += o.rep.put_replicas_skipped;
    r.put_hinted += o.rep.put_replicas_hinted;
    r.hints_queued += o.kv.hints_queued;
    r.hints_drained += o.kv.hints_drained;
    r.hints_dropped += o.kv.hints_dropped;
    r.read_repairs += o.kv.read_repairs;
    r.ae_repairs += o.kv.antientropy_repairs;
    r.hints_leftover += o.hints_leftover;
    r.ae_steps += o.ae_steps;
    r.elapsed_us = std::max(r.elapsed_us, o.rep.elapsed_us);
  }
  r.conv = (*outs)[kServers].conv;
  return r;
}

void emit_cell(std::string& json, const char* cell, const char* variant,
               std::uint64_t nkeys, const CellResult& r, bool first) {
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "%s\n    {\"cell\":\"%s\",\"variant\":\"%s\",\"nkeys\":%llu,"
      "\"attempted\":%llu,\"served\":%llu,\"availability\":%.6f,"
      "\"mismatches\":%llu,\"degraded\":%llu,\"rerouted\":%llu,"
      "\"put_replicas_applied\":%llu,\"put_replicas_skipped\":%llu,"
      "\"put_replicas_hinted\":%llu,\"hints_queued\":%llu,"
      "\"hints_drained\":%llu,\"hints_dropped\":%llu,\"hints_leftover\":%llu,"
      "\"read_repairs\":%llu,\"antientropy_repairs\":%llu,\"ae_steps\":%llu,"
      "\"keys_checked\":%llu,\"keys_divergent\":%llu,"
      "\"keys_unreachable\":%llu,\"max_seq_spread\":%llu,"
      "\"elapsed_us\":%.1f}",
      first ? "" : ",", cell, variant, static_cast<unsigned long long>(nkeys),
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.served), r.availability(),
      static_cast<unsigned long long>(r.mismatches),
      static_cast<unsigned long long>(r.degraded),
      static_cast<unsigned long long>(r.rerouted),
      static_cast<unsigned long long>(r.put_applied),
      static_cast<unsigned long long>(r.put_skipped),
      static_cast<unsigned long long>(r.put_hinted),
      static_cast<unsigned long long>(r.hints_queued),
      static_cast<unsigned long long>(r.hints_drained),
      static_cast<unsigned long long>(r.hints_dropped),
      static_cast<unsigned long long>(r.hints_leftover),
      static_cast<unsigned long long>(r.read_repairs),
      static_cast<unsigned long long>(r.ae_repairs),
      static_cast<unsigned long long>(r.ae_steps),
      static_cast<unsigned long long>(r.conv.keys_checked),
      static_cast<unsigned long long>(r.conv.keys_divergent),
      static_cast<unsigned long long>(r.conv.keys_unreachable),
      static_cast<unsigned long long>(r.conv.max_seq_spread), r.elapsed_us);
  json += buf;
}

/// Gate one convergence cell; prints the reason for any failure.
bool gate_convergence(const char* cell, const CellResult& r) {
  bool ok = true;
  if (r.mismatches != 0) {
    std::fprintf(stderr, "recovery_sweep: %s/convergence: %llu mismatches\n", cell,
                 static_cast<unsigned long long>(r.mismatches));
    ok = false;
  }
  if (r.availability() < 1.0) {
    std::fprintf(stderr, "recovery_sweep: %s/convergence: availability %.6f < 1\n",
                 cell, r.availability());
    ok = false;
  }
  if (r.conv.keys_divergent != 0 || r.conv.keys_unreachable != 0) {
    std::fprintf(stderr,
                 "recovery_sweep: %s/convergence: %llu divergent, %llu "
                 "unreachable keys after repair\n",
                 cell, static_cast<unsigned long long>(r.conv.keys_divergent),
                 static_cast<unsigned long long>(r.conv.keys_unreachable));
    ok = false;
  }
  if (r.hints_leftover != 0) {
    std::fprintf(stderr, "recovery_sweep: %s/convergence: %llu hints left\n", cell,
                 static_cast<unsigned long long>(r.hints_leftover));
    ok = false;
  }
  if (r.repair_activity() == 0) {
    std::fprintf(stderr, "recovery_sweep: %s/convergence: no repair activity\n",
                 cell);
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_kv_recovery.json";
  const std::uint64_t nkeys = benchx::scaled(std::uint64_t{1} << 16, 2048);
  const std::uint64_t ops = benchx::scaled(100000, 6000);

  std::string json = "{\"bench\":\"recovery_sweep\",\"nkeys\":" +
                     std::to_string(nkeys) + ",\"ops_per_client\":" +
                     std::to_string(ops) + ",\"clients\":" +
                     std::to_string(kClients) + ",\"servers\":" +
                     std::to_string(kServers) + ",\"results\":[";

  bool pass = true;
  bool first = true;
  std::uint64_t mismatches = 0;
  for (const bool partition : {false, true}) {
    const char* cell = partition ? "partition" : "death";
    const CellResult conv = run_cell(nkeys, ops, partition, /*convergence=*/true);
    const CellResult ctrl = run_cell(nkeys, ops, partition, /*convergence=*/false);
    emit_cell(json, cell, "convergence", nkeys, conv, first);
    first = false;
    emit_cell(json, cell, "control", nkeys, ctrl, false);
    mismatches += conv.mismatches + ctrl.mismatches;

    std::fprintf(stderr,
                 "recovery_sweep: %s convergence avail=%.4f divergent=%llu "
                 "(hinted=%llu drained=%llu rr=%llu ae=%llu)  control "
                 "avail=%.4f divergent=%llu\n",
                 cell, conv.availability(),
                 static_cast<unsigned long long>(conv.conv.keys_divergent),
                 static_cast<unsigned long long>(conv.put_hinted),
                 static_cast<unsigned long long>(conv.hints_drained),
                 static_cast<unsigned long long>(conv.read_repairs),
                 static_cast<unsigned long long>(conv.ae_repairs),
                 ctrl.availability(),
                 static_cast<unsigned long long>(ctrl.conv.keys_divergent));

    if (!gate_convergence(cell, conv)) pass = false;
    if (ctrl.mismatches != 0) {
      std::fprintf(stderr, "recovery_sweep: %s/control: %llu mismatches\n", cell,
                   static_cast<unsigned long long>(ctrl.mismatches));
      pass = false;
    }
    if (ctrl.conv.keys_divergent == 0) {
      // The control must stay divergent, or the schedule never actually
      // staled a replica and the convergence cell proved nothing.
      std::fprintf(stderr, "recovery_sweep: %s/control: no divergence\n", cell);
      pass = false;
    }
  }

  char tail[256];
  std::snprintf(tail, sizeof tail,
                "\n  ],\n  \"acceptance\":{\"mismatches\":%llu,\"pass\":%s}}\n",
                static_cast<unsigned long long>(mismatches),
                pass ? "true" : "false");
  json += tail;

  std::fputs(json.c_str(), stdout);
  if (FILE* f = std::fopen(out_path, "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::fprintf(stderr, "recovery_sweep: wrote %s\n", out_path);
  } else {
    std::fprintf(stderr, "recovery_sweep: cannot write %s\n", out_path);
    return 1;
  }
  if (!pass) {
    std::fprintf(stderr, "recovery_sweep: ACCEPTANCE FAILED\n");
    return 1;
  }
  return 0;
}
