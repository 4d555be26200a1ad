#include "chaos/corpus.h"

namespace clampi::chaos {

namespace {

Step get(int t, std::uint64_t disp, std::uint64_t bytes) {
  Step s;
  s.kind = Step::Kind::kGet;
  s.target = t;
  s.disp = disp;
  s.bytes = bytes;
  return s;
}

Step put(int t, std::uint64_t disp, std::uint64_t bytes) {
  Step s;
  s.kind = Step::Kind::kPut;
  s.target = t;
  s.disp = disp;
  s.bytes = bytes;
  return s;
}

Step flush(int t) {
  Step s;
  s.kind = Step::Kind::kFlushTarget;
  s.target = t;
  return s;
}

Step flush_all() {
  Step s;
  s.kind = Step::Kind::kFlushAll;
  return s;
}

Step invalidate() {
  Step s;
  s.kind = Step::Kind::kInvalidate;
  return s;
}

Step compute(double us) {
  Step s;
  s.kind = Step::Kind::kCompute;
  s.us = us;
  return s;
}

/// Base schedule all scenarios start from: 2 ranks, a 4 KiB window, a
/// deliberately small cache.
Schedule base(std::uint64_t seed, Mode mode) {
  Schedule s;
  s.seed = seed;
  s.nranks = 2;
  s.window_bytes = 4096;
  s.mode = mode;
  s.index_entries = 64;
  s.storage_bytes = 4096;
  return s;
}

/// Rank 1 dies while an epoch's data is still in flight: the flush must
/// fail with kRankDead, the cache must discard what will never arrive,
/// and later gets fast-fail instead of hanging.
Schedule death_during_flush() {
  Schedule s = base(101, Mode::kAlwaysCache);
  s.plan.kill_rank(1, 5000.0);
  s.steps = {get(1, 0, 128),    flush(1),          // cached before the death
             get(1, 512, 128),  get(1, 1024, 64),  // in flight...
             compute(6000.0),                      // ...when rank 1 dies
             flush_all(),                          // -> kRankDead
             get(1, 512, 128),                     // dead target: fails
             get(1, 0, 128)};                      // full hit: served from
                                                   // cache despite the death
  return s;
}

/// Injected bit rot overlapping the degraded-read path: entries retained
/// for a degraded target must still refuse to serve corrupt bytes
/// (degraded_corrupt_drops), not hand them to the user.
Schedule corrupt_degraded_overlap() {
  Schedule s = base(102, Mode::kAlwaysCache);
  s.plan.corrupt_storage(0.02);
  s.plan.degrade_rank(1, 6.0, /*from_us=*/20000.0);
  s.verify_every_n = 1;
  s.degraded_reads = true;
  s.steps = {get(1, 0, 256),   get(1, 512, 256), flush(1),
             flush_all(),      flush_all(),  // epoch churn applies bit rot
             compute(25000.0),               // enter the degraded window
             get(1, 0, 256),   get(1, 512, 256), get(1, 0, 256)};
  return s;
}

/// A flaky NIC drives the health monitor around the full QUARANTINED ->
/// PROBING -> (fail) -> QUARANTINED loop several times.
Schedule quarantine_flap() {
  Schedule s = base(103, Mode::kAlwaysCache);
  s.plan.fail_target(1, 0.9);
  s.health_failure_threshold = 2;
  s.steps = {get(1, 0, 64),    get(1, 128, 64), get(1, 256, 64),
             compute(3000.0),  flush_all(),  // dwell elapses -> PROBING
             get(1, 0, 64),    get(1, 128, 64),
             compute(3000.0),  flush_all(),
             get(1, 256, 64),  get(1, 384, 64),
             compute(3000.0),  flush_all(),
             get(1, 0, 64)};
  return s;
}

/// Adaptive resizing under capacity pressure while epochs are churning:
/// the tuner grows/shrinks I_w and S_w between epochs and every audit
/// must hold across the reallocation.
Schedule resize_mid_epoch() {
  Schedule s = base(104, Mode::kUserDefined);
  s.index_entries = 32;
  s.storage_bytes = 2048;
  s.adaptive = true;
  s.adapt_interval = 16;
  for (int round = 0; round < 6; ++round) {
    for (int k = 0; k < 10; ++k) {
      s.steps.push_back(get(1, static_cast<std::uint64_t>(k) * 384, 320));
    }
    s.steps.push_back(flush(1));
    if (round == 3) s.steps.push_back(invalidate());
  }
  return s;
}

/// A stale put (invalidation skipped by the injector) leaves a silently
/// stale entry; shadow-verify on every hit must catch and heal it.
Schedule stale_put_shadow_heal() {
  Schedule s = base(105, Mode::kAlwaysCache);
  s.plan.stale_puts(1.0);
  s.shadow_verify_every_n = 1;
  s.steps = {get(1, 0, 64), flush(1), get(1, 0, 64),  // hit, verified clean
             put(1, 0, 64), flush(1),                 // stale: entry survives
             get(1, 0, 64),                           // mismatch -> self-heal
             get(1, 0, 64)};                          // now clean again
  return s;
}

/// Growing reads over the same base displacement: each get extends the
/// cached prefix (partial hits), including a pending-entry partial hit
/// inside one epoch.
Schedule partial_hit_chain() {
  Schedule s = base(106, Mode::kUserDefined);
  s.steps = {get(1, 0, 64),    flush(1), get(1, 0, 128),  // cached-prefix partial
             flush(1),         get(1, 0, 256), flush(1),
             get(1, 512, 64),  get(1, 512, 128),          // pending-entry partial
             flush(1),         get(1, 512, 128)};
  return s;
}

/// Death followed by revival: degraded reads serve the cached entries
/// while the target is down, and the health monitor walks back to
/// HEALTHY after the revival.
Schedule revive_cycle() {
  Schedule s = base(107, Mode::kAlwaysCache);
  s.plan.kill_rank(1, 10000.0);
  s.plan.revive_rank(1, 20000.0);
  s.health_failure_threshold = 2;
  s.degraded_reads = true;
  s.steps = {get(1, 0, 128),   get(1, 256, 128), flush(1),  // cache while alive
             compute(12000.0),                              // rank 1 is dead
             get(1, 0, 128),                                // degraded serve
             get(1, 1024, 64), get(1, 1024, 64),            // uncached: fails
             compute(10000.0),                              // revived
             flush_all(),                                   // dwell -> PROBING
             get(1, 1024, 64),                              // probe succeeds
             get(1, 0, 128)};
  return s;
}

/// Heavy latency spikes plus transient drops with retries enabled: the
/// timing chaos must never change what bytes the cache serves.
Schedule spike_storm() {
  Schedule s = base(108, Mode::kTransparent);
  s.nranks = 3;
  s.plan.fail_everywhere(0.15);
  s.plan.spike_prob = 0.5;
  s.plan.spike_factor = 8.0;
  s.plan.spike_addend_us = 15.0;
  s.max_retries = 3;
  s.steps = {get(1, 0, 128),  get(2, 0, 128),  put(1, 2048, 64), get(1, 256, 64),
             flush(1),        get(2, 256, 64), get(1, 0, 128),   flush_all(),
             get(1, 0, 128),  get(2, 0, 128),  put(2, 2048, 64), flush_all(),
             get(1, 0, 128),  get(2, 0, 128)};
  return s;
}

/// Heavy bit rot under per-hit verification: every epoch rots the cached
/// payloads, and every hit re-checksums its entry, so each corruption is
/// detected and healed from the origin before a byte reaches the caller.
Schedule bitrot_per_hit_verify() {
  Schedule s = base(109, Mode::kAlwaysCache);
  s.plan.corrupt_storage(0.05);
  s.verify_every_n = 1;
  for (int round = 0; round < 10; ++round) {
    s.steps.push_back(get(1, 0, 256));
    s.steps.push_back(get(1, 512, 256));
    s.steps.push_back(flush(1));
    s.steps.push_back(compute(2000.0));
  }
  return s;
}

/// Transparent mode under epoch churn: every flush invalidates the whole
/// cache, so the same keys oscillate between miss and pending-hit and
/// the invalidation accounting must stay exact.
Schedule transparent_epoch_churn() {
  Schedule s = base(110, Mode::kTransparent);
  for (int round = 0; round < 8; ++round) {
    s.steps.push_back(put(1, 2048, 128));
    s.steps.push_back(get(1, 0, 128));
    s.steps.push_back(get(1, 0, 128));   // pending-hit within the epoch
    s.steps.push_back(get(1, 256, 64));
    s.steps.push_back(flush(1));         // closes the whole epoch
  }
  return s;
}

/// Rank 1 crashes with a full memory wipe and restarts: gets during the
/// outage fail fast, the crash boundary drops the pre-crash cache, and
/// the first get after the restart observes the wiped (zeroed) window —
/// the engine applies the wipe lazily at that access
/// (docs/DURABILITY.md).
Schedule crash_restart_wipe() {
  Schedule s = base(111, Mode::kTransparent);
  s.plan.crash_rank(1, 8000.0, 20000.0);
  s.steps = {get(1, 0, 128),   put(1, 512, 64),  flush(1),  // cached pre-crash
             compute(10000.0),                   // rank 1 crashed at 8ms
             get(1, 0, 128),                     // dead target: fails
             compute(12000.0),                   // restarted at 20ms
             get(1, 0, 128),                     // wiped window: zeros
             put(1, 512, 64),  flush(1),         // writable again
             get(1, 512, 64)};
  return s;
}

/// User-defined mode with the epoch's data still in flight when the
/// restart passes: the crash-boundary flush completes it against the
/// eagerly-copied pre-crash bytes (matching the oracle's issue-time
/// snapshots), the explicit invalidate closes the epoch, and only then
/// does the wipe become observable. Carries the persistence-fault
/// probabilities so the committed JSON exercises the new keys.
Schedule crash_inflight_epoch() {
  Schedule s = base(112, Mode::kUserDefined);
  s.plan.crash_rank(1, 6000.0, 9000.0);
  s.plan.torn_writes(1.0);
  s.plan.corrupt_journal(0.001);
  s.steps = {get(1, 0, 256),   get(1, 1024, 128),  // in flight...
             compute(12000.0),                     // ...across the whole outage
             get(1, 0, 256),                       // boundary, then zeros
             flush(1),
             get(1, 1024, 128)};
  return s;
}

}  // namespace

const std::vector<CorpusEntry>& corpus() {
  static const std::vector<CorpusEntry> kCorpus = {
      {"death_during_flush", &death_during_flush},
      {"corrupt_degraded_overlap", &corrupt_degraded_overlap},
      {"quarantine_flap", &quarantine_flap},
      {"resize_mid_epoch", &resize_mid_epoch},
      {"stale_put_shadow_heal", &stale_put_shadow_heal},
      {"partial_hit_chain", &partial_hit_chain},
      {"revive_cycle", &revive_cycle},
      {"spike_storm", &spike_storm},
      {"bitrot_per_hit_verify", &bitrot_per_hit_verify},
      {"transparent_epoch_churn", &transparent_epoch_churn},
      {"crash_restart_wipe", &crash_restart_wipe},
      {"crash_inflight_epoch", &crash_inflight_epoch},
  };
  return kCorpus;
}

}  // namespace clampi::chaos
