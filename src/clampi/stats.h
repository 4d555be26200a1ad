// Access statistics and phase timings collected per caching-enabled window.
// These counters drive the adaptive parameter selection (Sec. III-E1) and
// the evaluation figures (Figs. 11, 13, 16, 18).
#pragma once

#include <cstdint>

#include "clampi/config.h"

namespace clampi {

struct Stats {
  // --- access classification ---
  std::uint64_t total_gets = 0;
  std::uint64_t hits_full = 0;
  std::uint64_t hits_pending = 0;
  std::uint64_t hits_partial = 0;
  std::uint64_t direct = 0;
  std::uint64_t conflicting = 0;
  std::uint64_t capacity = 0;
  std::uint64_t failing = 0;
  // Cause split of `failing` (failing == failed_index + failed_capacity).
  // The adaptive tuner needs it: index-induced failures ask for a larger
  // |I_w|, space-induced ones for a larger |S_w| (Sec. III-E1).
  std::uint64_t failed_index = 0;
  std::uint64_t failed_capacity = 0;

  // --- eviction machinery ---
  std::uint64_t evictions = 0;
  std::uint64_t eviction_rounds = 0;      ///< capacity/failed victim searches
  std::uint64_t visited_slots = 0;        ///< index slots scanned by searches
  std::uint64_t visited_nonempty = 0;     ///< of which held an entry

  // --- lifecycle ---
  std::uint64_t invalidations = 0;
  std::uint64_t adjustments = 0;  ///< adaptive parameter changes

  // --- hot-path counters (index + storage internals) ---
  // Maintained inside CuckooIndex/Storage with register-batched stores and
  // folded into this struct by CacheCore::stats(); they make perf changes
  // observable (probe counts, filter quality, allocator path mix) rather
  // than only timed.
  std::uint64_t index_probes = 0;              ///< candidate slots examined by lookups
  std::uint64_t index_tag_false_positives = 0; ///< 8-bit tag matched, exact key differed
  std::uint64_t index_kick_steps = 0;          ///< cuckoo-walk displacements
  std::uint64_t storage_fastbin_allocs = 0;    ///< allocations served by segregated bins
  std::uint64_t storage_tree_allocs = 0;       ///< allocations served by the AVL tree
  std::uint64_t storage_pool_reuses = 0;       ///< Region descriptors recycled from the pool

  // --- integrity guard (checksums / scrubbing / breaker; docs/INTEGRITY.md) ---
  std::uint64_t checksum_verifications = 0;  ///< sampled hit-time verifications
  std::uint64_t corruption_detected = 0;     ///< checksum mismatches (hit or scrub)
  std::uint64_t self_heals = 0;       ///< corrupt/stale hits transparently re-served
  std::uint64_t scrub_entries_scanned = 0;   ///< entries visited by the scrubber
  std::uint64_t scrub_corruptions = 0;       ///< of which failed their checksum
  std::uint64_t shadow_verifications = 0;    ///< hits double-checked remotely
  std::uint64_t shadow_mismatches = 0;       ///< stale hits caught by shadow-verify
  std::uint64_t put_invalidations = 0;       ///< entries dropped by overlapping puts
  std::uint64_t stale_puts_injected = 0;     ///< puts whose invalidation was skipped
  std::uint64_t storage_bitflips = 0;        ///< injected bit flips in S_w
  std::uint64_t breaker_trips = 0;           ///< closed/half-open -> open
  std::uint64_t breaker_recloses = 0;        ///< half-open -> closed
  std::uint64_t breaker_passthrough_gets = 0;///< gets served direct while tripped

  // --- volume ---
  std::uint64_t bytes_from_cache = 0;
  std::uint64_t bytes_from_network = 0;

  // --- resilience (fault injection) ---
  std::uint64_t injected_faults = 0;  ///< OpFailedErrors observed by this window
  std::uint64_t retries = 0;          ///< re-issued network gets
  std::uint64_t retry_giveups = 0;    ///< retry loops that exhausted their policy
  std::uint64_t fallback_hits = 0;    ///< gets served from cache because the
                                      ///< target was degraded or dead

  // --- per-target health (failure detection / quarantine / degraded
  // reads; docs/FAULTS.md §6) ---
  std::uint64_t health_suspects = 0;     ///< transitions into SUSPECT
  std::uint64_t health_quarantines = 0;  ///< transitions into QUARANTINED
  std::uint64_t health_probes = 0;       ///< QUARANTINED -> PROBING (half-open)
  std::uint64_t health_recoveries = 0;   ///< PROBING -> HEALTHY
  std::uint64_t fast_fails = 0;          ///< gets refused against quarantined
                                         ///< targets (no retry, no backoff)
  std::uint64_t degraded_hits = 0;       ///< bounded-staleness degraded reads
                                         ///< served from cache
  std::uint64_t degraded_expired = 0;    ///< retained entries dropped: over the
                                         ///< staleness bound or target recovered
  std::uint64_t degraded_corrupt_drops = 0; ///< degraded serves refused because
                                            ///< the entry failed its checksum

  // Read/write shape of the KV subsystem layered on this window (src/kv):
  // fed through CachedWindow's note_kv_* hooks, zero for non-KV workloads.
  std::uint64_t kv_bucket_reads = 0;      ///< main-bucket fetches issued by kv lookups
  std::uint64_t kv_chain_reads = 0;       ///< overflow-chain follows (extra hops)
  std::uint64_t kv_version_rereads = 0;   ///< stale-generation images re-read uncached
  std::uint64_t put_invalidation_ops = 0; ///< puts whose overlap invalidation
                                          ///< dropped at least one cached entry

  // Replica convergence layer (docs/KV.md "Repair & convergence"):
  // hinted handoff, read-repair and anti-entropy activity of the kv::Store.
  std::uint64_t kv_hints_queued = 0;   ///< replica writes buffered as hints
                                       ///< because the target was unreachable
  std::uint64_t kv_hints_drained = 0;  ///< hints retired after the target
                                       ///< recovered (applied or superseded)
  std::uint64_t kv_hints_dropped = 0;  ///< hints lost to a full queue
  std::uint64_t kv_read_repairs = 0;        ///< stale replicas rewritten inline
                                            ///< by a divergence-observing get
  std::uint64_t kv_antientropy_repairs = 0; ///< stale replicas rewritten by the
                                            ///< background anti-entropy scan

  // Tail-latency robustness (docs/FAULTS.md §8): deadline budgets, SLOW
  // observations, hedged replica reads and adaptive load shedding.
  std::uint64_t deadline_misses = 0;  ///< ops whose virtual-time budget ran
                                      ///< out (resolved degraded or kDeadline)
  std::uint64_t ops_shed = 0;         ///< ops refused admission by the AIMD
                                      ///< shedder (typed kShed, no network work)
  std::uint64_t slow_observations = 0;///< ops completed against a straggling
                                      ///< target (informational; never
                                      ///< quarantines)
  std::uint64_t kv_hedged_gets = 0;   ///< kv gets that issued a backup read
                                      ///< after the primary outran its quantile
  std::uint64_t kv_hedge_wins = 0;    ///< hedged gets won by the backup replica
  std::uint64_t kv_hedge_wasted = 0;  ///< hedges whose backup lost (or was
                                      ///< unreachable): pure overhead

  // Crash-restart durability (docs/DURABILITY.md): write-ahead journal,
  // snapshot recovery and torn-tail handling of the kv::Store.
  std::uint64_t kv_journal_appends = 0;      ///< acknowledged puts persisted to
                                             ///< the simulated journal device
  std::uint64_t kv_journal_replayed = 0;     ///< journal records applied during
                                             ///< crash recovery
  std::uint64_t kv_torn_records_dropped = 0; ///< records discarded at replay:
                                             ///< torn tail or failed checksum
  std::uint64_t kv_snapshot_loads = 0;       ///< snapshots restored at recovery
  std::uint64_t kv_recovery_repairs = 0;     ///< dropped records re-pulled from
                                             ///< live peer replicas
  std::uint64_t crash_invalidations = 0;     ///< cached entries dropped because
                                             ///< their target restarted after a
                                             ///< wiped-memory crash (the entry
                                             ///< predates the wipe)

  /// "Hitting accesses" in the paper's sense: lookup returned CACHED or
  /// PENDING (full and partial hits alike).
  std::uint64_t hitting() const { return hits_full + hits_pending + hits_partial; }

  double hit_ratio() const {
    return total_gets == 0 ? 0.0
                           : static_cast<double>(hitting()) / static_cast<double>(total_gets);
  }

  /// q: fraction of visited slots that were non-empty (victim-selection
  /// quality signal used to shrink a sparse index, Sec. III-E1).
  double q() const {
    return visited_slots == 0
               ? 1.0
               : static_cast<double>(visited_nonempty) / static_cast<double>(visited_slots);
  }

  /// Per-field difference (this - base); used for adaptation windows.
  Stats delta_since(const Stats& base) const {
    Stats d;
    d.total_gets = total_gets - base.total_gets;
    d.hits_full = hits_full - base.hits_full;
    d.hits_pending = hits_pending - base.hits_pending;
    d.hits_partial = hits_partial - base.hits_partial;
    d.direct = direct - base.direct;
    d.conflicting = conflicting - base.conflicting;
    d.capacity = capacity - base.capacity;
    d.failing = failing - base.failing;
    d.failed_index = failed_index - base.failed_index;
    d.failed_capacity = failed_capacity - base.failed_capacity;
    d.evictions = evictions - base.evictions;
    d.eviction_rounds = eviction_rounds - base.eviction_rounds;
    d.visited_slots = visited_slots - base.visited_slots;
    d.visited_nonempty = visited_nonempty - base.visited_nonempty;
    d.invalidations = invalidations - base.invalidations;
    d.adjustments = adjustments - base.adjustments;
    d.index_probes = index_probes - base.index_probes;
    d.index_tag_false_positives = index_tag_false_positives - base.index_tag_false_positives;
    d.index_kick_steps = index_kick_steps - base.index_kick_steps;
    d.storage_fastbin_allocs = storage_fastbin_allocs - base.storage_fastbin_allocs;
    d.storage_tree_allocs = storage_tree_allocs - base.storage_tree_allocs;
    d.storage_pool_reuses = storage_pool_reuses - base.storage_pool_reuses;
    d.checksum_verifications = checksum_verifications - base.checksum_verifications;
    d.corruption_detected = corruption_detected - base.corruption_detected;
    d.self_heals = self_heals - base.self_heals;
    d.scrub_entries_scanned = scrub_entries_scanned - base.scrub_entries_scanned;
    d.scrub_corruptions = scrub_corruptions - base.scrub_corruptions;
    d.shadow_verifications = shadow_verifications - base.shadow_verifications;
    d.shadow_mismatches = shadow_mismatches - base.shadow_mismatches;
    d.put_invalidations = put_invalidations - base.put_invalidations;
    d.stale_puts_injected = stale_puts_injected - base.stale_puts_injected;
    d.storage_bitflips = storage_bitflips - base.storage_bitflips;
    d.breaker_trips = breaker_trips - base.breaker_trips;
    d.breaker_recloses = breaker_recloses - base.breaker_recloses;
    d.breaker_passthrough_gets = breaker_passthrough_gets - base.breaker_passthrough_gets;
    d.bytes_from_cache = bytes_from_cache - base.bytes_from_cache;
    d.bytes_from_network = bytes_from_network - base.bytes_from_network;
    d.injected_faults = injected_faults - base.injected_faults;
    d.retries = retries - base.retries;
    d.retry_giveups = retry_giveups - base.retry_giveups;
    d.fallback_hits = fallback_hits - base.fallback_hits;
    d.health_suspects = health_suspects - base.health_suspects;
    d.health_quarantines = health_quarantines - base.health_quarantines;
    d.health_probes = health_probes - base.health_probes;
    d.health_recoveries = health_recoveries - base.health_recoveries;
    d.fast_fails = fast_fails - base.fast_fails;
    d.degraded_hits = degraded_hits - base.degraded_hits;
    d.degraded_expired = degraded_expired - base.degraded_expired;
    d.degraded_corrupt_drops = degraded_corrupt_drops - base.degraded_corrupt_drops;
    d.kv_bucket_reads = kv_bucket_reads - base.kv_bucket_reads;
    d.kv_chain_reads = kv_chain_reads - base.kv_chain_reads;
    d.kv_version_rereads = kv_version_rereads - base.kv_version_rereads;
    d.put_invalidation_ops = put_invalidation_ops - base.put_invalidation_ops;
    d.kv_hints_queued = kv_hints_queued - base.kv_hints_queued;
    d.kv_hints_drained = kv_hints_drained - base.kv_hints_drained;
    d.kv_hints_dropped = kv_hints_dropped - base.kv_hints_dropped;
    d.kv_read_repairs = kv_read_repairs - base.kv_read_repairs;
    d.kv_antientropy_repairs = kv_antientropy_repairs - base.kv_antientropy_repairs;
    d.deadline_misses = deadline_misses - base.deadline_misses;
    d.ops_shed = ops_shed - base.ops_shed;
    d.slow_observations = slow_observations - base.slow_observations;
    d.kv_hedged_gets = kv_hedged_gets - base.kv_hedged_gets;
    d.kv_hedge_wins = kv_hedge_wins - base.kv_hedge_wins;
    d.kv_hedge_wasted = kv_hedge_wasted - base.kv_hedge_wasted;
    d.kv_journal_appends = kv_journal_appends - base.kv_journal_appends;
    d.kv_journal_replayed = kv_journal_replayed - base.kv_journal_replayed;
    d.kv_torn_records_dropped = kv_torn_records_dropped - base.kv_torn_records_dropped;
    d.crash_invalidations = crash_invalidations - base.crash_invalidations;
    d.kv_snapshot_loads = kv_snapshot_loads - base.kv_snapshot_loads;
    d.kv_recovery_repairs = kv_recovery_repairs - base.kv_recovery_repairs;
    return d;
  }
};

/// Real-time cost breakdown of the most recent get_c, in nanoseconds
/// (populated when Config::collect_phase_timings is set; Fig. 7).
struct PhaseBreakdown {
  double lookup_ns = 0.0;
  double eviction_ns = 0.0;
  double copy_ns = 0.0;   ///< cache->user copy (hits) at access time
  double insert_ns = 0.0; ///< index insert + storage allocation
  AccessType type = AccessType::kDirect;

  double total_ns() const { return lookup_ns + eviction_ns + copy_ns + insert_ns; }
};

/// Monotonic thread-CPU clock used for the phase breakdown (ns).
double phase_clock_ns();

}  // namespace clampi
