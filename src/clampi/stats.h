// Access statistics and phase timings collected per caching-enabled window.
// These counters drive the adaptive parameter selection (Sec. III-E1) and
// the evaluation figures (Figs. 11, 13, 16, 18).
#pragma once

#include <cstdint>
#include <iterator>

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

  // --- integrity guard (checksums / scrubbing; docs/INTEGRITY.md) ---
  std::uint64_t checksum_verifications = 0;  ///< sampled hit-time verifications
  std::uint64_t corruption_detected = 0;     ///< checksum mismatches (hit or scrub)
  std::uint64_t self_heals = 0;       ///< corrupt/stale hits transparently re-served
  std::uint64_t scrub_entries_scanned = 0;   ///< entries visited by the scrubber
  std::uint64_t scrub_corruptions = 0;       ///< of which failed their checksum
  std::uint64_t shadow_verifications = 0;    ///< hits double-checked remotely
  std::uint64_t shadow_mismatches = 0;       ///< stale hits caught by shadow-verify
  std::uint64_t put_invalidations = 0;       ///< entries dropped by overlapping puts
  std::uint64_t put_invalidation_ops = 0;    ///< puts whose overlap invalidation
                                             ///< dropped at least one cached entry
  std::uint64_t stale_puts_injected = 0;     ///< puts whose invalidation was skipped
  std::uint64_t storage_bitflips = 0;        ///< injected bit flips in S_w

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

  // Tail-latency robustness (docs/FAULTS.md §8): deadline budgets, SLOW
  // observations and adaptive load shedding.
  std::uint64_t deadline_misses = 0;  ///< ops whose virtual-time budget ran
                                      ///< out (resolved degraded or kDeadline)
  std::uint64_t ops_shed = 0;         ///< ops refused admission by the AIMD
                                      ///< shedder (typed kShed, no network work)
  std::uint64_t slow_observations = 0;///< ops completed against a straggling
                                      ///< target (informational; never
                                      ///< quarantines)

  // Crash-restart durability (docs/DURABILITY.md).
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
  Stats delta_since(const Stats& base) const;
};

/// One Stats counter and its stable name (the `clampi_stat_<name>` info
/// key and the chaos oracle's monotonicity messages).
struct StatField {
  const char* name;
  std::uint64_t Stats::* field;
};

/// Every Stats counter, in declaration order. delta_since, stats_to_info
/// and the chaos oracle iterate this list, so a counter is added or
/// removed here and in the struct, nowhere else.
inline constexpr StatField kStatFields[] = {
    {"total_gets", &Stats::total_gets},
    {"hits_full", &Stats::hits_full},
    {"hits_pending", &Stats::hits_pending},
    {"hits_partial", &Stats::hits_partial},
    {"direct", &Stats::direct},
    {"conflicting", &Stats::conflicting},
    {"capacity", &Stats::capacity},
    {"failing", &Stats::failing},
    {"failed_index", &Stats::failed_index},
    {"failed_capacity", &Stats::failed_capacity},
    {"evictions", &Stats::evictions},
    {"eviction_rounds", &Stats::eviction_rounds},
    {"visited_slots", &Stats::visited_slots},
    {"visited_nonempty", &Stats::visited_nonempty},
    {"invalidations", &Stats::invalidations},
    {"adjustments", &Stats::adjustments},
    {"index_probes", &Stats::index_probes},
    {"index_tag_false_positives", &Stats::index_tag_false_positives},
    {"index_kick_steps", &Stats::index_kick_steps},
    {"storage_fastbin_allocs", &Stats::storage_fastbin_allocs},
    {"storage_tree_allocs", &Stats::storage_tree_allocs},
    {"storage_pool_reuses", &Stats::storage_pool_reuses},
    {"checksum_verifications", &Stats::checksum_verifications},
    {"corruption_detected", &Stats::corruption_detected},
    {"self_heals", &Stats::self_heals},
    {"scrub_entries_scanned", &Stats::scrub_entries_scanned},
    {"scrub_corruptions", &Stats::scrub_corruptions},
    {"shadow_verifications", &Stats::shadow_verifications},
    {"shadow_mismatches", &Stats::shadow_mismatches},
    {"put_invalidations", &Stats::put_invalidations},
    {"put_invalidation_ops", &Stats::put_invalidation_ops},
    {"stale_puts_injected", &Stats::stale_puts_injected},
    {"storage_bitflips", &Stats::storage_bitflips},
    {"bytes_from_cache", &Stats::bytes_from_cache},
    {"bytes_from_network", &Stats::bytes_from_network},
    {"injected_faults", &Stats::injected_faults},
    {"retries", &Stats::retries},
    {"retry_giveups", &Stats::retry_giveups},
    {"fallback_hits", &Stats::fallback_hits},
    {"health_suspects", &Stats::health_suspects},
    {"health_quarantines", &Stats::health_quarantines},
    {"health_probes", &Stats::health_probes},
    {"health_recoveries", &Stats::health_recoveries},
    {"fast_fails", &Stats::fast_fails},
    {"degraded_hits", &Stats::degraded_hits},
    {"degraded_expired", &Stats::degraded_expired},
    {"degraded_corrupt_drops", &Stats::degraded_corrupt_drops},
    {"deadline_misses", &Stats::deadline_misses},
    {"ops_shed", &Stats::ops_shed},
    {"slow_observations", &Stats::slow_observations},
    {"crash_invalidations", &Stats::crash_invalidations},
};
static_assert(sizeof(Stats) == std::size(kStatFields) * sizeof(std::uint64_t),
              "every Stats counter must be listed in kStatFields");

inline Stats Stats::delta_since(const Stats& base) const {
  Stats d;
  for (const StatField& f : kStatFields) d.*f.field = this->*f.field - base.*f.field;
  return d;
}

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
