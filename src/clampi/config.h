// CLaMPI configuration (paper Secs. III-A, III-D, III-E).
#pragma once

#include <cstddef>
#include <cstdint>

namespace clampi {

/// Operational modes of a caching-enabled window (Sec. III-A).
enum class Mode {
  kTransparent,  ///< cache invalidated at every epoch closure
  kAlwaysCache,  ///< window is read-only for its whole lifespan
  kUserDefined,  ///< read-only epochs; user calls clampi_invalidate()
};

/// Which scores the eviction procedure combines (Sec. IV-A3 evaluates
/// Temporal-only, Positional-only and the Full product).
enum class ScoreKind {
  kFull,        ///< R = R_P * R_T (the paper's proposal)
  kTemporal,    ///< LRU-like
  kPositional,  ///< fragmentation-only
};

/// Outcome classes of a get_c (Sec. III-B, Fig. 5).
enum class AccessType {
  kHit,          ///< full hit on a CACHED entry: local copy only
  kHitPending,   ///< hit on a PENDING entry: copy-out deferred to flush
  kPartialHit,   ///< prefix served from cache, tail fetched remotely
  kDirect,       ///< miss, inserted without any eviction
  kConflicting,  ///< miss, insertion required evicting from the cuckoo path
  kCapacity,     ///< miss, insertion required evicting for space
  kFailing,      ///< miss, data could not be cached (weak caching)
};

const char* to_string(AccessType t);
const char* to_string(Mode m);
const char* to_string(ScoreKind s);

/// Tunables. `index_entries` is |I_w| (hash-table slots) and
/// `storage_bytes` is |S_w| (cache memory buffer size); with
/// `adaptive = true` these are starting values that the runtime adjusts
/// (Sec. III-E1).
struct Config {
  Mode mode = Mode::kTransparent;
  std::size_t index_entries = 4096;
  std::size_t storage_bytes = std::size_t{4} << 20;
  bool adaptive = false;

  // --- cuckoo index (Sec. III-C1) ---
  int cuckoo_arity = 4;       ///< p hash functions (97% utilization at p=4)
  int max_insert_iters = 64;  ///< walk bound before declaring a conflict
  int max_conflict_evictions = 4;  ///< path evictions before giving up

  // --- eviction (Sec. III-D) ---
  int sample_size = 16;  ///< M, entries sampled per capacity eviction
  ScoreKind score = ScoreKind::kFull;

  // --- adaptive parameter selection (Sec. III-E1) ---
  double conflict_threshold = 0.05;   ///< conflicting/total to grow |I_w|
  double capacity_threshold = 0.10;   ///< (capacity+failed)/total to grow |S_w|
  /// hits/total above which the working set counts as stable (a shrink
  /// precondition). Deliberately high: right after a resize-invalidation
  /// the cache refills with a moderate hit ratio and lots of free space,
  /// which must not read as "over-provisioned" or |S_w| oscillates.
  double stable_threshold = 0.90;
  double sparsity_threshold = 0.25;   ///< q below this shrinks |I_w|
  double free_threshold = 0.75;       ///< free/|S_w| above this allows shrink
  int shrink_patience = 2;  ///< consecutive qualifying windows before shrinking
  double index_increase_factor = 2.0;
  double index_decrease_factor = 2.0;
  double memory_increase_factor = 2.0;
  double memory_decrease_factor = 2.0;
  std::size_t min_index_entries = 64;
  std::size_t max_index_entries = std::size_t{1} << 24;
  std::size_t min_storage_bytes = std::size_t{64} << 10;
  std::size_t max_storage_bytes = std::size_t{1} << 30;
  std::uint64_t adapt_interval = 2048;  ///< gets between adaptation checks

  // --- resilience (retry/backoff + cache-fallback under injected faults) ---
  /// Re-issues of a network get after a *transient* fault::OpFailedError.
  /// 0 (the default) disables retrying: the error propagates to the caller.
  int max_retries = 0;
  double retry_backoff_us = 4.0;      ///< base backoff before the 1st retry
  double retry_backoff_factor = 2.0;  ///< exponential growth per attempt
  /// Relative jitter in [0,1): each backoff is scaled by a deterministic
  /// draw from [1-jitter, 1+jitter] to de-synchronize retry storms.
  double retry_jitter = 0.25;
  /// Upper bound on backoff charged per *target* per epoch (0 =
  /// unlimited). Once a target exhausts its budget, further failures
  /// against it surface to the caller (retry_giveups) — other targets'
  /// budgets are untouched, so a dead target cannot starve retries for
  /// healthy ones (docs/FAULTS.md §6).
  double epoch_retry_budget_us = 0.0;
  /// Serve CACHED entries for targets that are degraded or dead instead of
  /// touching the network, with no staleness bound. Only honoured in the
  /// read-only modes (kAlwaysCache / kUserDefined), where cached data
  /// cannot be stale; for kTransparent use `degraded_reads`, which bounds
  /// staleness explicitly (the mode matrix is in docs/FAULTS.md §6).
  bool cache_fallback = false;

  // --- tail-latency robustness (deadline budgets + adaptive load
  // shedding; docs/FAULTS.md §8) ---
  /// End-to-end virtual-time budget for one get, covering every retry,
  /// backoff charge and (for kv::Store) replica fall-through. 0 (default)
  /// disables deadlines. When the budget cannot cover the next backoff,
  /// the op resolves to the best degraded outcome available — a cached
  /// serve under the bounded-staleness rules — or fails typed as
  /// FailureKind::kDeadline. Must exceed `retry_backoff_us` when retries
  /// are enabled, or no retry could ever fit inside the budget.
  double op_deadline_us = 0.0;
  /// AIMD admission control driven by deadline misses: when the miss
  /// ratio of a shed window exceeds `shed_miss_ratio`, the admitted
  /// fraction of new ops is multiplied by `shed_decrease_factor`; every
  /// clean window adds `shed_increase` back. Ops refused admission
  /// fast-fail typed as FailureKind::kShed before any network work.
  /// Requires `op_deadline_us` > 0 (misses are the control signal).
  bool load_shedding = false;
  double shed_window_us = 2000.0;    ///< virtual-time AIMD control window
  double shed_miss_ratio = 0.5;      ///< miss ratio that triggers a decrease
  double shed_decrease_factor = 0.5; ///< multiplicative decrease, in (0,1)
  double shed_increase = 0.1;        ///< additive recovery per clean window
  double shed_min_admit = 0.1;       ///< floor on the admitted fraction

  // --- per-target health (failure detection / quarantine / degraded
  // reads; docs/FAULTS.md §6) ---
  /// Windowed per-target failures that quarantine a target; 0 (default)
  /// disables the failure detector entirely. Quarantined targets
  /// fast-fail instead of burning retries/backoff and are re-probed
  /// half-open at epoch boundaries.
  int health_failure_threshold = 0;
  double health_window_us = 10000.0;  ///< per-target sliding failure window
  /// Per-outcome EWMA weight of the virtual-time suspicion estimator.
  double health_ewma_alpha = 0.3;
  /// Virtual-time half-life of the suspicion decay (phi-style: an idle
  /// target's suspicion fades even without successes).
  double health_ewma_halflife_us = 5000.0;
  /// Suspicion above which a target is marked SUSPECT (diagnostic state;
  /// quarantine requires the windowed failure threshold or a fatal error).
  double health_suspect_threshold = 0.5;
  /// Minimum quarantine dwell before an epoch boundary re-probes the
  /// target half-open (PROBING).
  double health_quarantine_dwell_us = 5000.0;
  /// Consecutive successful probes that return a PROBING target to
  /// HEALTHY.
  int health_probe_successes = 2;
  /// Bounded-staleness degraded reads: serve still-CACHED entries for
  /// dead/quarantined/degraded targets in *any* mode (including
  /// kTransparent, unlike cache_fallback), as long as the entry's data
  /// age is within `degraded_max_staleness_us`. Counted as
  /// Stats::degraded_hits.
  bool degraded_reads = false;
  /// Staleness bound for degraded reads: maximum virtual-time age of the
  /// served entry's payload (time since its data was fetched from the
  /// origin). 0 = unbounded.
  double degraded_max_staleness_us = 0.0;

  // --- integrity guard (checksums / scrubbing / self-healing;
  // docs/INTEGRITY.md) ---
  /// Verify the per-entry checksum on every Nth hit against a CACHED
  /// entry (0 = never, the Release default; tests turn it on). A mismatch
  /// quarantines the entry and transparently re-fetches from the origin
  /// window — the caller never sees bad bytes.
  std::uint64_t verify_every_n = 0;
  /// Live entries re-verified (checksum + a per-entry slice of the
  /// cross-structure invariants) at each epoch closure. Bounds the
  /// per-epoch scrub cost: no O(N) stalls on the hot path. 0 = off.
  std::size_t scrub_entries_per_epoch = 0;
  /// Debug mode: double-check every Nth full hit against a direct remote
  /// get and quarantine + re-serve on mismatch — catches silent staleness
  /// (e.g. an invalidation that was skipped). 0 = off; costs a network
  /// round-trip per sampled hit, so leave it off outside tests.
  std::uint64_t shadow_verify_every_n = 0;

  // --- instrumentation ---
  bool collect_phase_timings = false;  ///< real-time phase breakdown (Fig. 7)

  std::uint64_t seed = 0x5eedc1a3ca11edull;  ///< hash functions + sampling
};

/// Rejects nonsensical configurations with a descriptive ContractError:
/// zero-sized index / sample, cuckoo_arity < 1, min > max bounds, adaptive
/// starting values outside [min, max], malformed retry parameters. Called
/// by CacheCore at window creation; exposed for direct testing.
void validate_config(const Config& cfg);

}  // namespace clampi
