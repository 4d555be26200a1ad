// kv::Store — a cached, resilient distributed hash table over rmasim
// windows and CLaMPI (docs/KV.md).
//
// Server ranks (window-comm ranks [0, nservers)) own open-addressed bucket
// shards inside an exposed window; every rank — server or dedicated client
// — wraps the window in a CachedWindow, so a get is one or two cacheable
// bucket-sized RMA reads (bucket.h describes the codec). Clients map
// key -> (owner rank, bucket displacement) through a consistent-hash ring
// (ring.h) with `replication` replicas per key, issue gets through the
// cache (hot buckets become cache-resident and never touch the network),
// route puts as owner-side slot writes whose local overlap invalidation
// keeps read-your-writes exact, and handle collision chains and versioned
// re-reads at this layer.
//
// Consistency story (docs/KV.md):
//   - own writes: exact (the put's overlap invalidation drops the writer's
//     cached bucket; the next read re-fetches);
//   - other clients' writes: visible after the reader's next cache
//     invalidation — staleness is bounded by the KV workload's epoch
//     length (Mode::kUserDefined + clampi_invalidate, paper Listing 1);
//   - owner-side write epochs (reload): generation-stamped; a cached
//     bucket from an older generation triggers an uncached re-read.
//
// Resilience: with replication > 1 a get falls through the replica list
// when a replica is dead or quarantined; with degraded reads enabled the
// CachedWindow additionally serves still-cached buckets of a down target
// within the configured staleness bound before any rerouting happens.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "clampi/clampi.h"
#include "kv/bucket.h"
#include "kv/journal.h"
#include "kv/ring.h"
#include "metrics/quantile.h"

namespace clampi::kv {

inline constexpr int kMaxReplicas = 4;
// PutMeta::applied_mask and the hint bookkeeping are 32-bit
// bit-per-replica-position masks; widening kMaxReplicas past the mask
// width would silently truncate them.
static_assert(kMaxReplicas >= 1 && kMaxReplicas <= 32,
              "kMaxReplicas must fit a 32-bit replica-position mask");

struct StoreConfig {
  std::uint64_t nkeys = std::uint64_t{1} << 20;  ///< dense ranks [0, nkeys)
  int nservers = 4;       ///< window-comm ranks [0, nservers) hold shards
  int replication = 1;    ///< replicas per key (1..min(nservers, kMaxReplicas))
  int vnodes = 64;        ///< ring points per server
  double load_factor = 0.7;    ///< target main-bucket occupancy (> 1 forces chains)
  double balance_slack = 1.3;  ///< shard headroom over the uniform share
  double overflow_frac = 0.4;  ///< overflow buckets per main bucket
  Layout layout;
  /// 0 = deterministic per-key length in [min(8, cap), cap]; otherwise
  /// every initially-loaded value has exactly this many bytes.
  std::uint32_t initial_value_len = 0;
  std::uint64_t seed = 0x6b7653eedull;
  /// CLaMPI config of the per-rank CachedWindow. mode must be
  /// kUserDefined: epoch invalidation is the KV layer's job.
  Config cache;

  // --- replica convergence (docs/KV.md "Repair & convergence") ---
  /// Buffer the (key, seq, value) of every replica write skipped as
  /// unreachable in a bounded per-target queue, and replay it once the
  /// health machine reports the target recovered (PROBING -> HEALTHY).
  bool hinted_handoff = false;
  /// Max distinct keys hinted per target (newest seq per key is kept;
  /// new keys beyond the cap are dropped and counted). Must be >= 1 when
  /// hinted_handoff is enabled.
  std::uint32_t hint_queue_cap = 1024;
  /// Every Nth cached get cross-checks the key's slot on all reachable
  /// replicas and rewrites stale ones with the freshest image (inline
  /// read-repair). 0 disables; no effect with replication == 1.
  std::uint32_t read_repair_every_n = 0;
  /// Budget of the background anti-entropy scan: keys compared across
  /// replicas per anti_entropy_step() call (the store's analogue of the
  /// cache scrubber's scrub_entries_per_epoch). 0 disables.
  std::uint64_t antientropy_keys_per_epoch = 0;

  // --- hedged replica reads (docs/KV.md "Hedged reads") ---
  /// Arm a backup read against the next ring replica when the primary's
  /// modelled outstanding wait exceeds this quantile of recently
  /// *experienced* waits against it (metrics::QuantileEstimator,
  /// virtual-time windowed). First response wins; the loser's completion
  /// is discarded. 0 disables; must be in (0, 1) otherwise, and requires
  /// replication >= 2 (there must be a replica to race).
  double hedge_quantile = 0.0;
  /// Lifetime per-target samples before the estimate arms hedging.
  std::uint32_t hedge_min_samples = 8;
  /// Virtual-time window of the estimator (a straggler epoch that ends
  /// stops inflating the threshold within two windows).
  double hedge_window_us = 50000.0;

  // --- crash-restart durability (docs/DURABILITY.md) ---
  /// Per-server persistent devices (journal + snapshot slots). Shared by
  /// every rank's config — build ONE set with make_device_set() before
  /// Engine::run and hand the same pointer to all ranks. Null disables
  /// journaling entirely: a crashed server then restarts from the
  /// deterministic initial population and loses every acknowledged write
  /// since (the durability sweep's control cell).
  std::shared_ptr<DeviceSet> devices;
  /// Journal device capacity; appends past it self-compact (newest record
  /// per key survives). Must hold at least one max-size record.
  std::size_t journal_cap_bytes = std::size_t{1} << 20;
  /// Group-commit batch: every Nth append pays journal_sync_us, the rest
  /// pay journal_append_us. Batches only the modelled latency — every
  /// append is durable on return (journal.h).
  std::uint32_t group_commit_n = 8;
  /// Snapshot period in virtual time; a snapshot compacts the journal to
  /// zero. 0 = snapshots only at recovery end.
  double snapshot_every_us = 0.0;
  double journal_append_us = 0.5;  ///< modelled buffered-append cost
  double journal_sync_us = 5.0;    ///< modelled group-commit sync cost
  double snapshot_us = 50.0;       ///< modelled snapshot/compaction cost
};

/// How a get was served (one op may touch several buckets: chain follows
/// and versioned re-reads).
struct GetMeta {
  int server = -1;       ///< replica that served
  int replica_pos = 0;   ///< its index in the key's replica list
  std::uint32_t seq = 0;
  std::uint32_t len = 0;
  std::uint64_t generation = 0;
  int bucket_reads = 0;  ///< bucket fetches issued (first + chains + rereads)
  int chain_follows = 0;
  int cached_hits = 0;   ///< of which were served as full cache hits
  bool degraded = false; ///< some read came through the bounded-staleness path
  bool rerouted = false; ///< a preferred replica failed first
  bool version_reread = false;  ///< stale-generation image re-read uncached
  int read_repairs = 0;  ///< stale replicas rewritten inline by this get
  // Tail-latency robustness (docs/FAULTS.md §8, docs/KV.md "Hedged reads").
  bool hedged = false;    ///< a backup read raced the primary
  bool hedge_won = false; ///< ... and the backup's response served
  bool shed = false;      ///< the op was refused admission (kShed)
  bool deadline = false;  ///< the op's deadline budget ran out (kDeadline)
};

/// Counters of one rank's Store (docs/KV.md, "Counter plumbing"). Like the
/// CachedWindow's clampi::Stats they model external observability, so a
/// crash restart's wipe keeps them.
struct StoreCounters {
  // Read shape of the lookups.
  std::uint64_t bucket_reads = 0;     ///< main-bucket fetches issued by lookups
  std::uint64_t chain_reads = 0;      ///< overflow-chain follows (extra hops)
  std::uint64_t version_rereads = 0;  ///< stale-generation images re-read uncached
  // Replica convergence (docs/KV.md "Repair & convergence").
  std::uint64_t hints_queued = 0;   ///< replica writes buffered as hints
                                    ///< because the target was unreachable
  std::uint64_t hints_drained = 0;  ///< hints retired after the target
                                    ///< recovered (applied or superseded)
  std::uint64_t hints_dropped = 0;  ///< hints lost to a full queue
  std::uint64_t read_repairs = 0;         ///< stale replicas rewritten inline
                                          ///< by a divergence-observing get
  std::uint64_t antientropy_repairs = 0;  ///< stale replicas rewritten by the
                                          ///< background anti-entropy scan
  // Hedged reads (docs/KV.md "Hedged reads").
  std::uint64_t hedged_gets = 0;   ///< gets that issued a backup read after
                                   ///< the primary outran its quantile
  std::uint64_t hedge_wins = 0;    ///< hedged gets won by the backup replica
  std::uint64_t hedge_wasted = 0;  ///< hedges whose backup lost (or was
                                   ///< unreachable): pure overhead
  // Crash-restart durability (docs/DURABILITY.md).
  std::uint64_t journal_appends = 0;       ///< acknowledged writes persisted to
                                           ///< the simulated journal device
  std::uint64_t journal_replayed = 0;      ///< journal records applied during
                                           ///< crash recovery
  std::uint64_t torn_records_dropped = 0;  ///< records discarded at replay:
                                           ///< torn tail or failed checksum
  std::uint64_t snapshot_loads = 0;        ///< snapshots restored at recovery
  std::uint64_t recovery_repairs = 0;      ///< dropped records re-pulled from
                                           ///< live peer replicas
};

struct PutMeta {
  int applied = 0;                 ///< replicas that accepted the write
  int skipped = 0;                 ///< replicas skipped as unreachable
  int hinted = 0;                  ///< of the skipped, buffered as handoff hints
  std::uint32_t applied_mask = 0;  ///< bit per replica position
};

class Store {
 public:
  /// Collective over the world communicator: allocates the window
  /// (servers: shard bytes, others: one dummy bucket), loads the initial
  /// key population owner-side, and barriers.
  Store(rmasim::Process& p, const StoreConfig& cfg);

  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  /// Key identifier of dense rank `i` in [0, nkeys): a fixed 64-bit
  /// scramble, so Zipf rank 0 is a pseudo-random key, not key 0.
  std::uint64_t key_at(std::uint64_t i) const;

  /// Cached get: replica fall-through, collision chains, versioned
  /// re-reads, hedged backup reads. Returns false only when the key is
  /// unreachable on every replica, was shed, or ran out of deadline
  /// budget (never throws for fault-induced failures; GetMeta says why).
  /// `deadline_abs` overrides the config deadline with an absolute
  /// virtual-time instant (open-loop benches date the budget from the
  /// op's *arrival*, not from when the client got around to issuing it);
  /// negative uses cache.op_deadline_us from now.
  bool get(std::uint64_t key, std::byte* value_out, GetMeta* meta = nullptr,
           double deadline_abs = -1.0);
  /// Baseline path: every bucket read bypasses the cache (get_nocache).
  bool get_uncached(std::uint64_t key, std::byte* value_out, GetMeta* meta = nullptr);

  /// Update an existing key (the serving workload is update-only; inserts
  /// happen at load/reload). Writes the slot on every reachable replica
  /// and flushes; the caller owns seq monotonicity per key (single writer
  /// per key). Returns true if at least one replica applied.
  bool put(std::uint64_t key, std::uint32_t seq, const std::byte* value,
           std::uint32_t len, PutMeta* meta = nullptr, bool use_cache = true);

  /// Listing-1 epoch invalidation: drop this rank's cache so the next
  /// reads observe all writes since the previous invalidation.
  void invalidate_cache();

  /// Owner-side write epoch (collective; call with no epoch open): every
  /// server rewrites its live slots with seq = generation - 1 values and
  /// stamps the new generation, then every rank invalidates its cache
  /// (Listing 1). `generation` must exceed the current one.
  /// `invalidate_caches = false` skips this rank's invalidation — the
  /// generation-stamped buckets then exercise the versioned re-read
  /// safety net instead of relying on the epoch protocol (tests).
  void reload(std::uint64_t generation, bool invalidate_caches = true);

  // --- replica convergence (docs/KV.md "Repair & convergence") ---
  /// Replay ready hint queues: targets whose recovery the health machine
  /// reported (PROBING -> HEALTHY callback), plus targets that are
  /// currently reachable and un-quarantined (covers runs without the
  /// detector). Called automatically at the top of get/put/
  /// anti_entropy_step; public so a driver can force a drain point. A
  /// hint is applied only if its seq still exceeds the replica's — a
  /// revived replica that already caught up (read-repair, anti-entropy,
  /// a newer put) retires the hint without a write.
  void drain_hints();
  /// Hints currently buffered across all targets.
  std::size_t hints_pending() const;

  /// One bounded slice of the background anti-entropy scan: advance the
  /// key cursor by `max_keys` (0 = the configured
  /// antientropy_keys_per_epoch), compare the slot seq across replicas
  /// for each key, and rewrite stale replicas with the freshest image.
  /// Requires no client traffic on the keys; a full pass over the
  /// keyspace takes ceil(nkeys / budget) calls. Returns replicas repaired.
  std::uint64_t anti_entropy_step(std::uint64_t max_keys = 0);

  // --- crash-restart durability (docs/DURABILITY.md) ---
  /// Build the shared per-server device set for `cfg`. Call ONCE before
  /// Engine::run and assign the result to every rank's cfg.devices (the
  /// devices must outlive the run and must not be re-created per rank:
  /// they model persistent disks).
  static std::shared_ptr<DeviceSet> make_device_set(const StoreConfig& cfg);

  /// Crash-boundary processing; call from the rank's main loop (servers:
  /// every tick, so recovery starts promptly) — get/put/anti_entropy_step
  /// also call it. When this rank's next crash restart has passed:
  ///   clients  wipe their volatile state (cache/health/tail per the wipe
  ///            flags) and resume;
  ///   servers  enter RECOVERING (ops against them fast-fail kRecovering),
  ///            apply the crash's persistence faults (torn tail, cold bit
  ///            rot), restore the latest valid snapshot — or the
  ///            deterministic initial population when journaling is off or
  ///            no snapshot verifies — replay the journal (checksum-
  ///            verified, newest-seq-wins), pull rejected records from
  ///            live peers, snapshot the recovered shard, truncate the
  ///            journal and leave RECOVERING.
  /// Servers with snapshot_every_us > 0 also take periodic snapshots here.
  void crash_tick();
  /// Crash restarts this rank has fully processed (recovery runs done).
  int crash_restarts_handled() const { return crashes_handled_; }

  /// Ground-truth convergence check (tests, bench/recovery_sweep): read
  /// every key's slot uncached on every replica and compare seq, length
  /// and value bytes.
  struct ConvergenceReport {
    std::uint64_t keys_checked = 0;
    std::uint64_t keys_divergent = 0;    ///< reachable replicas disagree
    std::uint64_t keys_unreachable = 0;  ///< some replica could not be read
    std::uint64_t max_seq_spread = 0;    ///< worst max-min seq among divergent
  };
  ConvergenceReport verify_convergence();

  /// True when any convergence feature may rewrite replicas behind the
  /// workload driver's back (relaxes its exact own-key shadow check).
  bool convergence_enabled() const {
    return cfg_.hinted_handoff || cfg_.read_repair_every_n > 0 ||
           cfg_.antientropy_keys_per_epoch > 0;
  }

  // --- introspection ---
  CachedWindow& window() { return *win_; }
  const StoreCounters& counters() const { return counters_; }
  const Ring& ring() const { return ring_; }
  const StoreConfig& config() const { return cfg_; }
  std::uint64_t generation() const { return generation_; }
  bool is_server() const { return p_->rank() < cfg_.nservers; }
  std::size_t main_buckets() const { return main_buckets_; }
  std::size_t total_buckets() const { return nbuckets_; }
  std::size_t shard_bytes() const { return shard_bytes_; }
  std::uint64_t keys_loaded() const { return keys_loaded_; }  ///< this server's

  /// Free the underlying window (collective).
  void free_window() { win_->free_window(); }

 private:
  struct Locator {
    std::uint32_t bucket = 0;
    std::uint32_t slot = 0;
  };

  /// Outcome of one chain walk.
  enum class Lookup { kMiss, kFound, kBackupWon };
  /// A key's slot as a chain walk found it.
  struct SlotHit {
    const std::byte* slot = nullptr;  ///< inside the fetched bucket image
    SlotMeta meta;
    std::uint32_t bucket = 0;
    std::uint32_t index = 0;
  };

  /// Fetch bucket `b` of `server` into bucket_buf_. Cached reads skip the
  /// flush on a full hit (no network op was issued). False: an armed hedge
  /// raced the fetch and the backup won (bucket_buf_ holds nothing
  /// useful; the backup's result is stashed). Throws fault::OpFailedError
  /// when the server is unreachable.
  bool read_bucket(int server, std::uint32_t b, bool cached, GetMeta* m);
  /// Count one bucket fetch of a lookup (main bucket or chain follow).
  void count_bucket_read(std::uint32_t b, GetMeta* m);
  /// Walk `key`'s bucket chain: `fetch(b)` returns bucket b's image
  /// (nullptr abandons the walk as kBackupWon); the header's slot count
  /// and chain link are checked here, generations by the caller's fetch.
  template <class Fetch>
  Lookup find_slot(std::uint64_t key, Fetch&& fetch, SlotHit* hit);
  /// Copy a found slot's value out and record seq/len/generation in `m`.
  void take_value(const SlotHit& hit, std::byte* value_out, GetMeta* m);
  /// Walk the chain on one server. kFound: value copied out.
  Lookup lookup_on(int server, std::uint64_t key, bool cached, std::byte* value_out,
                   GetMeta* m);
  /// Find the key's (bucket, slot) on one server, memoized (slot placement
  /// is immutable after load).
  bool locate_on(int server, std::uint64_t key, bool cached, Locator* loc);
  bool get_impl(std::uint64_t key, std::byte* value_out, GetMeta* meta, bool cached);
  /// Read one key's raw slot image (header + value) from `server`,
  /// bypassing the cache; the image stays in repair_buf_. False: key
  /// absent. Throws fault::OpFailedError when the server is unreachable.
  bool read_slot_on(int server, std::uint64_t key, bool cached_locate, SlotMeta* sm);
  /// Write a composed slot image (kSlotHeaderBytes + len bytes) to the
  /// key's slot on `server`. Throws fault::OpFailedError when unreachable.
  void write_slot_on(int server, std::uint64_t key, const std::byte* slot_bytes,
                     std::size_t nbytes, bool cached_locate);
  /// Buffer a skipped replica write for later handoff (coalesced by key,
  /// newest seq wins; full queues drop new keys and count the loss).
  /// False: the hint was dropped (queue full) or superseded.
  bool queue_hint(int server, std::uint64_t key, std::uint32_t seq,
                  const std::byte* value, std::uint32_t len);
  /// Replay one target's queue; stops (keeping the rest) if it fails again.
  void drain_hints_for(int server);
  /// Sampled cross-replica divergence check + repair for one served get.
  void read_repair(std::uint64_t key, int served_pos, const int* reps,
                   std::byte* value_out, GetMeta* m);
  /// Backup side of a hedged read: walk `server`'s chain for `key` with
  /// uncached, *unflushed* gets into hedge_buf_ (eager data movement makes
  /// the bytes readable while the modelled completions stay pending, so
  /// the race is decided by peeking both sides' completion times). The
  /// value lands in hedge_value_; seq/len/generation go into `m`.
  bool lookup_backup_nowait(int server, std::uint64_t key, GetMeta* m);
  /// Feed the per-target latency estimator with the modelled wait of the
  /// fetch currently outstanding against `server` (no-op with hedging off).
  void feed_latency(int server);
  /// Hedge decision point: called by read_bucket on a cached miss against
  /// `server` with the fetch outstanding. May race the armed backup; true
  /// when the backup won, after stashing its result (get_impl serves it).
  /// Otherwise the primary's fetch is still outstanding (read_bucket
  /// flushes as usual).
  bool maybe_hedge(int server, GetMeta* m);
  std::uint32_t bucket_index(std::uint64_t key) const;
  std::uint32_t initial_len(std::uint64_t key) const;
  void load_shard();
  void insert_local(std::uint64_t key);
  // --- crash-restart durability (docs/DURABILITY.md) ---
  /// This rank's device (servers with cfg.devices set; else nullptr).
  Device* device(int server) const;
  /// Journal one applied slot write on `server`'s device (no-op with
  /// journaling off) and charge the modelled append/sync latency.
  void journal_write(int server, std::uint64_t key, std::uint32_t seq,
                     const std::byte* value, std::uint32_t len);
  /// Walk this server's own shard for `key`'s slot; nullptr when absent.
  std::byte* local_slot(std::uint64_t key);
  /// Drop the volatile state a reboot destroys: the window's cache,
  /// health and tail state, the hint queues and the hedge estimators.
  void wipe_volatile();
  /// The full server-side recovery protocol (crash_tick's slow path).
  void recover_server(int due);
  /// Periodic snapshot + journal truncation (servers, snapshot_every_us).
  void maybe_snapshot();
  std::byte* shard_bucket(std::uint32_t b) { return base_ + b * cfg_.layout.bucket_bytes(); }

  rmasim::Process* p_;
  StoreConfig cfg_;
  Ring ring_;
  std::unique_ptr<CachedWindow> win_;
  std::byte* base_ = nullptr;
  std::uint64_t generation_ = 1;
  std::size_t main_buckets_ = 0;
  std::size_t nbuckets_ = 0;
  std::size_t shard_bytes_ = 0;
  std::uint32_t overflow_cursor_ = 0;
  std::uint64_t keys_loaded_ = 0;
  std::vector<std::byte> bucket_buf_;
  std::vector<std::byte> slot_buf_;
  std::vector<std::unordered_map<std::uint64_t, Locator>> loc_cache_;  // per server
  StoreCounters counters_;

  // --- replica convergence state (docs/KV.md "Repair & convergence") ---
  struct Hint {
    std::uint32_t seq = 0;
    std::uint32_t len = 0;
    std::vector<std::byte> value;
  };
  std::vector<std::unordered_map<std::uint64_t, Hint>> hints_;  // per server
  std::vector<char> drain_ready_;  ///< set by the health recovery callback
  std::uint64_t ae_cursor_ = 0;    ///< anti-entropy position in [0, nkeys)
  std::uint64_t rr_tick_ = 0;      ///< read-repair sampling counter
  std::vector<std::byte> repair_buf_;   ///< slot image read by read_slot_on
  std::vector<std::byte> repair_slot_;  ///< slot image composed for repairs

  // --- hedged-read state (docs/KV.md "Hedged reads") ---
  std::vector<metrics::QuantileEstimator> lat_est_;  ///< per server; empty
                                                     ///< when hedging is off
  std::vector<std::byte> hedge_buf_;    ///< backup bucket walk scratch (must
                                        ///< not alias bucket_buf_: the
                                        ///< primary's copy-in points there)
  std::vector<std::byte> hedge_value_;  ///< backup's value on a hedge win
  bool hedge_found_ = false;            ///< backup's found/miss verdict
  int hedge_backup_ = -1;  ///< armed backup server for the current primary
                           ///< lookup (-1: hedging inactive for this read)
  std::uint64_t hedge_key_ = 0;         ///< key of the armed lookup

  // --- crash-restart durability state (docs/DURABILITY.md) ---
  int crashes_handled_ = 0;       ///< restarts this rank already processed
  std::uint64_t snap_stamp_ = 0;  ///< monotone stamp of the last snapshot
  double last_snapshot_us_ = 0.0; ///< virtual time of the last periodic one
};

}  // namespace clampi::kv
