// CacheCore: the runtime-independent heart of CLaMPI.
//
// Implements the get_c processing of Sec. III-B (states MISSING / PENDING
// / CACHED; full and partial hits; direct / conflicting / capacity /
// failing accesses), the index and storage of Sec. III-C, the scored
// eviction of Sec. III-D, and the statistics feeding the adaptive tuner
// of Sec. III-E. It owns metadata and the S_w byte buffer but performs no
// communication: the CachedWindow wrapper drives it against the rmasim
// runtime, and tests drive it directly.
//
// Contract: one CacheCore per window per rank, driven by that rank alone
// (Sec. III: each process caches its own view of a window). The core is
// single-threaded and takes no locks. An entry_data() pointer is valid
// only until the next call that may evict, extend or drop entries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "clampi/config.h"
#include "clampi/cuckoo_index.h"
#include "clampi/stats.h"
#include "clampi/storage.h"
#include "util/rng.h"

namespace clampi {

/// Identity of a get with respect to the cache: the paper defines a hit as
/// matching target and displacement (Sec. III-B1); datatype and count only
/// determine the size.
struct Key {
  std::int32_t target = -1;
  std::uint64_t disp = 0;

  friend bool operator==(const Key&, const Key&) = default;
};

class CacheCore {
 public:
  /// What the caller must do to serve the access.
  struct Result {
    AccessType type = AccessType::kFailing;
    std::uint32_t entry = kNoEntry;   ///< involved entry (kNoEntry if failing)
    std::size_t cached_bytes = 0;     ///< prefix available from the cache
    bool inserted = false;            ///< a new entry now awaits its data
    bool extended = false;            ///< partial hit: entry grew to `bytes`
    bool serve_now = false;           ///< cached prefix may be copied immediately
    // Pre-extension geometry (valid when `extended`): lets a failed tail
    // fetch revert the extension instead of dropping the entry — earlier
    // gets in the epoch may already hold copy-in/copy-out registrations
    // against it (found by chaos_fuzz seed 89).
    std::size_t prev_bytes = 0;
    std::uint64_t prev_sig = 0;
    std::size_t prev_footprint = 0;
    bool prev_pending = false;
    /// A sampled checksum verification caught a corrupt entry: it was
    /// quarantined and the access fell through to the miss path, so the
    /// data is transparently re-fetched (self-healing; docs/INTEGRITY.md).
    bool healed = false;
  };

  explicit CacheCore(const Config& cfg);
  ~CacheCore();
  CacheCore(const CacheCore&) = delete;
  CacheCore& operator=(const CacheCore&) = delete;

  /// Process a get_c of `bytes` payload at `key`. `dtype_sig` is recorded
  /// for layout-compatibility diagnostics. `footprint` is the target byte
  /// range [key.disp, key.disp + footprint) the payload is read from: a
  /// non-contiguous typed get packs fewer bytes than it spans, and put
  /// invalidation must see the span. Values up to `bytes` (the default 0
  /// included) mean contiguous. May evict entries.
  Result access(Key key, std::size_t bytes, std::uint64_t dtype_sig = 0,
                PhaseBreakdown* phases = nullptr, std::size_t footprint = 0);

  // --- entry accessors (valid until eviction/invalidation) ---
  std::byte* entry_data(std::uint32_t id);
  const std::byte* entry_data(std::uint32_t id) const;
  std::size_t entry_bytes(std::uint32_t id) const;
  Key entry_key(std::uint32_t id) const;
  std::uint64_t entry_signature(std::uint32_t id) const;
  bool entry_pending(std::uint32_t id) const;

  /// PENDING -> CACHED (the entry's data arrived and was copied in).
  void mark_cached(std::uint32_t id);

  /// Freshness stamp: the virtual time at which the entry's payload was
  /// fetched from the origin window. CacheCore has no clock, so the
  /// CachedWindow driver stamps entries when their copy-in completes; the
  /// bounded-staleness degraded-read path (docs/FAULTS.md §6) compares
  /// `now - entry_stamp` against the configured bound. 0 = never stamped.
  void set_entry_stamp(std::uint32_t id, double us);
  double entry_stamp(std::uint32_t id) const;

  /// Pure lookup: the CACHED entry holding `key`, or kNoEntry if the key
  /// is absent or still PENDING. No statistics are touched — this backs
  /// the resilience layer's cache-fallback probe, not a get_c.
  std::uint32_t find_cached(Key key) const;

  /// Remove an entry whose network fetch failed (injected fault). Unlike
  /// evict_entry this accepts PENDING entries — their data never arrived —
  /// and does not count as an eviction.
  void drop_failed(std::uint32_t id);

  /// drop_failed() every live PENDING entry for `target` (< 0 = all).
  /// Returns the number dropped. Used when an epoch is abandoned because
  /// its flush failed: those entries will never receive their data.
  std::size_t drop_pending(int target);

  /// Undo the partial-hit extension `res` reported (`res.extended`) after
  /// its tail fetch failed: restore the pre-extension size, signature,
  /// footprint and pending state recorded in it. The entry must NOT be
  /// dropped in that situation — earlier gets in the epoch may hold
  /// pending copy-ins/outs against it, and its cached prefix is still
  /// valid (relocation preserves it).
  void revert_extension(const Result& res);

  /// Quarantine a CACHED entry whose bytes are corrupt or stale: dropped
  /// through the eviction path so the key misses (and re-fetches) next
  /// time. Callers bump the cause-specific counters.
  void quarantine(std::uint32_t id);

  /// Drop every CACHED entry whose footprint overlaps [disp, disp+bytes)
  /// at `target` (a put landed there: the cached bytes are now stale).
  /// PENDING entries are skipped — a get and a conflicting put in one
  /// epoch is already a data race under the MPI-3 epoch model. Returns
  /// the number dropped (also accumulated in Stats::put_invalidations);
  /// `dropped`, if given, receives their ids in drop order (ascending
  /// slot).
  ///
  /// Cost: the core keeps an index of its live entries ordered by
  /// (target, disp), so a call visits only the entries that start within
  /// one `max_span` (the largest footprint the cache has held since the
  /// index was built) before the put's end: O(log n + k) for fixed-size
  /// entries, independent of the cache size. The index exists
  /// only once needed: the first call after construction, invalidate() or
  /// resize() builds it from the entry table in O(n log n), and from then
  /// on misses, extensions and drops keep it current until the next
  /// invalidate()/resize() discards it. Windows that never put pay one
  /// predictable branch per miss and per drop.
  std::size_t invalidate_overlap(int target, std::uint64_t disp, std::size_t bytes,
                                 std::vector<std::uint32_t>* dropped = nullptr);

  /// One incremental scrub slice (docs/INTEGRITY.md): re-verifies the
  /// checksum and a per-entry slice of the validate() invariants for up
  /// to `max_entries` live CACHED entries, resuming where the previous
  /// slice stopped. Corrupt entries are quarantined. Amortized: the cost
  /// per epoch is bounded by the budget, never O(N) on the hot path.
  struct ScrubReport {
    std::size_t scanned = 0;
    std::size_t corrupted = 0;   ///< checksum mismatches (quarantined)
    bool invariants_ok = true;   ///< per-entry index/storage cross-checks
  };
  ScrubReport scrub(std::size_t max_entries);

  /// Entry-table iteration surface for integrity sweeps (fault-injected
  /// storage corruption walks live entries from the window layer). Ids
  /// are slots of the entry table: [0, entry_slots()) covers every entry,
  /// and entry_live() tells the live ones from freed slots.
  std::size_t entry_slots() const { return entries_.size(); }
  bool entry_live(std::uint32_t id) const {
    return id < entries_.size() && entries_[id].live;
  }

  /// Drop every entry. Must not be called with PENDING entries
  /// outstanding (callers flush first).
  void invalidate();

  /// Transparent-mode survivor retention (docs/FAULTS.md §6): like
  /// invalidate(), but entries whose key targets a rank in `keep_targets`
  /// survive — a down target cannot be accepting writes, so its
  /// last-known-good entries stay servable for bounded-staleness degraded
  /// reads. Returns the number of entries retained. Must not be called
  /// with PENDING entries outstanding.
  std::size_t invalidate_retaining(const std::vector<int>& keep_targets);

  /// Replace I_w and S_w with new sizes; implies an invalidation and is
  /// counted as an adjustment (adaptive strategy, Sec. III-E1). An index
  /// size of 0 is raised to 1.
  void resize(std::size_t index_entries, std::size_t storage_bytes);

  /// Statistics, with the CuckooIndex/Storage counters (which accumulate
  /// inside those structures) copied in.
  const Stats& stats() const {
    sync_hot_counters();
    return stats_;
  }
  /// Writable counters for the resilience layer (retries, fallbacks):
  /// those events happen outside access(), in the CachedWindow driver.
  Stats& mutable_stats() {
    sync_hot_counters();
    return stats_;
  }
  const Config& config() const { return cfg_; }
  /// I_w slots / S_w bytes (storage is rounded up to the cache line).
  std::size_t index_entries() const { return cfg_.index_entries; }
  std::size_t storage_bytes() const { return storage_.capacity(); }
  std::size_t free_bytes() const { return storage_.free_bytes(); }
  std::size_t cached_entries() const { return live_; }
  std::size_t pending_entries() const { return pending_; }
  std::uint64_t processed_gets() const { return g_; }
  /// Running average get size C_w.ags (Sec. III-C2).
  double average_get_size() const { return ags_; }

  /// Score R^i(x) of a live entry under the configured ScoreKind
  /// (exposed for the eviction-policy tests and the Fig. 10/11 benches).
  double score(std::uint32_t id) const;

  /// Cross-structure invariants (index <-> entries <-> storage). O(N).
  bool validate() const { return audit().ok; }

  /// Full cross-structure audit: everything validate() checks, plus the
  /// free-list (every free id dead and unique, live + free == slots),
  /// counter consistency, the configured sizes (the index holds
  /// index_entries slots, storage round_up(storage_bytes, line) bytes)
  /// and, where it is built, the address index of invalidate_overlap
  /// (exactly the live entries, each under its own (target, disp),
  /// max_span covering every footprint). O(N). The chaos oracle runs this
  /// at every epoch boundary (docs/CHAOS.md); `detail` names the first
  /// violated invariant so a shrunk repro points straight at the breakage.
  struct AuditReport {
    bool ok = true;
    std::string detail;         ///< first violated invariant ("" if ok)
    std::size_t live = 0;       ///< live entries counted by the walk
    std::size_t pending = 0;    ///< PENDING entries counted by the walk
  };
  AuditReport audit() const;

  /// True when `id` is a live CACHED entry whose payload still matches
  /// its stored checksum (always true with integrity off). The degraded
  /// read path consults this before serving a possibly-rotted entry.
  bool entry_checksum_ok(std::uint32_t id) const;

 private:
  struct Entry {
    Key key;
    std::uint64_t hkey = 0;
    std::uint64_t sig = 0;
    std::size_t size = 0;  ///< payload bytes (region may be larger: alignment)
    /// Target bytes [key.disp, key.disp + footprint) the payload was read
    /// from; >= size, and > size only for non-contiguous typed gets.
    std::size_t footprint = 0;
    Storage::Region* region = nullptr;
    std::uint64_t last = 0;  ///< index in C_w.G of the last matching get_c
    std::uint64_t csum = 0;  ///< XXH64 of the payload, set at mark_cached
    double stamp = 0.0;      ///< virtual time the payload was fetched (0 = never)
    bool pending = false;
    bool live = false;
  };

  // Index callbacks: entry ids are slots of the entry table.
  struct EntryOps {
    const std::vector<Entry>* entries = nullptr;
    std::uint64_t hash_key(std::uint32_t id) const { return (*entries)[id].hkey; }
  };

  /// Orders the address index of invalidate_overlap by (target, disp).
  struct AddrOrder {
    bool operator()(const Key& a, const Key& b) const {
      return a.target != b.target ? a.target < b.target : a.disp < b.disp;
    }
  };

  static std::uint64_t make_hkey(Key k);

  std::uint32_t alloc_entry();
  void release_entry(std::uint32_t id);
  void evict_entry(std::uint32_t id);
  /// One sampled victim-selection round (Sec. III-D); false if no
  /// evictable entry was found.
  bool capacity_eviction_round();
  /// Insert `id` into the index, evicting from the insertion path on
  /// conflicts. Returns false if it still cannot be placed.
  bool insert_with_conflict_handling(std::uint32_t id, bool& conflicted);
  /// Copy the live CuckooIndex/Storage counters into stats_. resize()
  /// replaces the index object, so its counters are banked first.
  void sync_hot_counters() const;
  /// Checksums are maintained only when something will read them.
  bool integrity_on() const {
    return cfg_.verify_every_n != 0 || cfg_.scrub_entries_per_epoch != 0;
  }
  std::uint64_t entry_checksum(const Entry& e) const;
  /// Per-entry slice of the validate() cross-structure invariants.
  bool entry_invariants_ok(std::uint32_t id) const;
  /// Drop the address index of invalidate_overlap (rebuilt on the next
  /// put).
  void discard_addr_index();

  Config cfg_;
  mutable Stats stats_;
  EntryOps ops_;  ///< stable address: the index holds a pointer to it
  CuckooIndex<EntryOps> index_;
  Storage storage_;
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> free_ids_;
  std::vector<std::uint32_t> path_;  ///< scratch: cuckoo insertion path
  std::size_t live_ = 0;
  std::size_t pending_ = 0;
  std::uint64_t g_ = 0;     ///< |C_w.G|, gets over the window's lifetime
  double ags_ = 0.0;        ///< running average get size
  std::uint64_t verify_tick_ = 0;  ///< hit counter for verify_every_n sampling
  util::Xoshiro256 rng_;           ///< eviction sampling
  CuckooIndex<EntryOps>::Counters counter_base_;  ///< banked across resize()
  std::map<Key, std::uint32_t, AddrOrder> by_addr_;  ///< live key -> id
  bool by_addr_on_ = false;
  std::size_t max_span_ = 0;  ///< >= every footprint indexed since the build
  std::vector<std::uint32_t> overlap_;  ///< scratch: ids a put drops
  std::uint32_t scrub_cursor_ = 0;  ///< resume slot of the incremental scrubber
};

}  // namespace clampi
