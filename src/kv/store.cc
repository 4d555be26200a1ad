#include "kv/store.h"

#include <algorithm>
#include <cmath>

#include "fault/fault.h"
#include "util/error.h"
#include "util/skew.h"

namespace clampi::kv {

namespace {

void validate(const StoreConfig& cfg, int nranks) {
  CLAMPI_REQUIRE(cfg.nkeys >= 1, "kv: nkeys must be >= 1");
  CLAMPI_REQUIRE(cfg.nservers >= 1 && cfg.nservers <= nranks,
                 "kv: nservers must be in [1, nranks]");
  CLAMPI_REQUIRE(cfg.replication >= 1 &&
                     cfg.replication <= std::min(cfg.nservers, kMaxReplicas),
                 "kv: replication must be in [1, min(nservers, kMaxReplicas)]");
  CLAMPI_REQUIRE(cfg.layout.slots_per_bucket >= 1, "kv: slots_per_bucket must be >= 1");
  CLAMPI_REQUIRE(cfg.layout.value_capacity >= 1, "kv: value_capacity must be >= 1");
  CLAMPI_REQUIRE(cfg.initial_value_len <= cfg.layout.value_capacity,
                 "kv: initial_value_len exceeds value_capacity");
  CLAMPI_REQUIRE(cfg.load_factor > 0.0, "kv: load_factor must be > 0");
  CLAMPI_REQUIRE(cfg.balance_slack >= 1.0, "kv: balance_slack must be >= 1");
  CLAMPI_REQUIRE(cfg.overflow_frac >= 0.0, "kv: overflow_frac must be >= 0");
  // Transparent mode would invalidate the whole cache at every per-target
  // flush; the KV layer owns epoch invalidation (Listing 1), so insist on it.
  CLAMPI_REQUIRE(cfg.cache.mode == Mode::kUserDefined,
                 "kv: cache.mode must be kUserDefined");
  // A zero-capacity queue with handoff enabled would silently drop every
  // hint — the one configuration that looks resilient but converges never.
  CLAMPI_REQUIRE(!cfg.hinted_handoff || cfg.hint_queue_cap >= 1,
                 "kv: hint_queue_cap must be >= 1 when hinted handoff is enabled");
  CLAMPI_REQUIRE(cfg.hedge_quantile >= 0.0 && cfg.hedge_quantile < 1.0,
                 "kv: hedge_quantile must be in [0, 1) (0 disables hedging)");
  if (cfg.hedge_quantile > 0.0) {
    CLAMPI_REQUIRE(cfg.replication >= 2,
                   "kv: hedged reads require replication >= 2");
    CLAMPI_REQUIRE(cfg.hedge_min_samples >= 1,
                   "kv: hedge_min_samples must be >= 1");
    CLAMPI_REQUIRE(cfg.hedge_window_us > 0.0, "kv: hedge_window_us must be > 0");
  }
  CLAMPI_REQUIRE(cfg.group_commit_n >= 1, "kv: group_commit_n must be >= 1");
  CLAMPI_REQUIRE(cfg.snapshot_every_us >= 0.0,
                 "kv: snapshot_every_us must be >= 0");
  CLAMPI_REQUIRE(cfg.journal_append_us >= 0.0 && cfg.journal_sync_us >= 0.0 &&
                     cfg.snapshot_us >= 0.0,
                 "kv: journal/snapshot latencies must be >= 0");
  if (cfg.devices != nullptr) {
    CLAMPI_REQUIRE(cfg.devices->per_rank.size() ==
                       static_cast<std::size_t>(cfg.nservers),
                   "kv: devices must hold exactly one device per server");
    // A journal that cannot hold one max-size record would force an
    // infinite compact loop on the first append.
    CLAMPI_REQUIRE(cfg.journal_cap_bytes >=
                       Journal::record_bytes(cfg.layout.value_capacity),
                   "kv: journal_cap_bytes must hold at least one record");
  }
}

}  // namespace

Store::Store(rmasim::Process& p, const StoreConfig& cfg)
    : p_(&p), cfg_(cfg), ring_(cfg.nservers, cfg.vnodes, cfg.seed) {
  validate(cfg_, p.nranks());

  // Shard geometry, identical on every rank: room for this server's share
  // of nkeys * replication entries (plus slack for ring imbalance), sized
  // so main buckets run at `load_factor` occupancy, with an overflow pool
  // for the chains. load_factor > 1 deliberately undersizes the main array
  // to exercise chain follows.
  const double share = static_cast<double>(cfg_.nkeys) * cfg_.replication /
                       cfg_.nservers * cfg_.balance_slack;
  const double per_bucket = cfg_.layout.slots_per_bucket * cfg_.load_factor;
  main_buckets_ = static_cast<std::size_t>(std::ceil(share / per_bucket));
  if (main_buckets_ < 1) main_buckets_ = 1;
  std::size_t overflow =
      static_cast<std::size_t>(std::ceil(main_buckets_ * cfg_.overflow_frac));
  if (overflow < 1) overflow = 1;
  nbuckets_ = main_buckets_ + overflow;
  CLAMPI_REQUIRE(nbuckets_ < kNoBucket, "kv: shard exceeds bucket index space");
  shard_bytes_ = nbuckets_ * cfg_.layout.bucket_bytes();

  const std::size_t my_bytes =
      p.rank() < cfg_.nservers ? shard_bytes_ : cfg_.layout.bucket_bytes();
  void* base = nullptr;
  win_ = std::make_unique<CachedWindow>(
      CachedWindow::allocate(p, my_bytes, &base, cfg_.cache));
  base_ = static_cast<std::byte*>(base);
  bucket_buf_.resize(cfg_.layout.bucket_bytes());
  slot_buf_.resize(cfg_.layout.slot_bytes());
  loc_cache_.resize(static_cast<std::size_t>(cfg_.nservers));
  hints_.resize(static_cast<std::size_t>(cfg_.nservers));
  drain_ready_.assign(static_cast<std::size_t>(cfg_.nservers), 0);
  repair_buf_.resize(cfg_.layout.slot_bytes());
  repair_slot_.resize(cfg_.layout.slot_bytes());
  if (cfg_.hedge_quantile > 0.0) {
    lat_est_.reserve(static_cast<std::size_t>(cfg_.nservers));
    for (int s = 0; s < cfg_.nservers; ++s) {
      lat_est_.emplace_back(cfg_.hedge_quantile, cfg_.hedge_window_us);
    }
    hedge_buf_.resize(cfg_.layout.bucket_bytes());
    hedge_value_.resize(cfg_.layout.value_capacity);
  }
  if (cfg_.hinted_handoff) {
    // Recovery callback: when the health machine walks a target back to
    // HEALTHY (PROBING -> HEALTHY after a revival or a healed partition),
    // flag its queue; the actual drain happens at the next top-level store
    // op (the callback may fire mid-operation and must not re-enter the
    // window).
    win_->observe_health([this](int target, HealthState s) {
      if (s != HealthState::kHealthy) return;
      if (target < 0 || target >= cfg_.nservers) return;
      if (!hints_[static_cast<std::size_t>(target)].empty()) {
        drain_ready_[static_cast<std::size_t>(target)] = 1;
      }
    });
  }

  // Servers own their crash recovery: the engine must fast-fail ops
  // against a restarted server (kRecovering) instead of lazily wiping,
  // because only crash_tick's recovery protocol may rebuild the shard.
  if (is_server()) p.declare_crash_recovery();

  if (is_server()) load_shard();
  p.barrier();  // no reads before every shard is populated
}

std::shared_ptr<DeviceSet> Store::make_device_set(const StoreConfig& cfg) {
  auto set = std::make_shared<DeviceSet>();
  set->per_rank.reserve(static_cast<std::size_t>(cfg.nservers));
  for (int s = 0; s < cfg.nservers; ++s) {
    set->per_rank.emplace_back(cfg.journal_cap_bytes, cfg.group_commit_n);
  }
  return set;
}

std::uint64_t Store::key_at(std::uint64_t i) const {
  CLAMPI_REQUIRE(i < cfg_.nkeys, "kv: key rank out of range");
  return util::mix64(i ^ (cfg_.seed * 0x2545f4914f6cdd1dull));
}

std::uint32_t Store::bucket_index(std::uint64_t key) const {
  return static_cast<std::uint32_t>(
      util::mix64(key ^ cfg_.seed ^ 0x6275636bull) % main_buckets_);
}

std::uint32_t Store::initial_len(std::uint64_t key) const {
  if (cfg_.initial_value_len != 0) return cfg_.initial_value_len;
  const std::uint32_t cap = cfg_.layout.value_capacity;
  const std::uint32_t lo = cap < 8 ? 1 : 8;
  return lo + static_cast<std::uint32_t>(util::mix64(key ^ 0x6c656eull) % (cap - lo + 1));
}

void Store::load_shard() {
  overflow_cursor_ = static_cast<std::uint32_t>(main_buckets_);
  for (std::uint32_t b = 0; b < nbuckets_; ++b) {
    BucketHeader h;
    h.generation = generation_;
    store_header(shard_bucket(b), h);
  }
  // Owned keys are inserted in walk order, since overflow-chain ids are
  // handed out in insertion order. Each key's main bucket is prefetched
  // kLoadAhead owned keys before its insert, so the shard's cache misses
  // overlap the ring walk instead of stalling it.
  constexpr std::uint64_t kLoadAhead = 16;
  std::uint64_t ahead[kLoadAhead] = {};
  std::uint64_t owned = 0;
  int reps[kMaxReplicas];
  for (std::uint64_t i = 0; i < cfg_.nkeys; ++i) {
    const std::uint64_t key = key_at(i);
    ring_.replicas(key, cfg_.replication, reps);
    bool mine = false;
    for (int r = 0; r < cfg_.replication; ++r) mine = mine || reps[r] == p_->rank();
    if (!mine) continue;
    std::uint64_t& queued = ahead[owned % kLoadAhead];
    if (owned >= kLoadAhead) insert_local(queued);
    __builtin_prefetch(shard_bucket(bucket_index(key)), /*rw=*/1);
    queued = key;
    ++owned;
  }
  for (std::uint64_t j = owned > kLoadAhead ? owned - kLoadAhead : 0; j < owned; ++j) {
    insert_local(ahead[j % kLoadAhead]);
  }
  keys_loaded_ += owned;
}

void Store::insert_local(std::uint64_t key) {
  std::uint32_t b = bucket_index(key);
  for (;;) {
    std::byte* bk = shard_bucket(b);
    BucketHeader h = load_header(bk);
    if (h.count < cfg_.layout.slots_per_bucket) {
      SlotMeta m;
      m.key = key;
      m.seq = 0;
      m.len = initial_len(key);
      std::byte* slot = bk + cfg_.layout.slot_offset(h.count);
      store_slot_meta(slot, m);
      fill_value(key, m.seq, m.len, slot + Layout::kSlotHeaderBytes);
      ++h.count;
      store_header(bk, h);
      return;
    }
    if (h.chain != kNoBucket) {
      b = h.chain;
      continue;
    }
    CLAMPI_REQUIRE(overflow_cursor_ < nbuckets_,
                   "kv: overflow pool exhausted; raise overflow_frac or balance_slack");
    h.chain = overflow_cursor_++;
    store_header(bk, h);
    b = h.chain;
  }
}

void Store::count_bucket_read(std::uint32_t b, GetMeta* m) {
  ++m->bucket_reads;
  if (b < main_buckets_) {
    ++counters_.bucket_reads;
  } else {
    ++counters_.chain_reads;
    ++m->chain_follows;
  }
}

bool Store::read_bucket(int server, std::uint32_t b, bool cached, GetMeta* m) {
  const std::size_t bb = cfg_.layout.bucket_bytes();
  const std::size_t disp = static_cast<std::size_t>(b) * bb;
  count_bucket_read(b, m);
  if (!cached) {
    win_->get_nocache(bucket_buf_.data(), bb, server, disp);
    feed_latency(server);
    win_->flush(server);
    // The uncached path skips the resilient issue wrapper, so its
    // successes must count as probes by hand (half-open recovery).
    win_->record_target_outcome(server, /*success=*/true);
    return true;
  }
  win_->get(bucket_buf_.data(), bb, server, disp);
  if (win_->last_was_degraded()) m->degraded = true;
  if (win_->last_access() == AccessType::kHit) {
    ++m->cached_hits;  // local copy, nothing in flight: skip the flush
    return true;
  }
  if (maybe_hedge(server, m)) return false;  // the backup's answer won
  win_->flush(server);
  return true;
}

void Store::feed_latency(int server) {
  if (lat_est_.empty()) return;
  const double now = p_->now_us();
  const double t = win_->outstanding_wait_us(server);
  lat_est_[static_cast<std::size_t>(server)].add(t > now ? t - now : 0.0, now);
}

bool Store::maybe_hedge(int server, GetMeta* m) {
  const int backup = hedge_backup_;
  hedge_backup_ = -1;  // at most one race per lookup
  if (backup < 0 || backup == server || lat_est_.empty()) {
    feed_latency(server);
    return false;
  }
  const double now = p_->now_us();
  const double t_p = win_->outstanding_wait_us(server);
  const double wait = t_p > now ? t_p - now : 0.0;
  auto& est = lat_est_[static_cast<std::size_t>(server)];
  if (est.samples() < cfg_.hedge_min_samples || wait <= est.quantile()) {
    est.add(wait, now);
    return false;
  }
  // The primary's modelled wait is past the target's recent quantile:
  // race the next ring replica. A real hedging client only learns this by
  // waiting out the threshold, so charge it as compute before the backup
  // goes out.
  ++counters_.hedged_gets;
  m->hedged = true;
  const double theta = est.quantile();
  if (theta > 0.0) p_->compute_us(theta);
  const double tb0 = p_->now_us();
  bool backup_ok = true;
  bool backup_found = false;
  try {
    backup_found = lookup_backup_nowait(backup, hedge_key_, m);
  } catch (const fault::OpFailedError&) {
    backup_ok = false;  // backup unreachable: the hedge was pure waste
  }
  if (backup_ok) {
    const double t_b = win_->outstanding_wait_us(backup);
    if (t_b < t_p) {
      // The backup answers first. Only its modelled completion is real:
      // flush it, feed its estimator with the experienced wait, and
      // abandon the primary wholesale — engine completion, window
      // bookkeeping and cache pending entries — because the primary's
      // bytes never (virtually) arrived. The primary's estimator gets no
      // sample: we never experienced its completion, and feeding the
      // straggled prediction would inflate the threshold until hedging
      // disarmed itself exactly when it is needed most.
      lat_est_[static_cast<std::size_t>(backup)].add(
          t_b > tb0 ? t_b - tb0 : 0.0, tb0);
      ++counters_.hedge_wins;
      m->hedge_won = true;
      win_->flush(backup);
      win_->record_target_outcome(backup, /*success=*/true);
      win_->abandon_target(server);
      hedge_found_ = backup_found;
      return true;
    }
    // The primary would answer first after all: discard the backup's
    // pending completion — nobody will wait for it.
    win_->abandon_target(backup);
  }
  ++counters_.hedge_wasted;
  est.add(wait, now);  // the primary's wait was experienced end to end
  return false;
}

template <class Fetch>
Store::Lookup Store::find_slot(std::uint64_t key, Fetch&& fetch, SlotHit* hit) {
  std::uint32_t b = bucket_index(key);
  std::size_t hops = 0;
  for (;;) {
    const std::byte* img = fetch(b);
    if (img == nullptr) return Lookup::kBackupWon;
    const BucketHeader h = load_header(img);
    CLAMPI_REQUIRE(h.count <= cfg_.layout.slots_per_bucket,
                   "kv: bucket header count out of range");
    for (std::uint32_t s = 0; s < h.count; ++s) {
      const std::byte* slot = img + cfg_.layout.slot_offset(s);
      const SlotMeta sm = load_slot_meta(slot);
      if (sm.key != key) continue;
      *hit = SlotHit{slot, sm, b, s};
      return Lookup::kFound;
    }
    if (h.chain == kNoBucket) return Lookup::kMiss;
    CLAMPI_REQUIRE(h.chain < nbuckets_, "kv: chain link out of range");
    b = h.chain;
    CLAMPI_REQUIRE(++hops <= nbuckets_, "kv: chain cycle detected");
  }
}

void Store::take_value(const SlotHit& hit, std::byte* value_out, GetMeta* m) {
  CLAMPI_REQUIRE(hit.meta.len <= cfg_.layout.value_capacity,
                 "kv: slot length exceeds value_capacity");
  std::memcpy(value_out, hit.slot + Layout::kSlotHeaderBytes, hit.meta.len);
  m->seq = hit.meta.seq;
  m->len = hit.meta.len;
  m->generation = generation_;
}

bool Store::lookup_backup_nowait(int server, std::uint64_t key, GetMeta* m) {
  const std::size_t bb = cfg_.layout.bucket_bytes();
  SlotHit hit;
  const Lookup found = find_slot(key, [&](std::uint32_t b) -> const std::byte* {
    count_bucket_read(b, m);
    // Uncached and unflushed: eager data movement makes the bytes readable
    // immediately while the modelled completion stays pending, so the walk
    // can follow chains without committing to the backup's latency.
    win_->get_nocache(hedge_buf_.data(), bb, server, static_cast<std::size_t>(b) * bb);
    CLAMPI_REQUIRE(load_header(hedge_buf_.data()).generation == generation_,
                   "kv: server bucket carries unexpected generation");
    return hedge_buf_.data();
  }, &hit);
  if (found != Lookup::kFound) return false;
  take_value(hit, hedge_value_.data(), m);
  return true;
}

Store::Lookup Store::lookup_on(int server, std::uint64_t key, bool cached,
                               std::byte* value_out, GetMeta* m) {
  SlotHit hit;
  const Lookup found = find_slot(key, [&](std::uint32_t b) -> const std::byte* {
    if (!read_bucket(server, b, cached, m)) return nullptr;
    if (cached && load_header(bucket_buf_.data()).generation != generation_) {
      // Cached image predates the current owner-side write epoch (reload):
      // versioned re-read straight from the server.
      ++counters_.version_rereads;
      m->version_reread = true;
      read_bucket(server, b, /*cached=*/false, m);
    }
    CLAMPI_REQUIRE(load_header(bucket_buf_.data()).generation == generation_,
                   "kv: server bucket carries unexpected generation");
    return bucket_buf_.data();
  }, &hit);
  if (found == Lookup::kFound) take_value(hit, value_out, m);
  return found;
}

bool Store::get_impl(std::uint64_t key, std::byte* value_out, GetMeta* meta,
                     bool cached) {
  GetMeta local;
  GetMeta* m = meta ? meta : &local;
  *m = GetMeta{};
  int reps[kMaxReplicas];
  ring_.replicas(key, cfg_.replication, reps);
  for (int pos = 0; pos < cfg_.replication; ++pos) {
    if (pos == 0 && cached && !lat_est_.empty() && cfg_.replication >= 2) {
      // Arm the hedge for the primary lookup: the first cached bucket read
      // that goes over the wire may race reps[1] (see maybe_hedge).
      hedge_backup_ = reps[1];
      hedge_key_ = key;
    }
    try {
      const Lookup walk = lookup_on(reps[pos], key, cached, value_out, m);
      hedge_backup_ = -1;
      if (walk == Lookup::kBackupWon) {
        // The backup replica answered first; its stashed result is
        // authoritative (reconciliation is to the highest seq, and a hedge
        // win serves exactly what a fall-through to that replica would).
        if (hedge_found_) std::memcpy(value_out, hedge_value_.data(), m->len);
        m->server = reps[1];
        m->replica_pos = 1;
        return hedge_found_;
      }
      const bool found = walk == Lookup::kFound;
      // Membership is identical on every replica (update-only store), so a
      // clean miss on a reachable replica is authoritative.
      m->server = reps[pos];
      m->replica_pos = pos;
      m->rerouted = pos > 0;
      // Sampled inline read-repair (cached serving path only; degraded
      // serves are legally stale, so cross-checking them would "repair"
      // replicas with data the cache already superseded). Repair is
      // background-tier work, so it is shed under overload.
      if (found && cached && !m->degraded && cfg_.replication > 1 &&
          cfg_.read_repair_every_n > 0 && !win_->shed_background() &&
          ++rr_tick_ >= cfg_.read_repair_every_n) {
        rr_tick_ = 0;
        read_repair(key, pos, reps, value_out, m);
      }
      return found;
    } catch (const fault::OpFailedError& e) {
      hedge_backup_ = -1;
      if (e.failure() == fault::FailureKind::kShed) {
        m->shed = true;  // refused admission: trying other replicas would
        return false;    // defeat the shedder's point
      }
      if (e.failure() == fault::FailureKind::kDeadline) {
        m->deadline = true;  // budget exhausted: the walk is over
        return false;
      }
      // Replica unreachable (dead, partitioned or quarantined): fall through.
    }
  }
  return false;
}

bool Store::get(std::uint64_t key, std::byte* value_out, GetMeta* meta,
                double deadline_abs) {
  crash_tick();
  drain_hints();
  double dl = deadline_abs;
  if (dl < 0.0 && cfg_.cache.op_deadline_us > 0.0) {
    dl = p_->now_us() + cfg_.cache.op_deadline_us;
  }
  if (dl < 0.0) return get_impl(key, value_out, meta, /*cached=*/true);
  // One budget for the whole replica walk: retries, backoffs and replica
  // fall-throughs all spend from the same deadline, so a get can never
  // stack per-replica budgets into an unbounded tail.
  win_->set_deadline_us(dl);
  try {
    const bool found = get_impl(key, value_out, meta, /*cached=*/true);
    win_->set_deadline_us(-1.0);
    return found;
  } catch (...) {
    win_->set_deadline_us(-1.0);
    throw;
  }
}

bool Store::get_uncached(std::uint64_t key, std::byte* value_out, GetMeta* meta) {
  crash_tick();
  return get_impl(key, value_out, meta, /*cached=*/false);
}

bool Store::locate_on(int server, std::uint64_t key, bool cached, Locator* loc) {
  auto& memo = loc_cache_[static_cast<std::size_t>(server)];
  const auto it = memo.find(key);
  if (it != memo.end()) {
    *loc = it->second;
    return true;
  }
  GetMeta scratch;
  SlotHit hit;
  const Lookup found = find_slot(key, [&](std::uint32_t b) -> const std::byte* {
    return read_bucket(server, b, cached, &scratch) ? bucket_buf_.data() : nullptr;
  }, &hit);
  if (found != Lookup::kFound) return false;
  loc->bucket = hit.bucket;
  loc->slot = hit.index;
  memo.emplace(key, *loc);  // placement is immutable after load
  return true;
}

bool Store::put(std::uint64_t key, std::uint32_t seq, const std::byte* value,
                std::uint32_t len, PutMeta* meta, bool use_cache) {
  CLAMPI_REQUIRE(len >= 1 && len <= cfg_.layout.value_capacity,
                 "kv: put length outside [1, value_capacity]");
  crash_tick();
  drain_hints();
  PutMeta local;
  PutMeta* m = meta ? meta : &local;
  *m = PutMeta{};
  compose_slot(key, seq, len, value, slot_buf_.data());
  const std::size_t nbytes = Layout::kSlotHeaderBytes + len;

  // The put's locate reads spend from one walk-wide deadline too; a
  // replica whose locate runs out of budget is simply skipped and hinted,
  // like any other unreachable replica.
  const double dl = cfg_.cache.op_deadline_us > 0.0
                        ? p_->now_us() + cfg_.cache.op_deadline_us
                        : -1.0;
  if (dl >= 0.0) win_->set_deadline_us(dl);

  int reps[kMaxReplicas];
  ring_.replicas(key, cfg_.replication, reps);
  for (int pos = 0; pos < cfg_.replication; ++pos) {
    const int server = reps[pos];
    try {
      Locator loc;
      const bool present = locate_on(server, key, use_cache, &loc);
      CLAMPI_REQUIRE(present, "kv: put targets a key absent from the store");
      const std::size_t disp =
          static_cast<std::size_t>(loc.bucket) * cfg_.layout.bucket_bytes() +
          cfg_.layout.slot_offset(loc.slot);
      // The put's overlap invalidation drops this rank's cached copy of the
      // bucket, so our own next read re-fetches: read-your-writes.
      win_->put(slot_buf_.data(), nbytes, server, disp);
      win_->flush(server);
      win_->record_target_outcome(server, /*success=*/true);
      // Write-ahead durability: the acknowledgement below implies the
      // record is on the replica's device, so a wiped-memory restart can
      // replay it (docs/DURABILITY.md).
      journal_write(server, key, seq, value, len);
      ++m->applied;
      m->applied_mask |= 1u << pos;
    } catch (const fault::OpFailedError&) {
      ++m->skipped;
      // Hinted handoff: remember the write this replica missed so it can
      // be replayed once the target recovers, instead of being lost until
      // the next owner-side reload.
      if (cfg_.hinted_handoff && queue_hint(server, key, seq, value, len)) {
        ++m->hinted;
      }
    }
  }
  if (dl >= 0.0) win_->set_deadline_us(-1.0);
  return m->applied > 0;
}

bool Store::read_slot_on(int server, std::uint64_t key, bool cached_locate,
                         SlotMeta* sm) {
  Locator loc;
  if (!locate_on(server, key, cached_locate, &loc)) return false;
  const std::size_t disp =
      static_cast<std::size_t>(loc.bucket) * cfg_.layout.bucket_bytes() +
      cfg_.layout.slot_offset(loc.slot);
  const std::size_t sb = cfg_.layout.slot_bytes();
  win_->get_nocache(repair_buf_.data(), sb, server, disp);
  win_->flush(server);
  win_->record_target_outcome(server, /*success=*/true);
  *sm = load_slot_meta(repair_buf_.data());
  CLAMPI_REQUIRE(sm->key == key, "kv: slot image carries the wrong key");
  CLAMPI_REQUIRE(sm->len <= cfg_.layout.value_capacity,
                 "kv: slot length exceeds value_capacity");
  return true;
}

void Store::write_slot_on(int server, std::uint64_t key, const std::byte* slot_bytes,
                          std::size_t nbytes, bool cached_locate) {
  Locator loc;
  const bool present = locate_on(server, key, cached_locate, &loc);
  CLAMPI_REQUIRE(present, "kv: repair write targets a key absent from the store");
  const std::size_t disp =
      static_cast<std::size_t>(loc.bucket) * cfg_.layout.bucket_bytes() +
      cfg_.layout.slot_offset(loc.slot);
  // Like a put, the overlap invalidation drops our own cached copy of the
  // repaired bucket, so this rank keeps read-your-repairs.
  win_->put(slot_bytes, nbytes, server, disp);
  win_->flush(server);
  win_->record_target_outcome(server, /*success=*/true);
  // Repair writes (hints, read-repair, anti-entropy) are durable like
  // puts: without journaling them, a crash after convergence could lose
  // writes the original put had already handed off.
  const SlotMeta sm = load_slot_meta(slot_bytes);
  journal_write(server, key, sm.seq, slot_bytes + Layout::kSlotHeaderBytes, sm.len);
}

bool Store::queue_hint(int server, std::uint64_t key, std::uint32_t seq,
                       const std::byte* value, std::uint32_t len) {
  auto& q = hints_[static_cast<std::size_t>(server)];
  auto it = q.find(key);
  if (it == q.end()) {
    if (q.size() >= cfg_.hint_queue_cap) {
      ++counters_.hints_dropped;
      return false;
    }
    it = q.emplace(key, Hint{}).first;
  } else if (seq <= it->second.seq) {
    return false;  // an equal-or-newer hint for this key is already queued
  }
  it->second.seq = seq;
  it->second.len = len;
  it->second.value.assign(value, value + len);
  ++counters_.hints_queued;
  return true;
}

std::size_t Store::hints_pending() const {
  std::size_t n = 0;
  for (const auto& q : hints_) n += q.size();
  return n;
}

void Store::drain_hints() {
  if (!cfg_.hinted_handoff) return;
  // Hint replay is background-tier work: under overload it stands down
  // entirely so foreground gets keep their deadline budgets. The hints
  // stay queued; the drain re-arms once the shedder admits fully again.
  if (win_->shed_background()) return;
  for (int s = 0; s < cfg_.nservers; ++s) {
    auto& q = hints_[static_cast<std::size_t>(s)];
    if (q.empty()) continue;
    bool ready = drain_ready_[static_cast<std::size_t>(s)] != 0;
    if (!ready) {
      // No recovery callback arrived (detector off, or the failures never
      // tripped it): fall back to polling reachability. Quarantined,
      // dead or partitioned-away targets are skipped so a drain attempt
      // never burns failed ops against a target known to be down.
      const TargetStatus ts = win_->target_status(s);
      ready = ts.usable && ts.state == HealthState::kHealthy;
    }
    if (!ready) continue;
    drain_ready_[static_cast<std::size_t>(s)] = 0;
    drain_hints_for(s);
  }
}

void Store::drain_hints_for(int server) {
  auto& q = hints_[static_cast<std::size_t>(server)];
  for (auto it = q.begin(); it != q.end();) {
    const std::uint64_t key = it->first;
    const Hint& h = it->second;
    try {
      SlotMeta cur;
      const bool present =
          read_slot_on(server, key, /*cached_locate=*/false, &cur);
      CLAMPI_REQUIRE(present, "kv: hint targets a key absent from the store");
      if (cur.seq < h.seq) {
        // The replica still misses this write: replay it. Reconciliation
        // is always to the highest seq, so a replica that caught up
        // another way (anti-entropy, read-repair, a newer put) retires
        // the hint without a write — and a drain can never regress a seq.
        compose_slot(key, h.seq, h.len, h.value.data(), repair_slot_.data());
        write_slot_on(server, key, repair_slot_.data(),
                      Layout::kSlotHeaderBytes + h.len, /*cached_locate=*/false);
      }
      ++counters_.hints_drained;
      it = q.erase(it);
    } catch (const fault::OpFailedError&) {
      // The target went unreachable again mid-drain: keep the remaining
      // hints; the next recovery re-arms the drain.
      return;
    }
  }
}

void Store::read_repair(std::uint64_t key, int served_pos, const int* reps,
                        std::byte* value_out, GetMeta* m) {
  std::uint32_t seqs[kMaxReplicas];
  bool have[kMaxReplicas] = {};
  seqs[served_pos] = m->seq;
  have[served_pos] = true;
  std::uint32_t fresh_seq = m->seq;
  std::uint32_t fresh_len = m->len;
  int fresh_pos = served_pos;
  for (int pos = 0; pos < cfg_.replication; ++pos) {
    if (pos == served_pos) continue;
    SlotMeta sm;
    try {
      if (!read_slot_on(reps[pos], key, /*cached_locate=*/true, &sm)) continue;
    } catch (const fault::OpFailedError&) {
      continue;  // unreachable: hinted handoff / anti-entropy cover it later
    }
    have[pos] = true;
    seqs[pos] = sm.seq;
    if (sm.seq > fresh_seq) {
      fresh_seq = sm.seq;
      fresh_len = sm.len;
      fresh_pos = pos;
      // Keep the freshest raw image; later read_slot_on calls clobber
      // repair_buf_ but only a fresher replica overwrites this copy.
      std::memcpy(repair_slot_.data(), repair_buf_.data(),
                  Layout::kSlotHeaderBytes + sm.len);
    }
  }
  if (fresh_pos == served_pos) {
    if (fresh_seq == seqs[served_pos] &&
        std::count(have, have + cfg_.replication, true) == cfg_.replication) {
      bool all_caught_up = true;
      for (int pos = 0; pos < cfg_.replication; ++pos) {
        all_caught_up = all_caught_up && seqs[pos] >= fresh_seq;
      }
      if (all_caught_up) return;  // nothing to repair, nothing to compose
    }
    compose_slot(key, fresh_seq, fresh_len, value_out, repair_slot_.data());
  }
  const std::size_t nbytes = Layout::kSlotHeaderBytes + fresh_len;
  bool served_caught_up = seqs[served_pos] >= fresh_seq;
  for (int pos = 0; pos < cfg_.replication; ++pos) {
    if (!have[pos] || seqs[pos] >= fresh_seq) continue;
    try {
      write_slot_on(reps[pos], key, repair_slot_.data(), nbytes,
                    /*cached_locate=*/true);
    } catch (const fault::OpFailedError&) {
      continue;  // went unreachable mid-repair; the background scan retries
    }
    ++m->read_repairs;
    ++counters_.read_repairs;
    if (pos == served_pos) served_caught_up = true;
  }
  // Serve the freshest value only if the serving replica now carries it:
  // otherwise a later read of that replica would look like a seq
  // regression to the workload's shadow model.
  if (fresh_pos != served_pos && served_caught_up) {
    std::memcpy(value_out, repair_slot_.data() + Layout::kSlotHeaderBytes,
                fresh_len);
    m->seq = fresh_seq;
    m->len = fresh_len;
  }
}

std::uint64_t Store::anti_entropy_step(std::uint64_t max_keys) {
  crash_tick();
  drain_hints();
  if (max_keys == 0) max_keys = cfg_.antientropy_keys_per_epoch;
  if (max_keys == 0 || cfg_.replication <= 1) return 0;
  // Lowest-priority tier: the scan skips its whole budget while the
  // shedder is below full admission (divergence waits; deadlines do not).
  if (win_->shed_background()) return 0;
  std::uint64_t repairs = 0;
  const std::uint64_t budget = std::min<std::uint64_t>(max_keys, cfg_.nkeys);
  int reps[kMaxReplicas];
  for (std::uint64_t i = 0; i < budget; ++i) {
    const std::uint64_t key = key_at(ae_cursor_);
    ae_cursor_ = (ae_cursor_ + 1) % cfg_.nkeys;
    ring_.replicas(key, cfg_.replication, reps);
    std::uint32_t seqs[kMaxReplicas];
    bool have[kMaxReplicas] = {};
    std::uint32_t fresh_seq = 0;
    std::uint32_t fresh_len = 0;
    int fresh_pos = -1;
    for (int pos = 0; pos < cfg_.replication; ++pos) {
      SlotMeta sm;
      try {
        if (!read_slot_on(reps[pos], key, /*cached_locate=*/false, &sm)) continue;
      } catch (const fault::OpFailedError&) {
        continue;  // unreachable replicas reconverge after they heal
      }
      have[pos] = true;
      seqs[pos] = sm.seq;
      if (fresh_pos < 0 || sm.seq > fresh_seq) {
        fresh_seq = sm.seq;
        fresh_len = sm.len;
        fresh_pos = pos;
        std::memcpy(repair_slot_.data(), repair_buf_.data(),
                    Layout::kSlotHeaderBytes + sm.len);
      }
    }
    if (fresh_pos < 0) continue;
    const std::size_t nbytes = Layout::kSlotHeaderBytes + fresh_len;
    for (int pos = 0; pos < cfg_.replication; ++pos) {
      if (!have[pos] || seqs[pos] >= fresh_seq) continue;
      try {
        write_slot_on(reps[pos], key, repair_slot_.data(), nbytes,
                      /*cached_locate=*/false);
      } catch (const fault::OpFailedError&) {
        continue;
      }
      ++repairs;
      ++counters_.antientropy_repairs;
    }
  }
  return repairs;
}

Store::ConvergenceReport Store::verify_convergence() {
  ConvergenceReport r;
  int reps[kMaxReplicas];
  std::vector<std::byte> ref(cfg_.layout.slot_bytes());
  for (std::uint64_t i = 0; i < cfg_.nkeys; ++i) {
    const std::uint64_t key = key_at(i);
    ring_.replicas(key, cfg_.replication, reps);
    ++r.keys_checked;
    bool first = true;
    bool divergent = false;
    bool unreachable = false;
    SlotMeta rm{};
    std::uint32_t minseq = 0;
    std::uint32_t maxseq = 0;
    for (int pos = 0; pos < cfg_.replication; ++pos) {
      SlotMeta sm;
      try {
        const bool present =
            read_slot_on(reps[pos], key, /*cached_locate=*/false, &sm);
        CLAMPI_REQUIRE(present, "kv: a replica lost a loaded key");
      } catch (const fault::OpFailedError&) {
        unreachable = true;
        continue;
      }
      if (first) {
        rm = sm;
        minseq = maxseq = sm.seq;
        std::memcpy(ref.data(), repair_buf_.data(), cfg_.layout.slot_bytes());
        first = false;
        continue;
      }
      minseq = std::min(minseq, sm.seq);
      maxseq = std::max(maxseq, sm.seq);
      if (sm.seq != rm.seq || sm.len != rm.len ||
          std::memcmp(repair_buf_.data() + Layout::kSlotHeaderBytes,
                      ref.data() + Layout::kSlotHeaderBytes, rm.len) != 0) {
        divergent = true;
      }
    }
    if (unreachable) ++r.keys_unreachable;
    if (divergent) {
      ++r.keys_divergent;
      r.max_seq_spread =
          std::max<std::uint64_t>(r.max_seq_spread, maxseq - minseq);
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// Crash-restart durability (docs/DURABILITY.md)
// ---------------------------------------------------------------------------

Device* Store::device(int server) const {
  if (cfg_.devices == nullptr) return nullptr;
  if (server < 0 || server >= cfg_.nservers) return nullptr;
  return &cfg_.devices->per_rank[static_cast<std::size_t>(server)];
}

void Store::journal_write(int server, std::uint64_t key, std::uint32_t seq,
                          const std::byte* value, std::uint32_t len) {
  Device* d = device(server);
  if (d == nullptr) return;
  const Journal::AppendResult r = d->journal.append(key, seq, value, len);
  ++counters_.journal_appends;
  // Group commit amortizes the sync: every group_commit_n-th append pays
  // the full sync latency, the rest the cheap buffered append. Charged on
  // the writing client's clock — the baton serializes device access, so
  // the charge is equivalent to the server charging it before the ack.
  double cost = r.synced ? cfg_.journal_sync_us : cfg_.journal_append_us;
  if (r.compacted) cost += cfg_.snapshot_us;
  if (cost > 0.0) p_->compute_us(cost);
}

std::byte* Store::local_slot(std::uint64_t key) {
  std::uint32_t b = bucket_index(key);
  std::size_t hops = 0;
  for (;;) {
    std::byte* bk = shard_bucket(b);
    const BucketHeader h = load_header(bk);
    if (h.count > cfg_.layout.slots_per_bucket) return nullptr;
    for (std::uint32_t s = 0; s < h.count; ++s) {
      std::byte* slot = bk + cfg_.layout.slot_offset(s);
      if (load_slot_meta(slot).key == key) return slot;
    }
    if (h.chain == kNoBucket || h.chain >= nbuckets_) return nullptr;
    if (++hops > nbuckets_) return nullptr;
    b = h.chain;
  }
}

void Store::wipe_volatile() {
  win_->reset_after_crash();
  // Hint queues are host memory like the cache: a reboot loses them (the
  // writes they buffered stay recoverable via anti-entropy).
  for (auto& q : hints_) q.clear();
  std::fill(drain_ready_.begin(), drain_ready_.end(), 0);
  if (!lat_est_.empty()) {
    lat_est_.clear();
    for (int s = 0; s < cfg_.nservers; ++s) {
      lat_est_.emplace_back(cfg_.hedge_quantile, cfg_.hedge_window_us);
    }
    hedge_backup_ = -1;
  }
}

void Store::crash_tick() {
  const int due = p_->crash_restarts_due(p_->rank());
  if (due <= crashes_handled_) {
    if (is_server()) maybe_snapshot();
    return;
  }
  // A later crash's outage may already cover `now` again; recovery then
  // waits for that epoch's restart instant.
  const fault::Injector* inj = p_->fault_injector();
  if (inj != nullptr && inj->dead(p_->rank(), p_->now_us())) return;
  if (is_server()) {
    recover_server(due);
    return;
  }
  // Clients have no shard to rebuild: the reboot costs them their
  // volatile state (cache, health history, tail-latency estimators).
  p_->begin_crash_recovery();
  wipe_volatile();
  p_->end_crash_recovery();
  crashes_handled_ = due;
}

void Store::recover_server(int due) {
  const int rank = p_->rank();
  // RECOVERING: ops against this rank fast-fail from here to the end of
  // the protocol; the call also applies the runtime wipe (zeroed shard,
  // dead in-flight ops) if no lazy wipe beat us to it.
  p_->begin_crash_recovery();
  Device* dev = device(rank);
  const fault::Injector* inj = p_->fault_injector();
  if (dev != nullptr && inj != nullptr) {
    // The persistence faults of every unprocessed crash hit the device
    // now, before replay reads it — they model what the crash instants
    // left on the platter (torn in-flight write, cold-sector bit rot).
    for (int idx = crashes_handled_; idx < due; ++idx) {
      if (inj->torn_write(rank, idx)) {
        const std::uint64_t gseed = util::mix64(
            inj->plan().seed ^ (static_cast<std::uint64_t>(rank) << 32) ^
            static_cast<std::uint64_t>(idx));
        dev->journal.tear(inj->torn_garbage_len(rank, idx), gseed);
      }
      fault::Corruptor rot = inj->journal_corruptor(rank, idx);
      rot.apply(dev->journal.data(), dev->journal.bytes());
    }
  }
  wipe_volatile();

  // Restore the shard: latest checksum-valid snapshot, else the
  // deterministic initial population (the journaling-off control loses
  // every acknowledged write here).
  bool from_snapshot = false;
  if (dev != nullptr) {
    const std::vector<std::byte>* img = dev->snapshots.latest_valid();
    if (img != nullptr && img->size() == shard_bytes_) {
      std::memcpy(base_, img->data(), shard_bytes_);
      ++counters_.snapshot_loads;
      from_snapshot = true;
    }
  }
  if (!from_snapshot) {
    keys_loaded_ = 0;
    load_shard();
  } else if (generation_ > 1) {
    // A reload may have advanced the generation since the snapshot was
    // taken; restamp so restored buckets pass the generation check.
    for (std::uint32_t b = 0; b < nbuckets_; ++b) {
      BucketHeader h = load_header(shard_bucket(b));
      h.generation = generation_;
      store_header(shard_bucket(b), h);
    }
  }

  // Replay the journal: checksum-verified records apply newest-seq-wins;
  // failed checksums are dropped (counted) and their keys remembered for
  // the peer pull below. The scan resynchronizes past rotted spans —
  // only a tail with no valid record left behind it is torn.
  std::vector<std::uint64_t> suspects;
  if (dev != nullptr) {
    const Journal::ScanResult rep = dev->journal.scan(cfg_.layout.value_capacity);
    for (const Journal::Record& rec : rep.applied) {
      std::byte* slot = local_slot(rec.key);
      if (slot == nullptr) continue;
      const SlotMeta cur = load_slot_meta(slot);
      if (rec.seq <= cur.seq) continue;  // snapshot already carries it
      compose_slot(rec.key, rec.seq, rec.len, rec.value, slot);
      ++counters_.journal_replayed;
    }
    counters_.torn_records_dropped += rep.dropped;
    suspects = rep.suspect_keys;
    const double replay_cost =
        cfg_.journal_append_us *
        static_cast<double>(rep.applied.size() + rep.dropped);
    if (replay_cost > 0.0) p_->compute_us(replay_cost);
  }

  // Close the gaps the checksums opened: pull each rejected record's key
  // from live peer replicas and keep the freshest image. Keys parsed out
  // of desynced garbage locate no slot and are skipped. Needs
  // replication >= 2 to ever find a peer.
  if (!suspects.empty() && cfg_.replication > 1) {
    std::sort(suspects.begin(), suspects.end());
    suspects.erase(std::unique(suspects.begin(), suspects.end()), suspects.end());
    int reps[kMaxReplicas];
    for (const std::uint64_t key : suspects) {
      std::byte* slot = local_slot(key);
      if (slot == nullptr) continue;
      std::uint32_t best_seq = load_slot_meta(slot).seq;
      bool found = false;
      ring_.replicas(key, cfg_.replication, reps);
      for (int pos = 0; pos < cfg_.replication; ++pos) {
        if (reps[pos] == rank) continue;
        SlotMeta sm;
        try {
          if (!read_slot_on(reps[pos], key, /*cached_locate=*/false, &sm)) continue;
        } catch (const fault::OpFailedError&) {
          continue;  // peer down or recovering itself: anti-entropy later
        }
        if (sm.seq > best_seq) {
          best_seq = sm.seq;
          std::memcpy(repair_slot_.data(), repair_buf_.data(),
                      Layout::kSlotHeaderBytes + sm.len);
          found = true;
        }
      }
      if (found) {
        const SlotMeta fm = load_slot_meta(repair_slot_.data());
        std::memcpy(slot, repair_slot_.data(), Layout::kSlotHeaderBytes + fm.len);
        ++counters_.recovery_repairs;
      }
    }
  }

  // Seal recovery with a fresh snapshot: the journal's records are now in
  // the image (or beyond repair), so the journal restarts empty.
  if (dev != nullptr) {
    dev->snapshots.save(base_, shard_bytes_, ++snap_stamp_);
    dev->journal.truncate();
    if (cfg_.snapshot_us > 0.0) p_->compute_us(cfg_.snapshot_us);
    last_snapshot_us_ = p_->now_us();
  }
  crashes_handled_ = due;
  p_->end_crash_recovery();
}

void Store::maybe_snapshot() {
  Device* dev = device(p_->rank());
  if (dev == nullptr || cfg_.snapshot_every_us <= 0.0) return;
  const double now = p_->now_us();
  if (now - last_snapshot_us_ < cfg_.snapshot_every_us) return;
  dev->snapshots.save(base_, shard_bytes_, ++snap_stamp_);
  dev->journal.truncate();
  if (cfg_.snapshot_us > 0.0) p_->compute_us(cfg_.snapshot_us);
  last_snapshot_us_ = now;
}

void Store::invalidate_cache() { win_->invalidate(); }

void Store::reload(std::uint64_t generation, bool invalidate_caches) {
  CLAMPI_REQUIRE(generation > generation_, "kv: reload generation must increase");
  p_->barrier();  // writers must not run while readers hold epochs open
  if (is_server()) {
    const std::uint32_t seq = static_cast<std::uint32_t>(generation - 1);
    for (std::uint32_t b = 0; b < nbuckets_; ++b) {
      std::byte* bk = shard_bucket(b);
      BucketHeader h = load_header(bk);
      for (std::uint32_t s = 0; s < h.count; ++s) {
        std::byte* slot = bk + cfg_.layout.slot_offset(s);
        SlotMeta sm = load_slot_meta(slot);
        sm.seq = seq;
        store_slot_meta(slot, sm);
        fill_value(sm.key, sm.seq, sm.len, slot + Layout::kSlotHeaderBytes);
      }
      h.generation = generation;
      store_header(bk, h);
    }
  }
  p_->barrier();
  generation_ = generation;
  // Listing 1: writes landed, drop everything cached. A rank that skips
  // this is still safe — its stale-generation buckets trigger uncached
  // re-reads — just slower.
  if (invalidate_caches) win_->invalidate();
}

}  // namespace clampi::kv
