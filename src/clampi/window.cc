#include "clampi/window.h"

#include <algorithm>
#include <cstring>

#include "clampi/trace.h"
#include "fault/injector.h"

namespace clampi {

namespace {

HealthMonitor::Config health_config(const Config& cfg) {
  HealthMonitor::Config hc;
  hc.failure_threshold = cfg.health_failure_threshold;
  hc.window_us = cfg.health_window_us;
  hc.ewma_alpha = cfg.health_ewma_alpha;
  hc.ewma_halflife_us = cfg.health_ewma_halflife_us;
  hc.suspect_threshold = cfg.health_suspect_threshold;
  hc.quarantine_dwell_us = cfg.health_quarantine_dwell_us;
  hc.probe_successes = cfg.health_probe_successes;
  return hc;
}

LoadShedder::Config shed_config(const Config& cfg) {
  LoadShedder::Config sc;
  sc.window_us = cfg.shed_window_us;
  sc.miss_ratio = cfg.shed_miss_ratio;
  sc.decrease_factor = cfg.shed_decrease_factor;
  sc.increase = cfg.shed_increase;
  sc.min_admit = cfg.shed_min_admit;
  return sc;
}

}  // namespace

CachedWindow::CachedWindow(rmasim::Process& p, rmasim::Window win, const Config& cfg)
    : p_(&p),
      win_(win),
      comm_(p.win_comm(win)),
      cfg_(cfg),
      core_(std::make_unique<CacheCore>(cfg)),
      tuner_(cfg),
      retry_rng_(cfg.seed ^ 0x7e7a11edbac0ffull),
      health_(health_config(cfg)) {
  if (cfg_.load_shedding) shedder_ = std::make_unique<LoadShedder>(shed_config(cfg_));
}

CachedWindow CachedWindow::allocate(rmasim::Process& p, std::size_t bytes, void** base,
                                    const Config& cfg) {
  const rmasim::Window w = p.win_allocate(bytes, base);
  return CachedWindow(p, w, cfg);
}

CachedWindow CachedWindow::create(rmasim::Process& p, void* base, std::size_t bytes,
                                  const Config& cfg) {
  const rmasim::Window w = p.win_create(base, bytes);
  return CachedWindow(p, w, cfg);
}

void CachedWindow::free_window() { p_->win_free(win_); }

void CachedWindow::serve_cached(void* origin, std::uint32_t entry, std::size_t bytes) {
  const double t0 = cfg_.collect_phase_timings ? phase_clock_ns() : 0.0;
  std::memcpy(origin, core_->entry_data(entry), bytes);
  p_->charge_local_copy(bytes);
  if (cfg_.collect_phase_timings) last_phases_.copy_ns += phase_clock_ns() - t0;
}

// The callable is a template parameter, not a std::function: fetch_payload's
// lambdas capture more than libstdc++'s small buffer holds, so a
// std::function would heap-allocate on every miss.
template <class IssueFn>
void CachedWindow::issue_resilient(int target, std::size_t disp, std::size_t bytes,
                                   IssueFn&& issue_fn) {
  // Quarantined targets fast-fail before touching the network: no retries,
  // no backoff burned. PROBING lets ops through half-open; enough
  // consecutive successes reclose the target to HEALTHY. Placed here (not
  // at the top of get()) so pure cache hits on a down target still serve.
  if (health_.enabled() && health_.state(target) == HealthState::kQuarantined) {
    ++core_->mutable_stats().fast_fails;
    health_.note_fast_fail(target);
    fail_get(fault::FailureKind::kQuarantined, target, disp, bytes);
  }
  // A walk-wide deadline (kv replica fall-through) may already be spent
  // before this target's first attempt: miss without touching the network.
  if (deadline_abs_ >= 0.0 && p_->now_us() >= deadline_abs_) {
    ++core_->mutable_stats().deadline_misses;
    if (shedder_ != nullptr) shedder_->on_deadline_miss(p_->now_us());
    fail_get(fault::FailureKind::kDeadline, target, disp, bytes);
  }
  int attempt = 0;
  for (;;) {
    try {
      issue_fn();
      health_record(target, /*success=*/true, /*fatal=*/false);
      return;
    } catch (const fault::OpFailedError& err) {
      Stats& st = core_->mutable_stats();
      ++st.injected_faults;
      if (fault_trace_ != nullptr) fault_trace_->add_fault(target, disp, bytes);
      // Rank death and partitions persist until external state changes:
      // quarantine immediately rather than accumulating suspicion.
      health_record(target, /*success=*/false,
                    /*fatal=*/err.failure() != fault::FailureKind::kTransient);
      if (!err.recoverable() || attempt >= cfg_.max_retries) {
        // Give-ups only count when a retry policy was actually in play
        // and could not help (transient fault, retries exhausted).
        if (cfg_.max_retries > 0 && err.recoverable()) ++st.retry_giveups;
        throw;
      }
      if (health_.enabled() && health_.state(target) == HealthState::kQuarantined) {
        // This failure tipped the target into quarantine: stop burning
        // retries on it now, future gets fast-fail until the re-probe.
        throw;
      }
      double backoff = cfg_.retry_backoff_us;
      for (int i = 0; i < attempt; ++i) backoff *= cfg_.retry_backoff_factor;
      if (cfg_.retry_jitter > 0.0) {
        backoff *= 1.0 + cfg_.retry_jitter * (2.0 * retry_rng_.uniform() - 1.0);
      }
      // Deadline budget (docs/FAULTS.md §8): checked *before* the backoff
      // is charged, so an op never overshoots its deadline by more than
      // the one network attempt already in flight. Cached hits never reach
      // this loop and keep serving under an expired budget — the "best
      // degraded outcome" the deadline contract promises.
      if (deadline_abs_ >= 0.0 && p_->now_us() + backoff > deadline_abs_) {
        ++st.deadline_misses;
        if (shedder_ != nullptr) shedder_->on_deadline_miss(p_->now_us());
        fail_get(fault::FailureKind::kDeadline, target, disp, bytes);
      }
      // The retry budget is per target per epoch: a dead target exhausting
      // its pool cannot starve retries for a healthy one.
      double& pool = health_.epoch_backoff_us(target);
      if (cfg_.epoch_retry_budget_us > 0.0 &&
          pool + backoff > cfg_.epoch_retry_budget_us) {
        ++st.retry_giveups;
        throw;
      }
      pool += backoff;
      ++attempt;
      ++st.retries;
      if (fault_trace_ != nullptr) {
        fault_trace_->add_retry(target, static_cast<std::uint64_t>(attempt),
                                static_cast<std::uint64_t>(backoff * 1e3));
      }
      p_->compute_us(backoff);  // the wait is real virtual time
    }
  }
}

void CachedWindow::fetch_payload(void* origin, std::size_t head, std::size_t bytes,
                                 int target, std::size_t disp, Typed typed) {
  auto* dst = static_cast<std::byte*>(origin) + head;
  const std::size_t n = bytes - head;
  if (typed.dtype == nullptr) {
    // Dense payload: exactly one Process::get, as MPI_Get of bytes.
    issue_resilient(target, disp + head, n,
                    [&] { p_->get(dst, n, target, disp + head, win_); });
    return;
  }
  // Strided payload: the flattened blocks of the elements from `head` on
  // (head covers whole elements), gathered packed after the head.
  const std::size_t tail_start = head / typed.dtype->size() * typed.dtype->extent();
  std::vector<rmasim::Process::Block> blocks;
  for (const auto& b : typed.dtype->flatten(typed.count)) {
    if (b.offset + b.size <= tail_start) continue;
    const std::size_t off = std::max(b.offset, tail_start);
    blocks.push_back({off, b.size - (off - b.offset)});
  }
  issue_resilient(target, disp, n, [&] {
    p_->get_blocks(dst, target, disp, blocks.data(), blocks.size(), win_);
  });
}

void CachedWindow::begin_op_deadline() {
  if (extern_deadline_us_ >= 0.0) {
    deadline_abs_ = extern_deadline_us_;
  } else if (cfg_.op_deadline_us > 0.0) {
    deadline_abs_ = p_->now_us() + cfg_.op_deadline_us;
  } else {
    deadline_abs_ = -1.0;
  }
}

void CachedWindow::shed_admission(int target, std::size_t disp, std::size_t bytes) {
  if (shedder_ == nullptr || shedder_->admit(p_->now_us())) return;
  ++core_->mutable_stats().ops_shed;
  fail_get(fault::FailureKind::kShed, target, disp, bytes);
}

void CachedWindow::fail_get(fault::FailureKind kind, int target, std::size_t disp,
                            std::size_t bytes) {
  fault::OpDesc desc;
  desc.kind = fault::OpKind::kGet;
  desc.origin = p_->rank();
  desc.target = p_->comm_world_rank(comm_, target);
  desc.disp = disp;
  desc.bytes = bytes;
  desc.time_us = p_->now_us();
  throw fault::OpFailedError(kind, desc);
}

void CachedWindow::abandon_target(int target) {
  p_->discard_pending(target, win_);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i].target != target) pending_[kept++] = pending_[i];
  }
  pending_.resize(kept);
  core_->drop_pending(target);
}

bool CachedWindow::target_down(int target) const {
  if (health_.state(target) == HealthState::kQuarantined) return true;
  const fault::Injector* inj = p_->fault_injector();
  if (inj == nullptr) return false;
  const int wt = p_->comm_world_rank(comm_, target);
  const double now = p_->now_us();
  return inj->dead(wt, now) || inj->degraded(wt, now) ||
         inj->partitioned(p_->rank(), wt, now) || p_->crash_recovering(wt);
}

void CachedWindow::crash_epoch_check(int target) {
  if (p_->fault_injector() == nullptr) return;  // no injector, no crashes
  const int wt = p_->comm_world_rank(comm_, target);
  const int due = p_->crash_restarts_due(wt);
  if (due == 0) return;  // the no-crash common case
  if (crash_restarts_seen_.empty()) {
    crash_restarts_seen_.assign(static_cast<std::size_t>(p_->comm_size(comm_)), 0);
  }
  int& seen = crash_restarts_seen_[static_cast<std::size_t>(target)];
  if (due <= seen) return;
  // Sweep the target's CACHED entries: all of them predate the wipe.
  // Retained degraded survivors are not spared — "last known good" means
  // nothing across a memory-wiping restart (unlike a death/revival, which
  // leaves the window bytes intact).
  Stats& st = core_->mutable_stats();
  const std::size_t slots = core_->entry_slots();
  for (std::uint32_t id = 0; id < slots; ++id) {
    if (!core_->entry_live(id) || core_->entry_pending(id)) continue;
    if (core_->entry_key(id).target != target) continue;
    core_->quarantine(id);
    ++st.crash_invalidations;
  }
  // Entries a still-pending op commits later also predate the wipe, so
  // the restart is only acknowledged once nothing for this target is in
  // flight; until then every access re-sweeps (see window.h).
  for (const PendingOp& op : pending_) {
    if (op.target == target) return;
  }
  seen = due;
}

bool CachedWindow::try_degraded_read(void* origin, std::size_t bytes, int target,
                                     std::size_t disp, std::uint64_t sig) {
  last_degraded_ = false;
  const bool degraded_on = cfg_.degraded_reads;
  // Legacy cache-fallback is unbounded, so it stays opt-in and excluded
  // from transparent mode (whose contract is epoch freshness). Degraded
  // reads are allowed in any mode because their staleness is bounded.
  const bool legacy_on = cfg_.cache_fallback && cfg_.mode != Mode::kTransparent;
  if (!degraded_on && !legacy_on) return false;
  const std::uint32_t id =
      core_->find_cached(Key{target, static_cast<std::uint64_t>(disp)});
  if (id == kNoEntry) return false;
  // A transparent-mode entry retained across an epoch boundary for a down
  // target (its stamp predates the current epoch) is only ever servable
  // through this bounded path. If it no longer qualifies — the target
  // recovered, or the payload outlived its staleness bound — it must be
  // dropped here, or the ordinary hit path in access() would serve it
  // without any bound at all.
  const bool survivor = degraded_on && cfg_.mode == Mode::kTransparent &&
                        core_->entry_stamp(id) < epoch_open_us_;
  Stats& st = core_->mutable_stats();
  if (!target_down(target)) {
    if (survivor) {
      // The target is reachable again: an honest miss re-fetches fresh data.
      core_->quarantine(id);
      ++st.degraded_expired;
    }
    return false;
  }
  if (core_->entry_bytes(id) < bytes) return false;
  if (core_->entry_signature(id) != sig) return false;  // layout must match
  if (!core_->entry_checksum_ok(id)) {
    // Bit rot does not spare a down target's retained entries, and the hit
    // path's sampled verification never sees this entry (it serves here,
    // outside access()). A corrupt "last known good" value is worse than
    // failing honestly, so drop it and let the miss path surface the
    // target's failure.
    core_->quarantine(id);
    ++st.corruption_detected;
    ++st.degraded_corrupt_drops;
    if (fault_trace_ != nullptr) fault_trace_->add_corruption(target, disp, bytes);
    return false;
  }
  if (degraded_on) {
    const double age = p_->now_us() - core_->entry_stamp(id);
    if (cfg_.degraded_max_staleness_us <= 0.0 ||
        age <= cfg_.degraded_max_staleness_us) {
      serve_cached(origin, id, bytes);
      ++st.degraded_hits;
      health_.note_degraded_hit(target);
      // Deliberately not counted as a total_get: degraded serves happen
      // outside access() and must not skew the adaptive tuner's ratios.
      st.bytes_from_cache += bytes;
      last_access_ = AccessType::kHit;
      last_degraded_ = true;
      last_degraded_age_us_ = age;
      return true;
    }
    if (survivor) {
      core_->quarantine(id);
      ++st.degraded_expired;
      return false;  // the miss path surfaces the target's failure honestly
    }
  }
  if (legacy_on) {
    serve_cached(origin, id, bytes);
    ++st.fallback_hits;
    st.bytes_from_cache += bytes;
    last_access_ = AccessType::kHit;
    return true;
  }
  return false;
}

TargetStatus CachedWindow::target_status(int target) const {
  const double now = p_->now_us();
  TargetStatus ts = health_.status(target, now);
  const fault::Injector* inj = p_->fault_injector();
  if (inj != nullptr) {
    const int wt = p_->comm_world_rank(comm_, target);
    ts.dead = inj->dead(wt, now);
    ts.partitioned = inj->partitioned(p_->rank(), wt, now);
    ts.slow = inj->slow(wt, now);
    ts.recovering = p_->crash_recovering(wt);
  }
  ts.usable = !ts.dead && !ts.partitioned && !ts.recovering &&
              ts.state != HealthState::kQuarantined;
  return ts;
}

void CachedWindow::reset_after_crash() {
  // The engine's wipe already discarded this rank's in-flight
  // completions, so the registered copy-ins/outs will never fire.
  pending_.clear();
  core_->invalidate();
  ++epoch_;
  epoch_open_us_ = p_->now_us();
  health_ = HealthMonitor(health_config(cfg_));
  if (shedder_ != nullptr) shedder_ = std::make_unique<LoadShedder>(shed_config(cfg_));
  extern_deadline_us_ = -1.0;
  deadline_abs_ = -1.0;
}

void CachedWindow::health_record(int target, bool success, bool fatal) {
  if (success) {
    // SLOW observation (docs/FAULTS.md §8): the op completed while a
    // straggler epoch covered the target. Counted before the enabled()
    // gate so the stats work with the detector off, and fed to the
    // monitor as a pure counter — slowness alone must never quarantine.
    const fault::Injector* inj = p_->fault_injector();
    if (inj != nullptr &&
        inj->slow(p_->comm_world_rank(comm_, target), p_->now_us())) {
      ++core_->mutable_stats().slow_observations;
      health_.record_slow(target);
    }
  }
  if (!health_.enabled()) return;
  const double now = p_->now_us();
  const HealthState before = health_.state(target);
  const HealthState after = success ? health_.record_success(target, now)
                                    : health_.record_failure(target, now, fatal);
  if (after != before) health_note(target, after);
}

void CachedWindow::health_note(int target, HealthState after) {
  Stats& st = core_->mutable_stats();
  switch (after) {
    case HealthState::kSuspect: ++st.health_suspects; break;
    case HealthState::kQuarantined: ++st.health_quarantines; break;
    case HealthState::kProbing: ++st.health_probes; break;
    case HealthState::kHealthy: ++st.health_recoveries; break;
  }
  if (fault_trace_ != nullptr) {
    fault_trace_->add_health(target, static_cast<int>(after));
  }
  // Recovery callbacks (docs/KV.md "Repair & convergence"): the KV layer
  // taps PROBING -> HEALTHY edges to schedule hinted-handoff drains. The
  // observer may be invoked mid-operation, so it must only record state
  // (no re-entrant window calls).
  if (health_observer_) health_observer_(target, after);
}

void CachedWindow::health_epoch_close() {
  health_transitions_.clear();
  // Only a quarantined target's dwell check reads the time.
  health_.on_epoch_close(health_.any_quarantined() ? p_->now_us() : 0.0,
                         &health_transitions_);
  for (const auto& [target, state] : health_transitions_) {
    health_note(target, state);
  }
}

void CachedWindow::rollback_failed(const CacheCore::Result& res,
                                   std::size_t pending_mark) {
  pending_.resize(pending_mark);
  if (res.entry == kNoEntry) return;
  if (res.inserted) {
    // The entry is waiting for data that will never arrive.
    core_->drop_failed(res.entry);
  } else if (res.extended) {
    // A pre-existing entry grew for this access; earlier gets in the
    // epoch may already hold copy-in/copy-out registrations against it,
    // so dropping it would leave them dangling (chaos_fuzz seed 89).
    // Shrink it back instead — its previously cached prefix is intact.
    core_->revert_extension(res);
  }
}

bool CachedWindow::handle_result(const CacheCore::Result& res, void* origin,
                                 std::size_t bytes, int target, std::size_t disp,
                                 Typed typed) {
  last_access_ = res.type;
  // A cached prefix of the packed payload is reusable only if the same
  // element layout produced it and it covers whole elements. An untyped
  // get is signature 0 and matches only untyped entries. An extension has
  // already given the entry the requester's signature, so its prefix is
  // checked against the signature it was packed under.
  const std::uint64_t sig = typed.dtype == nullptr ? 0 : typed.dtype->signature();
  const bool layout_ok =
      res.entry == kNoEntry ||
      (res.extended ? res.prev_sig : core_->entry_signature(res.entry)) == sig;
  switch (res.type) {
    case AccessType::kHit:
      if (!layout_ok) break;
      serve_cached(origin, res.entry, bytes);
      return true;  // no network, no flush dependency
    case AccessType::kHitPending:
      if (!layout_ok) break;
      pending_.push_back({PendingOp::Kind::kCopyOut, res.entry, target,
                          static_cast<std::byte*>(origin), 0, bytes, 0.0});
      return false;
    case AccessType::kPartialHit: {
      const std::size_t head = res.cached_bytes;
      if (!layout_ok || (typed.dtype != nullptr && head % typed.dtype->size() != 0)) break;
      if (res.serve_now) {
        serve_cached(origin, res.entry, head);
      } else {
        pending_.push_back({PendingOp::Kind::kCopyOut, res.entry, target,
                            static_cast<std::byte*>(origin), 0, head, 0.0});
      }
      fetch_payload(origin, head, bytes, target, disp, typed);
      if (res.extended) {
        pending_.push_back({PendingOp::Kind::kCopyIn, res.entry, target,
                            static_cast<std::byte*>(origin) + head, head, bytes - head,
                            copy_in_stamp()});
      }
      return false;
    }
    case AccessType::kDirect:
    case AccessType::kConflicting:
    case AccessType::kCapacity:
      fetch_payload(origin, 0, bytes, target, disp, typed);
      pending_.push_back({PendingOp::Kind::kCopyIn, res.entry, target,
                          static_cast<std::byte*>(origin), 0, bytes, copy_in_stamp()});
      return false;
    case AccessType::kFailing:
      break;
  }
  // Failing access or incompatible layout: the whole payload comes from
  // the network, so the get was not served from the cache whatever the
  // core classified it as.
  last_access_ = AccessType::kFailing;
  fetch_payload(origin, 0, bytes, target, disp, typed);
  if (res.type == AccessType::kPartialHit && res.extended) {
    // The core grew the entry for the *new* layout and left it PENDING;
    // repopulate it wholesale from the freshly fetched packed payload,
    // or it would stay PENDING (and unevictable) forever.
    pending_.push_back({PendingOp::Kind::kCopyIn, res.entry, target,
                        static_cast<std::byte*>(origin), 0, bytes, copy_in_stamp()});
  }
  return false;
}

void CachedWindow::notify_get(int target, std::size_t disp, std::size_t bytes,
                              bool degraded, bool healed) {
  if (!get_observer_) [[likely]] return;
  GetObservation o;
  o.target = target;
  o.disp = disp;
  o.bytes = bytes;
  o.type = last_access_;
  o.degraded = degraded;
  o.degraded_age_us = degraded ? last_degraded_age_us_ : 0.0;
  o.healed = healed;
  get_observer_(o);
}

// Inlined into both get() overloads so the untyped one folds away every
// datatype branch: out of line, the window hit path measured ~10 ns slower.
[[gnu::always_inline]] inline void CachedWindow::get_staged(void* origin, std::size_t bytes,
                                                            int target, std::size_t disp,
                                                            Typed typed) {
  const std::uint64_t sig = typed.dtype == nullptr ? 0 : typed.dtype->signature();
  // 1. Admission: crash-restart sweep, load shedding, deadline budget.
  crash_epoch_check(target);
  shed_admission(target, disp, bytes);
  begin_op_deadline();
  if (cfg_.collect_phase_timings) last_phases_ = PhaseBreakdown{};
  // 2. A down target may still be served from a retained entry.
  if (try_degraded_read(origin, bytes, target, disp, sig)) {
    notify_get(target, disp, bytes, last_degraded_, /*healed=*/false);
    return;
  }
  // 3. The cache proper.
  const CacheCore::Result res =
      core_->access(Key{target, disp}, bytes, sig,
                    cfg_.collect_phase_timings ? &last_phases_ : nullptr,
                    typed.dtype == nullptr ? 0 : typed.dtype->footprint(typed.count));
  if (res.healed) [[unlikely]] note_heal(target, disp, bytes);
  // 4. Serve, register copies, fetch what the cache lacks.
  const std::size_t pending_mark = pending_.size();
  bool served_hit = false;
  try {
    served_hit = handle_result(res, origin, bytes, target, disp, typed);
  } catch (const fault::OpFailedError&) {
    rollback_failed(res, pending_mark);
    throw;
  }
  // 5. Sampled shadow verification of full hits served from the cache.
  if (cfg_.shadow_verify_every_n != 0 && served_hit) [[unlikely]] {
    if (++shadow_tick_ >= cfg_.shadow_verify_every_n) {
      shadow_tick_ = 0;
      shadow_verify(origin, bytes, target, disp, typed, res.entry);
    }
  }
  // 6. Tell the observer how the bytes in `origin` were produced.
  notify_get(target, disp, bytes, /*degraded=*/false, res.healed);
}

void CachedWindow::get(void* origin, std::size_t bytes, int target, std::size_t disp) {
  CLAMPI_REQUIRE(bytes > 0, "zero-byte get");
  get_staged(origin, bytes, target, disp, Typed{});
}

void CachedWindow::get(void* origin, const dt::Datatype& dtype, std::size_t count,
                       int target, std::size_t disp) {
  const std::size_t bytes = dtype.size_of(count);
  CLAMPI_REQUIRE(bytes > 0, "zero-byte typed get");
  // A dense layout is the untyped get: one Process::get, signature 0.
  get_staged(origin, bytes, target, disp,
             dtype.is_contiguous() ? Typed{} : Typed{&dtype, count});
}

void CachedWindow::get_nocache(void* origin, std::size_t bytes, int target,
                               std::size_t disp) {
  ++bypassed_;
  p_->get(origin, bytes, target, disp, win_);
}

void CachedWindow::put(const void* origin, std::size_t bytes, int target,
                       std::size_t disp) {
  crash_epoch_check(target);
  p_->put(origin, bytes, target, disp, win_);
  // Local coherence: the put makes any cached entry overlapping the target
  // range stale, so drop those entries and let the next get re-fetch. The
  // stale-put fault (fault::Plan::stale_put_prob) skips exactly this step,
  // modelling the invalidation bug that shadow-verify exists to catch.
  const fault::Injector* inj = p_->fault_injector();
  if (inj != nullptr && inj->plan().stale_put_prob > 0.0 &&
      inj->stale_put_verdict(p_->rank(), p_->comm_world_rank(comm_, target))) {
    ++core_->mutable_stats().stale_puts_injected;
    return;
  }
  const std::size_t dropped = core_->invalidate_overlap(target, disp, bytes);
  // Fan-out accounting: put_invalidations counts entries dropped; this
  // counts puts that hit at least one cached entry, so fan-out per
  // invalidating put = put_invalidations / put_invalidation_ops.
  if (dropped > 0) ++core_->mutable_stats().put_invalidation_ops;
}

void CachedWindow::process_pending(int target) {
  if (pending_.empty()) return;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    PendingOp& op = pending_[i];
    if (target >= 0 && op.target != target) {
      pending_[kept++] = op;
      continue;
    }
    if (op.kind == PendingOp::Kind::kCopyIn) {
      std::memcpy(core_->entry_data(op.entry) + op.entry_off, op.user, op.bytes);
      p_->charge_local_copy(op.bytes);
      core_->mark_cached(op.entry);
      // Freshness stamp for bounded-staleness degraded reads: only a full
      // repopulation refreshes it — a tail extension keeps the (older)
      // head's stamp, so staleness is never understated.
      if (op.entry_off == 0 && op.bytes == core_->entry_bytes(op.entry)) {
        core_->set_entry_stamp(op.entry, op.issued_us);
      }
    } else {
      std::memcpy(op.user, core_->entry_data(op.entry), op.bytes);
      p_->charge_local_copy(op.bytes);
    }
  }
  pending_.resize(kept);
}

void CachedWindow::on_flush_failure(const fault::OpFailedError& err, bool all_taken) {
  Stats& st = core_->mutable_stats();
  ++st.injected_faults;
  const int local = p_->comm_local_rank(comm_, err.op().target);
  if (fault_trace_ != nullptr) fault_trace_->add_fault(local, 0, 0);
  health_record(local, /*success=*/false,
                /*fatal=*/err.failure() != fault::FailureKind::kTransient);
  // The dead target's in-flight data will never be *completed*. Ops that
  // failed at issue were already rolled back, so every surviving pending
  // op against the target was issued before the death — and data movement
  // is eager, so its payload has arrived. With degraded reads enabled,
  // materialize those as last-known-good survivors; otherwise discard the
  // copy-ins/outs and PENDING entries, matching MPI completion semantics.
  if (cfg_.degraded_reads) {
    process_pending(local);
  } else {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (pending_[i].target != local) pending_[kept++] = pending_[i];
    }
    pending_.resize(kept);
    core_->drop_pending(local);
  }
  if (all_taken) {
    // The engine cleared every target's completions before throwing, and
    // data movement is eager: the surviving targets' payloads are already
    // in place, so materialize them rather than stranding PENDING entries.
    process_pending(-1);
    ++epoch_;
    if (cfg_.mode == Mode::kTransparent) transparent_invalidate();
    health_epoch_close();  // a real epoch boundary: backoff + promotions
    epoch_open_us_ = p_->now_us();
    return;
  }
  // The epoch itself survives (per-target flush): only the abandoned
  // retries' backoff pools reset, quarantine dwell keeps running.
  health_.reset_epoch_backoff();
}

void CachedWindow::transparent_invalidate() {
  if (core_->cached_entries() == 0) return;
  if (cfg_.degraded_reads) {
    // A down target cannot be accepting writes, so its last-known-good
    // entries legally survive the transparent invalidation and stay
    // servable as bounded-staleness degraded reads (docs/FAULTS.md §6).
    std::vector<int> keep;
    const int n = p_->comm_size(comm_);
    for (int t = 0; t < n; ++t) {
      if (target_down(t)) keep.push_back(t);
    }
    if (!keep.empty()) {
      core_->invalidate_retaining(keep);
      return;
    }
  }
  core_->invalidate();
}

void CachedWindow::close_epoch(bool all_complete) {
  ++epoch_;
  health_epoch_close();
  if (cfg_.mode == Mode::kTransparent) {
    CLAMPI_ASSERT(all_complete, "transparent epoch closure requires full completion");
    process_pending(-1);
    transparent_invalidate();
    if (cfg_.degraded_reads) epoch_open_us_ = p_->now_us();
    return;  // nothing to adapt: the cache restarts from scratch each epoch
  }
  integrity_epoch_tasks();
  maybe_adapt();
  if (cfg_.degraded_reads) epoch_open_us_ = p_->now_us();
}

void CachedWindow::maybe_adapt() {
  if (!cfg_.adaptive) return;
  if (core_->pending_entries() != 0 || !pending_.empty()) return;
  const Stats delta = core_->stats().delta_since(adapt_base_);
  if (delta.total_gets < cfg_.adapt_interval) return;
  const AdaptiveTuner::Decision d = tuner_.evaluate(
      delta, core_->index_entries(), core_->storage_bytes(), core_->free_bytes());
  if (d.change) core_->resize(d.index_entries, d.storage_bytes);
  adapt_base_ = core_->stats();
}

void CachedWindow::flush(int target) {
  if (cfg_.mode == Mode::kTransparent) {
    // Transparent invalidation needs every in-flight get materialized.
    try {
      p_->flush_all(win_);
    } catch (const fault::OpFailedError& err) {
      on_flush_failure(err, /*all_taken=*/true);
      throw;
    }
    close_epoch(/*all_complete=*/true);
    return;
  }
  try {
    p_->flush(target, win_);
  } catch (const fault::OpFailedError& err) {
    on_flush_failure(err, /*all_taken=*/false);
    throw;
  }
  process_pending(target);
  close_epoch(/*all_complete=*/false);
}

void CachedWindow::flush_all() {
  try {
    p_->flush_all(win_);
  } catch (const fault::OpFailedError& err) {
    on_flush_failure(err, /*all_taken=*/true);
    throw;
  }
  process_pending(-1);
  close_epoch(/*all_complete=*/true);
}

void CachedWindow::lock(rmasim::LockType type, int target) { p_->lock(type, target, win_); }

void CachedWindow::unlock(int target) {
  if (cfg_.mode == Mode::kTransparent) p_->flush_all(win_);
  p_->unlock(target, win_);
  process_pending(cfg_.mode == Mode::kTransparent ? -1 : target);
  close_epoch(/*all_complete=*/cfg_.mode == Mode::kTransparent);
}

void CachedWindow::lock_all() { p_->lock_all(win_); }

void CachedWindow::unlock_all() {
  p_->unlock_all(win_);
  process_pending(-1);
  close_epoch(/*all_complete=*/true);
}

void CachedWindow::fence() {
  p_->fence(win_);
  process_pending(-1);
  close_epoch(/*all_complete=*/true);
}

// --- integrity guard (docs/INTEGRITY.md) ---

void CachedWindow::note_heal(int target, std::size_t disp, std::size_t bytes) {
  if (fault_trace_ != nullptr) fault_trace_->add_corruption(target, disp, bytes);
}

void CachedWindow::shadow_verify(void* origin, std::size_t bytes, int target,
                                 std::size_t disp, Typed typed, std::uint32_t entry) {
  if (shadow_buf_.size() < bytes) shadow_buf_.resize(bytes);
  try {
    // Data movement is eager in the simulated runtime, so the remote bytes
    // are in shadow_buf_ on return (completion is only bookkeeping).
    fetch_payload(shadow_buf_.data(), 0, bytes, target, disp, typed);
  } catch (const fault::OpFailedError&) {
    return;  // origin unreachable right now: this sample is simply skipped
  }
  Stats& st = core_->mutable_stats();
  ++st.shadow_verifications;
  if (std::memcmp(shadow_buf_.data(), origin, bytes) == 0) return;
  // Silent staleness: the cached entry no longer matches the origin window
  // (e.g. an invalidation was skipped). Quarantine it and hand the caller
  // the fresh bytes.
  ++st.shadow_mismatches;
  ++st.self_heals;
  core_->quarantine(entry);
  std::memcpy(origin, shadow_buf_.data(), bytes);
  if (fault_trace_ != nullptr) fault_trace_->add_corruption(target, disp, bytes);
}

void CachedWindow::integrity_epoch_tasks() {
  const fault::Injector* inj = p_->fault_injector();
  if (inj != nullptr && inj->plan().storage_bitflip_prob > 0.0) {
    // Seeded bit rot: one corruptor per (rank, epoch) sweeps the live
    // CACHED payloads with geometric skipping, so the expected flip count
    // is storage_bitflip_prob per cached byte per epoch, deterministically.
    fault::Corruptor corr = inj->corruptor(p_->rank(), epoch_);
    std::uint64_t flips = 0;
    const std::size_t nslots = core_->entry_slots();
    for (std::size_t id = 0; id < nslots; ++id) {
      const auto eid = static_cast<std::uint32_t>(id);
      if (!core_->entry_live(eid) || core_->entry_pending(eid)) continue;
      flips += corr.apply(core_->entry_data(eid), core_->entry_bytes(eid));
    }
    if (flips > 0) core_->mutable_stats().storage_bitflips += flips;
  }
  if (cfg_.scrub_entries_per_epoch > 0) {
    const CacheCore::ScrubReport rep = core_->scrub(cfg_.scrub_entries_per_epoch);
    if (rep.corrupted > 0 && fault_trace_ != nullptr) {
      // Scrub heals have no single (target, disp); log one summary event.
      fault_trace_->add_corruption(-1, 0, rep.corrupted);
    }
  }
}

void CachedWindow::invalidate() {
  if (!pending_.empty() || core_->pending_entries() != 0) {
    p_->flush_all(win_);
    process_pending(-1);
  }
  core_->invalidate();
  // Restart the adaptation window: refilling a freshly invalidated cache
  // looks like both capacity pressure and (early on) a shrinkable state.
  adapt_base_ = core_->stats();
  tuner_.reset();
}

}  // namespace clampi
