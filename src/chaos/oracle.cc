#include "chaos/oracle.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace clampi::chaos {

namespace {

constexpr std::size_t kMaxViolations = 16;

std::string op_at(const char* what, std::size_t step, int target,
                  std::uint64_t disp, std::uint64_t bytes) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "step %zu: %s t=%d disp=%llu bytes=%llu",
                step, what, target, static_cast<unsigned long long>(disp),
                static_cast<unsigned long long>(bytes));
  return buf;
}

}  // namespace

Oracle::Oracle(const Schedule& s) : s_(s) {
  shadow_.resize(static_cast<std::size_t>(s.nranks));
  last_put_us_.resize(static_cast<std::size_t>(s.nranks));
  for (int r = 1; r < s.nranks; ++r) {
    auto& sh = shadow_[static_cast<std::size_t>(r)];
    sh.resize(s.window_bytes);
    for (std::uint64_t i = 0; i < s.window_bytes; ++i) sh[i] = initial_byte(r, i);
    last_put_us_[static_cast<std::size_t>(r)].assign(s.window_bytes, -1.0);
  }
}

void Oracle::fail(const std::string& msg) {
  if (gave_up_) return;
  violations_.push_back(msg);
  if (violations_.size() >= kMaxViolations) {
    violations_.push_back("(violation cap reached; aborting the program early)");
    gave_up_ = true;
  }
}

void Oracle::on_put(int target, std::uint64_t disp, const std::uint8_t* data,
                    std::uint64_t n, double now_us) {
  auto& sh = shadow_[static_cast<std::size_t>(target)];
  auto& stamps = last_put_us_[static_cast<std::size_t>(target)];
  std::memcpy(sh.data() + disp, data, n);
  for (std::uint64_t i = 0; i < n; ++i) stamps[disp + i] = now_us;
}

void Oracle::check_bytes(const std::uint8_t* got, const std::uint8_t* want,
                         std::uint64_t n, int target, std::uint64_t disp,
                         const char* what, std::size_t step) {
  for (std::uint64_t i = 0; i < n; ++i) {
    if (got[i] != want[i]) {
      char detail[96];
      std::snprintf(detail, sizeof detail,
                    ": byte %llu expected 0x%02x got 0x%02x",
                    static_cast<unsigned long long>(i), want[i], got[i]);
      fail(op_at(what, step, target, disp, n) + detail);
      return;  // one message per divergent buffer is enough
    }
  }
}

void Oracle::on_get(const CachedWindow::GetObservation& o,
                    const std::uint8_t* buf, double now_us) {
  const auto t = static_cast<std::size_t>(o.target);
  const std::uint8_t* want = shadow_[t].data() + o.disp;

  if (o.degraded) {
    // A degraded serve is allowed to be stale, but (a) it must respect
    // the configured bound and (b) if no put ever landed on the region
    // there is only one value staleness can legally produce.
    const double bound = s_.degraded_max_staleness_us;
    if (bound > 0.0 && o.degraded_age_us > bound + 1e-6) {
      char detail[96];
      std::snprintf(detail, sizeof detail, ": age %.1fus exceeds bound %.1fus",
                    o.degraded_age_us, bound);
      fail(op_at("degraded get", step_, o.target, o.disp, o.bytes) + detail);
    }
    const auto& stamps = last_put_us_[t];
    const bool never_put = std::all_of(
        stamps.begin() + static_cast<std::ptrdiff_t>(o.disp),
        stamps.begin() + static_cast<std::ptrdiff_t>(o.disp + o.bytes),
        [](double us) { return us < 0.0; });
    if (never_put) {
      check_bytes(buf, want, o.bytes, o.target, o.disp, "degraded get", step_);
    }
    return;
  }

  switch (o.type) {
    case AccessType::kHit:
    case AccessType::kDirect:
    case AccessType::kConflicting:
    case AccessType::kCapacity:
    case AccessType::kFailing:
      // The buffer holds its final contents already (full hits are one
      // local memcpy; the miss classes fetched eagerly into it).
      check_bytes(buf, want, o.bytes, o.target, o.disp, "get", step_);
      break;
    case AccessType::kHitPending:
    case AccessType::kPartialHit: {
      // Final only when the epoch's data lands. The generator guarantees
      // no put overlaps an in-flight get region, so the shadow bytes at
      // issue time are exactly what the flush must deliver.
      Deferred d;
      d.target = o.target;
      d.disp = o.disp;
      d.buf = buf;
      d.expected.assign(want, want + o.bytes);
      d.step = step_;
      d.kind = o.type == AccessType::kHitPending ? "pending-hit get"
                                                 : "partial-hit get";
      deferred_.push_back(std::move(d));
      break;
    }
  }
  (void)now_us;
}

void Oracle::on_flush_success(int target) {
  auto it = deferred_.begin();
  while (it != deferred_.end()) {
    if (target < 0 || it->target == target) {
      check_bytes(it->buf, it->expected.data(), it->expected.size(), it->target,
                  it->disp, it->kind, it->step);
      it = deferred_.erase(it);
    } else {
      ++it;
    }
  }
}

void Oracle::on_flush_failure(int target) {
  auto it = deferred_.begin();
  while (it != deferred_.end()) {
    if (target < 0 || it->target == target) {
      it = deferred_.erase(it);
    } else {
      ++it;
    }
  }
}

void Oracle::on_crash_wipe(int rank, double now_us) {
  if (rank < 1 || rank >= s_.nranks) return;
  auto& sh = shadow_[static_cast<std::size_t>(rank)];
  std::fill(sh.begin(), sh.end(), std::uint8_t{0});
  auto& stamps = last_put_us_[static_cast<std::size_t>(rank)];
  std::fill(stamps.begin(), stamps.end(), now_us);
}

void Oracle::check_stats(const Stats& st) {
  const std::uint64_t classified = st.hits_full + st.hits_pending +
                                   st.hits_partial + st.direct + st.conflicting +
                                   st.capacity + st.failing;
  if (st.total_gets != classified) {
    char msg[160];
    std::snprintf(msg, sizeof msg,
                  "step %zu: stats: total_gets=%llu but classifications sum to %llu",
                  step_, static_cast<unsigned long long>(st.total_gets),
                  static_cast<unsigned long long>(classified));
    fail(msg);
  }
  if (st.failing != st.failed_index + st.failed_capacity) {
    char msg[160];
    std::snprintf(
        msg, sizeof msg,
        "step %zu: stats: failing=%llu != failed_index %llu + failed_capacity %llu",
        step_, static_cast<unsigned long long>(st.failing),
        static_cast<unsigned long long>(st.failed_index),
        static_cast<unsigned long long>(st.failed_capacity));
    fail(msg);
  }
  if (have_prev_) {
    // Every Stats counter is cumulative: none may ever decrease.
    for (const StatField& m : kStatFields) {
      if (st.*(m.field) < prev_.*(m.field)) {
        char msg[160];
        std::snprintf(msg, sizeof msg,
                      "step %zu: stats: %s went backwards (%llu -> %llu)", step_,
                      m.name, static_cast<unsigned long long>(prev_.*(m.field)),
                      static_cast<unsigned long long>(st.*(m.field)));
        fail(msg);
      }
    }
  }
  prev_ = st;
  have_prev_ = true;
}

void Oracle::check_audit(const CacheCore& core) {
  const CacheCore::AuditReport rep = core.audit();
  if (!rep.ok) {
    char msg[160];
    std::snprintf(msg, sizeof msg, "step %zu: audit: %s (live=%zu pending=%zu)",
                  step_, rep.detail.c_str(), rep.live, rep.pending);
    fail(msg);
  }
}

}  // namespace clampi::chaos
