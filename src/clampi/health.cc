#include "clampi/health.h"

#include <cmath>

#include "util/error.h"

namespace clampi {

const char* to_string(HealthState s) {
  switch (s) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kSuspect: return "suspect";
    case HealthState::kQuarantined: return "quarantined";
    case HealthState::kProbing: return "probing";
  }
  return "?";
}

HealthMonitor::Target& HealthMonitor::at(int target) {
  CLAMPI_ASSERT(target >= 0, "health: negative target rank");
  while (targets_.size() <= static_cast<std::size_t>(target)) {
    targets_.emplace_back(cfg_.window_us);
  }
  return targets_[static_cast<std::size_t>(target)];
}

const HealthMonitor::Target* HealthMonitor::find(int target) const {
  if (target < 0 || static_cast<std::size_t>(target) >= targets_.size()) {
    return nullptr;
  }
  return &targets_[static_cast<std::size_t>(target)];
}

void HealthMonitor::decay(Target& t, double now_us) const {
  if (now_us > t.last_update_us && cfg_.ewma_halflife_us > 0.0) {
    t.suspicion *= std::exp2(-(now_us - t.last_update_us) / cfg_.ewma_halflife_us);
  }
  t.last_update_us = now_us;
}

void HealthMonitor::enter_quarantine(Target& t, double now_us) {
  t.state = HealthState::kQuarantined;
  t.quarantined_since_us = now_us;
  t.probe_streak = 0;
}

HealthState HealthMonitor::record_success(int target, double now_us) {
  Target& t = at(target);
  ++t.successes;
  if (!enabled()) return t.state;
  decay(t, now_us);
  t.suspicion *= 1.0 - cfg_.ewma_alpha;  // EWMA update with outcome 0
  switch (t.state) {
    case HealthState::kProbing:
      if (++t.probe_streak >= cfg_.probe_successes) {
        t.state = HealthState::kHealthy;
        t.suspicion = 0.0;
        t.window_failures.clear();
        t.quarantined_since_us = -1.0;
      }
      break;
    case HealthState::kQuarantined:
      // A success should not reach a quarantined target (the window
      // fast-fails them), but if one does — e.g. an op issued just before
      // the quarantine landed — treat it as the first half-open probe.
      t.state = HealthState::kProbing;
      t.probe_streak = 1;
      break;
    case HealthState::kSuspect:
      if (t.suspicion < cfg_.suspect_threshold) t.state = HealthState::kHealthy;
      break;
    case HealthState::kHealthy:
      break;
  }
  return t.state;
}

HealthState HealthMonitor::record_failure(int target, double now_us, bool fatal) {
  Target& t = at(target);
  ++t.failures;
  if (!enabled()) return t.state;
  decay(t, now_us);
  t.suspicion += cfg_.ewma_alpha * (1.0 - t.suspicion);  // outcome 1
  t.window_failures.add(now_us);
  if (t.state == HealthState::kQuarantined) return t.state;
  if (fatal || t.state == HealthState::kProbing ||
      t.window_failures.count(now_us) >=
          static_cast<std::size_t>(cfg_.failure_threshold)) {
    enter_quarantine(t, now_us);
  } else if (t.suspicion >= cfg_.suspect_threshold) {
    t.state = HealthState::kSuspect;
  }
  return t.state;
}

HealthState HealthMonitor::state(int target) const {
  const Target* t = find(target);
  return t == nullptr ? HealthState::kHealthy : t->state;
}

double HealthMonitor::suspicion(int target, double now_us) const {
  const Target* t = find(target);
  if (t == nullptr) return 0.0;
  double s = t->suspicion;
  if (now_us > t->last_update_us && cfg_.ewma_halflife_us > 0.0) {
    s *= std::exp2(-(now_us - t->last_update_us) / cfg_.ewma_halflife_us);
  }
  return s;
}

TargetStatus HealthMonitor::status(int target, double now_us) const {
  TargetStatus st;
  const Target* t = find(target);
  if (t != nullptr) {
    st.state = t->state;
    st.suspicion = suspicion(target, now_us);
    st.failures = t->failures;
    st.successes = t->successes;
    st.fast_fails = t->fast_fails;
    st.degraded_hits = t->degraded_hits;
    st.quarantined_since_us = t->quarantined_since_us;
    st.epoch_backoff_us = t->epoch_backoff_us;
    st.slow_observations = t->slow_observations;
  }
  st.usable = st.state != HealthState::kQuarantined;
  return st;
}

bool HealthMonitor::any_quarantined() const {
  for (const Target& t : targets_) {
    if (t.state == HealthState::kQuarantined) return true;
  }
  return false;
}

void HealthMonitor::on_epoch_close(double now_us,
                                   std::vector<std::pair<int, HealthState>>* out) {
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    Target& t = targets_[i];
    t.epoch_backoff_us = 0.0;
    if (t.state == HealthState::kQuarantined &&
        now_us - t.quarantined_since_us >= cfg_.quarantine_dwell_us) {
      t.state = HealthState::kProbing;
      t.probe_streak = 0;
      if (out != nullptr) {
        out->emplace_back(static_cast<int>(i), HealthState::kProbing);
      }
    }
  }
}

void HealthMonitor::reset_epoch_backoff() {
  for (Target& t : targets_) t.epoch_backoff_us = 0.0;
}

double HealthMonitor::epoch_backoff_us(int target) const {
  const Target* t = find(target);
  return t == nullptr ? 0.0 : t->epoch_backoff_us;
}

double HealthMonitor::total_epoch_backoff_us() const {
  double sum = 0.0;
  for (const Target& t : targets_) sum += t.epoch_backoff_us;
  return sum;
}

}  // namespace clampi
