// Adaptive load shedding (docs/FAULTS.md §8).
//
// An AIMD admission controller driven by deadline misses: the window
// keeps an admitted fraction in [min_admit, 1]. Every `window_us` of
// virtual time the controller looks at the closing window — if the
// deadline-miss ratio of the admitted ops exceeded `miss_ratio`, the
// fraction is multiplied by `decrease_factor` (back off hard while the
// system is drowning); a clean window adds `increase` back (recover
// slowly). Ops refused admission fast-fail as FailureKind::kShed before
// any network work, protecting the latency of the ops already admitted.
//
// Two priority tiers: foreground gets are admitted by a deterministic
// credit scheme (credit += fraction per op; an op is admitted when a
// whole credit accumulated), so admission is exact and reproducible —
// no randomness. Background work (anti-entropy, read-repair, hint
// drains in kv::Store) is the lowest priority: it is shed entirely
// whenever the fraction is below 1, i.e. at the first sign of overload.
//
// The controller complements per-target health rather than duplicating
// it: health quarantines *one failing target* (its ops fast-fail), the
// shedder refuses gets *window-wide* when the network cannot meet
// deadlines — different signal, different remedy.
#pragma once

#include <algorithm>
#include <cstdint>

namespace clampi {

class LoadShedder {
 public:
  struct Config {
    double window_us = 2000.0;    ///< virtual-time AIMD control window
    double miss_ratio = 0.5;      ///< miss ratio that triggers a decrease
    double decrease_factor = 0.5; ///< multiplicative decrease, in (0,1)
    double increase = 0.1;        ///< additive recovery per clean window
    double min_admit = 0.1;       ///< floor on the admitted fraction
  };

  explicit LoadShedder(const Config& cfg) : cfg_(cfg) {}

  /// Foreground admission decision for one op at virtual time `now_us`.
  /// False means the op must fast-fail as kShed.
  bool admit(double now_us) {
    roll(now_us);
    credit_ += admit_frac_;
    if (credit_ >= 1.0) {
      credit_ -= 1.0;
      ++window_admitted_;
      return true;
    }
    return false;
  }

  /// A deadline miss among the admitted ops: the AIMD control signal.
  void on_deadline_miss(double now_us) {
    roll(now_us);
    ++window_misses_;
  }

  /// Background work (lowest priority) is shed at the first sign of
  /// overload: whenever the admitted fraction is below 1.
  bool shedding_background() const { return admit_frac_ < 1.0; }

  double admit_fraction() const { return admit_frac_; }

 private:
  void roll(double now_us) {
    if (!started_) {
      started_ = true;
      window_start_us_ = now_us;
      return;
    }
    while (now_us - window_start_us_ >= cfg_.window_us) {
      const auto admitted = static_cast<double>(window_admitted_);
      const auto misses = static_cast<double>(window_misses_);
      if (window_admitted_ > 0 && misses / admitted > cfg_.miss_ratio) {
        admit_frac_ = std::max(cfg_.min_admit, admit_frac_ * cfg_.decrease_factor);
      } else {
        admit_frac_ = std::min(1.0, admit_frac_ + cfg_.increase);
      }
      window_admitted_ = 0;
      window_misses_ = 0;
      window_start_us_ += cfg_.window_us;
      // A long idle gap replays empty (clean) windows, recovering the
      // fraction additively — exactly what an unloaded system deserves.
    }
  }

  Config cfg_;
  double admit_frac_ = 1.0;
  double credit_ = 0.0;
  bool started_ = false;
  double window_start_us_ = 0.0;
  std::uint64_t window_admitted_ = 0;
  std::uint64_t window_misses_ = 0;
};

}  // namespace clampi
