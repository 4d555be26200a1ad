// Sliding virtual-time event window.
//
// Counts events whose timestamp lies within the trailing `window_us`
// microseconds. Backing store is a deque of timestamps, pruned lazily on
// every query, so `count()` is amortized O(1) per recorded event. Used by
// the per-target health monitor (clampi/health.h) to decide when a
// target's windowed failure count justifies quarantine, but generic
// enough for any windowed-rate decision over virtual time.
//
// Timestamps must be non-decreasing (virtual time is monotonic within a
// rank); the class does not sort.
#pragma once

#include <cstddef>
#include <deque>

namespace clampi::metrics {

class SlidingWindowCounter {
 public:
  explicit SlidingWindowCounter(double window_us) : window_us_(window_us) {}

  /// Record one event at virtual time `now_us`.
  void add(double now_us) {
    prune(now_us);
    events_.push_back(now_us);
  }

  /// Events with timestamp in (now_us - window, now_us].
  std::size_t count(double now_us) {
    prune(now_us);
    return events_.size();
  }

  void clear() { events_.clear(); }

  double window_us() const { return window_us_; }

 private:
  void prune(double now_us) {
    const double cutoff = now_us - window_us_;
    while (!events_.empty() && events_.front() <= cutoff) events_.pop_front();
  }

  double window_us_;
  std::deque<double> events_;
};

}  // namespace clampi::metrics
