// Adaptive parameter selection (paper Sec. III-E1).
//
// |I_w| and |S_w| start at user-provided values; the tuner watches access
// statistics over an observation window and grows/shrinks both structures:
//   - conflicting/total > conflict_threshold        => grow |I_w|
//   - q < sparsity_threshold (sparse index)         => shrink |I_w|
//   - (capacity+failed)/total > capacity_threshold  => grow |S_w|
//   - hits/total > stable_threshold and free space
//     above free_threshold                          => shrink |S_w|
// Any change requires a cache invalidation, which the caller performs by
// resizing the core.
#pragma once

#include <cstddef>

#include "clampi/config.h"
#include "clampi/stats.h"

namespace clampi {

class AdaptiveTuner {
 public:
  struct Decision {
    bool change = false;
    std::size_t index_entries = 0;
    std::size_t storage_bytes = 0;
  };

  explicit AdaptiveTuner(const Config& cfg) : cfg_(cfg) {}

  /// Evaluate one observation window. `delta` holds the counters since the
  /// previous check; `cur_*` are the live geometry; `free_bytes` is the
  /// current free space in S_w. Stateful: growth fires immediately
  /// (under-provisioning is expensive), shrinking requires
  /// `shrink_patience` consecutive qualifying windows — a resize costs an
  /// invalidation, and right after one the cache is refilling, which looks
  /// exactly like a shrinkable state and would otherwise oscillate.
  Decision evaluate(const Stats& delta, std::size_t cur_index_entries,
                    std::size_t cur_storage_bytes, std::size_t free_bytes);

  /// Reset the shrink-hysteresis state (called on external invalidations).
  void reset() {
    index_shrink_streak_ = 0;
    memory_shrink_streak_ = 0;
  }

 private:
  Config cfg_;
  int index_shrink_streak_ = 0;
  int memory_shrink_streak_ = 0;
};

}  // namespace clampi
