#include "clampi/adaptive.h"

#include <algorithm>
#include <cmath>

#include "util/align.h"

namespace clampi {

AdaptiveTuner::Decision AdaptiveTuner::evaluate(const Stats& delta,
                                                std::size_t cur_index_entries,
                                                std::size_t cur_storage_bytes,
                                                std::size_t free_bytes) {
  Decision d;
  d.index_entries = cur_index_entries;
  d.storage_bytes = cur_storage_bytes;
  if (delta.total_gets == 0) return d;

  const auto total = static_cast<double>(delta.total_gets);
  // Index-induced failures count toward the conflict signal, space-induced
  // ones toward the capacity signal (the paper's "capacity + failed").
  const double conflict_ratio =
      static_cast<double>(delta.conflicting + delta.failed_index) / total;
  const double capacity_ratio =
      static_cast<double>(delta.capacity + delta.failed_capacity) / total;
  const double hit_ratio = static_cast<double>(delta.hitting()) / total;
  const double free_ratio = cur_storage_bytes == 0
                                ? 0.0
                                : static_cast<double>(free_bytes) /
                                      static_cast<double>(cur_storage_bytes);

  // --- |I_w| ---
  if (conflict_ratio > cfg_.conflict_threshold) {
    d.index_entries = static_cast<std::size_t>(
        std::ceil(static_cast<double>(cur_index_entries) * cfg_.index_increase_factor));
    index_shrink_streak_ = 0;
  } else if (delta.eviction_rounds > 0 && delta.q() < cfg_.sparsity_threshold) {
    // Highly sparse index: victim-selection quality degrades (Sec. III-E1).
    if (++index_shrink_streak_ >= cfg_.shrink_patience) {
      d.index_entries = static_cast<std::size_t>(
          std::floor(static_cast<double>(cur_index_entries) / cfg_.index_decrease_factor));
      index_shrink_streak_ = 0;
    }
  } else {
    index_shrink_streak_ = 0;
  }
  d.index_entries =
      std::clamp(d.index_entries, cfg_.min_index_entries, cfg_.max_index_entries);

  // --- |S_w| ---
  if (capacity_ratio > cfg_.capacity_threshold) {
    d.storage_bytes = static_cast<std::size_t>(
        std::ceil(static_cast<double>(cur_storage_bytes) * cfg_.memory_increase_factor));
    memory_shrink_streak_ = 0;
  } else if (hit_ratio > cfg_.stable_threshold && free_ratio > cfg_.free_threshold) {
    if (++memory_shrink_streak_ >= cfg_.shrink_patience) {
      d.storage_bytes = static_cast<std::size_t>(
          std::floor(static_cast<double>(cur_storage_bytes) / cfg_.memory_decrease_factor));
      memory_shrink_streak_ = 0;
    }
  } else {
    memory_shrink_streak_ = 0;
  }
  d.storage_bytes = util::round_up(
      std::clamp(d.storage_bytes, cfg_.min_storage_bytes, cfg_.max_storage_bytes),
      util::kCacheLineBytes);

  d.change =
      d.index_entries != cur_index_entries || d.storage_bytes != cur_storage_bytes;
  if (d.change) reset();
  return d;
}

}  // namespace clampi
