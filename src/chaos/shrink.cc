#include "chaos/shrink.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace clampi::chaos {

namespace {

/// One ddmin sweep at a fixed chunk size; returns true if anything was
/// removed. Scans left to right, so the result is deterministic.
bool remove_chunks(Schedule& cur, std::size_t chunk, const FailFn& still_fails,
                   std::size_t& attempts) {
  bool removed = false;
  std::size_t start = 0;
  while (start < cur.steps.size()) {
    Schedule cand = cur;
    const auto b = cand.steps.begin() + static_cast<std::ptrdiff_t>(start);
    const auto e = cand.steps.begin() +
                   static_cast<std::ptrdiff_t>(std::min(start + chunk, cand.steps.size()));
    cand.steps.erase(b, e);
    ++attempts;
    if (still_fails(cand)) {
      cur = std::move(cand);
      removed = true;  // do not advance: the next chunk slid into `start`
    } else {
      start += chunk;
    }
  }
  return removed;
}

}  // namespace

ShrinkResult shrink(const Schedule& input, const FailFn& still_fails) {
  ShrinkResult res;
  res.schedule = input;
  Schedule& cur = res.schedule;

  // Semantic simplifications, ordered so that the oracle-soundness
  // couplings (generator.h) are respected: a guard knob only falls once
  // the perturbation it guards against is gone.
  const std::vector<void (*)(Schedule&)> simplifications = {
      [](Schedule& c) { c.plan.fail_prob = {}; },
      [](Schedule& c) {
        c.plan.spike_prob = 0.0;
        c.plan.spike_factor = 1.0;
        c.plan.spike_addend_us = 0.0;
      },
      [](Schedule& c) { c.plan.degraded.clear(); },
      [](Schedule& c) { c.plan.stragglers.clear(); },
      [](Schedule& c) {
        c.plan.death_us.clear();
        c.plan.revive_us.clear();
      },
      [](Schedule& c) { c.plan.partitions.clear(); },
      [](Schedule& c) {
        c.plan.crashes.clear();
        c.plan.torn_write_prob = 0.0;
        c.plan.journal_corrupt_prob = 0.0;
      },
      [](Schedule& c) { c.plan.target_fail_prob.clear(); },
      [](Schedule& c) { c.plan.stale_put_prob = 0.0; },
      [](Schedule& c) { c.plan.storage_bitflip_prob = 0.0; },
      [](Schedule& c) {
        if (c.plan.stale_put_prob == 0.0) c.shadow_verify_every_n = 0;
      },
      [](Schedule& c) {
        if (c.plan.storage_bitflip_prob == 0.0) {
          c.verify_every_n = 0;
          c.scrub_entries_per_epoch = 0;
        }
      },
      [](Schedule& c) { c.adaptive = false; },
      [](Schedule& c) {
        c.max_retries = 0;
        c.epoch_retry_budget_us = 0.0;
      },
      [](Schedule& c) { c.health_failure_threshold = 0; },
      [](Schedule& c) {
        c.degraded_reads = false;
        c.degraded_max_staleness_us = 0.0;
      },
  };

  bool changed = true;
  while (changed) {
    changed = false;
    ++res.rounds;

    // ddmin over the step program, halving the chunk size down to 1.
    std::size_t chunk = std::max<std::size_t>(1, cur.steps.size() / 2);
    while (true) {
      if (remove_chunks(cur, chunk, still_fails, res.attempts)) changed = true;
      if (chunk == 1) break;
      chunk /= 2;
    }

    for (const auto& simplify : simplifications) {
      Schedule cand = cur;
      simplify(cand);
      if (cand == cur) continue;  // no-op (already simplified, or guarded)
      ++res.attempts;
      if (still_fails(cand)) {
        cur = std::move(cand);
        changed = true;
      }
    }
  }
  return res;
}

}  // namespace clampi::chaos
