// chaos::Schedule — one fully-specified randomized run (docs/CHAOS.md).
//
// A Schedule couples three things into a single replayable value:
//   - the cache configuration under test (mode, sizes, adaptation,
//     resilience / health / integrity knobs),
//   - the fault::Plan driving the injector (transients, spikes, degraded
//     epochs, death/revive, target failures, bit rot, stale puts),
//   - a step-by-step workload program executed by the driver rank.
//
// Everything is derived deterministically from a single 64-bit seed by
// the generator (generator.h), serializes losslessly to JSON (the
// chaos_repro_*.json artifacts) and replays bit-identically in virtual
// time: same schedule, same outcome. The shrinker (shrink.h) operates on
// Schedule values directly — dropping steps and zeroing perturbations —
// which is why the workload is data, not code.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "clampi/config.h"
#include "fault/plan.h"

namespace clampi::chaos {

/// One driver-rank operation. Which fields matter depends on the kind;
/// unused fields stay zero so step equality (and shrinking) is exact.
struct Step {
  enum class Kind : std::uint8_t {
    kGet,          ///< cached get of `bytes` at (target, disp)
    kPut,          ///< put of `bytes` at (target, disp); payload is derived
                   ///< from the step index, so replay writes the same bytes
    kFlushTarget,  ///< CachedWindow::flush(target)
    kFlushAll,     ///< CachedWindow::flush_all()
    kInvalidate,   ///< clampi_invalidate (user-defined mode only)
    kCompute,      ///< advance virtual time by `us` (drives deaths, staleness)
  };
  Kind kind = Kind::kGet;
  int target = 0;
  std::uint64_t disp = 0;
  std::uint64_t bytes = 0;
  double us = 0.0;

  friend bool operator==(const Step&, const Step&) = default;
};

const char* to_string(Step::Kind k);

struct Schedule {
  std::uint64_t seed = 1;  ///< the generator seed this schedule came from

  // --- world ---
  int nranks = 2;                   ///< rank 0 drives; 1..nranks-1 serve
  std::uint64_t window_bytes = 4096;

  // --- cache configuration under test ---
  Mode mode = Mode::kTransparent;
  std::uint64_t index_entries = 64;
  std::uint64_t storage_bytes = 4096;
  bool adaptive = false;
  std::uint64_t adapt_interval = 64;  ///< gets between adaptation checks
  int max_retries = 0;
  double epoch_retry_budget_us = 0.0;
  int health_failure_threshold = 0;
  bool degraded_reads = false;
  double degraded_max_staleness_us = 0.0;
  std::uint64_t verify_every_n = 0;
  std::uint64_t scrub_entries_per_epoch = 0;
  std::uint64_t shadow_verify_every_n = 0;

  // --- perturbations ---
  fault::Plan plan;

  // --- workload ---
  std::vector<Step> steps;

  /// Materialize the clampi::Config this schedule runs under. The result
  /// always passes validate_config (the generator's validity obligation).
  Config config() const;

  /// Lossless JSON round-trip (the repro artifact format). from_json of
  /// the result reproduces a field-identical Schedule; unknown keys are
  /// ignored, malformed input throws util::ContractError.
  std::string to_json() const;
  static Schedule from_json(const std::string& text);

  friend bool operator==(const Schedule&, const Schedule&);
};

}  // namespace clampi::chaos
