// chaos::Schedule serialization and generator contracts (docs/CHAOS.md):
// the JSON round-trip must be lossless for every Step::Kind (repro
// artifacts depend on it), generate(seed) must be a pure function of the
// seed, and every generated schedule must satisfy the validity and
// oracle-soundness obligations the generator promises.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "chaos/generator.h"
#include "chaos/schedule.h"
#include "clampi/config.h"
#include "util/error.h"

namespace clampi::chaos {
namespace {

Schedule one_of_everything() {
  Schedule s;
  s.seed = 0xfeedface12345678ull;  // > 2^53: must not round through double
  s.nranks = 4;
  s.window_bytes = 8192;
  s.mode = Mode::kUserDefined;
  s.index_entries = 128;
  s.storage_bytes = 16384;
  s.adaptive = true;
  s.adapt_interval = 32;
  s.max_retries = 2;
  s.epoch_retry_budget_us = 1500.5;
  s.health_failure_threshold = 3;
  s.degraded_reads = true;
  s.degraded_max_staleness_us = 40000.0;
  s.verify_every_n = 1;
  s.scrub_entries_per_epoch = 4;
  s.shadow_verify_every_n = 1;
  s.plan.fail_everywhere(0.05).kill_rank(2, 9000.0).revive_rank(2, 30000.0);
  s.steps = {
      {Step::Kind::kGet, 1, 64, 256, 0.0},
      {Step::Kind::kPut, 2, 128, 32, 0.0},
      {Step::Kind::kFlushTarget, 1, 0, 0, 0.0},
      {Step::Kind::kFlushAll, 0, 0, 0, 0.0},
      {Step::Kind::kInvalidate, 0, 0, 0, 0.0},
      {Step::Kind::kCompute, 0, 0, 0, 750.25},
  };
  return s;
}

TEST(ChaosSchedule, RoundTripsEveryStepKind) {
  const Schedule s = one_of_everything();
  const Schedule t = Schedule::from_json(s.to_json());
  EXPECT_EQ(s, t);
  ASSERT_EQ(t.steps.size(), 6u);
  for (std::size_t i = 0; i < s.steps.size(); ++i) {
    EXPECT_EQ(s.steps[i], t.steps[i]) << "step " << i;
  }
}

TEST(ChaosSchedule, SecondRoundTripIsAFixpoint) {
  const std::string once = one_of_everything().to_json();
  const std::string twice = Schedule::from_json(once).to_json();
  EXPECT_EQ(once, twice);
}

TEST(ChaosSchedule, MalformedInputThrows) {
  EXPECT_THROW(Schedule::from_json("{"), util::ContractError);
  EXPECT_THROW(Schedule::from_json("nope"), util::ContractError);
}

TEST(ChaosGenerator, DeterministicInSeed) {
  for (std::uint64_t seed : {1ull, 42ull, 0xabcdef0123ull}) {
    const Schedule a = generate(seed);
    const Schedule b = generate(seed);
    EXPECT_EQ(a, b) << "seed " << seed;
    EXPECT_EQ(a.to_json(), b.to_json()) << "seed " << seed;
  }
}

TEST(ChaosGenerator, DistinctSeedsDiverge) {
  // Not a hard guarantee for any single pair, but across 32 seeds the
  // schedules must not all collapse to a handful of shapes.
  std::set<std::string> distinct;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    distinct.insert(generate(seed).to_json());
  }
  EXPECT_GT(distinct.size(), 28u);
}

TEST(ChaosGenerator, EveryScheduleIsValid) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Schedule s = generate(seed);
    SCOPED_TRACE("seed " + std::to_string(seed));

    // The materialized Config must pass the library's own validation.
    EXPECT_NO_THROW(validate_config(s.config()));

    ASSERT_GE(s.nranks, 2);
    ASSERT_GE(s.steps.size(), 1u);
    for (const Step& st : s.steps) {
      switch (st.kind) {
        case Step::Kind::kGet:
        case Step::Kind::kPut:
          EXPECT_GE(st.target, 1);
          EXPECT_LT(st.target, s.nranks);
          EXPECT_GT(st.bytes, 0u);
          EXPECT_LE(st.disp + st.bytes, s.window_bytes);
          break;
        case Step::Kind::kFlushTarget:
          EXPECT_GE(st.target, 1);
          EXPECT_LT(st.target, s.nranks);
          break;
        case Step::Kind::kInvalidate:
          // clampi_invalidate only exists in user-defined mode.
          EXPECT_EQ(s.mode, Mode::kUserDefined);
          break;
        case Step::Kind::kFlushAll:
          break;
        case Step::Kind::kCompute:
          EXPECT_GT(st.us, 0.0);
          break;
      }
    }

    // Perturbations must target ranks inside the world.
    for (const auto& d : s.plan.degraded) {
      EXPECT_GE(d.rank, 1);
      EXPECT_LT(d.rank, s.nranks);
    }
    EXPECT_LE(s.plan.death_us.size(), static_cast<std::size_t>(s.nranks));
    EXPECT_LE(s.plan.revive_us.size(), static_cast<std::size_t>(s.nranks));
  }
}

TEST(ChaosGenerator, OracleSoundnessCouplingRules) {
  // The oracle's byte-exactness checks are only sound under coupling
  // rules the generator enforces (docs/CHAOS.md "soundness coupling").
  bool saw_stale = false, saw_bitflip = false;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    const Schedule s = generate(seed);
    SCOPED_TRACE("seed " + std::to_string(seed));

    if (s.plan.stale_put_prob > 0.0) {
      saw_stale = true;
      // Stale puts require shadow-verify on every hit, no other failure
      // sources (a dropped flush would leave staleness unobserved), and
      // disjoint key slots so no stale prefix can be served as a partial
      // hit that shadow-verify never re-reads.
      EXPECT_EQ(s.shadow_verify_every_n, 1u);
      for (double p : s.plan.fail_prob) EXPECT_EQ(p, 0.0);
      EXPECT_TRUE(s.plan.target_fail_prob.empty());
      EXPECT_TRUE(s.plan.death_us.empty());
    }
    if (s.plan.storage_bitflip_prob > 0.0) {
      saw_bitflip = true;
      // Bit rot must be caught at serve time, every time, or a corrupt
      // hit would be reported as an oracle violation of the cache.
      EXPECT_EQ(s.verify_every_n, 1u);
    }
    // Deaths and degraded epochs only make sense on server ranks; the
    // driver (rank 0) dying would deadlock the run.
    for (std::size_t r = 0; r < s.plan.death_us.size(); ++r) {
      if (s.plan.death_us[r] >= 0.0) EXPECT_GE(r, 1u);
    }
  }
  // The 400-seed sweep must actually exercise both coupled regimes.
  EXPECT_TRUE(saw_stale);
  EXPECT_TRUE(saw_bitflip);
}

}  // namespace
}  // namespace clampi::chaos
