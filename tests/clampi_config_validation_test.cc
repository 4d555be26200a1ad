// Config validation at window creation (validate_config / CacheCore ctor).
#include <gtest/gtest.h>

#include "clampi/cache.h"
#include "clampi/config.h"
#include "clampi/info.h"
#include "util/error.h"

namespace {

using namespace clampi;

TEST(ConfigValidation, DefaultConfigIsValid) {
  EXPECT_NO_THROW(validate_config(Config{}));
  EXPECT_NO_THROW(CacheCore{Config{}});
}

TEST(ConfigValidation, RejectsZeroSizedKnobs) {
  Config c;
  c.index_entries = 0;
  EXPECT_THROW(validate_config(c), util::ContractError);

  Config d;
  d.cuckoo_arity = 0;
  EXPECT_THROW(validate_config(d), util::ContractError);
  EXPECT_THROW(CacheCore{d}, util::ContractError);  // before index construction

  Config e;
  e.sample_size = 0;
  EXPECT_THROW(validate_config(e), util::ContractError);
  EXPECT_THROW(CacheCore{e}, util::ContractError);
}

TEST(ConfigValidation, RejectsInvertedBounds) {
  Config c;
  c.min_index_entries = 1024;
  c.max_index_entries = 64;
  EXPECT_THROW(validate_config(c), util::ContractError);

  Config d;
  d.min_storage_bytes = std::size_t{1} << 30;
  d.max_storage_bytes = std::size_t{64} << 10;
  EXPECT_THROW(validate_config(d), util::ContractError);
}

TEST(ConfigValidation, AdaptiveGatesTheRangeCheck) {
  // Tiny fixed caches are legal (tests rely on them)...
  Config fixed;
  fixed.adaptive = false;
  fixed.index_entries = 16;     // below min_index_entries = 64
  fixed.storage_bytes = 1024;   // below min_storage_bytes = 64 KiB
  EXPECT_NO_THROW(validate_config(fixed));
  EXPECT_NO_THROW(CacheCore{fixed});

  // ...but an adaptive cache must start inside its steering range.
  Config adaptive = fixed;
  adaptive.adaptive = true;
  EXPECT_THROW(validate_config(adaptive), util::ContractError);

  adaptive.index_entries = 4096;
  adaptive.storage_bytes = std::size_t{4} << 20;
  EXPECT_NO_THROW(validate_config(adaptive));

  adaptive.storage_bytes = (std::size_t{1} << 30) + 1;  // above max
  EXPECT_THROW(validate_config(adaptive), util::ContractError);
}

TEST(ConfigValidation, RejectsMalformedRetryPolicy) {
  Config c;
  c.max_retries = -1;
  EXPECT_THROW(validate_config(c), util::ContractError);

  Config d;
  d.retry_backoff_us = -1.0;
  EXPECT_THROW(validate_config(d), util::ContractError);

  Config e;
  e.retry_backoff_factor = 0.5;  // must not shrink
  EXPECT_THROW(validate_config(e), util::ContractError);

  Config f;
  f.retry_jitter = 1.0;  // must stay below 1 (backoff must stay positive)
  EXPECT_THROW(validate_config(f), util::ContractError);
  f.retry_jitter = -0.1;
  EXPECT_THROW(validate_config(f), util::ContractError);

  Config g;
  g.epoch_retry_budget_us = -5.0;
  EXPECT_THROW(validate_config(g), util::ContractError);

  Config ok;
  ok.max_retries = 8;
  ok.retry_backoff_us = 2.0;
  ok.retry_backoff_factor = 1.5;
  ok.retry_jitter = 0.5;
  ok.epoch_retry_budget_us = 1000.0;
  EXPECT_NO_THROW(validate_config(ok));
}

TEST(ConfigValidation, RejectsMalformedHealthKnobs) {
  Config c;
  c.health_failure_threshold = -2;
  EXPECT_THROW(validate_config(c), util::ContractError);

  // Dependent detector knobs are only checked once the detector is on.
  Config off;
  off.health_window_us = -1.0;
  off.health_ewma_alpha = 7.0;
  off.health_ewma_halflife_us = 0.0;
  off.health_suspect_threshold = 0.0;
  off.health_quarantine_dwell_us = -5.0;
  off.health_probe_successes = 0;
  EXPECT_NO_THROW(validate_config(off));

  Config on;
  on.health_failure_threshold = 3;
  EXPECT_NO_THROW(validate_config(on));
  on.health_window_us = 0.0;
  EXPECT_THROW(validate_config(on), util::ContractError);
  on.health_window_us = 10000.0;
  on.health_ewma_alpha = 0.0;
  EXPECT_THROW(validate_config(on), util::ContractError);
  on.health_ewma_alpha = 1.5;
  EXPECT_THROW(validate_config(on), util::ContractError);
  on.health_ewma_alpha = 0.3;
  on.health_ewma_halflife_us = 0.0;
  EXPECT_THROW(validate_config(on), util::ContractError);
  on.health_ewma_halflife_us = 5000.0;
  on.health_suspect_threshold = 0.0;
  EXPECT_THROW(validate_config(on), util::ContractError);
  on.health_suspect_threshold = 2.0;
  EXPECT_THROW(validate_config(on), util::ContractError);
  on.health_suspect_threshold = 0.5;
  on.health_quarantine_dwell_us = -1.0;
  EXPECT_THROW(validate_config(on), util::ContractError);
  on.health_quarantine_dwell_us = 5000.0;
  on.health_probe_successes = 0;
  EXPECT_THROW(validate_config(on), util::ContractError);
  on.health_probe_successes = 2;
  EXPECT_NO_THROW(validate_config(on));

  // The staleness bound is validated independently of the detector.
  Config stale;
  stale.degraded_reads = true;
  stale.degraded_max_staleness_us = -1.0;
  EXPECT_THROW(validate_config(stale), util::ContractError);
  stale.degraded_max_staleness_us = 0.0;  // 0 = unbounded
  EXPECT_NO_THROW(validate_config(stale));
}

TEST(ConfigValidation, RejectsMalformedTailKnobs) {
  Config c;
  c.op_deadline_us = -1.0;
  EXPECT_THROW(validate_config(c), util::ContractError);

  // With retries enabled, a deadline at or below the first backoff could
  // never survive a single retry: reject the combination outright.
  Config d;
  d.max_retries = 3;
  d.retry_backoff_us = 50.0;
  d.op_deadline_us = 50.0;
  EXPECT_THROW(validate_config(d), util::ContractError);
  d.op_deadline_us = 51.0;
  EXPECT_NO_THROW(validate_config(d));
  // Without retries any positive deadline stands on its own.
  d.max_retries = 0;
  d.op_deadline_us = 10.0;
  EXPECT_NO_THROW(validate_config(d));

  // Shedding requires deadlines: without them there is no miss signal.
  Config e;
  e.load_shedding = true;
  EXPECT_THROW(validate_config(e), util::ContractError);
  e.op_deadline_us = 500.0;
  EXPECT_NO_THROW(validate_config(e));
  EXPECT_NO_THROW(CacheCore{e});

  // The AIMD knobs are only checked once shedding is on.
  Config off;
  off.shed_window_us = -1.0;
  off.shed_miss_ratio = 2.0;
  off.shed_decrease_factor = 1.5;
  off.shed_increase = 0.0;
  off.shed_min_admit = 0.0;
  EXPECT_NO_THROW(validate_config(off));

  Config on = e;
  on.shed_window_us = 0.0;
  EXPECT_THROW(validate_config(on), util::ContractError);
  on.shed_window_us = 2000.0;
  on.shed_miss_ratio = 0.0;
  EXPECT_THROW(validate_config(on), util::ContractError);
  on.shed_miss_ratio = 1.5;
  EXPECT_THROW(validate_config(on), util::ContractError);
  on.shed_miss_ratio = 0.5;
  on.shed_decrease_factor = 1.0;  // must actually decrease
  EXPECT_THROW(validate_config(on), util::ContractError);
  on.shed_decrease_factor = 0.5;
  on.shed_increase = 0.0;  // must actually recover
  EXPECT_THROW(validate_config(on), util::ContractError);
  on.shed_increase = 0.1;
  on.shed_min_admit = 0.0;  // a zero floor would starve forever
  EXPECT_THROW(validate_config(on), util::ContractError);
  on.shed_min_admit = 0.1;
  EXPECT_NO_THROW(validate_config(on));
}

TEST(ConfigValidation, TailInfoKeysParse) {
  const Info info{{"clampi_op_deadline_us", "750.5"},
                  {"clampi_load_shedding", "true"},
                  {"clampi_shed_window_us", "4000"},
                  {"clampi_shed_miss_ratio", "0.25"},
                  {"clampi_shed_decrease_factor", "0.4"},
                  {"clampi_shed_increase", "0.05"},
                  {"clampi_shed_min_admit", "0.2"}};
  const Config cfg = config_from_info(info);
  EXPECT_DOUBLE_EQ(cfg.op_deadline_us, 750.5);
  EXPECT_TRUE(cfg.load_shedding);
  EXPECT_DOUBLE_EQ(cfg.shed_window_us, 4000.0);
  EXPECT_DOUBLE_EQ(cfg.shed_miss_ratio, 0.25);
  EXPECT_DOUBLE_EQ(cfg.shed_decrease_factor, 0.4);
  EXPECT_DOUBLE_EQ(cfg.shed_increase, 0.05);
  EXPECT_DOUBLE_EQ(cfg.shed_min_admit, 0.2);
  EXPECT_NO_THROW(validate_config(cfg));
}

TEST(ConfigValidation, RetiredKnobsAreUnknownKeys) {
  // Retired mechanisms leave no info key behind: the cache core is one
  // partition per window per rank (no sharding knob), and the
  // window-global fail-open switch is gone (per-hit verification keeps
  // rot out). Each former key is now an unknown info key like any other.
  for (const char* key :
       {"clampi_cache_shards", "clampi_breaker_failure_threshold",
        "clampi_breaker_window_us", "clampi_breaker_open_us",
        "clampi_breaker_probe_every_n", "clampi_breaker_halfopen_successes"}) {
    try {
      config_from_info(Info{{key, "1"}});
      ADD_FAILURE() << key << " was accepted";
    } catch (const util::ContractError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("unknown info key '") + key + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ConfigValidation, HealthInfoKeysParse) {
  const Info info{{"clampi_health_failure_threshold", "3"},
                  {"clampi_health_window_us", "20000"},
                  {"clampi_health_ewma_alpha", "0.25"},
                  {"clampi_health_ewma_halflife_us", "4000"},
                  {"clampi_health_suspect_threshold", "0.6"},
                  {"clampi_health_quarantine_dwell_us", "8000"},
                  {"clampi_health_probe_successes", "3"},
                  {"clampi_degraded_reads", "true"},
                  {"clampi_degraded_max_staleness_us", "250000"}};
  const Config cfg = config_from_info(info);
  EXPECT_EQ(cfg.health_failure_threshold, 3);
  EXPECT_DOUBLE_EQ(cfg.health_window_us, 20000.0);
  EXPECT_DOUBLE_EQ(cfg.health_ewma_alpha, 0.25);
  EXPECT_DOUBLE_EQ(cfg.health_ewma_halflife_us, 4000.0);
  EXPECT_DOUBLE_EQ(cfg.health_suspect_threshold, 0.6);
  EXPECT_DOUBLE_EQ(cfg.health_quarantine_dwell_us, 8000.0);
  EXPECT_EQ(cfg.health_probe_successes, 3);
  EXPECT_TRUE(cfg.degraded_reads);
  EXPECT_DOUBLE_EQ(cfg.degraded_max_staleness_us, 250000.0);
  EXPECT_NO_THROW(validate_config(cfg));
}

TEST(ConfigValidation, IntegrityInfoKeysParse) {
  const Info info{{"clampi_verify_every_n", "16"},
                  {"clampi_scrub_entries_per_epoch", "32"},
                  {"clampi_shadow_verify_every_n", "64"}};
  const Config cfg = config_from_info(info);
  EXPECT_EQ(cfg.verify_every_n, 16u);
  EXPECT_EQ(cfg.scrub_entries_per_epoch, 32u);
  EXPECT_EQ(cfg.shadow_verify_every_n, 64u);
  EXPECT_NO_THROW(validate_config(cfg));
}

TEST(ConfigValidation, ResilienceInfoKeysParse) {
  const Info info{{"clampi_mode", "always_cache"},
                  {"clampi_max_retries", "8"},
                  {"clampi_retry_backoff_us", "2.5"},
                  {"clampi_retry_backoff_factor", "1.5"},
                  {"clampi_retry_jitter", "0.1"},
                  {"clampi_epoch_retry_budget_us", "500"},
                  {"clampi_cache_fallback", "true"}};
  const Config cfg = config_from_info(info);
  EXPECT_EQ(cfg.mode, Mode::kAlwaysCache);
  EXPECT_EQ(cfg.max_retries, 8);
  EXPECT_DOUBLE_EQ(cfg.retry_backoff_us, 2.5);
  EXPECT_DOUBLE_EQ(cfg.retry_backoff_factor, 1.5);
  EXPECT_DOUBLE_EQ(cfg.retry_jitter, 0.1);
  EXPECT_DOUBLE_EQ(cfg.epoch_retry_budget_us, 500.0);
  EXPECT_TRUE(cfg.cache_fallback);
  EXPECT_NO_THROW(validate_config(cfg));
}

}  // namespace
