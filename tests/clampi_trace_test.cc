// Tests for trace recording, (de)serialization and replay.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "clampi/trace.h"
#include "netmodel/model.h"
#include "rt/engine.h"

namespace {

using namespace clampi;
using rmasim::Engine;
using rmasim::Process;
using trace::Event;
using trace::RecordingWindow;
using trace::Trace;

Engine::Config ecfg(int nranks) {
  Engine::Config cfg;
  cfg.nranks = nranks;
  cfg.model = std::make_shared<net::FlatModel>(2.0, 0.001);
  cfg.time_policy = rmasim::TimePolicy::kModeled;
  return cfg;
}

Trace sample_trace() {
  Trace t;
  t.add_get(1, 0, 64);
  t.add_get(1, 128, 256);
  t.add_flush(1);
  t.add_get(1, 0, 64);
  t.add_flush_all();
  t.add_invalidate();
  return t;
}

TEST(Trace, Summaries) {
  const Trace t = sample_trace();
  EXPECT_EQ(t.num_gets(), 3u);
  EXPECT_EQ(t.distinct_keys(), 2u);
  EXPECT_EQ(t.total_bytes(), 384u);
  EXPECT_EQ(t.max_bytes(), 256u);
}

TEST(Trace, SaveLoadRoundTrip) {
  const Trace t = sample_trace();
  std::stringstream ss;
  t.save(ss);
  const Trace u = Trace::load(ss);
  ASSERT_EQ(u.events.size(), t.events.size());
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    EXPECT_EQ(u.events[i].kind, t.events[i].kind);
    EXPECT_EQ(u.events[i].target, t.events[i].target);
    EXPECT_EQ(u.events[i].disp, t.events[i].disp);
    EXPECT_EQ(u.events[i].bytes, t.events[i].bytes);
  }
}

TEST(Trace, LoadSkipsCommentsRejectsGarbage) {
  std::stringstream good("# comment\n\ng 2 100 8\nF\n");
  const Trace t = Trace::load(good);
  EXPECT_EQ(t.events.size(), 2u);
  EXPECT_EQ(t.events[0].target, 2);

  std::stringstream bad("z 1 2 3\n");
  EXPECT_THROW(Trace::load(bad), util::ContractError);
  std::stringstream truncated("g 1\n");
  EXPECT_THROW(Trace::load(truncated), util::ContractError);
}

TEST(Trace, FaultRetryEventsRoundTrip) {
  Trace t;
  t.add_get(1, 0, 64);
  t.add_fault(1, 0, 64);
  t.add_retry(1, /*attempt=*/1, /*backoff_ns=*/4000);
  t.add_retry(1, /*attempt=*/2, /*backoff_ns=*/8123);
  t.add_flush(1);

  std::stringstream ss;
  t.save(ss);
  const std::string text = ss.str();
  EXPECT_NE(text.find("x 1 0 64"), std::string::npos);
  EXPECT_NE(text.find("r 1 2 8123"), std::string::npos);

  const Trace u = Trace::load(ss);
  ASSERT_EQ(u.events.size(), t.events.size());
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    EXPECT_EQ(u.events[i].kind, t.events[i].kind);
    EXPECT_EQ(u.events[i].target, t.events[i].target);
    EXPECT_EQ(u.events[i].disp, t.events[i].disp);
    EXPECT_EQ(u.events[i].bytes, t.events[i].bytes);
  }
}

TEST(Trace, IntegrityEventsRoundTrip) {
  Trace t;
  t.add_get(1, 0, 64);
  t.add_corruption(1, 0, 64);        // self-healed hit on target 1
  t.add_corruption(-1, 0, 3);        // scrub summary: 3 entries quarantined
  t.add_flush_all();

  std::stringstream ss;
  t.save(ss);
  const std::string text = ss.str();
  EXPECT_NE(text.find("c 1 0 64"), std::string::npos);
  EXPECT_NE(text.find("c -1 0 3"), std::string::npos);

  const Trace u = Trace::load(ss);
  ASSERT_EQ(u.events.size(), t.events.size());
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    EXPECT_EQ(u.events[i].kind, t.events[i].kind);
    EXPECT_EQ(u.events[i].target, t.events[i].target);
    EXPECT_EQ(u.events[i].disp, t.events[i].disp);
    EXPECT_EQ(u.events[i].bytes, t.events[i].bytes);
  }

  // The retired `b` (fail-open state change) annotation is an unknown tag.
  std::stringstream old("g 1 0 64\nb 1\n");
  EXPECT_THROW(Trace::load(old), util::ContractError);
}

TEST(Trace, ReplayCoreSkipsIntegrityAnnotations) {
  Trace plain = sample_trace();
  Trace annotated = sample_trace();
  annotated.events.insert(annotated.events.begin() + 1,
                          {Event::Kind::kCorruption, 1, 0, 64});

  Config cfg;
  cfg.index_entries = 64;
  cfg.storage_bytes = 4096;
  CacheCore a(cfg);
  CacheCore b(cfg);
  const Stats sa = trace::replay_core(plain, a);
  const Stats sb = trace::replay_core(annotated, b);
  EXPECT_EQ(sa.total_gets, sb.total_gets);
  EXPECT_EQ(sa.hits_full, sb.hits_full);
  EXPECT_EQ(sa.bytes_from_cache, sb.bytes_from_cache);
  EXPECT_EQ(sa.bytes_from_network, sb.bytes_from_network);
}

TEST(Trace, OldTracesWithoutFaultEventsStillParse) {
  // A pre-fault-format trace (only g/f/F/I lines) must load unchanged.
  std::stringstream legacy("g 2 100 8\nf 2\ng 0 0 16\nF\nI\n");
  const Trace t = Trace::load(legacy);
  ASSERT_EQ(t.events.size(), 5u);
  EXPECT_EQ(t.events[0].kind, Event::Kind::kGet);
  EXPECT_EQ(t.events[1].kind, Event::Kind::kFlush);
  EXPECT_EQ(t.events[3].kind, Event::Kind::kFlushAll);
  EXPECT_EQ(t.events[4].kind, Event::Kind::kInvalidate);
}

TEST(Trace, ReplayCoreSkipsFaultAnnotations) {
  // Fault/retry annotations must not perturb replay statistics.
  Trace plain = sample_trace();
  Trace annotated = sample_trace();
  annotated.events.insert(annotated.events.begin() + 1,
                          {Event::Kind::kFault, 1, 0, 64});
  annotated.events.insert(annotated.events.begin() + 2,
                          {Event::Kind::kRetry, 1, 1, 4000});

  Config cfg;
  cfg.index_entries = 64;
  cfg.storage_bytes = 4096;
  CacheCore a(cfg);
  CacheCore b(cfg);
  const Stats sa = trace::replay_core(plain, a);
  const Stats sb = trace::replay_core(annotated, b);
  EXPECT_EQ(sa.total_gets, sb.total_gets);
  EXPECT_EQ(sa.hits_full, sb.hits_full);
  EXPECT_EQ(sa.bytes_from_cache, sb.bytes_from_cache);
  EXPECT_EQ(sa.bytes_from_network, sb.bytes_from_network);
}

TEST(Trace, HealthEventsRoundTrip) {
  Trace t;
  t.add_get(1, 0, 64);
  t.add_health(1, 2);   // target 1 -> kQuarantined
  t.add_health(1, 3);   // target 1 -> kProbing
  t.add_health(1, 0);   // target 1 -> kHealthy (reclosed)
  t.add_flush_all();

  std::stringstream ss;
  t.save(ss);
  const std::string text = ss.str();
  EXPECT_NE(text.find("h 1 2"), std::string::npos);
  EXPECT_NE(text.find("h 1 3"), std::string::npos);
  EXPECT_NE(text.find("h 1 0"), std::string::npos);

  const Trace u = Trace::load(ss);
  ASSERT_EQ(u.events.size(), t.events.size());
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    EXPECT_EQ(u.events[i].kind, t.events[i].kind);
    EXPECT_EQ(u.events[i].target, t.events[i].target);
    EXPECT_EQ(u.events[i].disp, t.events[i].disp);
    EXPECT_EQ(u.events[i].bytes, t.events[i].bytes);
  }
}

TEST(Trace, ReplayCoreSkipsHealthAnnotations) {
  // Health-transition annotations must not perturb replay statistics, so
  // traces recorded with the detector on replay like their plain twins.
  Trace plain = sample_trace();
  Trace annotated = sample_trace();
  annotated.events.insert(annotated.events.begin() + 1,
                          {Event::Kind::kHealth, 1, 2, 0});
  annotated.events.insert(annotated.events.begin() + 2,
                          {Event::Kind::kHealth, 1, 0, 0});

  Config cfg;
  cfg.index_entries = 64;
  cfg.storage_bytes = 4096;
  CacheCore a(cfg);
  CacheCore b(cfg);
  const Stats sa = trace::replay_core(plain, a);
  const Stats sb = trace::replay_core(annotated, b);
  EXPECT_EQ(sa.total_gets, sb.total_gets);
  EXPECT_EQ(sa.hits_full, sb.hits_full);
  EXPECT_EQ(sa.bytes_from_cache, sb.bytes_from_cache);
  EXPECT_EQ(sa.bytes_from_network, sb.bytes_from_network);
}

TEST(Trace, ReplayCoreReproducesAccessMix) {
  // Two epochs of the same three keys: first all direct, then all hits;
  // after the invalidation everything is cold again.
  Trace t;
  for (int round = 0; round < 2; ++round) {
    for (int k = 0; k < 3; ++k) t.add_get(0, static_cast<std::uint64_t>(k) * 4096, 512);
    t.add_flush_all();
  }
  t.add_invalidate();
  for (int k = 0; k < 3; ++k) t.add_get(0, static_cast<std::uint64_t>(k) * 4096, 512);
  t.add_flush_all();

  Config cfg;
  cfg.mode = Mode::kAlwaysCache;
  cfg.index_entries = 64;
  cfg.storage_bytes = 64 * 1024;
  CacheCore core(cfg);
  const Stats st = trace::replay_core(t, core);
  EXPECT_EQ(st.total_gets, 9u);
  EXPECT_EQ(st.direct, 6u);      // 3 cold + 3 after invalidation
  EXPECT_EQ(st.hits_full, 3u);   // the middle epoch
  EXPECT_EQ(st.invalidations, 1u);
  EXPECT_TRUE(core.validate());
}

TEST(Trace, ReplayCoreHandlesPendingHits) {
  Trace t;
  t.add_get(0, 0, 128);
  t.add_get(0, 0, 128);  // same epoch: pending hit
  t.add_flush_all();
  Config cfg;
  cfg.index_entries = 64;
  cfg.storage_bytes = 64 * 1024;
  CacheCore core(cfg);
  const Stats st = trace::replay_core(t, core);
  EXPECT_EQ(st.hits_pending, 1u);
  EXPECT_EQ(core.pending_entries(), 0u);  // flush materialized it
}

TEST(Trace, RecordThenReplayWindowMatchesStats) {
  Engine e(ecfg(2));
  e.run([](Process& p) {
    void* base = nullptr;
    Config cfg;
    cfg.mode = Mode::kAlwaysCache;
    cfg.index_entries = 256;
    cfg.storage_bytes = 256 * 1024;
    auto win = CachedWindow::allocate(p, 64 * 1024, &base, cfg);
    p.barrier();
    win.lock_all();

    // Record an irregular access pattern.
    Trace t;
    RecordingWindow rec(win, t);
    std::vector<std::byte> buf(4096);
    util::Xoshiro256 rng(3);
    for (int i = 0; i < 500; ++i) {
      rec.get(buf.data(), 64 + rng.bounded(1024), 1 - p.rank(), rng.bounded(32) * 2048);
      if (i % 8 == 7) rec.flush_all();
    }
    rec.flush_all();
    const Stats live = win.stats();
    win.unlock_all();

    // Offline replay of the recorded trace must classify identically
    // (same config, same deterministic hash seeds).
    CacheCore core(cfg);
    const Stats replayed = trace::replay_core(t, core);
    EXPECT_EQ(replayed.total_gets, live.total_gets);
    EXPECT_EQ(replayed.hits_full, live.hits_full);
    EXPECT_EQ(replayed.hits_pending, live.hits_pending);
    EXPECT_EQ(replayed.hits_partial, live.hits_partial);
    EXPECT_EQ(replayed.direct, live.direct);
    EXPECT_EQ(replayed.conflicting, live.conflicting);
    EXPECT_EQ(replayed.capacity, live.capacity);
    EXPECT_EQ(replayed.failing, live.failing);

    p.barrier();
    win.free_window();
  });
}

TEST(Trace, ReplayWindowRunsAndReturnsTime) {
  Engine e(ecfg(2));
  e.run([](Process& p) {
    void* base = nullptr;
    Config cfg;
    cfg.mode = Mode::kAlwaysCache;
    auto win = CachedWindow::allocate(p, 8192, &base, cfg);
    p.barrier();
    win.lock_all();
    Trace t;
    t.add_get(1 - p.rank(), 0, 512);
    t.add_flush_all();
    t.add_get(1 - p.rank(), 0, 512);  // hit
    t.add_flush_all();
    const double us = trace::replay_window(t, win);
    EXPECT_GT(us, 0.0);
    EXPECT_EQ(win.stats().hits_full, 1u);
    win.unlock_all();
    p.barrier();
    win.free_window();
  });
}

}  // namespace
