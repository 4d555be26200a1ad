// Committed chaos corpus (tests/chaos_corpus/*.json): every file must
// match its in-code builder bit-for-bit (no silent drift between the
// emitter and the committed artifact) and replay with zero oracle
// violations. Scenario-specific assertions pin down that each schedule
// still exercises the machinery it was distilled for (docs/CHAOS.md).
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "chaos/corpus.h"
#include "chaos/runner.h"
#include "chaos/schedule.h"

#ifndef CHAOS_CORPUS_DIR
#error "CHAOS_CORPUS_DIR must point at tests/chaos_corpus"
#endif

namespace clampi::chaos {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return in ? out.str() : std::string();
}

std::string corpus_path(const char* name) {
  return std::string(CHAOS_CORPUS_DIR) + "/" + name + ".json";
}

TEST(ChaosCorpus, CommittedFilesMatchBuilders) {
  ASSERT_EQ(corpus().size(), 12u);
  for (const CorpusEntry& e : corpus()) {
    SCOPED_TRACE(e.name);
    const std::string on_disk = read_file(corpus_path(e.name));
    ASSERT_FALSE(on_disk.empty()) << "missing " << corpus_path(e.name)
                                  << " — regenerate with chaos_fuzz --emit-corpus";
    EXPECT_EQ(on_disk, e.build().to_json() + "\n");
  }
}

TEST(ChaosCorpus, EveryEntryReplaysClean) {
  for (const CorpusEntry& e : corpus()) {
    SCOPED_TRACE(e.name);
    const Schedule s = Schedule::from_json(read_file(corpus_path(e.name)));
    EXPECT_EQ(s, e.build());  // the parsed artifact IS the builder's value
    const Outcome out = run(s);
    EXPECT_TRUE(out.completed);
    EXPECT_TRUE(out.oracle_ok) << (out.violations.empty()
                                       ? "(no violation recorded)"
                                       : out.violations.front());
  }
}

TEST(ChaosCorpus, ScenariosExerciseTheirMachinery) {
  std::map<std::string, Outcome> by_name;
  for (const CorpusEntry& e : corpus()) by_name[e.name] = run(e.build());

  // Stale put healed by shadow-verify: at least one mismatch caught and
  // transparently re-served.
  EXPECT_GT(by_name.at("stale_put_shadow_heal").stats.shadow_mismatches, 0u);
  EXPECT_GT(by_name.at("stale_put_shadow_heal").stats.self_heals, 0u);

  // Bit rot under verify_every_n=1: corruption detected and healed from
  // the origin, never served.
  EXPECT_GT(by_name.at("bitrot_per_hit_verify").stats.corruption_detected, 0u);
  EXPECT_GT(by_name.at("bitrot_per_hit_verify").stats.self_heals, 0u);

  // Quarantine flapping: the health machine actually quarantined.
  EXPECT_GT(by_name.at("quarantine_flap").stats.health_quarantines, 0u);

  // Degraded reads around a death: cache served bounded-staleness data.
  EXPECT_GT(by_name.at("revive_cycle").degraded_serves +
                by_name.at("revive_cycle").stats.fallback_hits,
            0u);

  // Adaptive resizing mid-run: at least one adjustment happened.
  EXPECT_GT(by_name.at("resize_mid_epoch").stats.adjustments, 0u);

  // Partial-hit chain: extensions were exercised (the seed-6 bug class).
  EXPECT_GT(by_name.at("partial_hit_chain").stats.hits_partial, 0u);

  // Transient storms: faults were injected and absorbed.
  EXPECT_GT(by_name.at("spike_storm").faults +
                by_name.at("spike_storm").stats.retries,
            0u);

  // Crash-restart: the outage failed at least one op, and the run still
  // replayed clean — the post-restart gets observed the wiped window.
  EXPECT_GT(by_name.at("crash_restart_wipe").faults, 0u);
  EXPECT_GT(by_name.at("crash_inflight_epoch").stats.invalidations, 0u);
}

}  // namespace
}  // namespace clampi::chaos
