// micro_hotpath — the perf-regression harness for CLaMPI's cache core.
//
// Guards the per-operation costs the paper's crossover analysis lives on
// (Sec. III, Fig. 7): index lookup hit/miss, the cuckoo insertion walk,
// storage alloc/dealloc/extend, the end-to-end cached-get hit in the core
// and the same hit one rung up, through CachedWindow::get(), and under
// measured time one Process::now_us() and a cold CachedWindow get+flush
// (the instrument and the miss path). Unlike
// micro_structures.cc (broad data-structure coverage), every benchmark
// here keeps harness overhead off the measured path: key selection uses
// power-of-two masks (no integer divide), sizes come from precomputed
// tables, and steady-state loops avoid per-iteration RNG.
//
// Run from the repo root; by default the binary writes
// BENCH_cache_hotpath.json (google-benchmark JSON) into the current
// directory so the perf trajectory of the repo is recorded run over run.
// Pass your own --benchmark_out=... to override. See docs/PERF.md for the
// methodology and how to compare runs.
#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "clampi/cache.h"
#include "clampi/cuckoo_index.h"
#include "clampi/storage.h"
#include "clampi/window.h"
#include "netmodel/model.h"
#include "rt/engine.h"
#include "util/rng.h"

using namespace clampi;

namespace {

// Entry records sized like CacheCore::Entry (one 64-byte cache line per
// entry), so the cost of the exact-compare predicate matches production.
struct EntryRec {
  std::uint64_t key;
  std::uint64_t pad[7];
};

struct RawOps {
  std::vector<EntryRec> keys;
  std::uint64_t hash_key(std::uint32_t id) const { return keys[id].key; }
};

/// Report a hot-path counter as a per-iteration rate. Template so the
/// harness still compiles against revisions that predate the counters —
/// the whole file can be rebuilt at an older commit for A/B comparison.
template <class Idx, class Getter>
  requires requires(const Idx& i, Getter g) { g(i.counters()); }
void report_index_counter(benchmark::State& state, const Idx& idx, const char* name,
                          Getter getter) {
  const auto iters = static_cast<double>(state.iterations() ? state.iterations() : 1);
  state.counters[name] = static_cast<double>(getter(idx.counters())) / iters;
}
template <class... Ts>
void report_index_counter(Ts&&...) {}  // older revision: no counters, no-op

/// lookup() with probe counting where the revision supports it (the
/// out-parameter form CacheCore::access() uses), plain lookup otherwise.
template <class Idx, class Pred>
std::uint32_t counted_lookup(const Idx& idx, std::uint64_t k, Pred&& pred, int* probes) {
  if constexpr (requires { idx.lookup(k, pred, probes); }) {
    return idx.lookup(k, static_cast<Pred&&>(pred), probes);
  } else {
    return idx.lookup(k, static_cast<Pred&&>(pred));
  }
}

/// Fill `idx` to roughly `load` (0..1) with random keys; returns the keys
/// that were actually placed, truncated to a power-of-two count so the
/// benchmark loop can cycle with a mask instead of a divide.
std::vector<std::uint64_t> fill_index(CuckooIndex<RawOps>& idx, RawOps& ops, double load,
                                      std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> placed;
  const auto want = static_cast<std::size_t>(static_cast<double>(idx.nslots()) * load);
  while (idx.occupied() < want) {
    const std::uint64_t k = rng();
    ops.keys.push_back({k, {}});
    if (idx.insert(k, static_cast<std::uint32_t>(ops.keys.size() - 1), nullptr)) {
      placed.push_back(k);
    }
  }
  std::size_t pow2 = 1;
  while (pow2 * 2 <= placed.size()) pow2 *= 2;
  placed.resize(pow2);
  return placed;
}

// --- index: lookup hit -----------------------------------------------------

// Arguments: {slots, load%}. The probe count is accumulated exactly the
// way CacheCore::access() does it — through lookup()'s out-parameter into
// a counter the caller owns. The paper's index runs near-full (p = 4
// sustains ~97% utilization, Sec. III-C1), so the 90%-load rows are the
// representative regime; 50% covers a lightly loaded window.
void BM_IndexLookupHit(benchmark::State& state) {
  const auto slots = static_cast<std::size_t>(state.range(0));
  const double load = static_cast<double>(state.range(1)) / 100.0;
  RawOps ops;
  CuckooIndex<RawOps> idx(slots, 4, 64, 42, &ops);
  const auto keys = fill_index(idx, ops, load, 1);
  const std::size_t mask = keys.size() - 1;
  std::size_t i = 0;
  std::uint64_t total_probes = 0;
  for (auto _ : state) {
    const std::uint64_t k = keys[i++ & mask];
    int probes = 0;
    benchmark::DoNotOptimize(counted_lookup(
        idx, k, [&](std::uint32_t id) { return ops.keys[id].key == k; }, &probes));
    total_probes += static_cast<std::uint64_t>(probes);
  }
  state.counters["probes_per_lookup"] =
      static_cast<double>(total_probes) /
      static_cast<double>(state.iterations() ? state.iterations() : 1);
}
BENCHMARK(BM_IndexLookupHit)
    ->ArgsProduct({{1 << 10, 1 << 14, 1 << 18}, {50, 90}});

// --- index: lookup miss ----------------------------------------------------

void BM_IndexLookupMiss(benchmark::State& state) {
  RawOps ops;
  CuckooIndex<RawOps> idx(1 << 14, 4, 64, 42, &ops);
  fill_index(idx, ops, 0.9, 3);
  std::uint64_t probe = 0xdead;
  for (auto _ : state) {
    probe += 0x9e3779b97f4a7c15ull;
    benchmark::DoNotOptimize(
        idx.lookup(probe, [&](std::uint32_t id) { return ops.keys[id].key == probe; }));
  }
}
BENCHMARK(BM_IndexLookupMiss);

// --- index: insertion walk -------------------------------------------------

// Steady state at high load: erase one resident entry, insert a fresh
// key. Most inserts displace occupants, exercising the kick rotation.
void BM_IndexInsertWalk(benchmark::State& state) {
  RawOps ops;
  CuckooIndex<RawOps> idx(1 << 14, 4, 64, 42, &ops);
  util::Xoshiro256 rng(4);
  std::vector<std::uint32_t> resident;
  const auto target = static_cast<std::size_t>(static_cast<double>(idx.nslots()) * 0.85);
  while (idx.occupied() < target) {
    const std::uint64_t k = rng();
    ops.keys.push_back({k, {}});
    const auto id = static_cast<std::uint32_t>(ops.keys.size() - 1);
    if (idx.insert(k, id, nullptr)) resident.push_back(id);
  }
  std::size_t pow2 = 1;
  while (pow2 * 2 <= resident.size()) pow2 *= 2;
  resident.resize(pow2);
  const std::size_t mask = resident.size() - 1;
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t at = i++ & mask;
    const std::uint32_t victim = resident[at];
    idx.erase(victim);
    // Recycle the id with a fresh key (walks may still fail at this
    // load; keep the occupancy invariant by restoring the old key then).
    const std::uint64_t old_key = ops.keys[victim].key;
    ops.keys[victim].key = old_key * 0x9e3779b97f4a7c15ull + 1;
    if (!idx.insert(ops.keys[victim].key, victim, nullptr)) {
      ops.keys[victim].key = old_key;
      idx.insert(old_key, victim, nullptr);
    }
  }
  report_index_counter(state, idx, "kick_steps_per_insert",
                       [](const auto& c) { return c.kick_steps; });
}
BENCHMARK(BM_IndexInsertWalk);

// --- storage: alloc/dealloc ------------------------------------------------

// Ring of live regions: each iteration deallocs the oldest and allocs a
// replacement — one alloc + one dealloc per iteration, zero harness RNG.
// Freed holes are interior (their neighbours are live), so dealloc takes
// the no-coalesce path and alloc is served from the free index, exactly
// the steady-state cache-entry turnover pattern.
void BM_StorageAllocDealloc(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  Storage s(std::size_t{64} << 20);
  constexpr std::size_t kRing = 512;
  std::vector<Storage::Region*> ring(kRing);
  for (std::size_t i = 0; i < kRing; ++i) ring[i] = s.alloc(bytes);
  std::size_t at = 0;
  for (auto _ : state) {
    s.dealloc(ring[at]);
    ring[at] = s.alloc(bytes);
    benchmark::DoNotOptimize(ring[at]);
    at = (at + 2) & (kRing - 1);  // stride 2: neighbours stay live
  }
}
// 64/1024/4096 are served by the segregated size-class bins; 16384 is
// deliberately past the largest class (4 KiB) and exercises the AVL
// best-fit tree path — expect it to track the pre-bin implementation.
BENCHMARK(BM_StorageAllocDealloc)->Arg(64)->Arg(1024)->Arg(4096)->Arg(16384);

// Mixed small sizes across the segregated classes.
void BM_StorageAllocDeallocMixed(benchmark::State& state) {
  Storage s(std::size_t{64} << 20);
  constexpr std::size_t kRing = 512;
  static constexpr std::size_t kSizes[8] = {64, 128, 256, 448, 1024, 2048, 3072, 4096};
  std::vector<Storage::Region*> ring(kRing);
  for (std::size_t i = 0; i < kRing; ++i) ring[i] = s.alloc(kSizes[i & 7]);
  std::size_t at = 0;
  for (auto _ : state) {
    s.dealloc(ring[at]);
    ring[at] = s.alloc(kSizes[at & 7]);
    benchmark::DoNotOptimize(ring[at]);
    at = (at + 2) & (kRing - 1);
  }
}
BENCHMARK(BM_StorageAllocDeallocMixed);

// --- storage: extend (partial-hit entry growth) ----------------------------

void BM_StorageExtend(benchmark::State& state) {
  Storage s(std::size_t{16} << 20);
  for (auto _ : state) {
    Storage::Region* r = s.alloc(64);
    benchmark::DoNotOptimize(s.try_extend(r, 192));
    s.dealloc(r);
  }
}
BENCHMARK(BM_StorageExtend);

// --- end-to-end: cached get hit --------------------------------------------

// The money path: CacheCore::access() returning a full hit, cycling over
// a small resident working set (mask-indexed).
void BM_CachedGetHit(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  Config cfg;
  cfg.index_entries = 1 << 14;
  cfg.storage_bytes = std::size_t{64} << 20;
  CacheCore c(cfg);
  std::vector<std::byte> payload(bytes);
  constexpr std::size_t kKeys = 64;
  Key keys[kKeys];
  for (std::size_t i = 0; i < kKeys; ++i) {
    keys[i] = Key{1, i * (std::uint64_t{1} << 20)};
    const auto r = c.access(keys[i], bytes);
    std::memcpy(c.entry_data(r.entry), payload.data(), bytes);
    c.mark_cached(r.entry);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.access(keys[i++ & (kKeys - 1)], bytes));
  }
}
BENCHMARK(BM_CachedGetHit)->Arg(64)->Arg(4096)->Arg(65536);

// One rung up: CachedWindow::get() on a resident entry — admission
// checks, the degraded-read gate, the core hit and the local
// copy — run by rank 0 of a 2-rank modelled engine. Real time, because
// the loop runs on the rank's thread, not the benchmark's.
void BM_WindowGetHit(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kKeys = 64;
  rmasim::Engine::Config ecfg;
  ecfg.nranks = 2;
  ecfg.model = std::make_shared<net::FlatModel>(1.0, 0.0);
  ecfg.time_policy = rmasim::TimePolicy::kModeled;
  rmasim::Engine e(ecfg);
  e.run([&](rmasim::Process& p) {
    Config cfg;
    cfg.mode = Mode::kAlwaysCache;
    cfg.index_entries = 1 << 10;
    cfg.storage_bytes = std::size_t{8} << 20;
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, kKeys * bytes, &base, cfg);
    if (p.rank() == 0) {
      std::vector<std::byte> buf(bytes);
      win.lock_all();
      for (std::size_t k = 0; k < kKeys; ++k) win.get(buf.data(), bytes, 1, k * bytes);
      win.flush_all();
      std::size_t i = 0;
      for (auto _ : state) {
        win.get(buf.data(), bytes, 1, (i++ & (kKeys - 1)) * bytes);
        benchmark::DoNotOptimize(buf.data());
        benchmark::ClobberMemory();
      }
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
}
BENCHMARK(BM_WindowGetHit)->Arg(64)->UseRealTime();

// The instrument's own rung: one Process::now_us() under kMeasured, which
// charges the user time since the last anchor and re-anchors (one clock
// read). Real time, run by rank 0 of a 2-rank engine.
void BM_ProcessNowUs(benchmark::State& state) {
  rmasim::Engine::Config ecfg;
  ecfg.nranks = 2;
  ecfg.model = std::make_shared<net::FlatModel>(1.0, 0.0);
  ecfg.time_policy = rmasim::TimePolicy::kMeasured;
  rmasim::Engine e(ecfg);
  e.run([&](rmasim::Process& p) {
    if (p.rank() == 0) {
      for (auto _ : state) benchmark::DoNotOptimize(p.now_us());
    }
    p.barrier();
  });
}
BENCHMARK(BM_ProcessNowUs)->UseRealTime();

// The miss rung: a cold 256 B CachedWindow::get plus its flush, on a fresh
// key each iteration, under kMeasured — admission, the core's insert, the
// network get and flush through the engine, and the copy-in. The index
// holds every key of a pass, so nothing is evicted; between passes the
// cache is invalidated with the timer paused.
void BM_WindowGetMissFlush(benchmark::State& state) {
  constexpr std::size_t kBytes = 256;
  constexpr std::size_t kKeys = std::size_t{1} << 14;
  rmasim::Engine::Config ecfg;
  ecfg.nranks = 2;
  ecfg.model = std::make_shared<net::FlatModel>(1.0, 0.0);
  ecfg.time_policy = rmasim::TimePolicy::kMeasured;
  rmasim::Engine e(ecfg);
  e.run([&](rmasim::Process& p) {
    Config cfg;
    cfg.mode = Mode::kAlwaysCache;
    cfg.index_entries = kKeys * 4;
    cfg.storage_bytes = kKeys * kBytes * 2;
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, kKeys * kBytes, &base, cfg);
    if (p.rank() == 0) {
      std::vector<std::byte> buf(kBytes);
      win.lock_all();
      std::size_t k = 0;
      for (auto _ : state) {
        win.get(buf.data(), kBytes, 1, k * kBytes);
        win.flush(1);
        benchmark::DoNotOptimize(buf.data());
        benchmark::ClobberMemory();
        if (++k == kKeys) {
          state.PauseTiming();
          win.invalidate();
          k = 0;
          state.ResumeTiming();
        }
      }
      const Stats& st = win.stats();
      state.counters["evictions"] = static_cast<double>(st.evictions);
      state.counters["hits"] = static_cast<double>(st.hitting());
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
}
BENCHMARK(BM_WindowGetMissFlush)->UseRealTime();

// Steady-state miss with one capacity eviction per access — the weak-
// caching bound (Sec. III-D2) on the miss side.
void BM_CachedGetMissEvict(benchmark::State& state) {
  Config cfg;
  cfg.index_entries = 1 << 14;
  cfg.storage_bytes = std::size_t{1} << 20;
  CacheCore c(cfg);
  std::uint64_t disp = 0;
  std::vector<std::byte> payload(1024);
  for (auto _ : state) {
    const auto r = c.access({1, disp}, 1024);
    if (r.inserted) {
      std::memcpy(c.entry_data(r.entry), payload.data(), 1024);
      c.mark_cached(r.entry);
    }
    disp += 4096;
  }
}
BENCHMARK(BM_CachedGetMissEvict);

}  // namespace

// Custom main: default --benchmark_out so a bare run from the repo root
// drops BENCH_cache_hotpath.json in place (explicit flags still win).
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_cache_hotpath.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
