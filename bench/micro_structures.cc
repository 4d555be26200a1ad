// google-benchmark microbenchmarks of CLaMPI's core data structures:
// the per-operation costs that bound the cache-hit and miss overheads
// (Sec. III: "minimize the cost of the cache hit ... minimal overhead in
// the cache-miss case").
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <numeric>
#include <vector>

#include "clampi/cache.h"
#include "clampi/cuckoo_index.h"
#include "clampi/storage.h"
#include "graph/lcc.h"
#include "graph/rmat.h"
#include "kv/ring.h"
#include "kv/store.h"
#include "netmodel/model.h"
#include "rt/engine.h"
#include "util/avl_tree.h"
#include "util/rng.h"
#include "util/skew.h"

using namespace clampi;

namespace {

struct RawOps {
  std::vector<std::uint64_t> keys;
  std::uint64_t hash_key(std::uint32_t id) const { return keys[id]; }
};

void BM_CuckooLookupHit(benchmark::State& state) {
  const auto slots = static_cast<std::size_t>(state.range(0));
  RawOps ops;
  CuckooIndex<RawOps> idx(slots, 4, 64, 42, &ops);
  util::Xoshiro256 rng(1);
  std::vector<std::uint64_t> keys;
  for (std::size_t i = 0; i < slots / 2; ++i) {
    const std::uint64_t k = rng();
    ops.keys.push_back(k);
    if (idx.insert(k, static_cast<std::uint32_t>(ops.keys.size() - 1), nullptr)) {
      keys.push_back(k);
    }
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const std::uint64_t k = keys[i++ % keys.size()];
    benchmark::DoNotOptimize(
        idx.lookup(k, [&](std::uint32_t id) { return ops.keys[id] == k; }));
  }
}
BENCHMARK(BM_CuckooLookupHit)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_CuckooLookupMiss(benchmark::State& state) {
  RawOps ops;
  CuckooIndex<RawOps> idx(1 << 14, 4, 64, 42, &ops);
  util::Xoshiro256 rng(2);
  for (int i = 0; i < (1 << 13); ++i) {
    const std::uint64_t k = rng();
    ops.keys.push_back(k);
    idx.insert(k, static_cast<std::uint32_t>(ops.keys.size() - 1), nullptr);
  }
  std::uint64_t probe = 0xdead;
  for (auto _ : state) {
    probe += 0x9e3779b97f4a7c15ull;
    benchmark::DoNotOptimize(
        idx.lookup(probe, [&](std::uint32_t id) { return ops.keys[id] == probe; }));
  }
}
BENCHMARK(BM_CuckooLookupMiss);

void BM_StorageAllocDealloc(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  Storage s(std::size_t{64} << 20);
  std::vector<Storage::Region*> live;
  util::Xoshiro256 rng(3);
  for (auto _ : state) {
    if (live.size() < 1000 && (live.empty() || rng.uniform() < 0.55)) {
      if (auto* r = s.alloc(bytes)) live.push_back(r);
    } else {
      const std::size_t i = rng.bounded(live.size());
      s.dealloc(live[i]);
      live[i] = live.back();
      live.pop_back();
    }
  }
}
BENCHMARK(BM_StorageAllocDealloc)->Arg(64)->Arg(1024)->Arg(16384);

void BM_AvlBestFitSearch(benchmark::State& state) {
  util::AvlTree<std::pair<std::size_t, std::size_t>, int> t;
  util::Xoshiro256 rng(4);
  for (int i = 0; i < 4096; ++i) t.insert({rng.bounded(1 << 20), i}, i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.lower_bound({rng.bounded(1 << 20), 0}));
  }
}
BENCHMARK(BM_AvlBestFitSearch);

void BM_CacheAccessHit(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  Config cfg;
  cfg.index_entries = 1 << 14;
  cfg.storage_bytes = std::size_t{32} << 20;
  CacheCore c(cfg);
  std::vector<std::byte> payload(bytes);
  const auto r = c.access({1, 0}, bytes);
  std::memcpy(c.entry_data(r.entry), payload.data(), bytes);
  c.mark_cached(r.entry);
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.access({1, 0}, bytes));
  }
}
BENCHMARK(BM_CacheAccessHit)->Arg(64)->Arg(4096)->Arg(65536);

void BM_CacheAccessMissEvict(benchmark::State& state) {
  // Steady-state miss with one capacity eviction per access.
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
BENCHMARK(BM_CacheAccessMissEvict);

void BM_ScoreComputation(benchmark::State& state) {
  Config cfg;
  cfg.index_entries = 1 << 12;
  cfg.storage_bytes = std::size_t{4} << 20;
  CacheCore c(cfg);
  std::vector<std::uint32_t> ids;
  std::vector<std::byte> payload(2048);
  for (int i = 0; i < 512; ++i) {
    const auto r = c.access({1, static_cast<std::uint64_t>(i) * 8192}, 2048);
    if (r.inserted) {
      std::memcpy(c.entry_data(r.entry), payload.data(), 2048);
      c.mark_cached(r.entry);
      ids.push_back(r.entry);
    }
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.score(ids[i++ % ids.size()]));
  }
}
BENCHMARK(BM_ScoreComputation);

// The put rung (docs/PERF.md "Put invalidation"): n live 256 B entries,
// dropped one at a time in scattered order, so at large n each drop
// touches cold memory. Each iteration times a batch of drops; the misses
// that re-cache the dropped entries, keeping the population at n, run
// outside the timed region. `drop(slot)` returns the entries it dropped.
template <class Drop>
void run_put_rung(benchmark::State& state, Drop drop) {
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kBytes = 256;
  constexpr std::size_t kBatch = 64;
  Config cfg;
  cfg.index_entries = 2 * n;
  cfg.storage_bytes = 2 * n * kBytes;
  CacheCore c(cfg);
  std::vector<std::uint32_t> ids(n, kNoEntry);
  const auto cache_slot = [&](std::uint64_t slot) {
    const auto r = c.access({1, slot * kBytes}, kBytes);
    if (r.inserted) {
      c.mark_cached(r.entry);
      ids[slot] = r.entry;
    }
  };
  for (std::size_t slot = 0; slot < n; ++slot) cache_slot(slot);
  std::uint64_t i = 0;
  std::uint64_t dropped = 0;
  std::uint64_t batch[kBatch];
  for (auto _ : state) {
    // Odd multiplier mod a power of two: distinct slots, scattered.
    for (auto& slot : batch) slot = (i++ * 0x9e3779b1ull) & (n - 1);
    const auto start = std::chrono::steady_clock::now();
    for (const auto slot : batch) dropped += drop(c, slot * kBytes, ids[slot]);
    state.SetIterationTime(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());
    for (const auto slot : batch) cache_slot(slot);
  }
  benchmark::DoNotOptimize(dropped);
  const auto drops = static_cast<double>(kBatch * state.iterations());
  state.counters["per_op"] =
      benchmark::Counter(drops, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["dropped_per_op"] = static_cast<double>(dropped) / drops;
  state.counters["live_entries"] = static_cast<double>(c.cached_entries());
}

// A 256 B put over one live entry: lookup plus drop.
void BM_InvalidateOverlap(benchmark::State& state) {
  run_put_rung(state, [](CacheCore& c, std::uint64_t disp, std::uint32_t) {
    return c.invalidate_overlap(1, disp, 256);
  });
}
BENCHMARK(BM_InvalidateOverlap)->UseManualTime()->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

// The same drops by id, with no lookup: the memory-bound floor of the rung.
void BM_DropById(benchmark::State& state) {
  run_put_rung(state, [](CacheCore& c, std::uint64_t, std::uint32_t id) {
    c.quarantine(id);
    return std::size_t{1};
  });
}
BENCHMARK(BM_DropById)->UseManualTime()->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

// The LCC kernel rung (docs/PERF.md "LCC kernel"): one vertex v with
// |adj(v)| = a and a neighbours whose lists hold b ids each, drawn from a
// pool of 64 random sorted lists over the 2^14 ids of an R-MAT scale-14
// graph. The merge intersects adj(v) with every list; the marker marks
// adj(v), probes every list and clears adj(v), as DistributedLcc does.
// `per_elem` is the time per fetched-list element (a * b per iteration).
enum class LccKernel { kMerge, kMarker };

void BM_LccIntersect(benchmark::State& state, LccKernel kernel) {
  constexpr std::size_t kIds = std::size_t{1} << 14;
  constexpr std::size_t kPool = 64;
  const auto a = static_cast<std::size_t>(state.range(0));
  const auto b = static_cast<std::size_t>(state.range(1));
  util::Xoshiro256 rng(7);
  std::vector<graph::Vertex> ids(kIds);
  std::iota(ids.begin(), ids.end(), 0);
  const auto sorted_sample = [&](std::size_t k) {
    for (std::size_t i = 0; i < k; ++i) std::swap(ids[i], ids[i + rng.bounded(kIds - i)]);
    std::vector<graph::Vertex> out(ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(k));
    std::sort(out.begin(), out.end());
    return out;
  };
  const std::vector<graph::Vertex> nv = sorted_sample(a);
  std::vector<std::vector<graph::Vertex>> pool;
  for (std::size_t i = 0; i < kPool; ++i) pool.push_back(sorted_sample(b));
  graph::AdjacencyMarker marker(kIds);
  std::size_t closed = 0;
  for (auto _ : state) {
    if (kernel == LccKernel::kMerge) {
      for (std::size_t k = 0; k < a; ++k) {
        const auto& list = pool[k % kPool];
        closed += graph::intersect_count(nv.data(), a, list.data(), b);
      }
    } else {
      marker.mark(nv.data(), a);
      for (std::size_t k = 0; k < a; ++k) {
        const auto& list = pool[k % kPool];
        closed += marker.count(list.data(), b);
      }
      marker.clear(nv.data(), a);
    }
    benchmark::DoNotOptimize(closed);
  }
  state.counters["per_elem"] =
      benchmark::Counter(static_cast<double>(a * b * state.iterations()),
                         benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_LccIntersect, merge, LccKernel::kMerge)
    ->Args({8, 8})
    ->Args({4096, 8})
    ->Args({4096, 4096});
BENCHMARK_CAPTURE(BM_LccIntersect, marker, LccKernel::kMarker)
    ->Args({8, 8})
    ->Args({4096, 8})
    ->Args({4096, 4096});

// The ring rung (docs/PERF.md "Store construction"): one replicas() call
// per key, as every get, put and shard load makes. Args: servers, vnodes
// per server, replicas per key.
void BM_RingReplicas(benchmark::State& state) {
  const auto nservers = static_cast<int>(state.range(0));
  const kv::Ring ring(nservers, static_cast<int>(state.range(1)), 0x6b7653eedull);
  const auto count = static_cast<int>(state.range(2));
  int reps[kv::kMaxReplicas];
  std::uint64_t i = 0;
  int sum = 0;
  for (auto _ : state) {
    ring.replicas(util::mix64(i++), count, reps);
    sum += reps[count - 1];
  }
  benchmark::DoNotOptimize(sum);
}
BENCHMARK(BM_RingReplicas)->Args({2, 64, 1})->Args({2, 64, 2})->Args({16, 256, 3});

// The shard load rung: building a one-server kv::Store of 2^18 keys on the
// modelled engine (window, lazy cache arena, ring walk, bucket inserts).
// Only the constructor is timed; `per_key` is its time per loaded key.
void BM_StoreLoad(benchmark::State& state) {
  kv::StoreConfig cfg;
  cfg.nkeys = std::uint64_t{1} << 18;
  cfg.nservers = 1;
  cfg.cache.mode = Mode::kUserDefined;
  cfg.cache.adaptive = false;
  cfg.cache.index_entries = std::size_t{1} << 17;
  cfg.cache.storage_bytes = std::size_t{64} << 20;
  rmasim::Engine::Config ecfg;
  ecfg.nranks = 1;
  ecfg.model = std::make_shared<net::FlatModel>(2.0, 0.001);
  ecfg.time_policy = rmasim::TimePolicy::kModeled;
  std::uint64_t loaded = 0;
  for (auto _ : state) {
    rmasim::Engine engine(ecfg);
    engine.run([&](rmasim::Process& p) {
      const auto start = std::chrono::steady_clock::now();
      kv::Store store(p, cfg);
      state.SetIterationTime(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());
      loaded += store.keys_loaded();
      store.free_window();
    });
  }
  state.counters["per_key"] = benchmark::Counter(
      static_cast<double>(loaded), benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_StoreLoad)->UseManualTime()->Unit(benchmark::kMillisecond);

// The uncached bucket-read rung under kv-read-nocache's
// rt.wall_ns_per_net_op: one 208 B Process::get + flush at a random bucket
// of a 70.9 MB window (340,788 buckets, a kv-read server shard) on the
// modelled engine. Every page is written first, as the shard load does,
// so the reads hit real pages; random reads over that much memory are
// bound by TLB reach (docs/PERF.md "Huge pages").
void BM_LargeWindowGet(benchmark::State& state) {
  constexpr std::size_t kBucket = 208;
  constexpr std::size_t kBuckets = 340788;
  constexpr std::size_t kOffsets = std::size_t{1} << 16;
  rmasim::Engine::Config ecfg;
  ecfg.nranks = 2;
  ecfg.model = std::make_shared<net::FlatModel>(2.0, 0.001);
  ecfg.time_policy = rmasim::TimePolicy::kModeled;
  rmasim::Engine engine(ecfg);
  engine.run([&](rmasim::Process& p) {
    void* base = nullptr;
    const auto w = p.win_allocate(p.rank() == 1 ? kBuckets * kBucket : 0, &base);
    if (p.rank() == 1) std::memset(base, 0x5a, kBuckets * kBucket);
    p.barrier();
    if (p.rank() == 0) {
      util::Xoshiro256 rng(7);
      std::vector<std::size_t> offsets(kOffsets);
      for (auto& o : offsets) o = rng.bounded(kBuckets) * kBucket;
      std::vector<std::byte> bucket(kBucket);
      std::size_t i = 0;
      p.lock_all(w);
      for (auto _ : state) {
        p.get(bucket.data(), kBucket, 1, offsets[i++ % kOffsets], w);
        p.flush(1, w);
        benchmark::DoNotOptimize(bucket.data());
      }
      p.unlock_all(w);
    }
    p.barrier();
    p.win_free(w);
  });
}
BENCHMARK(BM_LargeWindowGet);

}  // namespace

BENCHMARK_MAIN();
