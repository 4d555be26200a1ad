// Example: a read-mostly distributed key-value lookup service on src/kv.
//
// Demonstrates the *user-defined* operational mode (paper Sec. III-A,
// Listing 1) through the kv::Store subsystem (docs/KV.md): 4 server ranks
// own bucket shards of a hashed key space behind a consistent-hash ring;
// 2 client ranks perform Zipf-skewed lookups through CLaMPI, so hot
// buckets become cache-resident. Periodically the owners rewrite every
// value in place (a write epoch, Store::reload) — after which every rank
// invalidates its cache, exactly the Listing 1 invalidate-on-write-epoch
// pattern — and the caches repopulate against the new generation.
//
// Every lookup is validated: values are self-describing (bucket.h), and
// after a reload to generation g each key must serve seq == g - 1. A
// stale read — cached bytes surviving the write epoch — would fail both
// checks and abort. The get/put serving mix with per-replica shadow
// tracking lives in the workload engine (src/kv/workload.h) and the
// kv_sweep bench; this example keeps to the paper's Listing 1 story.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "kv/store.h"
#include "netmodel/hierarchy.h"
#include "rt/engine.h"
#include "util/rng.h"
#include "util/skew.h"

using namespace clampi;

namespace {
constexpr int kServers = 4;
constexpr int kClients = 2;
constexpr std::uint64_t kKeys = std::uint64_t{1} << 15;
constexpr int kPhases = 4;
constexpr int kLookupsPerPhase = 3000;
}  // namespace

int main() {
  rmasim::Engine::Config ecfg;
  ecfg.nranks = kServers + kClients;
  ecfg.model = net::make_aries_model();
  ecfg.time_policy = rmasim::TimePolicy::kModeled;

  rmasim::Engine engine(ecfg);
  engine.run([](rmasim::Process& p) {
    kv::StoreConfig scfg;
    scfg.nkeys = kKeys;
    scfg.nservers = kServers;
    scfg.cache.mode = Mode::kUserDefined;  // epoch invalidation is ours
    scfg.cache.index_entries = 16 << 10;
    scfg.cache.storage_bytes = 8 << 20;
    kv::Store store(p, scfg);

    util::Xoshiro256 rng(1000 + p.rank());
    util::ZipfSampler zipf(kKeys, 0.99);
    std::vector<std::byte> value(scfg.layout.value_capacity);
    double read_us_total = 0.0;

    for (int phase = 0; phase < kPhases; ++phase) {
      // --- write epoch: owners rewrite their shards in place; reload()
      // ends with every rank's clampi_invalidate (Listing 1) ---
      if (phase > 0) store.reload(static_cast<std::uint64_t>(phase) + 1);

      // --- read-only epochs: skewed lookups, cached by CLaMPI ---
      if (p.rank() >= kServers) {
        store.window().lock_all();
        const double t0 = p.now_us();
        for (int i = 0; i < kLookupsPerPhase; ++i) {
          const std::uint64_t key = store.key_at(zipf(rng));
          kv::GetMeta m;
          if (!store.get(key, value.data(), &m)) {
            std::fprintf(stderr, "LOST KEY: phase %d\n", phase);
            std::abort();
          }
          // Self-describing values + generation stamps make staleness
          // visible: after reload(g) every serve must carry seq g - 1.
          if (m.seq != static_cast<std::uint32_t>(store.generation() - 1) ||
              !kv::check_value(key, m.seq, m.len, value.data())) {
            std::fprintf(stderr, "STALE READ: phase %d seq %u gen %llu\n", phase,
                         m.seq, static_cast<unsigned long long>(m.generation));
            std::abort();
          }
        }
        read_us_total += p.now_us() - t0;
        store.window().unlock_all();
      }
      p.barrier();
    }

    const Stats& st = store.window().stats();
    double worst = read_us_total;
    p.allreduce_f64(&read_us_total, &worst, 1, rmasim::ReduceOp::kMax);
    if (p.rank() == 0) {
      std::printf("kv-store: %d phases x %d lookups/client over %llu keys, "
                  "slowest reader %.1f us total\n",
                  kPhases, kLookupsPerPhase,
                  static_cast<unsigned long long>(kKeys), worst);
    }
    if (p.rank() == kServers) {  // one client reports its cache's view
      std::printf("client cache: %.1f%% hits, %llu bucket reads "
                  "(%llu chain follows), %llu invalidations, 0 stale reads\n",
                  100.0 * st.hit_ratio(),
                  static_cast<unsigned long long>(store.counters().bucket_reads),
                  static_cast<unsigned long long>(store.counters().chain_reads),
                  static_cast<unsigned long long>(st.invalidations));
    }
    p.barrier();
    store.free_window();
  });
  return 0;
}
