// Tests for the KV subsystem (src/kv): ring placement, bucket codec,
// collision chains, read-your-writes, cached-get byte-equality against a
// shadow map, and the generation re-read safety net (docs/KV.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "kv/bucket.h"
#include "kv/ring.h"
#include "kv/store.h"
#include "netmodel/model.h"
#include "rt/engine.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/skew.h"

namespace {

using namespace clampi;
using rmasim::Engine;
using rmasim::Process;

Engine::Config engine_cfg(int nranks) {
  Engine::Config cfg;
  cfg.nranks = nranks;
  cfg.model = std::make_shared<net::FlatModel>(2.0, 0.001);
  cfg.time_policy = rmasim::TimePolicy::kModeled;
  return cfg;
}

kv::StoreConfig small_store(std::uint64_t nkeys, int nservers) {
  kv::StoreConfig cfg;
  cfg.nkeys = nkeys;
  cfg.nservers = nservers;
  cfg.cache.mode = Mode::kUserDefined;
  cfg.cache.index_entries = 4096;
  cfg.cache.storage_bytes = 4 << 20;
  return cfg;
}

// --- ring placement ---

TEST(Ring, DeterministicAcrossInstances) {
  const kv::Ring a(4, 64, 0x1234), b(4, 64, 0x1234);
  int ra[kv::kMaxReplicas], rb[kv::kMaxReplicas];
  for (std::uint64_t k = 0; k < 5000; ++k) {
    EXPECT_EQ(a.primary(k), b.primary(k));
    a.replicas(k, 3, ra);
    b.replicas(k, 3, rb);
    for (int i = 0; i < 3; ++i) EXPECT_EQ(ra[i], rb[i]);
  }
}

TEST(Ring, ReplicasDistinctAndLedByPrimary) {
  const kv::Ring ring(5, 32, 0xbeef);
  int reps[kv::kMaxReplicas];
  for (std::uint64_t k = 0; k < 2000; ++k) {
    ring.replicas(k, 4, reps);
    EXPECT_EQ(reps[0], ring.primary(k));
    for (int i = 0; i < 4; ++i) {
      EXPECT_GE(reps[i], 0);
      EXPECT_LT(reps[i], 5);
      for (int j = i + 1; j < 4; ++j) EXPECT_NE(reps[i], reps[j]);
    }
  }
}

TEST(Ring, VnodesKeepPlacementRoughlyBalanced) {
  const int nservers = 4;
  const kv::Ring ring(nservers, 64, 0x5eed);
  std::vector<int> owned(nservers, 0);
  const int keys = 40000;
  for (std::uint64_t k = 0; k < keys; ++k) ++owned[ring.primary(util::mix64(k))];
  for (int s = 0; s < nservers; ++s) {
    // Fair share is 25%; 64 vnodes keep every server within a loose band.
    EXPECT_GT(owned[s], keys / 10) << "server " << s;
    EXPECT_LT(owned[s], keys / 2) << "server " << s;
  }
}

// Test-local reference for the ring: the same sorted points, searched
// with std::lower_bound.
struct RefRing {
  RefRing(int nservers, int vnodes, std::uint64_t seed) : seed(seed) {
    for (int s = 0; s < nservers; ++s) {
      for (int v = 0; v < vnodes; ++v) {
        points.emplace_back(util::mix64(seed ^ (static_cast<std::uint64_t>(s) *
                                                    0x100000001b3ull +
                                                static_cast<std::uint64_t>(v))),
                            s);
      }
    }
    std::sort(points.begin(), points.end());
  }
  std::uint64_t position(std::uint64_t key) const {
    return util::mix64(key ^ seed ^ 0x72696e67ull);
  }
  std::size_t first_point(std::uint64_t key) const {
    const auto it = std::lower_bound(
        points.begin(), points.end(), position(key),
        [](const std::pair<std::uint64_t, int>& p, std::uint64_t v) { return p.first < v; });
    return it == points.end() ? 0 : static_cast<std::size_t>(it - points.begin());
  }
  void replicas(std::uint64_t key, int count, int* out) const {
    const std::size_t i = first_point(key);
    int found = 0;
    for (std::size_t step = 0; step < points.size() && found < count; ++step) {
      const int s = points[(i + step) % points.size()].second;
      if (std::find(out, out + found, s) == out + found) out[found++] = s;
    }
  }
  std::uint64_t seed;
  std::vector<std::pair<std::uint64_t, int>> points;
};

// Inverse of util::mix64, so a test can pick the key whose ring position is
// any chosen value (exactly on a point, one either side, 0, 2^64 - 1).
std::uint64_t unmix64(std::uint64_t z) {
  const auto inv_odd = [](std::uint64_t a) {
    std::uint64_t x = a;  // Newton's iteration doubles the correct low bits
    for (int i = 0; i < 5; ++i) x *= 2 - a * x;
    return x;
  };
  const auto unxorshift = [](std::uint64_t y, int s) {
    std::uint64_t x = y;
    for (int i = 0; i < 64 / s; ++i) x = y ^ (x >> s);
    return x;
  };
  z = unxorshift(z, 31);
  z *= inv_odd(0x94d049bb133111ebull);
  z = unxorshift(z, 27);
  z *= inv_odd(0xbf58476d1ce4e5b9ull);
  z = unxorshift(z, 30);
  return z - 0x9e3779b97f4a7c15ull;
}

TEST(Ring, ReplicasMatchSortedSuccessorSearch) {
  // (1,1): all but one jump-table slice empty; (16,256): 4096 points,
  // several in some slices; every config sees keys past the last point
  // wrap to point 0.
  const std::pair<int, int> configs[] = {{1, 1}, {2, 64}, {7, 3}, {16, 256}};
  const std::uint64_t seed = 0x6b7653eedull;
  for (const auto& [nservers, vnodes] : configs) {
    SCOPED_TRACE(testing::Message() << "nservers=" << nservers << " vnodes=" << vnodes);
    const kv::Ring ring(nservers, vnodes, seed);
    const RefRing ref(nservers, vnodes, seed);
    ASSERT_EQ(ring.points(), ref.points.size());
    // Random keys plus keys placed exactly on, just before and just after
    // every point, and at both ends of the circle.
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 0; k < 200000; ++k) keys.push_back(util::mix64(k ^ 0x7e57ull));
    const auto key_at_pos = [&](std::uint64_t pos) {
      const std::uint64_t key = unmix64(pos) ^ seed ^ 0x72696e67ull;
      EXPECT_EQ(ref.position(key), pos);
      return key;
    };
    for (const auto& [pos, s] : ref.points) {
      keys.push_back(key_at_pos(pos));
      keys.push_back(key_at_pos(pos - 1));
      keys.push_back(key_at_pos(pos + 1));
    }
    keys.push_back(key_at_pos(0));
    keys.push_back(key_at_pos(std::numeric_limits<std::uint64_t>::max()));

    std::size_t wrapped = 0;
    for (const std::uint64_t key : keys) {
      if (ref.position(key) > ref.points.back().first) ++wrapped;
      for (int count = 1; count <= std::min(nservers, kv::kMaxReplicas); ++count) {
        int got[kv::kMaxReplicas], want[kv::kMaxReplicas];
        ring.replicas(key, count, got);
        ref.replicas(key, count, want);
        ASSERT_TRUE(std::equal(got, got + count, want)) << "key " << key << " count " << count;
      }
      ASSERT_EQ(ring.primary(key), ref.points[ref.first_point(key)].second);
    }
    EXPECT_GT(wrapped, 1u);
  }
}

// --- bucket codec ---

TEST(Bucket, HeaderAndSlotRoundTrip) {
  const kv::Layout layout;
  std::vector<std::byte> raw(layout.bucket_bytes());
  kv::BucketHeader h;
  h.count = 3;
  h.chain = 17;
  h.generation = 0x1122334455667788ull;
  kv::store_header(raw.data(), h);
  const kv::BucketHeader h2 = kv::load_header(raw.data());
  EXPECT_EQ(h2.count, 3u);
  EXPECT_EQ(h2.chain, 17u);
  EXPECT_EQ(h2.generation, h.generation);

  kv::SlotMeta m;
  m.key = 0xdeadbeefcafef00dull;
  m.seq = 41;
  m.len = 33;
  kv::store_slot_meta(raw.data() + layout.slot_offset(2), m);
  const kv::SlotMeta m2 = kv::load_slot_meta(raw.data() + layout.slot_offset(2));
  EXPECT_EQ(m2.key, m.key);
  EXPECT_EQ(m2.seq, m.seq);
  EXPECT_EQ(m2.len, m.len);
}

TEST(Bucket, ValuesAreSelfDescribing) {
  std::vector<std::byte> v(64);
  kv::fill_value(/*key=*/99, /*seq=*/5, /*len=*/64, v.data());
  EXPECT_TRUE(kv::check_value(99, 5, 64, v.data()));
  EXPECT_FALSE(kv::check_value(99, 6, 64, v.data()));  // wrong seq
  EXPECT_FALSE(kv::check_value(98, 5, 64, v.data()));  // wrong key
  v[10] ^= std::byte{0x01};
  EXPECT_FALSE(kv::check_value(99, 5, 64, v.data()));  // corrupted byte
}

// --- store: lookup, chains, puts, shadow-map equality ---

TEST(KvStore, EveryKeyFoundAndSelfConsistent) {
  Engine e(engine_cfg(3));
  e.run([](Process& p) {
    kv::Store store(p, small_store(/*nkeys=*/1500, /*nservers=*/2));
    if (p.rank() == 2) {
      store.window().lock_all();
      std::vector<std::byte> value(store.config().layout.value_capacity);
      for (std::uint64_t i = 0; i < store.config().nkeys; ++i) {
        const std::uint64_t key = store.key_at(i);
        kv::GetMeta m;
        ASSERT_TRUE(store.get(key, value.data(), &m)) << "key rank " << i;
        EXPECT_EQ(m.seq, 0u);
        EXPECT_EQ(m.generation, 1u);
        EXPECT_TRUE(kv::check_value(key, m.seq, m.len, value.data()));
      }
      // A key that was never loaded is a clean miss, not an error.
      kv::GetMeta m;
      EXPECT_FALSE(store.get(0x0123456789abcdefull, value.data(), &m));
      store.window().unlock_all();
    }
    p.barrier();
    store.free_window();
  });
}

TEST(KvStore, OversubscribedLoadFactorForcesChains) {
  Engine e(engine_cfg(3));
  e.run([](Process& p) {
    kv::StoreConfig cfg = small_store(/*nkeys=*/1200, /*nservers=*/2);
    cfg.load_factor = 2.5;    // main array holds < half the keys: chains
    cfg.overflow_frac = 2.0;  // plenty of overflow buckets to chain into
    kv::Store store(p, cfg);
    if (p.rank() == 2) {
      store.window().lock_all();
      std::vector<std::byte> value(cfg.layout.value_capacity);
      std::uint64_t chain_follows = 0;
      for (std::uint64_t i = 0; i < cfg.nkeys; ++i) {
        const std::uint64_t key = store.key_at(i);
        kv::GetMeta m;
        ASSERT_TRUE(store.get(key, value.data(), &m));
        EXPECT_TRUE(kv::check_value(key, m.seq, m.len, value.data()));
        chain_follows += static_cast<std::uint64_t>(m.chain_follows);
      }
      EXPECT_GT(chain_follows, 0u);
      EXPECT_EQ(store.counters().chain_reads, chain_follows);
      store.window().unlock_all();
    }
    p.barrier();
    store.free_window();
  });
}

TEST(KvStore, GetAfterPutAndShadowMapByteEquality) {
  Engine e(engine_cfg(3));
  e.run([](Process& p) {
    kv::Store store(p, small_store(/*nkeys=*/800, /*nservers=*/2));
    if (p.rank() == 2) {
      store.window().lock_all();
      const std::uint32_t cap = store.config().layout.value_capacity;
      std::vector<std::byte> value(cap), buf(cap);
      // Shadow of every byte this client has observed or written; the
      // store must agree with it on every subsequent cached get.
      std::unordered_map<std::uint64_t, std::vector<std::byte>> shadow;
      std::unordered_map<std::uint64_t, std::uint32_t> seq;
      util::Xoshiro256 rng(77);
      for (int op = 0; op < 3000; ++op) {
        const std::uint64_t key = store.key_at(rng.bounded(store.config().nkeys));
        if (rng.uniform() < 0.3) {
          const std::uint32_t s = ++seq[key];
          const std::uint32_t len =
              1 + static_cast<std::uint32_t>(rng.bounded(cap));
          kv::fill_value(key, s, len, buf.data());
          ASSERT_TRUE(store.put(key, s, buf.data(), len));
          shadow[key].assign(buf.data(), buf.data() + len);
          // Read-your-writes: the put's overlap invalidation must make
          // the very next cached get observe the new bytes.
          kv::GetMeta m;
          ASSERT_TRUE(store.get(key, value.data(), &m));
          EXPECT_EQ(m.seq, s);
          ASSERT_EQ(m.len, len);
          EXPECT_EQ(std::memcmp(value.data(), buf.data(), len), 0);
        } else {
          kv::GetMeta m;
          ASSERT_TRUE(store.get(key, value.data(), &m));
          EXPECT_TRUE(kv::check_value(key, m.seq, m.len, value.data()));
          auto it = shadow.find(key);
          if (it == shadow.end()) {
            shadow[key].assign(value.data(), value.data() + m.len);
          } else {
            ASSERT_EQ(m.len, it->second.size());
            EXPECT_EQ(std::memcmp(value.data(), it->second.data(), m.len), 0);
          }
        }
      }
      EXPECT_GT(store.window().stats().hitting(), 0u);
      EXPECT_GT(store.window().stats().put_invalidation_ops, 0u);
      store.window().unlock_all();
    }
    p.barrier();
    store.free_window();
  });
}

TEST(KvStore, ReloadInvalidatesAndRestampsGeneration) {
  Engine e(engine_cfg(3));
  e.run([](Process& p) {
    kv::Store store(p, small_store(/*nkeys=*/600, /*nservers=*/2));
    std::vector<std::byte> value(store.config().layout.value_capacity);
    if (p.rank() == 2) {
      store.window().lock_all();
      for (std::uint64_t i = 0; i < 200; ++i) {
        kv::GetMeta m;
        ASSERT_TRUE(store.get(store.key_at(i), value.data(), &m));
        EXPECT_EQ(m.seq, 0u);
      }
      store.window().unlock_all();
    }
    p.barrier();
    store.reload(/*generation=*/2);
    if (p.rank() == 2) {
      store.window().lock_all();
      for (std::uint64_t i = 0; i < 200; ++i) {
        const std::uint64_t key = store.key_at(i);
        kv::GetMeta m;
        ASSERT_TRUE(store.get(key, value.data(), &m));
        EXPECT_EQ(m.seq, 1u);  // reload stamps seq = generation - 1
        EXPECT_EQ(m.generation, 2u);
        EXPECT_FALSE(m.version_reread);  // cache was invalidated: clean refill
        EXPECT_TRUE(kv::check_value(key, m.seq, m.len, value.data()));
      }
      store.window().unlock_all();
    }
    p.barrier();
    store.free_window();
  });
}

TEST(KvStore, StaleGenerationTriggersVersionedReread) {
  Engine e(engine_cfg(3));
  e.run([](Process& p) {
    kv::Store store(p, small_store(/*nkeys=*/600, /*nservers=*/2));
    std::vector<std::byte> value(store.config().layout.value_capacity);
    if (p.rank() == 2) {  // warm the cache against generation 1
      store.window().lock_all();
      for (std::uint64_t i = 0; i < 200; ++i) {
        kv::GetMeta m;
        ASSERT_TRUE(store.get(store.key_at(i), value.data(), &m));
      }
      store.window().unlock_all();
    }
    p.barrier();
    // The client "forgets" Listing 1's invalidation: its cached buckets
    // now carry generation 1 while the shards serve generation 2.
    store.reload(/*generation=*/2, /*invalidate_caches=*/false);
    if (p.rank() == 2) {
      store.window().lock_all();
      std::uint64_t rereads = 0;
      for (std::uint64_t i = 0; i < 200; ++i) {
        const std::uint64_t key = store.key_at(i);
        kv::GetMeta m;
        ASSERT_TRUE(store.get(key, value.data(), &m));
        // The safety net must still deliver generation-2 data.
        EXPECT_EQ(m.seq, 1u);
        EXPECT_EQ(m.generation, 2u);
        EXPECT_TRUE(kv::check_value(key, m.seq, m.len, value.data()));
        if (m.version_reread) ++rereads;
      }
      EXPECT_GT(rereads, 0u);
      EXPECT_EQ(store.counters().version_rereads, rereads);
      store.window().unlock_all();
    }
    p.barrier();
    store.free_window();
  });
}

TEST(KvStore, RejectsInvalidConfigs) {
  Engine e(engine_cfg(2));
  e.run([](Process& p) {
    kv::StoreConfig cfg = small_store(100, 1);
    cfg.cache.mode = Mode::kTransparent;  // KV owns epoch invalidation
    EXPECT_THROW(kv::Store store(p, cfg), util::ContractError);
    p.barrier();
  });
}

// --- shard image pin: same placement, byte for byte ---

// FNV-1a over a server's shard bytes, folded with its keys_loaded.
std::uint64_t shard_image_hash(const std::byte* b, std::size_t n, std::uint64_t keys) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ static_cast<std::uint64_t>(b[i])) * 0x100000001b3ull;
  }
  return util::mix64(h ^ keys);
}

TEST(KvStore, ShardImagesArePinned) {
  // Golden shard images: any change to placement, insertion order or
  // overflow-chain numbering moves them.
  struct Case {
    const char* name;
    int replication;
    double load_factor;
    std::uint64_t want[3];
  };
  const Case cases[] = {
      {"replication 1", 1, 0.7,
       {0x72582ff72320a1dcull, 0xefa1f9b23e19ddb3ull, 0x9375feb0d5d3f28bull}},
      {"replication 2", 2, 0.7,
       {0x9a414b4154248827ull, 0x46d1621b02b0295eull, 0x560124466e99223cull}},
      {"load_factor 1.5", 1, 1.5,
       {0xf3cab5fa291142edull, 0x3f8c64ced817a792ull, 0x6f9f6d14a88be2bcull}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::uint64_t got[3] = {};
    std::size_t chained = 0;
    Engine e(engine_cfg(4));
    e.run([&](Process& p) {
      kv::StoreConfig cfg = small_store(/*nkeys=*/30000, /*nservers=*/3);
      cfg.replication = c.replication;
      cfg.load_factor = c.load_factor;
      cfg.overflow_frac = 1.0;
      kv::Store store(p, cfg);
      if (store.is_server()) {
        const std::byte* shard = p.win_raw(store.window().raw(), p.rank());
        got[p.rank()] = shard_image_hash(shard, store.shard_bytes(), store.keys_loaded());
        const std::size_t bb = cfg.layout.bucket_bytes();
        for (std::size_t b = 0; b < store.main_buckets(); ++b) {
          if (kv::load_header(shard + b * bb).chain != kv::kNoBucket) ++chained;
        }
      }
      p.barrier();
      store.free_window();
    });
    for (int s = 0; s < 3; ++s) EXPECT_EQ(got[s], c.want[s]) << "server " << s;
    if (c.load_factor > 1.0) {
      EXPECT_GT(chained, 0u);
    }
  }
}

}  // namespace
