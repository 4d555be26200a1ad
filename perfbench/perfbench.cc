// perfbench: the repository benchmark (README.md in this directory).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--size tiny]
//
// One process runs 4 rmasim ranks. The workload's whole input is drawn
// from --seed before anything is timed. A run executes that input in a few
// measured repetitions (kMeasured: real CPU time is charged to virtual
// time, the network is modelled) and one modelled repetition (kModeled:
// exact and blind to CPU cost). --trace 1 adds one traced measured
// repetition that yields the per-layer metrics. Every repetition builds
// its own engine, store or graph, so set-up is timed each time.
//
// Every served KV value and every LCC coefficient is checked. The last
// stdout line is {"correct","attempted","failed","metrics"}: the
// end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
// Lines before it start with '#': a readable summary and, on the
// "# full" line, every metric the run computed. Exit status is 1 on any
// validation or reference mismatch, 2 on bad arguments.
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "clampi/clampi.h"
#include "graph/lcc.h"
#include "graph/rmat.h"
#include "kv/bucket.h"
#include "kv/store.h"
#include "netmodel/hierarchy.h"
#include "rt/engine.h"
#include "trace.h"
#include "util/rng.h"
#include "util/skew.h"

namespace {

using namespace clampi;
using perfbench::Span;
using perfbench::Tracer;
using perfbench::wall_ns;
using rmasim::Process;

constexpr int kRanks = 4;    // one rank per CPU of the reference machine
constexpr int kServers = 2;  // KV: ranks [0, 2) hold shards, [2, 4) are clients
constexpr int kClients = kRanks - kServers;
constexpr std::uint32_t kValueBytes = 32;
constexpr double kZipf = 0.99;
constexpr std::size_t kSpanSample = 20000;

// Span names (static storage: the tracer keys its aggregates on them).
constexpr const char* kSpanPhase = "bench.phase";
constexpr const char* kSpanGetHit = "kv.get_hit";
constexpr const char* kSpanGetMiss = "kv.get_miss";
constexpr const char* kSpanPut = "kv.put";
constexpr const char* kSpanInvalidate = "kv.invalidate";
constexpr const char* kSpanStoreCtor = "kv.store_ctor";
constexpr const char* kSpanLccRun = "graph.lcc_run";
constexpr const char* kSpanRmatGen = "graph.rmat_gen";

enum class Kind { kKvRead, kKvReadNocache, kKvUpdate, kLcc };

struct Workload {
  const char* name;
  Kind kind;
  int reps;  ///< measured repetitions (at least; LCC adds more for --seconds)
  /// KV: wall nanoseconds one op takes in a measured repetition on a 4-CPU
  /// x86 container, used to turn --seconds into a whole number of epochs
  /// per client, at least min_epochs. LCC work is fixed by the graph and
  /// --seconds sets its repetition count.
  double est_wall_ns_per_op;
  int min_epochs;
};

// kv-update puts cost ~150 us of wall time each (the overlap invalidation
// scans the entry table), so it runs fewer, longer repetitions: two
// epochs per client, so that a Listing-1 invalidation falls inside.
constexpr Workload kWorkloads[] = {
    {"kv-read", Kind::kKvRead, 3, 1500.0, 1},
    {"kv-read-nocache", Kind::kKvReadNocache, 3, 1500.0, 1},
    {"kv-update", Kind::kKvUpdate, 2, 74000.0, 2},
    {"lcc-rmat", Kind::kLcc, 3, 0.0, 0},
};

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (the smoke test checks it).
constexpr MetricDef kEndToEnd[] = {
    {"ops_per_s", "op/s"},   {"modeled_ops_per_s", "op/s"}, {"wall_ns_per_op", "ns"},
    {"setup_s", "s"},        {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"get_p50_us", "us"},
    {"get_p99_us", "us"},
    {"put_p50_us", "us"},
    {"put_p99_us", "us"},
    {"error_rate", "fraction"},
    {"kv.put.count", "count"},
    {"kv.put.wall_ns.p50", "ns"},
    {"kv.put.wall_ns.p99", "ns"},
    {"clampi.entry_slots_at_put.mean", "count"},
    {"clampi.put_invalidations_per_put", "count/op"},
    {"kv.get.count", "count"},
    {"kv.get_hit.wall_ns.p50", "ns"},
    {"kv.get_hit.wall_ns.p99", "ns"},
    {"kv.get_miss.wall_ns.p50", "ns"},
    {"kv.get_miss.wall_ns.p99", "ns"},
    {"clampi.gets", "count"},
    {"clampi.hit_ratio", "fraction"},
    {"clampi.bytes_from_cache_frac", "fraction"},
    {"clampi.miss.direct", "count"},
    {"clampi.miss.conflicting", "count"},
    {"clampi.miss.capacity", "count"},
    {"clampi.failed_insert_frac", "fraction"},
    {"clampi.evictions_per_get", "count/op"},
    {"clampi.visited_slots_per_eviction", "count"},
    {"clampi.storage.tree_alloc_frac", "fraction"},
    {"clampi.index_probes_per_get", "count/op"},
    {"clampi.index_kick_steps_per_insert", "count/op"},
    {"kv.invalidate.count", "count"},
    {"kv.invalidate.wall_us.p50", "us"},
    {"kv.bucket_reads_per_get", "count/op"},
    {"kv.chain_follows_per_get", "count/op"},
    {"kv.version_rereads", "count"},
    {"kv.put.replicas_applied_per_put", "count/op"},
    {"kv.store_ctor_s", "s"},
    {"rt.net_ops_per_op", "count/op"},
    {"rt.net_bytes_per_op", "B/op"},
    {"rt.wall_ns_per_net_op", "ns"},
    {"clock.cpu_us_per_op", "us"},
    {"graph.comm_us_per_vertex", "us"},
    {"graph.compute_us_per_vertex", "us"},
    {"graph.remote_gets_per_vertex", "count/op"},
    {"graph.rmat_gen_s", "s"},
    {"bench.overhead_ns_per_op", "ns"},
    {"bench.tracing_overhead_frac", "fraction"},
};

struct Options {
  const Workload* w = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  ///< small sizes for the smoke test
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in [0, 1]); reorders `v`.
double percentile(std::vector<float>& v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(v.size() - 1),
                       std::ceil(q * static_cast<double>(v.size())) - 1.0));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }
double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

rmasim::Engine::Config engine_config(bool measured) {
  rmasim::Engine::Config cfg;
  cfg.nranks = kRanks;
  cfg.model = net::make_aries_model(/*ranks_per_node=*/1);
  cfg.time_policy = measured ? rmasim::TimePolicy::kMeasured : rmasim::TimePolicy::kModeled;
  return cfg;
}

/// Network ops seen by the engine's op observer, per origin rank, while
/// that rank is inside a timed phase (traced repetition only).
struct NetCount {
  bool active = false;
  std::uint64_t ops = 0;
  std::uint64_t bytes = 0;
};

void install_net_observer(rmasim::Engine::Config& cfg, std::vector<NetCount>& net) {
  cfg.op_observer = [&net](const fault::OpDesc& d, bool failed) {
    NetCount& c = net[static_cast<std::size_t>(d.origin)];
    if (failed || !c.active) return;
    ++c.ops;
    c.bytes += d.bytes;
  };
}

/// Wall time at which the first rank started its first op (set-up end).
struct SetupMark {
  std::atomic<std::uint64_t> first_op_ns{0};
  void mark() {
    std::uint64_t expected = 0;
    first_op_ns.compare_exchange_strong(expected, wall_ns());
  }
};

struct KvParams {
  std::uint64_t nkeys = std::uint64_t{1} << 20;
  std::uint64_t epoch_ops = 50000;  ///< Listing-1 invalidation period per client
  std::uint64_t window_ops = 2500;  ///< rate window (divides epoch_ops)
  std::uint64_t ops_per_client = 0;
  int replication = 1;
  double put_frac = 0.0;
  bool cached = true;
  std::uint32_t put_len_min = 16, put_len_max = kValueBytes;
  std::uint64_t store_seed = 0;
};

/// What one repetition measured. Traced-only fields stay zero otherwise.
struct RepOut {
  std::uint64_t ops = 0;  ///< ops (KV) or vertices (LCC) completed
  std::uint64_t attempted = 0, unserved = 0, mismatches = 0;
  double max_virt_us = 0.0;     ///< slowest client's (rank's) timed phase
  std::uint64_t wall_start_ns = 0, wall_end_ns = 0;  ///< one client's timed phase
  std::uint64_t timed_wall_ns = 0;  ///< first start to last end, all clients
  double setup_s = 0.0;
  double store_ctor_s = 0.0;
  double rmat_gen_s = 0.0;
  double lcc_sum = 0.0;
  std::vector<float> get_lat, put_lat;  ///< per-op virtual latency, us

  // counters
  std::uint64_t gets = 0, puts = 0, bucket_reads = 0, chain_follows = 0;
  std::uint64_t version_rereads = 0, replicas_applied = 0, invalidations = 0;
  Stats clampi;  ///< summed over the ranks that issue gets, timed phase only
  std::uint64_t entry_slots_sum = 0;
  std::uint64_t net_ops = 0, net_bytes = 0;
  std::uint64_t net_span_wall_ns = 0, net_span_ops = 0;
  double comm_us = 0.0, compute_us = 0.0;  ///< LCC, slowest rank
  std::uint64_t remote_gets = 0;
  std::uint64_t owned_max = 0;

  /// KV: virtual and wall time of each window of KvParams::window_ops consecutive
  /// ops of one client, all clients pooled.
  std::vector<double> win_virt_us, win_wall_ns;
  /// LCC: each rank's DistributedLcc::run virtual time.
  std::vector<double> rank_virt_us;

  double ops_per_s() const { return ratio(static_cast<double>(ops) * 1e6, max_virt_us); }
  double wall_ns_per_op() const {
    return ratio(static_cast<double>(timed_wall_ns), static_cast<double>(ops));
  }
};

/// Throughput and wall cost per op of a set of repetitions.
///
/// KV: the host this runs on slows the same code down by up to ±20% for
/// stretches of milliseconds to seconds, and the measured clock charges
/// that in full. Each client's timed phase is cut into windows of
/// window_ops ops; windows at the same position within an epoch do the same
/// work (an epoch starts cold and warms), so for each position the 10th
/// percentile over all epochs, clients and repetitions is taken, and the
/// positions add up to one epoch of one client. Every client keeps one op
/// in flight, so the clients' rates add up.
///
/// LCC: one repetition is the smallest unit that can be timed from outside
/// (DistributedLcc::run is one call per rank), so the same filter runs over
/// repetitions: the vertices divided by the slowest rank's 10th-percentile
/// virtual time, and the 10th-percentile wall time per vertex.
struct Rates {
  double ops_per_s = 0.0;
  double wall_ns_per_op = 0.0;
};

double low_percentile(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(0.1 * static_cast<double>(v.size() - 1))];
}

Rates rates(const std::vector<const RepOut*>& reps, const KvParams& kp) {
  const std::size_t per_epoch = kp.epoch_ops / kp.window_ops;
  std::vector<std::vector<double>> virt(per_epoch), wall(per_epoch);  // [position][window]
  std::vector<std::vector<double>> rank_virt;  // [rank][repetition]
  std::vector<double> wop;
  for (const RepOut* r : reps) {
    for (std::size_t k = 0; k < r->win_virt_us.size(); ++k) {
      virt[k % per_epoch].push_back(r->win_virt_us[k]);
      wall[k % per_epoch].push_back(r->win_wall_ns[k]);
    }
    wop.push_back(r->wall_ns_per_op());
    rank_virt.resize(r->rank_virt_us.size());
    for (std::size_t k = 0; k < r->rank_virt_us.size(); ++k) {
      rank_virt[k].push_back(r->rank_virt_us[k]);
    }
  }
  if (virt.front().empty()) {
    double slowest = 0.0;
    for (const auto& v : rank_virt) slowest = std::max(slowest, low_percentile(v));
    return {ratio(static_cast<double>(reps.front()->ops) * 1e6, slowest), low_percentile(wop)};
  }
  double epoch_virt_us = 0.0, epoch_wall_ns = 0.0;
  for (std::size_t j = 0; j < per_epoch; ++j) {
    epoch_virt_us += low_percentile(virt[j]);
    epoch_wall_ns += low_percentile(wall[j]);
  }
  const auto ops = static_cast<double>(kp.epoch_ops);
  return {kClients * ops * 1e6 / epoch_virt_us, epoch_wall_ns / ops};
}

void add_stats(Stats& into, const Stats& d) {
  into.total_gets += d.total_gets;
  into.hits_full += d.hits_full;
  into.hits_pending += d.hits_pending;
  into.hits_partial += d.hits_partial;
  into.direct += d.direct;
  into.conflicting += d.conflicting;
  into.capacity += d.capacity;
  into.failing += d.failing;
  into.evictions += d.evictions;
  into.visited_slots += d.visited_slots;
  into.index_probes += d.index_probes;
  into.index_kick_steps += d.index_kick_steps;
  into.storage_fastbin_allocs += d.storage_fastbin_allocs;
  into.storage_tree_allocs += d.storage_tree_allocs;
  into.bytes_from_cache += d.bytes_from_cache;
  into.bytes_from_network += d.bytes_from_network;
  into.put_invalidations += d.put_invalidations;
}

// ---------------------------------------------------------------------------
// KV workloads
// ---------------------------------------------------------------------------


/// One pre-drawn op. Puts only touch the client's own keys (dense rank
/// idx with idx % kClients == client), so each key has a single writer.
struct KvOp {
  std::uint32_t idx = 0;
  std::uint32_t seq = 0;  ///< put: the write sequence it carries
  std::uint8_t put = 0;
  std::uint8_t len = 0;
};

std::vector<KvOp> draw_stream(const KvParams& kp, std::uint64_t seed, int client) {
  util::Xoshiro256 rng(seed ^ (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(client + 1)));
  const util::ZipfSampler zipf(kp.nkeys, kZipf);
  std::vector<std::uint32_t> next_seq(kp.nkeys / kClients, 0);
  std::vector<KvOp> ops(kp.ops_per_client);
  for (KvOp& op : ops) {
    auto idx = static_cast<std::uint32_t>(zipf(rng));
    if (kp.put_frac > 0.0 && rng.uniform() < kp.put_frac) {
      idx = idx - idx % kClients + static_cast<std::uint32_t>(client);
      op.put = 1;
      op.seq = ++next_seq[idx / kClients];
      op.len = static_cast<std::uint8_t>(
          kp.put_len_min + rng.bounded(kp.put_len_max - kp.put_len_min + 1));
    }
    op.idx = idx;
  }
  return ops;
}

kv::StoreConfig store_config(const KvParams& kp) {
  kv::StoreConfig s;
  s.nkeys = kp.nkeys;
  s.nservers = kServers;
  s.replication = kp.replication;
  s.layout.value_capacity = kValueBytes;
  s.initial_value_len = kValueBytes;
  s.seed = kp.store_seed;
  // The kv_sweep cache geometry: 131,072 index slots, 64 MiB of storage.
  s.cache.mode = Mode::kUserDefined;
  s.cache.adaptive = false;
  s.cache.index_entries = std::size_t{1} << 17;
  s.cache.storage_bytes = std::size_t{64} << 20;
  return s;
}

/// What one op was served, recorded in the timed loop. The shadow check
/// that needs per-key state runs after the loop (check_client), so its
/// random accesses stay off the measured clock; the loop itself only
/// checks the served bytes against their (key, seq, len) header.
struct Served {
  std::uint32_t seq = 0;    ///< get: the seq served
  std::int8_t server = -1;  ///< get: the serving server
  std::int8_t pos = -1;     ///< get: its replica position
  std::uint8_t mask = 0;    ///< put: PutMeta::applied_mask
  std::uint8_t state = 0;   ///< kUnserved, kGood or kBadBytes
};
constexpr std::uint8_t kUnserved = 0, kGood = 1, kBadBytes = 2;

/// Replay one client's served records in op order. A client's own keys
/// must carry exactly the seq it last applied on the serving replica;
/// foreign keys must never regress on the same replica. The state is two
/// flat arrays indexed by key rank / kClients. Returns the mismatches.
std::uint64_t check_client(const std::vector<KvOp>& ops, const std::vector<Served>& served,
                           int client, std::uint64_t nkeys) {
  std::vector<std::array<std::uint32_t, 2>> own(nkeys / kClients);
  std::vector<std::uint64_t> seen(nkeys / kClients);  // (server + 1) << 32 | seq
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const KvOp& op = ops[i];
    const Served& s = served[i];
    const std::size_t k = op.idx / kClients;
    if (s.state == kUnserved) continue;  // counted as unserved in the loop
    if (op.put) {
      for (std::size_t pos = 0; pos < own[k].size(); ++pos) {
        if ((s.mask >> pos) & 1u) own[k][pos] = op.seq;
      }
      continue;
    }
    if (s.state == kBadBytes || s.pos < 0 || s.pos >= 2) {
      ++bad;
    } else if (op.idx % kClients == static_cast<std::uint32_t>(client)) {
      if (s.seq != own[k][static_cast<std::size_t>(s.pos)]) ++bad;
    } else {
      const std::uint64_t now = (static_cast<std::uint64_t>(s.server + 1) << 32) | s.seq;
      if ((seen[k] >> 32) == (now >> 32) && s.seq < static_cast<std::uint32_t>(seen[k])) ++bad;
      seen[k] = now;
    }
  }
  return bad;
}

struct ClientCtx {
  int client = 0;
  const std::vector<KvOp>* ops = nullptr;
  std::vector<Served>* served = nullptr;
  RepOut* out = nullptr;  ///< this client's own RepOut (merged later)
  Tracer* tracer = nullptr;
  NetCount* net = nullptr;
};

/// The timed loop of one client. kTraced adds spans and counter reads;
/// the untraced instantiation does only the byte check, the served record
/// and the two virtual-clock reads per op that give its latency.
template <bool kTraced>
void client_loop(Process& p, kv::Store& store, const KvParams& kp, ClientCtx& c,
                 SetupMark& setup) {
  RepOut& r = *c.out;
  const std::vector<KvOp>& ops = *c.ops;
  std::array<std::byte, kValueBytes> value{};
  std::array<std::byte, kValueBytes> scratch{};
  std::vector<Served>& served = *c.served;
  std::size_t nget = 0, nput = 0;
  double win_v = 0.0;
  std::uint64_t win_w = 0;
  std::int64_t phase_id = -1;
  std::uint64_t child_ns = 0;
  CachedWindow& win = store.window();
  Stats before;

  win.lock_all();
  if constexpr (kTraced) {
    before = win.stats();
    phase_id = c.tracer->reserve_id();
    c.net->active = true;
  }
  setup.mark();
  const double t0 = p.now_us();
  const std::uint64_t wstart = wall_ns();

  for (std::size_t i = 0; i <= ops.size(); ++i) {
    if (i % kp.window_ops == 0) {
      const double v = p.now_us();
      const std::uint64_t w = wall_ns();
      if (i != 0) {
        r.win_virt_us.push_back(v - win_v);
        r.win_wall_ns.push_back(static_cast<double>(w - win_w));
      }
      win_v = v;
      win_w = w;
      if (i == ops.size()) break;
    }
    if (kp.cached && i != 0 && i % kp.epoch_ops == 0) {
      ++r.invalidations;
      if constexpr (kTraced) {
        Span s{kSpanInvalidate, wall_ns(), 0, p.now_us(), 0.0, -1, phase_id,
               static_cast<std::int64_t>(i), c.client};
        store.invalidate_cache();
        s.wall1_ns = wall_ns();
        s.virt1_us = p.now_us();
        child_ns += s.wall1_ns - s.wall0_ns;
        c.tracer->record(s);
      } else {
        store.invalidate_cache();
      }
    }
    const KvOp& op = ops[i];
    const std::uint64_t key = store.key_at(op.idx);
    std::uint64_t w0 = 0, w1 = 0, n0 = 0;
    if (op.put) {
      kv::fill_value(key, op.seq, op.len, scratch.data());
      if constexpr (kTraced) {
        r.entry_slots_sum += win.core().entry_slots();
        n0 = c.net->ops;
      }
      kv::PutMeta pm;
      const double s0 = p.now_us();
      if constexpr (kTraced) w0 = wall_ns();
      const bool ok = store.put(key, op.seq, scratch.data(), op.len, &pm);
      if constexpr (kTraced) w1 = wall_ns();
      const double s1 = p.now_us();
      r.put_lat[nput++] = static_cast<float>(s1 - s0);
      ++r.puts;
      r.replicas_applied += static_cast<std::uint64_t>(pm.applied);
      if (!ok) ++r.unserved;
      served[i].mask = static_cast<std::uint8_t>(pm.applied_mask);
      served[i].state = ok ? kGood : kUnserved;
      if constexpr (kTraced) {
        const std::uint64_t dn = c.net->ops - n0;
        if (dn > 0) {
          r.net_span_wall_ns += w1 - w0;
          r.net_span_ops += dn;
        }
        child_ns += w1 - w0;
        c.tracer->record(Span{kSpanPut, w0, w1, s0, s1, -1, phase_id,
                              static_cast<std::int64_t>(i), c.client});
      }
    } else {
      if constexpr (kTraced) n0 = c.net->ops;
      kv::GetMeta m;
      const double s0 = p.now_us();
      if constexpr (kTraced) w0 = wall_ns();
      const bool ok = kp.cached ? store.get(key, value.data(), &m)
                                : store.get_uncached(key, value.data(), &m);
      if constexpr (kTraced) w1 = wall_ns();
      const double s1 = p.now_us();
      r.get_lat[nget++] = static_cast<float>(s1 - s0);
      ++r.gets;
      if (!ok) {
        ++r.unserved;
      } else {
        r.bucket_reads += static_cast<std::uint64_t>(m.bucket_reads);
        r.chain_follows += static_cast<std::uint64_t>(m.chain_follows);
        if (m.version_reread) ++r.version_rereads;
        const bool bytes_ok = !m.degraded && m.len <= kValueBytes &&
                              kv::check_value(key, m.seq, m.len, value.data());
        served[i] = Served{m.seq, static_cast<std::int8_t>(m.server),
                           static_cast<std::int8_t>(m.replica_pos), 0,
                           bytes_ok ? kGood : kBadBytes};
      }
      if constexpr (kTraced) {
        const std::uint64_t dn = c.net->ops - n0;
        if (dn > 0) {
          r.net_span_wall_ns += w1 - w0;
          r.net_span_ops += dn;
        }
        child_ns += w1 - w0;
        const bool hit = m.bucket_reads > 0 && m.cached_hits == m.bucket_reads;
        c.tracer->record(Span{hit ? kSpanGetHit : kSpanGetMiss, w0, w1, s0, s1, -1,
                              phase_id, static_cast<std::int64_t>(i), c.client});
      }
    }
  }

  const double t1 = p.now_us();
  const std::uint64_t wend = wall_ns();
  if constexpr (kTraced) {
    c.net->active = false;
    r.clampi = win.stats().delta_since(before);
    c.tracer->record(Span{kSpanPhase, wstart, wend, t0, t1, phase_id, -1, -1, c.client},
                     child_ns);
  }
  r.wall_start_ns = wstart;
  r.wall_end_ns = wend;
  r.max_virt_us = t1 - t0;
  r.ops = ops.size() - r.unserved;
  r.attempted = ops.size();
  r.get_lat.resize(nget);
  r.put_lat.resize(nput);
  win.unlock_all();
}

RepOut run_kv_rep(const KvParams& kp, const std::vector<std::vector<KvOp>>& streams,
                  bool measured, Tracer* tracer) {
  // Input-side buffers are allocated before the clock starts: set-up is
  // the system's work, not the benchmark's.
  std::vector<std::vector<Served>> served(kClients);
  std::vector<RepOut> outs(kClients);
  for (int c = 0; c < kClients; ++c) {
    const auto& ops = streams[static_cast<std::size_t>(c)];
    const auto puts = static_cast<std::size_t>(
        std::count_if(ops.begin(), ops.end(), [](const KvOp& op) { return op.put != 0; }));
    served[static_cast<std::size_t>(c)].resize(ops.size());
    outs[static_cast<std::size_t>(c)].get_lat.resize(ops.size() - puts);
    outs[static_cast<std::size_t>(c)].put_lat.resize(puts);
  }
  std::vector<NetCount> net(kRanks);
  std::vector<std::uint64_t> ctor0(kRanks), ctor1(kRanks);
  SetupMark setup;

  rmasim::Engine::Config ecfg = engine_config(measured);
  if (tracer != nullptr) install_net_observer(ecfg, net);
  const std::uint64_t start = wall_ns();
  rmasim::Engine engine(ecfg);
  engine.run([&](Process& p) {
    const auto rank = static_cast<std::size_t>(p.rank());
    ctor0[rank] = wall_ns();
    const double v0 = p.now_us();
    kv::Store store(p, store_config(kp));
    ctor1[rank] = wall_ns();
    if (tracer != nullptr) {
      tracer->record(Span{kSpanStoreCtor, ctor0[rank], ctor1[rank], v0, p.now_us(), -1,
                          -1, -1, p.rank()});
    }
    if (p.rank() >= kServers) {
      const int client = p.rank() - kServers;
      ClientCtx c{client, &streams[static_cast<std::size_t>(client)],
                  &served[static_cast<std::size_t>(client)],
                  &outs[static_cast<std::size_t>(client)], tracer, &net[rank]};
      if (tracer != nullptr) {
        c.out->net_ops = 0;
        client_loop<true>(p, store, kp, c, setup);
        c.out->net_ops = net[rank].ops;
        c.out->net_bytes = net[rank].bytes;
      } else {
        client_loop<false>(p, store, kp, c, setup);
      }
    }
    p.barrier();
    store.free_window();
  });

  RepOut r;
  r.wall_start_ns = ~std::uint64_t{0};
  r.setup_s = static_cast<double>(setup.first_op_ns.load() - start) * 1e-9;
  // The constructor ends in a barrier, so the first rank out of it marks
  // the end of construction; later ranks resume in virtual-time order,
  // possibly after another client's whole timed phase.
  r.store_ctor_s =
      static_cast<double>(*std::min_element(ctor1.begin(), ctor1.end()) -
                          *std::min_element(ctor0.begin(), ctor0.end())) *
      1e-9;
  for (int c = 0; c < kClients; ++c) {
    const auto k = static_cast<std::size_t>(c);
    outs[k].mismatches = check_client(streams[k], served[k], c, kp.nkeys);
  }
  for (RepOut& o : outs) {
    r.ops += o.ops;
    r.attempted += o.attempted;
    r.unserved += o.unserved;
    r.mismatches += o.mismatches;
    r.max_virt_us = std::max(r.max_virt_us, o.max_virt_us);
    r.wall_start_ns = std::min(r.wall_start_ns, o.wall_start_ns);
    r.wall_end_ns = std::max(r.wall_end_ns, o.wall_end_ns);
    r.get_lat.insert(r.get_lat.end(), o.get_lat.begin(), o.get_lat.end());
    r.win_virt_us.insert(r.win_virt_us.end(), o.win_virt_us.begin(), o.win_virt_us.end());
    r.win_wall_ns.insert(r.win_wall_ns.end(), o.win_wall_ns.begin(), o.win_wall_ns.end());
    r.put_lat.insert(r.put_lat.end(), o.put_lat.begin(), o.put_lat.end());
    r.gets += o.gets;
    r.puts += o.puts;
    r.bucket_reads += o.bucket_reads;
    r.chain_follows += o.chain_follows;
    r.version_rereads += o.version_rereads;
    r.replicas_applied += o.replicas_applied;
    r.invalidations += o.invalidations;
    add_stats(r.clampi, o.clampi);
    r.entry_slots_sum += o.entry_slots_sum;
    r.net_ops += o.net_ops;
    r.net_bytes += o.net_bytes;
    r.net_span_wall_ns += o.net_span_wall_ns;
    r.net_span_ops += o.net_span_ops;
  }
  r.timed_wall_ns = r.wall_end_ns - r.wall_start_ns;
  return r;
}

// ---------------------------------------------------------------------------
// LCC workload
// ---------------------------------------------------------------------------

struct LccParams {
  graph::RmatParams rmat;
  std::size_t index_entries = 8192;             ///< |I_w|, below the working set
  std::size_t storage_bytes = std::size_t{1} << 20;  ///< |S_w|
};

RepOut run_lcc_rep(const LccParams& lp, const std::vector<double>& reference,
                   bool measured, Tracer* tracer) {
  std::vector<NetCount> net(kRanks);
  std::vector<graph::DistributedLcc::Report> reports(kRanks);
  std::vector<std::uint64_t> run0(kRanks), run1(kRanks), bad(kRanks);
  std::vector<Stats> stats(kRanks);
  SetupMark setup;

  rmasim::Engine::Config ecfg = engine_config(measured);
  if (tracer != nullptr) install_net_observer(ecfg, net);
  const std::uint64_t start = wall_ns();
  auto g = std::make_shared<const graph::Csr>(graph::rmat_graph(lp.rmat));
  const std::uint64_t gen_end = wall_ns();
  rmasim::Engine engine(ecfg);
  engine.run([&](Process& p) {
    const auto rank = static_cast<std::size_t>(p.rank());
    graph::LccConfig cfg;
    cfg.backend = graph::LccBackend::kClampi;
    cfg.clampi_cfg.mode = Mode::kAlwaysCache;
    cfg.clampi_cfg.adaptive = false;
    cfg.clampi_cfg.index_entries = lp.index_entries;
    cfg.clampi_cfg.storage_bytes = lp.storage_bytes;
    graph::DistributedLcc solver(p, g, cfg);
    setup.mark();
    net[rank].active = true;
    run0[rank] = wall_ns();
    const double v0 = p.now_us();
    reports[rank] = solver.run();
    const double v1 = p.now_us();
    run1[rank] = wall_ns();
    net[rank].active = false;
    if (tracer != nullptr) {
      tracer->record(Span{kSpanLccRun, run0[rank], run1[rank], v0, v1, -1, -1, -1,
                          p.rank()});
    }
    const std::vector<double>& mine = solver.local_lcc();
    for (std::size_t i = 0; i < mine.size(); ++i) {
      const double want = reference[solver.first_vertex() + i];
      if (std::fabs(mine[i] - want) > 1e-12 * std::max(1.0, std::fabs(want))) ++bad[rank];
    }
    if (const Stats* st = solver.clampi_stats()) stats[rank] = *st;
  });
  if (tracer != nullptr) {
    tracer->record(Span{kSpanRmatGen, start, gen_end, 0.0, 0.0, -1, -1, -1, -1});
  }

  RepOut r;
  r.setup_s = static_cast<double>(setup.first_op_ns.load() - start) * 1e-9;
  r.rmat_gen_s = static_cast<double>(gen_end - start) * 1e-9;
  r.timed_wall_ns = *std::max_element(run1.begin(), run1.end()) -
                    *std::min_element(run0.begin(), run0.end());
  for (std::size_t k = 0; k < reports.size(); ++k) {
    const auto& rep = reports[k];
    r.ops += rep.owned_vertices;
    r.max_virt_us = std::max(r.max_virt_us, rep.compute_us);
    r.rank_virt_us.push_back(rep.compute_us);
    r.comm_us = std::max(r.comm_us, rep.comm_us);
    r.compute_us = std::max(r.compute_us, rep.compute_us - rep.comm_us);
    r.owned_max = std::max(r.owned_max, rep.owned_vertices);
    r.remote_gets += rep.remote_gets;
    r.unserved += rep.dropped_gets;
    r.mismatches += bad[k];
    r.lcc_sum += rep.lcc_sum;
    add_stats(r.clampi, stats[k]);
    r.net_ops += net[k].ops;
    r.net_bytes += net[k].bytes;
  }
  r.attempted = r.ops;
  return r;
}

// ---------------------------------------------------------------------------
// Command line and report
// ---------------------------------------------------------------------------

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (a == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (v == w.name) o.w = &w;
      }
      if (o.w == nullptr) return false;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atof(v.c_str());
      if (!(o.seconds > 0.0 && o.seconds <= 3600.0)) return false;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return false;
      o.trace = v == "1";
    } else if (a == "--size") {
      if (v != "tiny" && v != "full") return false;
      o.tiny = v == "tiny";
    } else {
      return false;
    }
  }
  return o.w != nullptr;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_json(const char* prefix, bool correct, std::uint64_t attempted,
                std::uint64_t failed, const std::map<std::string, double>& values,
                const MetricDef* defs, std::size_t ndefs) {
  std::string s = std::string(prefix) + "{\"correct\": " + (correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < ndefs; ++i) {
    s += std::string(i == 0 ? "" : ", ") + "\"" + defs[i].name + "\": {\"value\": " +
         fmt(values.at(defs[i].name)) + ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload kv-read|kv-read-nocache|kv-update|lcc-rmat "
                 "--seed N --seconds S --trace 0|1 [--size tiny|full]\n");
    return 2;
  }
  const Kind kind = o.w->kind;
  const bool is_kv = kind != Kind::kLcc;

  // ---- inputs, drawn from the seed before anything is timed ----
  KvParams kp;
  LccParams lp;
  std::vector<std::vector<KvOp>> streams;
  std::vector<double> reference;
  int measured_reps = o.w->reps;
  if (is_kv) {
    if (o.tiny) {
      kp.nkeys = std::uint64_t{1} << 14;
      kp.epoch_ops = 2000;
      kp.window_ops = 100;
    }
    kp.cached = kind != Kind::kKvReadNocache;
    if (kind == Kind::kKvUpdate) {
      kp.put_frac = 0.5;
      kp.replication = 2;
    }
    kp.store_seed = util::mix64(o.seed ^ 0x73746f7265ull);
    // Whole epochs per client, sized so the measured repetitions together
    // take about --seconds of wall time.
    const double per_rep_ops =
        o.seconds * 1e9 / o.w->reps / o.w->est_wall_ns_per_op / kClients;
    const auto epochs = static_cast<std::uint64_t>(std::max<double>(
        o.w->min_epochs, std::round(per_rep_ops / static_cast<double>(kp.epoch_ops))));
    kp.ops_per_client = o.tiny ? 2 * kp.epoch_ops : epochs * kp.epoch_ops;
    for (int c = 0; c < kClients; ++c) streams.push_back(draw_stream(kp, o.seed, c));
  } else {
    lp.rmat.scale = o.tiny ? 10 : 14;
    lp.rmat.edge_factor = 16;
    lp.rmat.seed = util::mix64(o.seed ^ 0x726d6174ull);
    if (o.tiny) {
      lp.index_entries = 512;
      lp.storage_bytes = std::size_t{64} << 10;
    }
    reference = graph::lcc_reference(graph::rmat_graph(lp.rmat));
    // One repetition processes the whole graph (~1.5 s of wall time at
    // scale 14); --seconds buys more repetitions.
    if (!o.tiny) {
      measured_reps = std::max(measured_reps, static_cast<int>(std::lround(o.seconds)));
    }
  }

  auto run_rep = [&](bool measured, Tracer* tr) {
    return is_kv ? run_kv_rep(kp, streams, measured, tr)
                 : run_lcc_rep(lp, reference, measured, tr);
  };

  // ---- repetitions ----
  std::vector<RepOut> reps;
  for (int i = 0; i < measured_reps; ++i) reps.push_back(run_rep(true, nullptr));
  const RepOut modeled = run_rep(false, nullptr);
  std::unique_ptr<Tracer> tracer;
  RepOut traced;
  if (o.trace) {
    tracer = std::make_unique<Tracer>(kSpanSample);
    traced = run_rep(true, tracer.get());
  }

  // ---- correctness ----
  std::uint64_t attempted = modeled.attempted + traced.attempted;
  std::uint64_t failed = modeled.unserved + modeled.mismatches + traced.unserved +
                         traced.mismatches;
  for (const RepOut& r : reps) {
    attempted += r.attempted;
    failed += r.unserved + r.mismatches;
  }
  bool correct = failed == 0;
  if (!is_kv) {
    double want = 0.0;
    for (double x : reference) want += x;
    std::vector<const RepOut*> passes{&modeled};
    for (const RepOut& r : reps) passes.push_back(&r);
    for (const RepOut* r : passes) {
      if (std::fabs(r->lcc_sum - want) > 1e-9 * std::max(1.0, want)) correct = false;
    }
  }

  // ---- end-to-end metrics (untraced repetitions) ----
  std::map<std::string, double> m;
  std::vector<double> ops_s, setup, ctor, gen, gp50, gp99, pp50, pp99;
  std::size_t get_samples = 0, put_samples = 0;
  for (RepOut& r : reps) {
    ops_s.push_back(r.ops_per_s());
    setup.push_back(r.setup_s);
    ctor.push_back(r.store_ctor_s);
    gen.push_back(r.rmat_gen_s);
    get_samples += r.get_lat.size();
    put_samples += r.put_lat.size();
    gp50.push_back(percentile(r.get_lat, 0.50));
    gp99.push_back(percentile(r.get_lat, 0.99));
    pp50.push_back(percentile(r.put_lat, 0.50));
    pp99.push_back(percentile(r.put_lat, 0.99));
  }
  setup.push_back(modeled.setup_s);
  ctor.push_back(modeled.store_ctor_s);
  gen.push_back(modeled.rmat_gen_s);
  std::vector<const RepOut*> measured;
  for (const RepOut& r : reps) measured.push_back(&r);
  const Rates rate = rates(measured, kp);
  m["ops_per_s"] = rate.ops_per_s;
  m["modeled_ops_per_s"] = rates({&modeled}, kp).ops_per_s;
  m["wall_ns_per_op"] = rate.wall_ns_per_op;
  m["setup_s"] = median(setup);
  m["peak_rss_mb"] = peak_rss_mb();
  m["get_p50_us"] = median(gp50);
  m["get_p99_us"] = median(gp99);
  m["put_p50_us"] = median(pp50);
  m["put_p99_us"] = median(pp99);
  m["error_rate"] = ratio(failed, attempted);
  m["kv.store_ctor_s"] = is_kv ? median(ctor) : 0.0;
  m["graph.rmat_gen_s"] = is_kv ? 0.0 : median(gen);
  m["clock.cpu_us_per_op"] = 1e6 / m["ops_per_s"] - 1e6 / m["modeled_ops_per_s"];

  // ---- per-layer metrics (traced repetition) ----
  if (o.trace) {
    const RepOut& t = traced;
    const Tracer& tr = *tracer;
    const Stats& s = t.clampi;
    auto q = [&](const char* name, double qq) {
      const auto* st = tr.find(name);
      return st == nullptr ? 0.0 : st->self_ns.quantile(qq);
    };
    const std::uint64_t inserts = s.direct + s.conflicting + s.capacity;
    m["kv.put.count"] = static_cast<double>(t.puts);
    m["kv.put.wall_ns.p50"] = q(kSpanPut, 0.50);
    m["kv.put.wall_ns.p99"] = q(kSpanPut, 0.99);
    m["clampi.entry_slots_at_put.mean"] = ratio(t.entry_slots_sum, t.puts);
    m["clampi.put_invalidations_per_put"] = ratio(s.put_invalidations, t.puts);
    m["kv.get.count"] = static_cast<double>(t.gets);
    m["kv.get_hit.wall_ns.p50"] = q(kSpanGetHit, 0.50);
    m["kv.get_hit.wall_ns.p99"] = q(kSpanGetHit, 0.99);
    m["kv.get_miss.wall_ns.p50"] = q(kSpanGetMiss, 0.50);
    m["kv.get_miss.wall_ns.p99"] = q(kSpanGetMiss, 0.99);
    m["clampi.gets"] = static_cast<double>(s.total_gets);
    m["clampi.hit_ratio"] = s.hit_ratio();
    m["clampi.bytes_from_cache_frac"] =
        ratio(s.bytes_from_cache, s.bytes_from_cache + s.bytes_from_network);
    m["clampi.miss.direct"] = static_cast<double>(s.direct);
    m["clampi.miss.conflicting"] = static_cast<double>(s.conflicting);
    m["clampi.miss.capacity"] = static_cast<double>(s.capacity);
    m["clampi.failed_insert_frac"] = ratio(s.failing, inserts + s.failing);
    m["clampi.evictions_per_get"] = ratio(s.evictions, s.total_gets);
    m["clampi.visited_slots_per_eviction"] = ratio(s.visited_slots, s.evictions);
    m["clampi.storage.tree_alloc_frac"] =
        ratio(s.storage_tree_allocs, s.storage_tree_allocs + s.storage_fastbin_allocs);
    m["clampi.index_probes_per_get"] = ratio(s.index_probes, s.total_gets);
    m["clampi.index_kick_steps_per_insert"] = ratio(s.index_kick_steps, inserts);
    m["kv.invalidate.count"] = static_cast<double>(t.invalidations);
    m["kv.invalidate.wall_us.p50"] = q(kSpanInvalidate, 0.50) / 1e3;
    m["kv.bucket_reads_per_get"] = ratio(t.bucket_reads, t.gets);
    m["kv.chain_follows_per_get"] = ratio(t.chain_follows, t.gets);
    m["kv.version_rereads"] = static_cast<double>(t.version_rereads);
    m["kv.put.replicas_applied_per_put"] = ratio(t.replicas_applied, t.puts);
    m["rt.net_ops_per_op"] = ratio(t.net_ops, t.ops);
    m["rt.net_bytes_per_op"] = ratio(t.net_bytes, t.ops);
    m["rt.wall_ns_per_net_op"] = ratio(t.net_span_wall_ns, t.net_span_ops);
    const double owned = static_cast<double>(t.owned_max);
    m["graph.comm_us_per_vertex"] = is_kv ? 0.0 : ratio(t.comm_us, owned);
    m["graph.compute_us_per_vertex"] = is_kv ? 0.0 : ratio(t.compute_us, owned);
    m["graph.remote_gets_per_vertex"] =
        is_kv ? 0.0 : ratio(static_cast<double>(t.remote_gets), static_cast<double>(t.ops));
    const auto* phase = tr.find(kSpanPhase);
    m["bench.overhead_ns_per_op"] =
        phase == nullptr ? 0.0
                         : ratio(static_cast<double>(phase->total_self_ns),
                                 static_cast<double>(t.attempted));
    m["bench.tracing_overhead_frac"] =
        1.0 - rates({&t}, kp).ops_per_s / m["ops_per_s"];
  }

  // ---- summary ----
  std::printf("# %s seed %llu: %s\n", o.w->name, static_cast<unsigned long long>(o.seed),
              is_kv ? (std::to_string(kClients) + " clients x " +
                       std::to_string(kp.ops_per_client) + " ops, epoch " +
                       std::to_string(kp.epoch_ops) + " ops, " +
                       std::to_string(kp.nkeys) + " keys")
                          .c_str()
                    : ("R-MAT scale " + std::to_string(lp.rmat.scale) + ", edge factor " +
                       std::to_string(lp.rmat.edge_factor) + ", " +
                       std::to_string(reference.size()) + " vertices")
                          .c_str());
  std::printf("# %d measured reps + 1 modelled rep%s; ops / slowest client's (rank's) "
              "virtual time, per measured rep:",
              measured_reps, o.trace ? " + 1 traced rep" : "");
  for (double v : ops_s) std::printf(" %.1f", v);
  std::printf("\n# error_rate %.3g: %llu unserved or mismatched of %llu attempted\n",
              m["error_rate"], static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  if (is_kv) {
    std::printf("# get latency p50 %.3f us p99 %.3f us (%zu samples over %d reps)\n",
                m["get_p50_us"], m["get_p99_us"], get_samples, measured_reps);
    if (put_samples > 0) {
      std::printf("# put latency p50 %.3f us p99 %.3f us (%zu samples over %d reps)\n",
                  m["put_p50_us"], m["put_p99_us"], put_samples, measured_reps);
    }
  }
  std::printf("# clock.cpu_us_per_op %.4f = 1e6/ops_per_s (%.1f) - 1e6/modeled_ops_per_s "
              "(%.1f)\n",
              m["clock.cpu_us_per_op"], m["ops_per_s"], m["modeled_ops_per_s"]);
  if (o.trace) {
    if (is_kv) {
      double covered = 0.0;
      for (const char* name : {kSpanPhase, kSpanGetHit, kSpanGetMiss, kSpanPut, kSpanInvalidate}) {
        if (const auto* st = tracer->find(name)) covered += static_cast<double>(st->total_self_ns);
      }
      const double phase_wall = static_cast<double>(traced.timed_wall_ns);
      std::printf("# traced rep: span self times (bench.overhead_ns_per_op included) cover "
                  "%.4f of the timed phase's %.3f s of wall time\n",
                  ratio(covered, phase_wall), phase_wall * 1e-9);
    }
    if (kind == Kind::kKvUpdate) {
      std::printf("# put rung: kv.put.wall_ns.p50 %.0f ns at "
                  "clampi.entry_slots_at_put.mean %.0f (%llu puts)\n",
                  m["kv.put.wall_ns.p50"], m["clampi.entry_slots_at_put.mean"],
                  static_cast<unsigned long long>(traced.puts));
    }
    ::mkdir(".perfbench_out", 0755);
    const std::string path = std::string(".perfbench_out/") + o.w->name + "-seed" +
                             std::to_string(o.seed) + ".trace.json";
    if (tracer->write_chrome(path)) std::printf("# span sample: %s\n", path.c_str());
  }
  std::vector<MetricDef> all(std::begin(kEndToEnd), std::end(kEndToEnd));
  if (o.trace) all.insert(all.end(), std::begin(kPerLayer), std::end(kPerLayer));
  print_json("# full ", correct, attempted, failed, m, all.data(), all.size());
  if (o.trace) {
    print_json("", correct, attempted, failed, m, std::begin(kPerLayer),
               std::size(kPerLayer));
  } else {
    print_json("", correct, attempted, failed, m, std::begin(kEndToEnd),
               std::size(kEndToEnd));
  }
  std::fflush(stdout);
  return correct ? 0 : 1;
}
