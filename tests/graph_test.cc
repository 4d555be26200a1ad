// Tests for the graph substrate: R-MAT generation, CSR construction and
// the distributed LCC against the serial reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "fault/injector.h"
#include "fault/plan.h"
#include "graph/lcc.h"
#include "graph/rmat.h"
#include "netmodel/model.h"
#include "rt/engine.h"
#include "util/rng.h"

namespace {

using namespace clampi;
using graph::AdjacencyMarker;
using graph::build_csr;
using graph::Csr;
using graph::DistributedLcc;
using graph::intersect_count;
using graph::lcc_reference;
using graph::LccBackend;
using graph::LccConfig;
using graph::rmat_graph;
using graph::RmatParams;
using graph::Vertex;
using rmasim::Engine;
using rmasim::Process;

Engine::Config engine_cfg(int nranks) {
  Engine::Config cfg;
  cfg.nranks = nranks;
  cfg.model = std::make_shared<net::FlatModel>(2.0, 0.001);
  cfg.time_policy = rmasim::TimePolicy::kModeled;
  return cfg;
}

struct LccRun {
  std::vector<double> lcc;  ///< every vertex's coefficient, gathered
  std::uint64_t self_heals = 0;
  std::uint64_t storage_bitflips = 0;
};

/// Run DistributedLcc on every rank of `ec` and gather the coefficients
/// and the clampi integrity counters (summed over ranks).
LccRun run_distributed(std::shared_ptr<const Csr> g, const Engine::Config& ec,
                       const LccConfig& cfg) {
  LccRun out;
  out.lcc.assign(g->num_vertices(), -1.0);
  std::vector<clampi::Stats> stats(static_cast<std::size_t>(ec.nranks));
  Engine e(ec);
  e.run([&](Process& p) {
    DistributedLcc solver(p, g, cfg);
    solver.run();
    const auto& local = solver.local_lcc();
    for (std::size_t i = 0; i < local.size(); ++i) {
      out.lcc[solver.first_vertex() + i] = local[i];
    }
    if (const auto* st = solver.clampi_stats()) stats[static_cast<std::size_t>(p.rank())] = *st;
    p.barrier();
  });
  for (const auto& st : stats) {
    out.self_heals += st.self_heals;
    out.storage_bitflips += st.storage_bitflips;
  }
  return out;
}

LccConfig always_cache_cfg() {
  LccConfig cfg;
  cfg.backend = LccBackend::kClampi;
  cfg.clampi_cfg.mode = Mode::kAlwaysCache;
  cfg.clampi_cfg.index_entries = 4096;
  cfg.clampi_cfg.storage_bytes = 4 << 20;
  return cfg;
}

TEST(Csr, BuildDedupsAndSymmetrizes) {
  // Edges: 0-1 (x2, both directions), 1-2, self-loop 2-2.
  const Csr g = build_csr(3, {{0, 1}, {1, 0}, {0, 1}, {1, 2}, {2, 2}});
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_undirected_edges(), 2u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(2), 1u);
  EXPECT_EQ(g.neighbors(1)[0], 0u);
  EXPECT_EQ(g.neighbors(1)[1], 2u);
}

TEST(Csr, AdjacencyListsAreSorted) {
  const Csr g = rmat_graph({.scale = 10, .edge_factor = 8, .seed = 5});
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (std::uint64_t k = 1; k < g.degree(v); ++k) {
      ASSERT_LT(g.neighbors(v)[k - 1], g.neighbors(v)[k]);
    }
  }
}

TEST(Csr, SymmetryHolds) {
  const Csr g = rmat_graph({.scale = 9, .edge_factor = 6, .seed = 6});
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (std::uint64_t k = 0; k < g.degree(v); ++k) {
      const Vertex u = g.neighbors(v)[k];
      ASSERT_EQ(intersect_count(&v, 1, g.neighbors(u), g.degree(u)), 1u)
          << "edge (" << v << "," << u << ") not symmetric";
    }
  }
}

TEST(Rmat, DeterministicForSeed) {
  const auto e1 = graph::rmat_edges({.scale = 8, .edge_factor = 4, .seed = 9});
  const auto e2 = graph::rmat_edges({.scale = 8, .edge_factor = 4, .seed = 9});
  EXPECT_EQ(e1, e2);
  const auto e3 = graph::rmat_edges({.scale = 8, .edge_factor = 4, .seed = 10});
  EXPECT_NE(e1, e3);
}

TEST(Rmat, SkewedDegreeDistribution) {
  // R-MAT with a=0.57 produces scale-free-ish graphs: the max degree must
  // far exceed the average.
  const Csr g = rmat_graph({.scale = 12, .edge_factor = 16, .seed = 11});
  std::uint64_t maxdeg = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) maxdeg = std::max(maxdeg, g.degree(v));
  const double avg = static_cast<double>(g.adj.size()) / g.num_vertices();
  EXPECT_GT(static_cast<double>(maxdeg), 8.0 * avg);
}

TEST(Rmat, EdgeCountInExpectedRange) {
  const RmatParams p{.scale = 10, .edge_factor = 16, .seed = 3};
  const Csr g = rmat_graph(p);
  const auto requested = (std::size_t{1} << p.scale) * 16;
  EXPECT_LE(g.num_undirected_edges(), requested);
  EXPECT_GT(g.num_undirected_edges(), requested / 4);  // dedup removes some
}

TEST(Intersect, SortedIntersection) {
  const Vertex a[] = {1, 3, 5, 7, 9};
  const Vertex b[] = {2, 3, 4, 7, 8, 9};
  EXPECT_EQ(intersect_count(a, 5, b, 6), 3u);
  EXPECT_EQ(intersect_count(a, 0, b, 6), 0u);
  EXPECT_EQ(intersect_count(a, 5, a, 5), 5u);
}

// |a ∩ b| through the marker, leaving it clear for the next use.
std::size_t marker_count(AdjacencyMarker& m, const std::vector<Vertex>& a,
                         const std::vector<Vertex>& b) {
  m.mark(a.data(), a.size());
  const std::size_t n = m.count(b.data(), b.size());
  m.clear(a.data(), a.size());
  return n;
}

std::vector<Vertex> sorted_sample(util::Xoshiro256& rng, std::size_t n, std::size_t k) {
  std::vector<Vertex> ids(n);
  std::iota(ids.begin(), ids.end(), Vertex{0});
  for (std::size_t i = 0; i < k; ++i) std::swap(ids[i], ids[i + rng.bounded(n - i)]);
  ids.resize(k);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(LccKernel, MarkerCountMatchesMergeOnSortedSets) {
  constexpr std::size_t kN = 4096;
  util::Xoshiro256 rng(17);
  std::vector<Vertex> evens, odds, interleaved;
  for (Vertex x = 0; x < 200; x += 2) evens.push_back(x);
  for (Vertex x = 1; x < 200; x += 2) odds.push_back(x);
  for (Vertex x = 0; x < 300; x += 3) interleaved.push_back(x);  // shares multiples of 6
  const std::vector<Vertex> hub = sorted_sample(rng, kN, 2000);
  const std::vector<Vertex> leaf = sorted_sample(rng, kN, 12);
  const std::vector<Vertex> random_a = sorted_sample(rng, kN, 300);
  const std::vector<Vertex> random_b = sorted_sample(rng, kN, 300);
  const std::vector<std::pair<std::vector<Vertex>, std::vector<Vertex>>> cases = {
      {{}, {}},           {{}, random_a},     {random_a, {}},       {evens, odds},
      {random_a, random_a}, {hub, leaf},      {leaf, hub},          {evens, interleaved},
      {random_a, random_b}, {hub, random_b}};
  // One marker across every case: a stale mark left by one case shows up
  // in a later one.
  AdjacencyMarker m(kN);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& [a, b] = cases[i];
    EXPECT_EQ(marker_count(m, a, b), intersect_count(a.data(), a.size(), b.data(), b.size()))
        << "case " << i;
  }
  EXPECT_EQ(marker_count(m, evens, odds), 0u);
  EXPECT_EQ(marker_count(m, random_a, random_a), random_a.size());
  EXPECT_EQ(marker_count(m, evens, interleaved), 34u);
}

TEST(LccKernel, MarkerCountMatchesMergeOnEveryRmatEdge) {
  const Csr g = rmat_graph({.scale = 10, .edge_factor = 16, .seed = 3});
  AdjacencyMarker m(g.num_vertices());
  std::uint64_t pairs = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const Vertex* nv = g.neighbors(v);
    m.mark(nv, g.degree(v));
    for (std::uint64_t k = 0; k < g.degree(v); ++k) {
      const Vertex u = nv[k];
      ASSERT_EQ(m.count(g.neighbors(u), g.degree(u)),
                intersect_count(nv, g.degree(v), g.neighbors(u), g.degree(u)))
          << "edge (" << v << "," << u << ")";
      ++pairs;
    }
    m.clear(nv, g.degree(v));
  }
  EXPECT_EQ(pairs, g.adj.size());
}

TEST(LccKernel, IdsOutOfRangeCountAsNoMatch) {
  constexpr std::size_t kN = 64;
  std::vector<Vertex> all(kN);
  std::iota(all.begin(), all.end(), Vertex{0});
  AdjacencyMarker m(kN);
  m.mark(all.data(), all.size());
  const std::vector<Vertex> garbage = {0, 63, 64, 65, 1000, 0x7fffffffu, 0xffffffffu};
  EXPECT_EQ(m.count(garbage.data(), garbage.size()), 2u);
  m.clear(all.data(), all.size());
  EXPECT_EQ(m.count(garbage.data(), garbage.size()), 0u);
}

TEST(LccReference, TriangleAndPath) {
  // Triangle 0-1-2 plus pendant 3 attached to 2.
  const Csr g = build_csr(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  const auto lcc = lcc_reference(g);
  EXPECT_DOUBLE_EQ(lcc[0], 1.0);
  EXPECT_DOUBLE_EQ(lcc[1], 1.0);
  EXPECT_DOUBLE_EQ(lcc[2], 1.0 / 3.0);  // one of three possible edges
  EXPECT_DOUBLE_EQ(lcc[3], 0.0);        // degree 1
}

TEST(LccReference, CompleteGraphIsAllOnes) {
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex u = 0; u < 6; ++u) {
    for (Vertex v = u + 1; v < 6; ++v) edges.emplace_back(u, v);
  }
  const auto lcc = lcc_reference(build_csr(6, std::move(edges)));
  for (const double c : lcc) EXPECT_DOUBLE_EQ(c, 1.0);
}

TEST(LccReference, StarHasZeroCenter) {
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex v = 1; v < 8; ++v) edges.emplace_back(0, v);
  const auto lcc = lcc_reference(build_csr(8, std::move(edges)));
  EXPECT_DOUBLE_EQ(lcc[0], 0.0);
}

class LccDistributed : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(LccDistributed, MatchesSerialReference) {
  const int nranks = std::get<0>(GetParam());
  const bool use_clampi = std::get<1>(GetParam());
  auto g = std::make_shared<Csr>(rmat_graph({.scale = 9, .edge_factor = 8, .seed = 21}));
  const auto want = lcc_reference(*g);
  LccConfig cfg = always_cache_cfg();
  if (!use_clampi) cfg.backend = LccBackend::kNone;
  const auto got = run_distributed(g, engine_cfg(nranks), cfg);
  for (std::size_t v = 0; v < want.size(); ++v) {
    ASSERT_NEAR(got.lcc[v], want[v], 1e-12) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, LccDistributed,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8),
                                            ::testing::Bool()));

// Shapes that stress the kernel: an unpermuted R-MAT puts every hub on
// rank 0, a complete graph makes every list a hub, a star pairs one hub
// with leaves that share nothing.
enum class Shape { kRmatUnpermuted, kComplete, kStar };

void PrintTo(Shape s, std::ostream* os) {
  *os << (s == Shape::kRmatUnpermuted ? "rmat_unpermuted"
          : s == Shape::kComplete     ? "complete"
                                      : "star");
}

std::shared_ptr<const Csr> make_shape(Shape s) {
  std::vector<std::pair<Vertex, Vertex>> edges;
  switch (s) {
    case Shape::kRmatUnpermuted:
      return std::make_shared<Csr>(
          rmat_graph({.scale = 9, .edge_factor = 8, .seed = 21, .permute_labels = false}));
    case Shape::kComplete:
      for (Vertex u = 0; u < 40; ++u) {
        for (Vertex v = u + 1; v < 40; ++v) edges.emplace_back(u, v);
      }
      return std::make_shared<Csr>(build_csr(40, std::move(edges)));
    case Shape::kStar:
      for (Vertex v = 1; v < 64; ++v) edges.emplace_back(0, v);
      return std::make_shared<Csr>(build_csr(64, std::move(edges)));
  }
  return nullptr;
}

class LccShapes : public ::testing::TestWithParam<std::tuple<Shape, int>> {};

TEST_P(LccShapes, MatchesSerialReference) {
  const auto g = make_shape(std::get<0>(GetParam()));
  const auto want = lcc_reference(*g);
  const auto got = run_distributed(g, engine_cfg(std::get<1>(GetParam())), always_cache_cfg());
  for (std::size_t v = 0; v < want.size(); ++v) {
    ASSERT_EQ(got.lcc[v], want[v]) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Graphs, LccShapes,
                         ::testing::Combine(::testing::Values(Shape::kRmatUnpermuted,
                                                              Shape::kComplete, Shape::kStar),
                                            ::testing::Values(1, 2, 4)));

// Bit rot in always-cache mode: verification must hide it completely;
// without verification the corrupted lists, garbage ids included, reach
// the kernel and the run must still complete.
Engine::Config bit_rot_engine() {
  fault::Plan plan;
  plan.storage_bitflip_prob = 1e-3;
  Engine::Config ec = engine_cfg(4);
  ec.injector = std::make_shared<fault::Injector>(plan);
  return ec;
}

TEST(LccDistributed, BitRotWithVerificationMatchesReference) {
  auto g = std::make_shared<Csr>(rmat_graph({.scale = 9, .edge_factor = 8, .seed = 21}));
  LccConfig cfg = always_cache_cfg();
  cfg.clampi_cfg.verify_every_n = 1;
  const auto got = run_distributed(g, bit_rot_engine(), cfg);
  EXPECT_GT(got.storage_bitflips, 0u);
  EXPECT_GT(got.self_heals, 0u);
  const auto want = lcc_reference(*g);
  for (std::size_t v = 0; v < want.size(); ++v) {
    ASSERT_EQ(got.lcc[v], want[v]) << "vertex " << v;
  }
}

TEST(LccDistributed, BitRotWithoutVerificationCompletes) {
  auto g = std::make_shared<Csr>(rmat_graph({.scale = 9, .edge_factor = 8, .seed = 21}));
  const auto got = run_distributed(g, bit_rot_engine(), always_cache_cfg());
  EXPECT_GT(got.storage_bitflips, 0u);
  EXPECT_EQ(got.self_heals, 0u);
  const auto want = lcc_reference(*g);
  std::size_t wrong = 0;
  for (std::size_t v = 0; v < want.size(); ++v) {
    ASSERT_TRUE(std::isfinite(got.lcc[v]) && got.lcc[v] >= 0.0) << "vertex " << v;
    if (got.lcc[v] != want[v]) ++wrong;
  }
  // Corrupted lists did reach the kernel.
  EXPECT_GT(wrong, 0u);
}

TEST(LccDistributed, CachingProducesHitsOnSharedNeighbours) {
  auto g = std::make_shared<Csr>(rmat_graph({.scale = 10, .edge_factor = 16, .seed = 31}));
  Engine e(engine_cfg(4));
  e.run([&](Process& p) {
    LccConfig cfg;
    cfg.backend = LccBackend::kClampi;
    cfg.clampi_cfg.mode = Mode::kAlwaysCache;
    cfg.clampi_cfg.index_entries = 1 << 15;
    cfg.clampi_cfg.storage_bytes = 16 << 20;
    DistributedLcc solver(p, g, cfg);
    const auto rep = solver.run();
    const auto* st = solver.clampi_stats();
    ASSERT_NE(st, nullptr);
    EXPECT_GT(rep.remote_gets, 0u);
    // Hub vertices appear in many adjacency lists: hits must be plentiful.
    EXPECT_GT(st->hit_ratio(), 0.4);
    p.barrier();
  });
}

TEST(LccDistributed, SkipDeadRanksDropsDeadOwnersAdjacency) {
  // Rank 2 is dead from the start; with skip_dead_ranks triangles that
  // need its adjacency lists are skipped (their wedges go uncounted)
  // instead of aborting the whole computation.
  auto g = std::make_shared<Csr>(rmat_graph({.scale = 9, .edge_factor = 8, .seed = 21}));
  fault::Plan plan;
  plan.kill_rank(2, 0.0);
  Engine::Config ec = engine_cfg(4);
  ec.injector = std::make_shared<fault::Injector>(plan);
  Engine e(ec);
  auto dropped = std::make_shared<std::vector<std::uint64_t>>(4, 0);
  e.run([&](Process& p) {
    LccConfig cfg;
    cfg.backend = LccBackend::kClampi;
    cfg.clampi_cfg.mode = Mode::kAlwaysCache;
    cfg.clampi_cfg.index_entries = 4096;
    cfg.clampi_cfg.storage_bytes = 4 << 20;
    cfg.skip_dead_ranks = true;
    DistributedLcc solver(p, g, cfg);
    const auto rep = solver.run();
    (*dropped)[static_cast<std::size_t>(p.rank())] = rep.dropped_gets;
    // Coefficients stay well-formed under partial information.
    for (const double c : solver.local_lcc()) {
      EXPECT_GE(c, 0.0);
      EXPECT_LE(c, 1.0);
    }
    p.barrier();
  });
  EXPECT_GT((*dropped)[0] + (*dropped)[1] + (*dropped)[3], 0u);
}

TEST(LccDistributed, SizeHistogramTracksDegrees) {
  auto g = std::make_shared<Csr>(rmat_graph({.scale = 9, .edge_factor = 8, .seed = 41}));
  Engine e(engine_cfg(4));
  e.run([&](Process& p) {
    LccConfig cfg;
    cfg.backend = LccBackend::kNone;
    cfg.track_size_histogram = true;
    DistributedLcc solver(p, g, cfg);
    const auto rep = solver.run();
    std::uint64_t histo_total = 0;
    for (const auto& [sz, cnt] : solver.size_histogram()) {
      EXPECT_EQ(sz % sizeof(Vertex), 0u);
      histo_total += cnt;
    }
    EXPECT_EQ(histo_total, rep.remote_gets);
    p.barrier();
  });
}

TEST(LccDistributed, OwnershipPartitionsCoverAllVertices) {
  auto g = std::make_shared<Csr>(rmat_graph({.scale = 8, .edge_factor = 4, .seed = 51}));
  Engine e(engine_cfg(5));
  auto covered = std::make_shared<std::vector<int>>(g->num_vertices(), 0);
  e.run([&](Process& p) {
    LccConfig cfg;
    DistributedLcc solver(p, g, cfg);
    for (Vertex v = solver.first_vertex(); v < solver.last_vertex(); ++v) {
      EXPECT_EQ(solver.owner_of(v), p.rank());
      (*covered)[v] += 1;
    }
    p.barrier();
  });
  for (const int c : *covered) EXPECT_EQ(c, 1);
}

}  // namespace
