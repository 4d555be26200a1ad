// Distributed Local Clustering Coefficient over RMA gets (paper Sec. IV-C).
//
// The graph is 1-D partitioned: rank r owns a contiguous vertex range and
// exposes the adjacency lists of its vertices through a window. Computing
// LCC(v) requires the adjacency list of every neighbour u of v; remote
// lists are fetched with one-sided gets whose size is deg(u) * 4 bytes —
// the variable-size, heavily-reused traffic that motivates CLaMPI
// (Figs. 3, 15-18). The always-cache mode applies: the graph is immutable.
//
// Simulation shortcut (DESIGN.md): the CSR is stored once and shared by
// the rank threads; each rank's window maps its own adjacency slice, and
// *remote* lists are only ever accessed through gets. The offsets array is
// replicated in the real system (allgather) and read directly here.
//
// Kernel: LCC(v) counts, for each neighbour u, |adj(v) ∩ adj(u)|. The
// solver marks adj(v) once in an AdjacencyMarker, probes the marker with
// every entry of each fetched adj(u), then clears exactly adj(v) again:
// O(Σ deg u) branch-free probes per vertex instead of a sorted merge of
// O(deg v + deg u) per edge. The marker holds one byte per vertex of the
// whole graph, per rank (16 KiB at R-MAT scale 14), the same order of
// memory as the replicated offsets array. `intersect_count` (rmat.h)
// stays the sorted merge that `lcc_reference` uses, so the reference is
// independent of this kernel.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "clampi/clampi.h"
#include "graph/rmat.h"
#include "rt/engine.h"

namespace clampi::graph {

/// Membership marker over the vertex ids [0, n) of one graph. mark()
/// sets a set of ids, count() returns how many ids of a list are set and
/// clear() unsets the ids mark() set, so the marker is all zero between
/// uses. An id >= n counts as no match: it probes a sentinel slot that is
/// never set. Fetched lists can hold such ids when an always-cache run
/// with bit rot and no verification serves corrupted bytes.
class AdjacencyMarker {
 public:
  explicit AdjacencyMarker(std::size_t num_vertices) : marks_(num_vertices + 1, 0) {}

  /// `a` must hold ids < n (a local adjacency list).
  void mark(const Vertex* a, std::size_t na) {
    for (std::size_t i = 0; i < na; ++i) marks_[a[i]] = 1;
  }
  void clear(const Vertex* a, std::size_t na) {
    for (std::size_t i = 0; i < na; ++i) marks_[a[i]] = 0;
  }
  /// Number of entries of `b` that are marked: |a ∩ b| when `b` holds no
  /// duplicates, as intersect_count gives for sorted lists.
  std::size_t count(const Vertex* b, std::size_t nb) const {
    const std::size_t sentinel = marks_.size() - 1;
    std::size_t n = 0;
    for (std::size_t i = 0; i < nb; ++i) n += marks_[std::min<std::size_t>(b[i], sentinel)];
    return n;
  }

 private:
  std::vector<std::uint8_t> marks_;  ///< n + 1 bytes; marks_[n] stays 0
};

enum class LccBackend {
  kNone,    ///< direct gets: the foMPI baseline
  kClampi,  ///< CLaMPI caching layer
};

struct LccConfig {
  LccBackend backend = LccBackend::kNone;
  clampi::Config clampi_cfg{};
  bool track_size_histogram = false;  ///< remote get sizes (Fig. 3)
  /// Survivability (docs/FAULTS.md §6): instead of aborting on the first
  /// OpFailedError, drop gets against dead/quarantined owners (their
  /// wedges contribute no closed triangles; LCC becomes a lower bound)
  /// and count them in Report::dropped_gets. Degraded reads, when the
  /// clampi config enables them, still serve cached lists for down owners.
  bool skip_dead_ranks = false;
};

class DistributedLcc {
 public:
  struct Report {
    /// This rank's virtual time for the whole vertex phase: the gets
    /// (comm_us) plus the intersection compute.
    double compute_us = 0.0;
    /// Time spent issuing/completing remote gets only; local reads issue
    /// none and are not counted (the paper's Fig. 15 plots "LCC
    /// communication time"; the intersection compute is identical across
    /// strategies and, under 1-D partitioning of a skewed R-MAT,
    /// dominates the hub-owning rank).
    double comm_us = 0.0;
    std::uint64_t remote_gets = 0;
    std::uint64_t local_reads = 0;
    std::uint64_t owned_vertices = 0;
    std::uint64_t dropped_gets = 0;  ///< skipped: owner dead/quarantined
    double lcc_sum = 0.0;  ///< sum of this rank's coefficients (checksum)
  };

  DistributedLcc(rmasim::Process& p, std::shared_ptr<const Csr> graph,
                 const LccConfig& cfg);

  /// Compute LCC for every owned vertex (collective: barriers around the
  /// measured phase).
  Report run();

  Vertex first_vertex() const { return first_; }
  Vertex last_vertex() const { return last_; }
  int owner_of(Vertex v) const;

  /// Per-owned-vertex coefficients, filled by run().
  const std::vector<double>& local_lcc() const { return lcc_; }

  const clampi::Stats* clampi_stats() const {
    return cached_.has_value() ? &cached_->stats() : nullptr;
  }
  std::size_t clampi_index_entries() const {
    return cached_.has_value() ? cached_->index_entries() : 0;
  }
  std::size_t clampi_storage_bytes() const {
    return cached_.has_value() ? cached_->storage_bytes() : 0;
  }

  /// Remote-get size (bytes) -> count, over the last run() (Fig. 3).
  const std::unordered_map<std::uint32_t, std::uint64_t>& size_histogram() const {
    return size_hist_;
  }

 private:
  /// Get adj(u) from its remote `owner` into `dst` (deg(u) entries) and
  /// complete the transfer; returns `dst`, or nullptr when the owner is
  /// down and cfg.skip_dead_ranks dropped the get.
  const Vertex* fetch_remote(Vertex u, int owner, Vertex* dst);

  rmasim::Process* p_;
  std::shared_ptr<const Csr> g_;
  LccConfig cfg_;
  Vertex first_ = 0, last_ = 0;
  std::vector<Vertex> range_first_;  ///< first vertex of each rank
  rmasim::Window win_{};
  std::optional<clampi::CachedWindow> cached_;
  std::vector<double> lcc_;
  AdjacencyMarker marker_;
  std::unordered_map<std::uint32_t, std::uint64_t> size_hist_;
  Report current_{};
};

}  // namespace clampi::graph
