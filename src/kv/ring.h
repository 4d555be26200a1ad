// Consistent-hash ring: key -> replica list of server ranks (docs/KV.md).
//
// Each server contributes `vnodes` points on a 64-bit circle; a key is
// placed at its own point and owned by the first server point clockwise
// from it. Replicas are the next distinct servers walking further
// clockwise, so losing a server only remaps the slices it contributed —
// clients route around a dead primary by falling through the replica list
// without any global reshuffle.
//
// A lookup costs O(1 + points / 2^12), not O(log points): a 2^12-entry
// jump table indexed by the top bits of the key's position gives the first
// point of its slice of the circle, and a short scan within the slice
// finds the successor point.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

namespace clampi::kv {

class Ring {
 public:
  /// Servers are window-comm ranks [0, nservers).
  Ring(int nservers, int vnodes, std::uint64_t seed);

  int nservers() const { return nservers_; }

  /// Primary owner of `key` (== replicas()[0]).
  int primary(std::uint64_t key) const;

  /// First `count` distinct servers clockwise from the key's point.
  /// `count` must be in [1, nservers]; out must hold `count` ints.
  void replicas(std::uint64_t key, int count, int* out) const;

  /// Number of ring points (testing / balance diagnostics).
  std::size_t points() const { return points_.size(); }

 private:
  static constexpr int kJumpBits = 12;
  static constexpr int kJumpShift = 64 - kJumpBits;

  std::size_t first_point(std::uint64_t key) const;

  int nservers_;
  std::uint64_t seed_;
  std::vector<std::pair<std::uint64_t, int>> points_;  // sorted (position, server)
  // jump_[b] = index of the first point whose position's top kJumpBits
  // bits are >= b; jump_[2^kJumpBits] = points_.size().
  std::array<std::uint32_t, (std::size_t{1} << kJumpBits) + 1> jump_{};
};

}  // namespace clampi::kv
