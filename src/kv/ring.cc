#include "kv/ring.h"

#include <algorithm>

#include "util/error.h"
#include "util/skew.h"

namespace clampi::kv {

Ring::Ring(int nservers, int vnodes, std::uint64_t seed)
    : nservers_(nservers), seed_(seed) {
  CLAMPI_REQUIRE(nservers >= 1, "Ring: nservers must be >= 1");
  CLAMPI_REQUIRE(vnodes >= 1, "Ring: vnodes must be >= 1");
  points_.reserve(static_cast<std::size_t>(nservers) * static_cast<std::size_t>(vnodes));
  for (int s = 0; s < nservers; ++s) {
    for (int v = 0; v < vnodes; ++v) {
      const std::uint64_t pos = util::mix64(
          seed ^ (static_cast<std::uint64_t>(s) * 0x100000001b3ull + static_cast<std::uint64_t>(v)));
      points_.emplace_back(pos, s);
    }
  }
  std::sort(points_.begin(), points_.end());
  // Astronomically unlikely, but two coincident points would make replica
  // order ambiguous across ranks — reject outright rather than tie-break.
  for (std::size_t i = 1; i < points_.size(); ++i) {
    CLAMPI_REQUIRE(points_[i].first != points_[i - 1].first,
                   "Ring: coincident vnode points; change the seed");
  }
  CLAMPI_REQUIRE(points_.size() < (std::uint64_t{1} << 32), "Ring: too many points");
  std::size_t i = 0;
  for (std::size_t b = 0; b < jump_.size(); ++b) {
    while (i < points_.size() && (points_[i].first >> kJumpShift) < b) ++i;
    jump_[b] = static_cast<std::uint32_t>(i);
  }
}

std::size_t Ring::first_point(std::uint64_t key) const {
  const std::uint64_t pos = util::mix64(key ^ seed_ ^ 0x72696e67ull);
  // The successor is inside pos's slice or is the next slice's first point;
  // past the last point the walk wraps to 0.
  const std::size_t slice = pos >> kJumpShift;
  std::size_t i = jump_[slice];
  const std::size_t end = jump_[slice + 1];
  while (i < end && points_[i].first < pos) ++i;
  return i == points_.size() ? 0 : i;
}

int Ring::primary(std::uint64_t key) const { return points_[first_point(key)].second; }

void Ring::replicas(std::uint64_t key, int count, int* out) const {
  CLAMPI_REQUIRE(count >= 1 && count <= nservers_,
                 "Ring: replica count outside [1, nservers]");
  std::size_t i = first_point(key);
  int found = 0;
  for (std::size_t step = 0; step < points_.size() && found < count; ++step) {
    const int s = points_[i].second;
    if (++i == points_.size()) i = 0;
    bool seen = false;
    for (int j = 0; j < found; ++j) seen = seen || out[j] == s;
    if (!seen) out[found++] = s;
  }
  CLAMPI_ASSERT(found == count, "Ring: walk failed to find enough distinct servers");
}

}  // namespace clampi::kv
