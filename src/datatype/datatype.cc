#include "datatype/datatype.h"

#include <algorithm>
#include <cstring>

namespace clampi::dt {

std::vector<Block> normalize(std::vector<Block> blocks) {
  blocks.erase(std::remove_if(blocks.begin(), blocks.end(),
                              [](const Block& b) { return b.size == 0; }),
               blocks.end());
  std::sort(blocks.begin(), blocks.end(),
            [](const Block& a, const Block& b) { return a.offset < b.offset; });
  std::vector<Block> out;
  for (const Block& b : blocks) {
    if (!out.empty()) {
      Block& last = out.back();
      CLAMPI_REQUIRE(b.offset >= last.offset + last.size,
                     "datatype blocks overlap");
      if (b.offset == last.offset + last.size) {
        last.size += b.size;
        continue;
      }
    }
    out.push_back(b);
  }
  return out;
}

namespace {
std::uint64_t hash_blocks(const std::vector<Block>& blocks) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
    h ^= h >> 29;
  };
  for (const Block& b : blocks) {
    mix(b.offset);
    mix(b.size);
  }
  return h;
}
}  // namespace

Datatype::Datatype(std::vector<Block> blocks, std::size_t extent) {
  auto norm = normalize(std::move(blocks));
  std::size_t sz = 0;
  std::size_t hi = 0;
  for (const Block& b : norm) {
    sz += b.size;
    hi = std::max(hi, b.offset + b.size);
  }
  size_ = sz;
  extent_ = std::max(extent, hi);
  signature_ = hash_blocks(norm) ^ (static_cast<std::uint64_t>(extent_) << 1);
  blocks_ = std::make_shared<const std::vector<Block>>(std::move(norm));
}

Datatype Datatype::contiguous(std::size_t bytes) {
  std::vector<Block> b;
  if (bytes > 0) b.push_back({0, bytes});
  return Datatype(std::move(b), bytes);
}

Datatype Datatype::vector(std::size_t count, std::size_t blocklen, std::size_t stride,
                          const Datatype& base) {
  CLAMPI_REQUIRE(stride >= blocklen, "vector stride smaller than block length");
  std::vector<Block> out;
  const std::size_t e = base.extent();
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t block_base = i * stride * e;
    for (std::size_t j = 0; j < blocklen; ++j) {
      for (const Block& b : base.blocks()) {
        out.push_back({block_base + j * e + b.offset, b.size});
      }
    }
  }
  const std::size_t extent = count > 0 ? ((count - 1) * stride + blocklen) * e : 0;
  return Datatype(std::move(out), extent);
}

Datatype Datatype::indexed(const std::vector<std::size_t>& blocklens,
                           const std::vector<std::size_t>& displs, const Datatype& base) {
  CLAMPI_REQUIRE(blocklens.size() == displs.size(), "indexed arity mismatch");
  std::vector<Block> out;
  const std::size_t e = base.extent();
  std::size_t extent = 0;
  for (std::size_t i = 0; i < blocklens.size(); ++i) {
    for (std::size_t j = 0; j < blocklens[i]; ++j) {
      for (const Block& b : base.blocks()) {
        out.push_back({(displs[i] + j) * e + b.offset, b.size});
      }
    }
    extent = std::max(extent, (displs[i] + blocklens[i]) * e);
  }
  return Datatype(std::move(out), extent);
}

Datatype Datatype::structure(const std::vector<std::size_t>& counts,
                             const std::vector<std::size_t>& byte_displs,
                             const std::vector<Datatype>& types) {
  CLAMPI_REQUIRE(counts.size() == byte_displs.size() && counts.size() == types.size(),
                 "struct arity mismatch");
  std::vector<Block> out;
  std::size_t extent = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::size_t e = types[i].extent();
    for (std::size_t j = 0; j < counts[i]; ++j) {
      for (const Block& b : types[i].blocks()) {
        out.push_back({byte_displs[i] + j * e + b.offset, b.size});
      }
    }
    extent = std::max(extent, byte_displs[i] + counts[i] * e);
  }
  return Datatype(std::move(out), extent);
}

std::vector<Block> Datatype::flatten(std::size_t count) const {
  std::vector<Block> out;
  out.reserve(blocks_->size() * count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t base = i * extent_;
    for (const Block& b : *blocks_) out.push_back({base + b.offset, b.size});
  }
  return normalize(std::move(out));
}

std::size_t Datatype::footprint(std::size_t count) const {
  if (count == 0 || blocks_->empty()) return 0;
  // Blocks are offset-sorted and disjoint, so the last one ends highest.
  const Block& last = blocks_->back();
  return (count - 1) * extent_ + last.offset + last.size;
}

void Datatype::pack(const void* src, std::size_t count, void* dst) const {
  const auto* in = static_cast<const std::byte*>(src);
  auto* out = static_cast<std::byte*>(dst);
  std::size_t pos = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t base = i * extent_;
    for (const Block& b : *blocks_) {
      std::memcpy(out + pos, in + base + b.offset, b.size);
      pos += b.size;
    }
  }
}

void Datatype::unpack(const void* src, std::size_t count, void* dst) const {
  const auto* in = static_cast<const std::byte*>(src);
  auto* out = static_cast<std::byte*>(dst);
  std::size_t pos = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t base = i * extent_;
    for (const Block& b : *blocks_) {
      std::memcpy(out + base + b.offset, in + pos, b.size);
      pos += b.size;
    }
  }
}

}  // namespace clampi::dt
