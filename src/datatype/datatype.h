// MPI-like derived datatypes (paper Sec. II-B).
//
// CLaMPI supports arbitrary datatypes by flattening them, through the MPI
// Datatype Library [19], into a list of (offset, size) blocks and by
// defining size(x) as the sum of the block sizes times the count. This
// module provides that subset: constructors for contiguous, vector,
// indexed and struct types, flattening with adjacent-block merging, and
// pack/unpack between a typed layout and a contiguous buffer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/error.h"

namespace clampi::dt {

/// One flattened block: `size` contiguous bytes at `offset` from the start
/// of the data buffer.
struct Block {
  std::size_t offset = 0;
  std::size_t size = 0;

  friend bool operator==(const Block&, const Block&) = default;
};

/// An immutable datatype. Cheap to copy (shared representation).
class Datatype {
 public:
  /// `bytes` contiguous bytes (the MPI_BYTE/MPI_CONTIGUOUS case).
  static Datatype contiguous(std::size_t bytes);

  /// `count` blocks of `blocklen` elements of `base`, with the start of
  /// consecutive blocks `stride` elements apart (MPI_Type_vector).
  static Datatype vector(std::size_t count, std::size_t blocklen, std::size_t stride,
                         const Datatype& base);

  /// Blocks of `blocklens[i]` elements of `base` at element displacement
  /// `displs[i]` (MPI_Type_indexed).
  static Datatype indexed(const std::vector<std::size_t>& blocklens,
                          const std::vector<std::size_t>& displs, const Datatype& base);

  /// Heterogeneous struct: member `i` is `count[i]` copies of `types[i]` at
  /// byte displacement `displs[i]` (MPI_Type_create_struct).
  static Datatype structure(const std::vector<std::size_t>& counts,
                            const std::vector<std::size_t>& byte_displs,
                            const std::vector<Datatype>& types);

  /// Total payload bytes of one element of this type.
  std::size_t size() const { return size_; }

  /// Span from the lowest to one-past-highest byte touched (MPI extent,
  /// without artificial resizing).
  std::size_t extent() const { return extent_; }

  /// True if the type is one dense block starting at offset 0.
  bool is_contiguous() const {
    return blocks_->size() == 1 && (*blocks_)[0].offset == 0;
  }

  /// The flattened representation: offset-sorted, adjacent blocks merged.
  const std::vector<Block>& blocks() const { return *blocks_; }

  /// Flatten `count` consecutive elements of this type (elements are
  /// `extent()` apart), merging blocks that touch.
  std::vector<Block> flatten(std::size_t count) const;

  /// One past the last byte `count` elements touch, from the start of the
  /// data buffer: the end of the last flattened block. A non-contiguous
  /// layout touches a wider range than its size_of(count) packed bytes.
  std::size_t footprint(std::size_t count) const;

  /// size() * count.
  std::size_t size_of(std::size_t count) const { return size_ * count; }

  /// A stable hash of the type signature (layout), used by the cache to
  /// sanity-check that two accesses to the same (target, disp) use
  /// compatible types.
  std::uint64_t signature() const { return signature_; }

  /// Gather `count` elements laid out with this type in `src` into the
  /// contiguous buffer `dst` (dst must hold size_of(count) bytes).
  void pack(const void* src, std::size_t count, void* dst) const;

  /// Scatter the contiguous `src` (size_of(count) bytes) into `dst` with
  /// this type's layout.
  void unpack(const void* src, std::size_t count, void* dst) const;

 private:
  Datatype(std::vector<Block> blocks, std::size_t extent);

  std::shared_ptr<const std::vector<Block>> blocks_;
  std::size_t size_ = 0;
  std::size_t extent_ = 0;
  std::uint64_t signature_ = 0;
};

/// Normalize a block list: sort by offset, merge adjacent/overlapping-free
/// blocks. Exposed for tests.
std::vector<Block> normalize(std::vector<Block> blocks);

}  // namespace clampi::dt
