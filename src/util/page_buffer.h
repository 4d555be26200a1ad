// PageBuffer: an RAII anonymous memory mapping for the program's large
// simulated memory (rmasim window segments, the CLaMPI S_w arena).
//
// The pages come from a private anonymous mmap, so the kernel hands them
// out zero-filled and faults each one in on first touch; nothing is
// memset up front. A request of at least 2 MiB gets a 2 MiB-aligned base
// (over-map by 2 MiB, trim both ends) and MADV_HUGEPAGE on every 2 MiB
// block the requested bytes fully cover, so random reads across a large
// window or arena walk a few hundred TLB entries instead of tens of
// thousands (docs/PERF.md "Huge pages"). A partial tail block stays on
// 4 KiB pages, so rounding never grows the resident set. The advice is
// only a hint: with transparent huge pages off, or no free 2 MiB block,
// the same memory is served on 4 KiB pages and its result is ignored.
//
// Under AddressSanitizer the slack between the requested end and the end
// of the mapping is poisoned, so a read or write past a segment's end is
// reported as it was with the malloc redzones this buffer replaced.
#pragma once

#include <cstddef>
#include <utility>

namespace clampi::util {

class PageBuffer {
 public:
  static constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

  PageBuffer() = default;

  /// Map `bytes` of zeroed memory (none for 0). Throws std::bad_alloc when
  /// the kernel refuses the mapping.
  explicit PageBuffer(std::size_t bytes);

  ~PageBuffer() { release(); }

  PageBuffer(const PageBuffer&) = delete;
  PageBuffer& operator=(const PageBuffer&) = delete;

  PageBuffer(PageBuffer&& o) noexcept
      : base_(std::exchange(o.base_, nullptr)),
        bytes_(std::exchange(o.bytes_, 0)),
        mapped_(std::exchange(o.mapped_, 0)) {}

  PageBuffer& operator=(PageBuffer&& o) noexcept {
    if (this != &o) {
      release();
      base_ = std::exchange(o.base_, nullptr);
      bytes_ = std::exchange(o.bytes_, 0);
      mapped_ = std::exchange(o.mapped_, 0);
    }
    return *this;
  }

  /// Base of the mapping; nullptr for an empty (default, 0-byte or
  /// moved-from) buffer.
  std::byte* data() const { return base_; }

 private:
  void release() noexcept;

  std::byte* base_ = nullptr;
  std::size_t bytes_ = 0;   ///< requested size
  std::size_t mapped_ = 0;  ///< mapping length: bytes_ rounded up to a page
};

}  // namespace clampi::util
