#include "util/page_buffer.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <new>

#include "util/align.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace clampi::util {

PageBuffer::PageBuffer(std::size_t bytes) {
  if (bytes == 0) return;
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t len = round_up(bytes, page);
  const bool huge = bytes >= kHugePageBytes;
  const std::size_t over = huge ? len + kHugePageBytes : len;
  void* raw =
      ::mmap(nullptr, over, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  auto* base = static_cast<std::byte*>(raw);
  if (huge) {
    const auto addr = reinterpret_cast<std::uintptr_t>(raw);
    auto* aligned = base + (round_up(addr, kHugePageBytes) - addr);
    if (aligned != base) ::munmap(base, static_cast<std::size_t>(aligned - base));
    const auto tail = static_cast<std::size_t>(base + over - (aligned + len));
    if (tail > 0) ::munmap(aligned + len, tail);
    base = aligned;
    ::madvise(base, round_down(bytes, kHugePageBytes), MADV_HUGEPAGE);
  }
#if defined(__SANITIZE_ADDRESS__)
  ASAN_POISON_MEMORY_REGION(base + bytes, len - bytes);
#endif
  base_ = base;
  bytes_ = bytes;
  mapped_ = len;
}

void PageBuffer::release() noexcept {
  if (base_ == nullptr) return;
#if defined(__SANITIZE_ADDRESS__)
  ASAN_UNPOISON_MEMORY_REGION(base_ + bytes_, mapped_ - bytes_);
#endif
  ::munmap(base_, mapped_);
  base_ = nullptr;
  bytes_ = 0;
  mapped_ = 0;
}

}  // namespace clampi::util
