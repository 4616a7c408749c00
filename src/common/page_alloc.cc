#include "src/common/page_alloc.h"

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "src/common/cpu.h"

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

namespace cuckoo {
namespace {

std::size_t RoundUp(std::size_t n, std::size_t align) noexcept {
  return (n + align - 1) & ~(align - 1);
}

// Zeroed aligned heap block (small blocks, and the fallback when mmap fails).
void* AlignedZeroed(std::size_t bytes) {
  const std::size_t padded = RoundUp(bytes, kCacheLineSize);
  void* p = std::aligned_alloc(kCacheLineSize, padded);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  std::memset(p, 0, padded);
  return p;
}

}  // namespace

PageBlock::PageBlock(std::size_t bytes, bool want_hugepages) {
  if (bytes == 0) {
    return;
  }
  bytes_ = bytes;
#if defined(__linux__)
  if (bytes >= kMinMappedBytes) {
    // A huge-page request maps 2 MB of slack, then trims both ends so the
    // kept region is 2 MB-aligned: MADV_HUGEPAGE only fills PMD entries for
    // fully-aligned 2 MB extents, and mmap alone guarantees just 4 KB
    // alignment.
    const bool huge = want_hugepages && bytes >= kHugePageSize;
    const std::size_t len = huge ? RoundUp(bytes, kHugePageSize) : bytes;
    const std::size_t slack = huge ? kHugePageSize : 0;
    void* raw = ::mmap(nullptr, len + slack, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw != MAP_FAILED) {
      auto addr = reinterpret_cast<std::uintptr_t>(raw);
      const std::uintptr_t aligned = huge ? RoundUp(addr, kHugePageSize) : addr;
      if (const std::size_t head = aligned - addr; head != 0) {
        ::munmap(raw, head);
      }
      if (const std::size_t tail = slack - (aligned - addr); tail != 0) {
        ::munmap(reinterpret_cast<void*>(aligned + len), tail);
      }
      ptr_ = reinterpret_cast<void*>(aligned);
      map_bytes_ = len;
      // Advisory: EINVAL when THP is compiled out or set to "never". The
      // plain mapping (already zero-filled by the kernel) stays usable.
      if (huge && ::madvise(ptr_, len, MADV_HUGEPAGE) == 0) {
        hugepage_bytes_ = len;
      }
      return;
    }
    // mmap exhausted (address space / overcommit limits): fall through to
    // the heap path, which throws only if that fails too.
  }
#else
  (void)want_hugepages;
#endif
  ptr_ = AlignedZeroed(bytes);
}

void PageBlock::Decommit() noexcept {
#if defined(__linux__)
  if (map_bytes_ != 0) {
    // Private anonymous memory: the next access after MADV_DONTNEED sees
    // zero-fill-on-demand pages. Failure (locked pages) only keeps the old
    // bytes resident, which is what callers had before.
    ::madvise(ptr_, map_bytes_, MADV_DONTNEED);
  }
#endif
}

void PageBlock::Populate() noexcept {
#if defined(__linux__) && defined(MADV_POPULATE_WRITE)
  if (map_bytes_ != 0) {
    ::madvise(ptr_, map_bytes_, MADV_POPULATE_WRITE);
  }
#endif
}

std::size_t PageBlock::ResidentBytes() const {
#if defined(__linux__)
  if (map_bytes_ != 0) {
    const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    std::vector<unsigned char> vec((map_bytes_ + page - 1) / page);
    if (::mincore(ptr_, map_bytes_, vec.data()) != 0) {
      return map_bytes_;
    }
    std::size_t pages = 0;
    for (unsigned char v : vec) {
      pages += v & 1u;
    }
    return pages * page;
  }
#endif
  return bytes_;
}

void PageBlock::Release() noexcept {
  if (ptr_ == nullptr) {
    return;
  }
#if defined(__linux__)
  if (map_bytes_ != 0) {
    ::munmap(ptr_, map_bytes_);
    ptr_ = nullptr;
    return;
  }
#endif
  std::free(ptr_);
  ptr_ = nullptr;
}

}  // namespace cuckoo
