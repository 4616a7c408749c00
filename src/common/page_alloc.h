// Zero-initialized, cache-line-aligned storage blocks for table cores, with
// opt-in 2 MB huge-page backing and a way to hand a block's pages back to the
// kernel while keeping it mapped.
//
// Large set-associative tables (2^27 slots ≈ 2 GB of buckets) touch one or
// two random cache lines per lookup, so on 4 KB pages nearly every probe also
// pays a dTLB miss. Backing the bucket and tag arrays with transparent huge
// pages cuts the TLB working set by 512x. The mapping is advisory
// (madvise(MADV_HUGEPAGE)): if the kernel has THP disabled, or the region is
// too small, the block silently degrades to normal pages — allocation never
// fails because of huge-page unavailability.
//
// Blocks of at least kMinMappedBytes are anonymous mmap regions on Linux,
// whether or not huge pages are requested: the kernel's zero pages are the
// zero fill, so a fresh core materializes without a memset and each page is
// faulted in by the first access that touches it. The table cores rely on
// the zero fill (a zeroed tag array IS the "every slot empty" state). Smaller
// blocks, and every block on non-Linux builds, are aligned heap memory
// cleared with memset.
#ifndef SRC_COMMON_PAGE_ALLOC_H_
#define SRC_COMMON_PAGE_ALLOC_H_

#include <cstddef>
#include <utility>

namespace cuckoo {

// x86-64 / aarch64 PMD-level huge page. Blocks at least this large are
// eligible for MADV_HUGEPAGE when requested.
inline constexpr std::size_t kHugePageSize = std::size_t{2} << 20;

// Blocks at least this large are mmap-backed (and can be decommitted); below
// it a block stays on the heap, where a memset of at most 64 KiB is cheaper
// than a mapping.
inline constexpr std::size_t kMinMappedBytes = std::size_t{64} << 10;

// Move-only RAII owner of one zeroed storage block.
class PageBlock {
 public:
  PageBlock() = default;

  // Allocates `bytes` of zeroed memory aligned to at least a cache line.
  // With `want_hugepages` and bytes >= kHugePageSize, maps a 2 MB-aligned
  // anonymous region and requests huge-page backing; hugepage_bytes() then
  // reports the advised length (0 when the advice was refused or never
  // applicable). Throws std::bad_alloc only if memory itself is exhausted.
  PageBlock(std::size_t bytes, bool want_hugepages);

  ~PageBlock() { Release(); }

  PageBlock(PageBlock&& other) noexcept { *this = std::move(other); }
  PageBlock& operator=(PageBlock&& other) noexcept {
    if (this != &other) {
      Release();
      ptr_ = std::exchange(other.ptr_, nullptr);
      bytes_ = std::exchange(other.bytes_, 0);
      map_bytes_ = std::exchange(other.map_bytes_, 0);
      hugepage_bytes_ = std::exchange(other.hugepage_bytes_, 0);
    }
    return *this;
  }
  PageBlock(const PageBlock&) = delete;
  PageBlock& operator=(const PageBlock&) = delete;

  void* data() const noexcept { return ptr_; }
  std::size_t size() const noexcept { return bytes_; }

  // True when the block is an anonymous mapping (Decommit can free it).
  bool mapped() const noexcept { return map_bytes_ != 0; }

  // Bytes covered by a successful MADV_HUGEPAGE request. Advisory: the kernel
  // promotes the region opportunistically, so this reports intent ("the table
  // asked for and was granted huge-page eligibility"), not residency.
  std::size_t hugepage_bytes() const noexcept { return hugepage_bytes_; }

  // Returns a mapped block's physical pages to the kernel (MADV_DONTNEED).
  // The block stays mapped and reads back as zeros; a later write faults a
  // fresh zero page in. No-op for heap blocks. Safe while other threads read
  // the block: each such read sees either the old bytes or zeros.
  void Decommit() noexcept;

  // Faults every page of a mapped block in, writable (MADV_POPULATE_WRITE),
  // in the calling thread. A lazily touched page is usually read first by a
  // probe, which maps the shared zero page, and then written, which faults
  // again and flushes that mapping from every CPU the process runs on;
  // populating first costs one fault per page. No-op for heap blocks and on
  // kernels without MADV_POPULATE_WRITE (the block then stays lazy).
  void Populate() noexcept;

  // Bytes of this block that have a page mapped, by mincore(2). A heap block
  // counts whole. Introspection only: a page that was merely read after
  // Decommit maps the kernel's shared zero page, which mincore reports as
  // resident although it costs no memory.
  std::size_t ResidentBytes() const;

 private:
  void Release() noexcept;

  void* ptr_ = nullptr;
  std::size_t bytes_ = 0;      // requested size
  std::size_t map_bytes_ = 0;  // mmap length (0 = aligned heap allocation)
  std::size_t hugepage_bytes_ = 0;
};

}  // namespace cuckoo

#endif  // SRC_COMMON_PAGE_ALLOC_H_
