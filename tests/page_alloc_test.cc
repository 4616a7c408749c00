// PageBlock: large blocks are lazily-faulted anonymous mappings that can hand
// their pages back (Decommit) and still read as zeros, or fault them all in
// up front (Populate); small blocks stay on the heap, where both do nothing.
// Residency is read with mincore(2) through PageBlock::ResidentBytes.
#include "src/common/page_alloc.h"

#include <cstddef>
#include <cstdint>
#include <cstring>

#include <gtest/gtest.h>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace cuckoo {
namespace {

bool AllZero(const PageBlock& block) {
  const auto* p = static_cast<const unsigned char*>(block.data());
  for (std::size_t i = 0; i < block.size(); ++i) {
    if (p[i] != 0) {
      return false;
    }
  }
  return true;
}

#if defined(__linux__)
TEST(PageBlockTest, LargeBlockIsMappedLazilyAndDecommits) {
  constexpr std::size_t kBytes = std::size_t{4} << 20;
  PageBlock block(kBytes, /*want_hugepages=*/false);
  ASSERT_NE(block.data(), nullptr);
  EXPECT_TRUE(block.mapped());
  EXPECT_EQ(block.hugepage_bytes(), 0u);
  // No memset: nothing is resident until touched. (Checked before the zero
  // scan, which maps the shared zero page that mincore counts.)
  EXPECT_EQ(block.ResidentBytes(), 0u);
  EXPECT_TRUE(AllZero(block));

  std::memset(block.data(), 0xAB, kBytes);
  EXPECT_EQ(block.ResidentBytes(), kBytes);

  block.Decommit();
  EXPECT_EQ(block.ResidentBytes(), 0u);
  EXPECT_TRUE(AllZero(block));
  // Still mapped and writable after the pages went back.
  static_cast<unsigned char*>(block.data())[kBytes - 1] = 7;
  EXPECT_EQ(static_cast<unsigned char*>(block.data())[kBytes - 1], 7);
}

TEST(PageBlockTest, PopulateFaultsTheBlockInAsZeros) {
  constexpr std::size_t kBytes = std::size_t{1} << 20;
  PageBlock block(kBytes, /*want_hugepages=*/false);
  EXPECT_EQ(block.ResidentBytes(), 0u);
  block.Populate();
#if defined(MADV_POPULATE_WRITE)
  EXPECT_EQ(block.ResidentBytes(), kBytes);
#endif
  EXPECT_TRUE(AllZero(block));
  block.Decommit();
  EXPECT_EQ(block.ResidentBytes(), 0u);
}

TEST(PageBlockTest, MappingStartsAtTheThreshold) {
  PageBlock below(kMinMappedBytes - 1, /*want_hugepages=*/false);
  PageBlock at(kMinMappedBytes, /*want_hugepages=*/false);
  EXPECT_FALSE(below.mapped());
  EXPECT_TRUE(at.mapped());
  EXPECT_TRUE(AllZero(below));
  EXPECT_TRUE(AllZero(at));
}
#endif

TEST(PageBlockTest, SmallBlockStaysOnHeapAndDecommitIsANoOp) {
  constexpr std::size_t kBytes = std::size_t{4} << 10;
  PageBlock block(kBytes, /*want_hugepages=*/true);
  ASSERT_NE(block.data(), nullptr);
  EXPECT_FALSE(block.mapped());
  EXPECT_EQ(block.hugepage_bytes(), 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(block.data()) % 64, 0u);
  EXPECT_TRUE(AllZero(block));

  std::memset(block.data(), 0x5C, kBytes);
  block.Decommit();
  const auto* p = static_cast<const unsigned char*>(block.data());
  for (std::size_t i = 0; i < kBytes; ++i) {
    ASSERT_EQ(p[i], 0x5C) << "byte " << i;
  }
  EXPECT_EQ(block.ResidentBytes(), kBytes);
}

}  // namespace
}  // namespace cuckoo
