// Retired-core reclamation under churn. Each map grows from 2^4 buckets
// through twelve doublings while point readers, a batched reader and (for
// GeneralCuckooMap) a looping snapshot walk run against it; every key is
// checked against an oracle after each load phase. At the end the retired
// cores must hold (almost) no resident pages: an expansion returns a
// superseded core's pages to the kernel as soon as the core is empty, while
// the mapping itself stays for stale readers.
//
// Residency is read with mincore(2) (RetiredResidentBytes). The tolerance
// covers two things that stay resident by design:
//   * retired cores below kMinMappedBytes live on the heap and are never
//     decommitted; their sizes double, so each array kind sums to under
//     2 * kMinMappedBytes;
//   * a stale reader that reads a decommitted page maps the kernel's shared
//     zero page, which mincore counts although it costs no memory. A reader
//     probes a retired core at most once per expansion before its
//     validation sends it to the live core, so kStalePagesPerExpansion
//     pages per expansion bound it.
// Without reclamation the retired cores would hold about the live core's
// size (a geometric series), several times this tolerance.
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/hash.h"
#include "src/common/page_alloc.h"
#include "src/common/random.h"
#include "src/cuckoo/cuckoo_map.h"
#include "src/cuckoo/general_cuckoo_map.h"

namespace cuckoo {
namespace {

// 2^4 -> 2^16 buckets at B = 4: the live count (15/16 of the keys) needs
// more than 95% of 2^15 * 4 slots and fits in 2^16 * 4.
constexpr std::uint64_t kKeys = 180000;
constexpr int kPhases = 12;
constexpr int kMinExpansions = 12;
constexpr std::size_t kBatch = 16;
constexpr std::size_t kStalePagesPerExpansion = 16;
constexpr std::size_t kPage = 4096;

using General = GeneralCuckooMap<std::uint64_t, std::uint64_t>;
using Optimistic = CuckooMap<std::uint64_t, std::uint64_t, DefaultHash<std::uint64_t>,
                             std::equal_to<std::uint64_t>, 4>;

std::uint64_t ValueOf(std::uint64_t key) { return Mix64(key) | 1u; }
// Every 16th key is erased right after its phase inserts it.
bool Erased(std::uint64_t key) { return key % 16 == 15; }

template <typename Map>
void BatchFind(const Map& map, const std::uint64_t* keys, std::uint64_t* values,
               bool* found) {
  if constexpr (std::is_same_v<Map, General>) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      found[i] = false;
    }
    map.WithValueBatch(keys, kBatch, [&](std::size_t i, const std::uint64_t& v) {
      values[i] = v;
      found[i] = true;
    });
  } else {
    map.FindBatch(keys, kBatch, values, found);
  }
}

// Loads `map` in kPhases phases under concurrent readers, checking the
// oracle after each phase. Keys below `settled` are final: present with
// ValueOf(key) unless Erased(key); readers only judge those.
template <typename Map>
void ChurnAndCheck(Map& map) {
  std::atomic<std::uint64_t> settled{0};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad{0};
  std::atomic<std::uint64_t> reads{0};

  auto judge = [&](std::uint64_t key, bool found, std::uint64_t value) {
    if (found != !Erased(key) || (found && value != ValueOf(key))) {
      bad.fetch_add(1, std::memory_order_relaxed);
    }
    reads.fetch_add(1, std::memory_order_relaxed);
  };

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Xorshift128Plus rng(0x5eed0000u + static_cast<std::uint64_t>(r));
      while (!stop.load(std::memory_order_acquire)) {
        const std::uint64_t n = settled.load(std::memory_order_acquire);
        if (n == 0) {
          std::this_thread::yield();
          continue;
        }
        const std::uint64_t key = rng.Next() % n;
        std::uint64_t value = 0;
        const bool found = map.Find(key, &value);
        judge(key, found, value);
      }
    });
  }
  readers.emplace_back([&] {
    Xorshift128Plus rng(0xba7c4u);
    std::uint64_t keys[kBatch];
    std::uint64_t values[kBatch];
    bool found[kBatch];
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t n = settled.load(std::memory_order_acquire);
      if (n == 0) {
        std::this_thread::yield();
        continue;
      }
      for (auto& key : keys) {
        key = rng.Next() % n;
      }
      BatchFind(map, keys, values, found);
      for (std::size_t i = 0; i < kBatch; ++i) {
        judge(keys[i], found[i], values[i]);
      }
    }
  });
  if constexpr (std::is_same_v<Map, General>) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        map.TrySnapshotBuckets([&](const std::uint64_t& k, const std::uint64_t& v) {
          // Unsettled keys may be seen too (an erased key lives briefly).
          if (k >= kKeys || v != ValueOf(k)) {
            bad.fetch_add(1, std::memory_order_relaxed);
          }
        });
      }
    });
  }

  std::uint64_t live = 0;
  for (int phase = 0; phase < kPhases; ++phase) {
    const std::uint64_t begin = kKeys * static_cast<std::uint64_t>(phase) / kPhases;
    const std::uint64_t end = kKeys * static_cast<std::uint64_t>(phase + 1) / kPhases;
    for (std::uint64_t key = begin; key < end; ++key) {
      ASSERT_EQ(map.Insert(key, ValueOf(key)), InsertResult::kOk) << "key " << key;
    }
    for (std::uint64_t key = begin; key < end; ++key) {
      if (Erased(key)) {
        ASSERT_TRUE(map.Erase(key)) << "key " << key;
      }
    }
    live += (end - begin) - (end / 16 - begin / 16);
    settled.store(end, std::memory_order_release);
    ASSERT_EQ(map.Size(), live) << "phase " << phase;
    for (std::uint64_t key = 0; key < end; ++key) {
      std::uint64_t value = 0;
      const bool found = map.Find(key, &value);
      ASSERT_EQ(found, !Erased(key)) << "phase " << phase << " key " << key;
      if (found) {
        ASSERT_EQ(value, ValueOf(key)) << "phase " << phase << " key " << key;
      }
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_EQ(bad.load(), 0u) << "of " << reads.load() << " concurrent reads";
  EXPECT_GT(reads.load(), 0u);

  if constexpr (std::is_same_v<Map, General>) {
    // A walk with no writers sees exactly the oracle. (The migrator may still
    // be draining, so an element can be emitted twice.)
    std::vector<bool> seen(kKeys, false);
    std::uint64_t distinct = 0;
    const bool ok = map.TrySnapshotBuckets([&](const std::uint64_t& k, const std::uint64_t& v) {
      ASSERT_LT(k, kKeys);
      EXPECT_FALSE(Erased(k)) << "key " << k;
      EXPECT_EQ(v, ValueOf(k)) << "key " << k;
      distinct += seen[k] ? 0 : 1;
      seen[k] = true;
    });
    ASSERT_TRUE(ok);
    EXPECT_EQ(distinct, live);
  }
}

// Retired-core residency allowed after `expansions` doublings of a core
// with `array_kinds` PageBlocks (see the file comment).
std::size_t Tolerance(std::int64_t expansions, std::size_t array_kinds) {
  return array_kinds * 2 * kMinMappedBytes +
         static_cast<std::size_t>(expansions) * kStalePagesPerExpansion * kPage;
}

TEST(CoreReclamationTest, GeneralMapReturnsRetiredPagesUnderChurn) {
  General::Options opts;
  opts.initial_bucket_count_log2 = 4;
  // Cores below 1024 buckets are not stripe-aligned and double
  // stop-the-world; from 1024 buckets on they migrate incrementally.
  opts.stripe_count = 1024;
  General map(opts);
  ChurnAndCheck(map);

  // Let the last window close: the migrator decommits the drained core
  // before it reports completion.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (map.Stats().migrations_completed < map.Stats().migrations_started &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const MapStatsSnapshot stats = map.Stats();
  ASSERT_EQ(stats.migrations_completed, stats.migrations_started);
  EXPECT_GE(stats.expansions, kMinExpansions);
  EXPECT_GT(stats.migrations_started, 0);
  EXPECT_LT(stats.migrations_started, stats.expansions) << "no stop-the-world expansion ran";

  const std::size_t retired = map.RetiredResidentBytes();
  EXPECT_LE(retired, Tolerance(stats.expansions, 1))
      << "retired cores still resident after " << stats.expansions << " expansions";

  // HeapBytes counts only committed cores: exactly a fresh map of the final
  // size (whose core is mapped but untouched, so it costs no memory here).
  General::Options same = opts;
  same.initial_bucket_count_log2 = 0;
  while ((std::size_t{4} << same.initial_bucket_count_log2) < map.SlotCount()) {
    ++same.initial_bucket_count_log2;
  }
  General twin(same);
  EXPECT_EQ(twin.SlotCount(), map.SlotCount());
  EXPECT_EQ(map.HeapBytes(), twin.HeapBytes());
}

TEST(CoreReclamationTest, OptimisticMapReturnsRetiredPagesUnderChurn) {
  Optimistic::Options opts;
  opts.initial_bucket_count_log2 = 4;
  Optimistic map(opts);
  ChurnAndCheck(map);

  const MapStatsSnapshot stats = map.Stats();
  EXPECT_GE(stats.expansions, kMinExpansions);
  const std::size_t retired = map.RetiredResidentBytes();
  // Two arrays per TableCore: tags and buckets.
  EXPECT_LE(retired, Tolerance(stats.expansions, 2))
      << "retired cores still resident after " << stats.expansions << " expansions";

  Optimistic::Options same = opts;
  same.initial_bucket_count_log2 = 0;
  while ((std::size_t{4} << same.initial_bucket_count_log2) < map.SlotCount()) {
    ++same.initial_bucket_count_log2;
  }
  Optimistic twin(same);
  EXPECT_EQ(twin.SlotCount(), map.SlotCount());
  EXPECT_EQ(map.HeapBytes(), twin.HeapBytes());
}

}  // namespace
}  // namespace cuckoo
