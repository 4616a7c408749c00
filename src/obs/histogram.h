// Mergeable log-bucketed latency histogram with per-thread shards.
//
// Layout is HdrHistogram-style log-linear (the same bucket math as
// src/benchkit/latency.h, widened to the full uint64 range): values below 16
// get exact 1-unit buckets; above that, each power-of-two major bucket is
// split into 16 linear sub-buckets, bounding relative error at 1/16 = 6.25%.
//
// The record path is the part that matters: it runs on the hot paths of the
// cuckoo table and the KV server, so it must not serialize threads.
//   * Each thread writes to its own cache-line-padded shard (dense thread ids
//     from CurrentThreadId()), allocated lazily on first record.
//   * Counters are std::atomic slots but are only ever written by their
//     owning thread, so updates use a relaxed load+store pair — plain
//     mov/add/mov on x86, no lock prefix, no RMW, no contention. The atomic
//     type exists solely so concurrent Snapshot() readers are race-free
//     under TSan; readers may observe a slightly stale count, never a torn
//     one.
//   * Dense ids are unique among live threads (an exiting thread frees its
//     id for the next one), so a shard never has two concurrent writers and
//     counts stay exact under any amount of thread churn. A recycled id
//     keeps its shard: the new owner adds to the old owner's counts.
//
// Snapshot() sums the shards into a HistogramSnapshot — a plain value type
// that merges associatively (bucket-wise addition), so per-thread, per-shard,
// and per-process histograms aggregate in any order.
//
// Compile-time contracts: nothing here is lock-protected, so there are no
// GUARDED_BY annotations — every shared word is an atomic, and the relaxed
// orders used are listed in tools/analysis/memory_order_allowlist.json for
// this file (see docs/memory_model.md, "Compile-time contracts").
#ifndef SRC_OBS_HISTOGRAM_H_
#define SRC_OBS_HISTOGRAM_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "src/common/cpu.h"

namespace cuckoo {
namespace obs {

// ----- Bucket math ---------------------------------------------------------

inline constexpr int kHistSubBits = 4;
inline constexpr std::size_t kHistSubBuckets = std::size_t{1} << kHistSubBits;  // 16
// Majors 4..63 plus the 16 exact low buckets: (64 - 4 + 1) * 16 = 976.
inline constexpr std::size_t kHistBucketCount = (64 - kHistSubBits + 1) * kHistSubBuckets;

// Bucket index for `v`, covering the full uint64 range.
inline std::size_t HistBucketFor(std::uint64_t v) noexcept {
  if (v < kHistSubBuckets) {
    return static_cast<std::size_t>(v);  // exact buckets below 16
  }
  const int major = 63 - __builtin_clzll(v);
  const std::size_t sub =
      static_cast<std::size_t>(v >> (major - kHistSubBits)) & (kHistSubBuckets - 1);
  return static_cast<std::size_t>(major - kHistSubBits + 1) * kHistSubBuckets + sub;
}

// Largest value mapping to bucket `index` (inverse of HistBucketFor).
inline std::uint64_t HistBucketUpperBound(std::size_t index) noexcept {
  if (index < kHistSubBuckets) {
    return index;
  }
  const std::uint64_t major = index / kHistSubBuckets + kHistSubBits - 1;
  const std::uint64_t sub = index % kHistSubBuckets;
  // Wraps to 2^64-1 for the topmost bucket (unsigned overflow is defined).
  return ((kHistSubBuckets + sub + 1) << (major - kHistSubBits)) - 1;
}

// ----- Snapshot (plain value, mergeable) -----------------------------------

struct HistogramSnapshot {
  std::array<std::uint64_t, kHistBucketCount> counts{};
  std::uint64_t total = 0;  // number of recorded values
  std::uint64_t sum = 0;    // exact sum of recorded values
  std::uint64_t max = 0;    // exact maximum recorded value

  // Bucket-wise addition: associative and commutative, so shards, threads,
  // and map shards can be merged in any grouping.
  void Merge(const HistogramSnapshot& other) noexcept {
    for (std::size_t i = 0; i < kHistBucketCount; ++i) {
      counts[i] += other.counts[i];
    }
    total += other.total;
    sum += other.sum;
    max = std::max(max, other.max);
  }

  std::uint64_t Count() const noexcept { return total; }

  // Exact mean (sum is tracked exactly, not reconstructed from buckets).
  double Mean() const noexcept {
    return total == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(total);
  }

  // Value at quantile q in [0, 1]: upper edge of the bucket holding the q-th
  // sample (so the reported value is >= the true quantile and within 6.25%
  // of it). q = 1 reports the exact max. Returns 0 when empty.
  std::uint64_t Percentile(double q) const noexcept {
    if (total == 0) {
      return 0;
    }
    if (q >= 1.0) {
      return max;
    }
    if (q < 0.0) {
      q = 0.0;
    }
    const std::uint64_t rank =
        static_cast<std::uint64_t>(q * static_cast<double>(total - 1));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kHistBucketCount; ++i) {
      seen += counts[i];
      if (seen > rank) {
        // Never report past the exact max (the max's bucket upper bound can
        // exceed it by the sub-bucket width).
        return std::min(HistBucketUpperBound(i), max);
      }
    }
    return max;
  }

  std::uint64_t P50() const noexcept { return Percentile(0.50); }
  std::uint64_t P90() const noexcept { return Percentile(0.90); }
  std::uint64_t P99() const noexcept { return Percentile(0.99); }
  std::uint64_t P999() const noexcept { return Percentile(0.999); }
  std::uint64_t Max() const noexcept { return max; }
};

// ----- Recorder ------------------------------------------------------------

class Histogram {
 public:
  Histogram() = default;

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  ~Histogram() {
    for (auto& slot : shards_) {
      delete slot.load(std::memory_order_relaxed);
    }
  }

  // Record one value. Hot path: a bucket computation plus three non-RMW
  // relaxed load/store pairs on this thread's private shard.
  void Record(std::uint64_t value) noexcept {
    Shard* shard = ShardForThisThread();
    RecordInto(shard, value);
  }

  // Sum every shard into a mergeable snapshot. Safe to call while other
  // threads record; concurrently recorded values may or may not appear, and
  // `sum`/`max` may run slightly ahead of `total` (each field is read
  // independently). No value is ever torn or double-counted.
  HistogramSnapshot Snapshot() const noexcept {
    HistogramSnapshot out;
    for (const auto& slot : shards_) {
      const Shard* shard = slot.load(std::memory_order_acquire);
      if (shard == nullptr) {
        continue;
      }
      for (std::size_t i = 0; i < kHistBucketCount; ++i) {
        const std::uint64_t c = shard->counts[i].load(std::memory_order_relaxed);
        out.counts[i] += c;
        out.total += c;
      }
      out.sum += shard->sum.load(std::memory_order_relaxed);
      out.max = std::max(out.max, shard->max.load(std::memory_order_relaxed));
    }
    return out;
  }

  // Zero every shard. Not atomic with respect to concurrent recorders: a
  // racing Record may land before or after the wipe of its slot, so counts
  // recorded during Reset may survive partially (e.g. in `sum` but not
  // `total`). Callers quiesce recorders when they need an exact zero.
  void Reset() noexcept {
    for (auto& slot : shards_) {
      Shard* shard = slot.load(std::memory_order_acquire);
      if (shard == nullptr) {
        continue;
      }
      for (auto& c : shard->counts) {
        c.store(0, std::memory_order_relaxed);
      }
      shard->sum.store(0, std::memory_order_relaxed);
      shard->max.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(kCacheLineSize) Shard {
    std::array<std::atomic<std::uint64_t>, kHistBucketCount> counts{};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> max{0};
  };

  static void RecordInto(Shard* shard, std::uint64_t value) noexcept {
    auto& bucket = shard->counts[HistBucketFor(value)];
    bucket.store(bucket.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    shard->sum.store(shard->sum.load(std::memory_order_relaxed) + value,
                     std::memory_order_relaxed);
    if (value > shard->max.load(std::memory_order_relaxed)) {
      shard->max.store(value, std::memory_order_relaxed);
    }
  }

  Shard* ShardForThisThread() noexcept {
    auto& slot = shards_[static_cast<std::size_t>(CurrentThreadId())];
    Shard* shard = slot.load(std::memory_order_acquire);
    if (shard != nullptr) {
      return shard;
    }
    // Ids are unique among live threads, so no other thread installs into
    // this slot; the release half publishes the shard to Snapshot().
    Shard* fresh = new Shard();
    slot.exchange(fresh, std::memory_order_acq_rel);
    return fresh;
  }

  // Lazily allocated: an idle histogram costs kMaxThreads pointers, and a
  // snapshot only walks shards that exist.
  std::array<std::atomic<Shard*>, kMaxThreads> shards_{};
};

// ----- Sampling gate -------------------------------------------------------

// Decides, per thread and per call site family, whether to time this
// operation: true once every 2^kLog2Period calls. Used where a clock read
// per op would be measurable (the table's nanosecond-scale lookup path);
// microsecond-scale paths (KV commands, fsyncs) record every op instead.
//
// kTag distinguishes call-site families so each gets its own thread-local
// counter. Sharing one counter between two interleaved paths aliases badly:
// a strict insert/lookup alternation against an even period lands every
// sample on the same op kind, leaving the other histogram empty.
template <int kLog2Period, int kTag = 0>
struct SampleGate {
  static bool Tick() noexcept {
    thread_local std::uint32_t n = 0;
    return (n++ & ((std::uint32_t{1} << kLog2Period) - 1)) == 0;
  }
};

}  // namespace obs
}  // namespace cuckoo

#endif  // SRC_OBS_HISTOGRAM_H_
