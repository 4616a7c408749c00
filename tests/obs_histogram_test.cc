// Unit tests for the mergeable per-thread latency histogram (src/obs/):
// bucket math, percentile error bounds against an exact sorted-sample
// oracle, merge associativity, clamping at the extremes of the uint64
// range, reset semantics, concurrent record/snapshot safety, and exact counts
// across thread churn.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/cpu.h"
#include "src/common/random.h"
#include "src/obs/histogram.h"

namespace cuckoo {
namespace obs {
namespace {

constexpr double kMaxRelativeError = 1.0 / 16.0;  // 16 sub-buckets per major

TEST(HistBucketTest, ExactBucketsBelowSixteen) {
  for (std::uint64_t v = 0; v < kHistSubBuckets; ++v) {
    EXPECT_EQ(HistBucketFor(v), v);
    EXPECT_EQ(HistBucketUpperBound(v), v);
  }
}

TEST(HistBucketTest, UpperBoundIsInverseOfBucketFor) {
  // For every bucket, its upper bound must map back into it, and the next
  // value up must map to a strictly later bucket.
  for (std::size_t i = 0; i < kHistBucketCount; ++i) {
    const std::uint64_t hi = HistBucketUpperBound(i);
    EXPECT_EQ(HistBucketFor(hi), i) << "upper bound " << hi;
    if (hi != std::numeric_limits<std::uint64_t>::max()) {
      EXPECT_GT(HistBucketFor(hi + 1), i);
    }
  }
}

TEST(HistBucketTest, MonotonicAndWithinErrorBound) {
  std::size_t prev = 0;
  for (std::uint64_t v = 1; v < (1u << 20); v = v + 1 + v / 7) {
    const std::size_t b = HistBucketFor(v);
    EXPECT_GE(b, prev) << "bucket index not monotone at " << v;
    prev = b;
    const std::uint64_t hi = HistBucketUpperBound(b);
    EXPECT_GE(hi, v);
    EXPECT_LE(static_cast<double>(hi - v), kMaxRelativeError * static_cast<double>(v) + 1.0)
        << "bucket " << b << " too wide for value " << v;
  }
}

TEST(HistBucketTest, FullRangeClamping) {
  const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
  EXPECT_LT(HistBucketFor(top), kHistBucketCount);
  EXPECT_EQ(HistBucketUpperBound(HistBucketFor(top)), top);

  Histogram h;
  h.Record(0);
  h.Record(top);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.Count(), 2u);
  EXPECT_EQ(s.Max(), top);
  // Percentiles never exceed the exact observed max, even from the widest
  // top bucket.
  EXPECT_LE(s.P999(), top);
  EXPECT_EQ(s.Percentile(1.0), top);
}

TEST(HistogramTest, EmptySnapshotIsZero) {
  Histogram h;
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.Count(), 0u);
  EXPECT_EQ(s.Mean(), 0.0);
  EXPECT_EQ(s.P50(), 0u);
  EXPECT_EQ(s.Max(), 0u);
}

// The core accuracy contract: reported percentiles sit within 6.25% above
// the exact sorted-sample value (never below its bucket's content).
TEST(HistogramTest, PercentilesMatchSortedOracleWithinBound) {
  Xorshift128Plus rng(0x915c0ffee);  // any fixed seed
  Histogram h;
  std::vector<std::uint64_t> samples;
  samples.reserve(100000);
  for (int i = 0; i < 100000; ++i) {
    // Skewed latencies spanning several decades, like real op timings.
    const std::uint64_t v = 50 + (rng.Next() % (std::uint64_t{1} << (10 + i % 14)));
    samples.push_back(v);
    h.Record(v);
  }
  std::sort(samples.begin(), samples.end());
  const HistogramSnapshot s = h.Snapshot();
  ASSERT_EQ(s.Count(), samples.size());
  EXPECT_EQ(s.Max(), samples.back());

  std::uint64_t exact_sum = 0;
  for (std::uint64_t v : samples) {
    exact_sum += v;
  }
  EXPECT_DOUBLE_EQ(s.Mean(), static_cast<double>(exact_sum) /
                                 static_cast<double>(samples.size()));

  for (double q : {0.0, 0.25, 0.50, 0.90, 0.99, 0.999, 1.0}) {
    const std::uint64_t exact =
        samples[static_cast<std::size_t>(q * static_cast<double>(samples.size() - 1))];
    const std::uint64_t reported = s.Percentile(q);
    EXPECT_GE(reported, exact) << "q=" << q;
    EXPECT_LE(static_cast<double>(reported),
              static_cast<double>(exact) * (1.0 + kMaxRelativeError) + 1.0)
        << "q=" << q << " exact=" << exact << " reported=" << reported;
  }
}

TEST(HistogramTest, MergeIsAssociativeAndMatchesWhole) {
  Xorshift128Plus rng(7);
  Histogram ha;
  Histogram hb;
  Histogram hc;
  Histogram whole;
  for (int i = 0; i < 30000; ++i) {
    const std::uint64_t v = rng.Next() % 1000000;
    (i % 3 == 0 ? ha : i % 3 == 1 ? hb : hc).Record(v);
    whole.Record(v);
  }
  const HistogramSnapshot a = ha.Snapshot();
  const HistogramSnapshot b = hb.Snapshot();
  const HistogramSnapshot c = hc.Snapshot();

  HistogramSnapshot ab_c = a;  // (a + b) + c
  ab_c.Merge(b);
  ab_c.Merge(c);
  HistogramSnapshot bc = b;  // a + (b + c)
  bc.Merge(c);
  HistogramSnapshot a_bc = a;
  a_bc.Merge(bc);

  const HistogramSnapshot w = whole.Snapshot();
  for (const HistogramSnapshot* m : {&ab_c, &a_bc}) {
    EXPECT_EQ(m->counts, w.counts);
    EXPECT_EQ(m->total, w.total);
    EXPECT_EQ(m->sum, w.sum);
    EXPECT_EQ(m->max, w.max);
  }
}

TEST(HistogramTest, ResetZeroesEverything) {
  Histogram h;
  for (std::uint64_t v = 0; v < 1000; ++v) {
    h.Record(v * 37);
  }
  ASSERT_EQ(h.Snapshot().Count(), 1000u);
  h.Reset();
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.Count(), 0u);
  EXPECT_EQ(s.sum, 0u);
  EXPECT_EQ(s.Max(), 0u);
}

TEST(SampleGateTest, FiresOncePerPeriod) {
  int fired = 0;
  for (int i = 0; i < 256; ++i) {
    if (SampleGate<6>::Tick()) {
      ++fired;
    }
  }
  EXPECT_EQ(fired, 256 / 64);
}

// Concurrent recorders + a snapshotting reader: run under TSan via the
// concurrency label. Each recorder owns its shard, so no count is lost.
TEST(HistogramConcurrentTest, RecordersAndSnapshotterDontRace) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> team;
  team.reserve(kThreads + 1);
  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    std::uint64_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const HistogramSnapshot s = h.Snapshot();
      // Monotone non-decreasing totals while only recording happens.
      EXPECT_GE(s.Count(), last);
      last = s.Count();
    }
  });
  for (int t = 0; t < kThreads; ++t) {
    team.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        h.Record(i * 13 + static_cast<std::uint64_t>(t));
      }
    });
  }
  for (auto& th : team) {
    th.join();
  }
  stop.store(true, std::memory_order_release);
  snapshotter.join();
  EXPECT_EQ(h.Snapshot().Count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// Thread churn must not make two live threads share a shard. Thread A takes
// an id and parks; 511 threads are then created and joined one at a time
// (never more than three live); then B starts. Ids handed out by a plain
// counter modulo kMaxThreads would give B exactly A's id here, and the
// non-RMW shard increments of the two would lose records.
TEST(HistogramConcurrentTest, CountsStayExactAcrossThreadChurn) {
  constexpr int kChurned = 2 * kMaxThreads - 1;
  constexpr std::uint64_t kPerThread = 200000;
  Histogram h;
  std::atomic<int> a_id{-1};
  std::atomic<bool> go{false};
  auto recorder = [&](std::atomic<int>* id_out) {
    id_out->store(CurrentThreadId(), std::memory_order_release);
    while (!go.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      h.Record(i);
    }
  };
  std::thread a(recorder, &a_id);
  while (a_id.load(std::memory_order_acquire) < 0) {
    std::this_thread::yield();
  }
  Histogram churn;
  for (int i = 0; i < kChurned; ++i) {
    std::thread t([&churn] { churn.Record(static_cast<std::uint64_t>(CurrentThreadId())); });
    t.join();
  }
  EXPECT_EQ(churn.Snapshot().Count(), static_cast<std::uint64_t>(kChurned));
  EXPECT_LT(churn.Snapshot().max, static_cast<std::uint64_t>(kMaxThreads));

  std::atomic<int> b_id{-1};
  std::thread b(recorder, &b_id);
  while (b_id.load(std::memory_order_acquire) < 0) {
    std::this_thread::yield();
  }
  EXPECT_NE(a_id.load(), b_id.load());
  go.store(true, std::memory_order_release);
  a.join();
  b.join();
  EXPECT_EQ(h.Snapshot().Count(), 2 * kPerThread);
  EXPECT_EQ(h.Snapshot().sum, 2 * (kPerThread * (kPerThread - 1) / 2));
}

}  // namespace
}  // namespace obs
}  // namespace cuckoo
