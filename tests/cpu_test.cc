#include "src/common/cpu.h"

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace cuckoo {
namespace {

TEST(CpuTest, CacheLineSizeIs64) { EXPECT_EQ(kCacheLineSize, 64u); }

TEST(CpuTest, RelaxAndPrefetchAreSafe) {
  int data = 0;
  CpuRelax();
  PrefetchRead(&data);
  PrefetchWrite(&data);
  PrefetchRead(nullptr);  // prefetch of any address is a hint, never a fault
  SUCCEED();
}

TEST(CpuTest, NumOnlineCpusPositive) { EXPECT_GE(NumOnlineCpus(), 1); }

TEST(CpuTest, RtmDetectionIsStable) {
  bool a = CpuSupportsRtm();
  bool b = CpuSupportsRtm();
  EXPECT_EQ(a, b);
}

TEST(CpuTest, PinThreadToCpuHandlesAnyIndex) {
  // Pinning wraps modulo the online count, so large indexes are valid.
  EXPECT_TRUE(PinThreadToCpu(0));
  EXPECT_TRUE(PinThreadToCpu(12345));
}

TEST(CpuTest, ThreadIdStableWithinThread) {
  int a = CurrentThreadId();
  int b = CurrentThreadId();
  EXPECT_EQ(a, b);
  EXPECT_GE(a, 0);
  EXPECT_LT(a, kMaxThreads);
}

TEST(CpuTest, ThreadIdsDistinctAcrossThreads) {
  constexpr int kThreads = 8;
  std::vector<int> ids(kThreads, -1);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ids, t] { ids[t] = CurrentThreadId(); });
  }
  for (auto& th : threads) {
    th.join();
  }
  std::set<int> unique(ids.begin(), ids.end());
  EXPECT_EQ(unique.size(), static_cast<std::size_t>(kThreads));
  for (int id : ids) {
    EXPECT_GE(id, 0);
    EXPECT_LT(id, kMaxThreads);
  }
}

// Ids are freed when a thread exits and never shared by two live threads.
// One thread holds its id while 2 * kMaxThreads + 44 others are created and
// joined one at a time; a counter modulo kMaxThreads would hand the holder's
// id to the kMaxThreads-th of them.
TEST(CpuTest, LiveThreadsNeverShareAnIdAcrossChurn) {
  constexpr int kChurned = 2 * kMaxThreads + 44;
  std::atomic<int> holder_id{-1};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    holder_id.store(CurrentThreadId(), std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  while (holder_id.load(std::memory_order_acquire) < 0) {
    std::this_thread::yield();
  }
  int out_of_range = 0;
  int shared = 0;
  for (int i = 0; i < kChurned; ++i) {
    int id = -1;
    std::thread t([&id] { id = CurrentThreadId(); });
    t.join();
    out_of_range += (id < 0 || id >= kMaxThreads) ? 1 : 0;
    shared += id == holder_id.load() ? 1 : 0;
  }
  release.store(true, std::memory_order_release);
  holder.join();
  EXPECT_EQ(out_of_range, 0);
  EXPECT_EQ(shared, 0) << "churned threads given the live holder's id";
}

// One live thread more than there are ids: the one left without an id
// aborts with a message instead of sharing another thread's. The child
// starts kMaxThreads + 1 threads that each take an id and wait; if none
// aborted, all of them would be released and the child would exit normally.
TEST(CpuTest, MoreLiveThreadsThanIdsAborts) {
  // "threadsafe" re-executes the binary, so the child runs only this test.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        std::atomic<int> holding{0};
        std::atomic<bool> release{false};
        std::vector<std::thread> threads;
        for (int i = 0; i <= kMaxThreads; ++i) {
          threads.emplace_back([&] {
            CurrentThreadId();
            holding.fetch_add(1);
            while (!release.load()) {
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
          });
        }
        while (holding.load() <= kMaxThreads) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        release.store(true);
        for (auto& t : threads) {
          t.join();
        }
      },
      "more than 256 threads are live at once");
}

}  // namespace
}  // namespace cuckoo
