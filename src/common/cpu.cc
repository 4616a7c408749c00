#include "src/common/cpu.h"

#include <atomic>
#include <bitset>
#include <cstdio>
#include <cstdlib>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#include <unistd.h>
#endif

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"

namespace cuckoo {

void CpuRelax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

void PrefetchRead(const void* addr) noexcept {
#if defined(__GNUC__)
  __builtin_prefetch(addr, /*rw=*/0, /*locality=*/3);
#else
  (void)addr;
#endif
}

void PrefetchWrite(const void* addr) noexcept {
#if defined(__GNUC__)
  __builtin_prefetch(addr, /*rw=*/1, /*locality=*/3);
#else
  (void)addr;
#endif
}

bool CpuSupportsRtm() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  // Leaf 7, subleaf 0: EBX bit 11 = RTM.
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) {
    return false;
  }
  return (ebx & (1u << 11)) != 0;
#else
  return false;
#endif
}

bool CpuSupportsSse2() noexcept {
#if defined(__x86_64__)
  return true;  // architectural baseline
#elif defined(__i386__)
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) {
    return false;
  }
  return (edx & (1u << 26)) != 0;
#else
  return false;
#endif
}

bool CpuSupportsAvx2() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  // Leaf 1 ECX: bit 27 = OSXSAVE (XGETBV executable), bit 28 = AVX.
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) {
    return false;
  }
  if ((ecx & (1u << 27)) == 0 || (ecx & (1u << 28)) == 0) {
    return false;
  }
  // XGETBV(XCR0): bits 1 (SSE/XMM) and 2 (AVX/YMM) must both be OS-enabled,
  // or any VEX-256 instruction #UDs. Encoded as raw bytes so no -mxsave
  // compile flag is needed for the baseline build.
  unsigned xcr0_lo = 0;
  unsigned xcr0_hi = 0;
  __asm__ volatile(".byte 0x0f, 0x01, 0xd0" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
  if ((xcr0_lo & 0x6u) != 0x6u) {
    return false;
  }
  // Leaf 7 subleaf 0 EBX bit 5 = AVX2.
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) {
    return false;
  }
  return (ebx & (1u << 5)) != 0;
#else
  return false;
#endif
}

int NumOnlineCpus() noexcept {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

bool PinThreadToCpu(int cpu) noexcept {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu % NumOnlineCpus()), &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

namespace {

// Ids of live threads. Constant-initialized and trivially destructible, so it
// stays usable while threads exit during process teardown.
Mutex thread_ids_mu;
std::bitset<kMaxThreads> thread_ids_used GUARDED_BY(thread_ids_mu);
int thread_ids_cursor GUARDED_BY(thread_ids_mu) = 0;

// Holds the calling thread's id: takes the next free one on first use and
// frees it when the thread exits, so a long-lived process that keeps
// creating threads never hands one id to two live threads. Next-fit rather
// than lowest-free, so an id just freed is the last one handed out again.
struct ThreadIdSlot {
  int id;

  ThreadIdSlot() : id(-1) {
    MutexLock lock(thread_ids_mu);
    for (int n = 0; n < kMaxThreads; ++n) {
      const int i = (thread_ids_cursor + n) % kMaxThreads;
      if (!thread_ids_used[static_cast<std::size_t>(i)]) {
        thread_ids_used[static_cast<std::size_t>(i)] = true;
        thread_ids_cursor = (i + 1) % kMaxThreads;
        id = i;
        return;
      }
    }
    std::fprintf(stderr,
                 "cuckoo: more than %d threads are live at once; CurrentThreadId() "
                 "cannot give each its own id (raise kMaxThreads)\n",
                 kMaxThreads);
    std::abort();
  }
  ~ThreadIdSlot() {
    MutexLock lock(thread_ids_mu);
    thread_ids_used[static_cast<std::size_t>(id)] = false;
  }
  ThreadIdSlot(const ThreadIdSlot&) = delete;
  ThreadIdSlot& operator=(const ThreadIdSlot&) = delete;
};

}  // namespace

int CurrentThreadId() noexcept {
  thread_local ThreadIdSlot slot;
  return slot.id;
}

}  // namespace cuckoo
