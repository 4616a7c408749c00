// CPU and platform helpers: cache-line geometry, pause/prefetch hints,
// RTM feature detection, and thread pinning.
#ifndef SRC_COMMON_CPU_H_
#define SRC_COMMON_CPU_H_

#include <cstddef>
#include <cstdint>

namespace cuckoo {

// Size every contended object is padded to. 64 bytes on all x86 parts we
// target; hardcoded (rather than std::hardware_destructive_interference_size)
// so layouts are stable across compilers.
inline constexpr std::size_t kCacheLineSize = 64;

// Hint to the CPU that we are in a spin-wait loop (PAUSE on x86).
void CpuRelax() noexcept;

// Prefetch the cache line containing `addr` for a read (NTA-free, T0 hint).
void PrefetchRead(const void* addr) noexcept;

// Prefetch the cache line containing `addr` for a write.
void PrefetchWrite(const void* addr) noexcept;

// True if CPUID reports Restricted Transactional Memory (TSX RTM) support.
// This is a static capability bit; microcode may still force-abort all
// transactions, so callers should also run RtmProbe() (see src/htm/rtm.h)
// before trusting the result.
bool CpuSupportsRtm() noexcept;

// True if SSE2 is executable on this CPU (always on x86-64; checked via
// CPUID on 32-bit x86; false elsewhere). Gates the 128-bit tag-probe kernel.
bool CpuSupportsSse2() noexcept;

// True if AVX2 is both reported by CPUID and usable: the OS must have
// enabled YMM state saving (OSXSAVE + XGETBV), otherwise executing a VEX-256
// instruction faults even on AVX2 silicon. Gates the 256-bit dual-bucket
// tag-probe kernel.
bool CpuSupportsAvx2() noexcept;

// Number of CPUs available to this process.
int NumOnlineCpus() noexcept;

// Pin the calling thread to `cpu` (modulo the online-CPU count).
// Returns false if the affinity call failed.
bool PinThreadToCpu(int cpu) noexcept;

// A small dense id for the calling thread, assigned on first use: the next
// id no live thread holds. A thread's id is freed when it exits, so
// ids stay in [0, kMaxThreads) and no two live threads share one however
// many threads a process creates over its life. Aborts with a message if
// more than kMaxThreads threads that called it are live at once.
inline constexpr int kMaxThreads = 256;
int CurrentThreadId() noexcept;

}  // namespace cuckoo

#endif  // SRC_COMMON_CPU_H_
