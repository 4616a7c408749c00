#include "perfbench/host.h"

#include <sys/statfs.h>

#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#include "src/common/cpu.h"
#include "src/common/random.h"
#include "src/common/timing.h"
#include "src/cuckoo/simd_probe.h"

namespace perfbench {

namespace {

constexpr std::uint64_t kSpinIterations = 20'000'000;

// Wall seconds for `threads` threads each running the same dependent chain
// of xorshift steps.
double SpinSeconds(int threads) {
  std::vector<std::thread> workers;
  std::vector<std::uint64_t> sinks(static_cast<std::size_t>(threads) * 8);
  const std::uint64_t start = cuckoo::NowNanos();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([t, &sinks] {
      cuckoo::Xorshift128Plus rng(static_cast<std::uint64_t>(t) + 1);
      std::uint64_t acc = 0;
      for (std::uint64_t i = 0; i < kSpinIterations; ++i) {
        acc += rng.Next();
      }
      sinks[static_cast<std::size_t>(t) * 8] = acc;
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  return static_cast<double>(cuckoo::NowNanos() - start) / 1e9;
}

std::string FsTypeName(const std::string& path) {
  struct statfs st {};
  if (::statfs(path.c_str(), &st) != 0) {
    return "unknown";
  }
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53UL:
      return "ext2/3/4";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    case 0x01021994UL:
      return "tmpfs";
    case 0x794C7630UL:
      return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

// Size of cpu0's cache index `index` (2 = L2, 3 = L3 on x86); 0 if unknown.
std::uint64_t CacheBytes(int index) {
  std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index) + "/size");
  std::uint64_t kib = 0;
  return f >> kib ? kib << 10 : 0;  // the file reads e.g. "2048K"
}

}  // namespace

HostFacts CalibrateHost(const std::string& data_dir) {
  HostFacts h;
  h.vcpus = cuckoo::NumOnlineCpus();
  h.spin_1_s = SpinSeconds(1);
  h.spin_n_s = SpinSeconds(h.vcpus);
  h.parallelism = h.spin_n_s > 0 ? h.vcpus * h.spin_1_s / h.spin_n_s : 0;
  const cuckoo::simd::ProbeLevel level = cuckoo::simd::ActiveProbeLevel();
  h.probe_level = static_cast<int>(level);
  h.probe_kernel = cuckoo::simd::ProbeLevelName(level);
  std::ifstream thp("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  if (std::getline(thp, line)) {
    const std::size_t open = line.find('[');
    const std::size_t close = line.find(']');
    if (open != std::string::npos && close != std::string::npos && close > open) {
      h.thp = line.substr(open + 1, close - open - 1);
      h.thp_mode = h.thp == "never" ? 0 : h.thp == "madvise" ? 1 : h.thp == "always" ? 2 : -1;
    }
  }
  if (h.thp.empty()) {
    h.thp = "unknown";
  }
  h.fs_type = FsTypeName(data_dir);
  h.l2_bytes = CacheBytes(2);
  h.l3_bytes = CacheBytes(3);
  return h;
}

}  // namespace perfbench
