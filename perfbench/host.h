// Host facts recorded with every result. This class of VM can show more
// vCPUs than it delivers compute for, so a thread count means nothing
// without the measured parallelism beside it.
#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct HostFacts {
  int vcpus = 0;
  double spin_1_s = 0;  // a fixed per-thread spin loop on one thread
  double spin_n_s = 0;  // the same loop on `vcpus` threads at once
  double parallelism = 0;  // vcpus * spin_1_s / spin_n_s
  int probe_level = 0;     // cuckoo::simd::ProbeLevel in use
  std::string probe_kernel;
  int thp_mode = -1;  // 0 never, 1 madvise, 2 always, -1 unknown
  std::string thp;
  std::string fs_type;  // of the data directory
  std::uint64_t l2_bytes = 0;  // 0 if the kernel does not say
  std::uint64_t l3_bytes = 0;
};

HostFacts CalibrateHost(const std::string& data_dir);

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
