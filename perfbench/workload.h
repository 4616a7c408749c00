// Workload definitions, key/value encoding and operation streams of the
// end-to-end KV benchmark.
//
// Every value is self-verifying: it carries its key id, a per-key version
// and a CRC32C over the rest of its bytes, so a response can be checked
// without keeping a copy of the dataset. SETs of a key are only ever sent on
// the connection that owns the key, so versions of one key are applied in
// the order they were issued.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/random.h"
#include "src/persist/wal.h"

namespace perfbench {

// Every setting that shapes a workload. Both sides of a comparison run the
// same table, so nothing here may be derived from a measurement.
struct WorkloadSpec {
  const char* name = "";
  const char* why = "";
  std::uint64_t keys = 0;
  std::size_t value_size = 0;
  double get_fraction = 0;   // share of commands that are GETs
  int keys_per_get = 1;      // > 1: one multi-get command per GET
  double zipf_theta = 0;     // 0 = uniform popularity
  int connections = 4;       // at most nproc
  int pipeline_depth = 1;    // closed loop: outstanding commands per connection
  double open_rate = 0;      // open loop: commands/s offered across connections
  int event_threads = 4;     // SocketServer loops (the server's default)
  // Persistence; fsync policy and snapshot trigger apply only with `wal`.
  bool wal = false;
  cuckoo::persist::FsyncPolicy fsync = cuckoo::persist::FsyncPolicy::kEverySec;
  std::uint64_t wal_segment_bytes = 0;
  std::uint64_t snapshot_trigger_bytes = 0;
  bool replica = false;  // one in-process semi-sync replica
  // Value-log tier; the rest apply only with `tier`.
  bool tier = false;
  std::size_t tier_threshold = 0;
  std::size_t hot_cache_bytes = 0;
  double gc_trigger = 0;
  std::uint64_t vlog_segment_bytes = 0;
};

// The three named workloads, in the order BENCHMARK.json lists them.
const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(std::string_view name);

// ----- Keys and values -------------------------------------------------------

inline constexpr std::size_t kKeyDigits = 10;
inline constexpr std::size_t kKeyBytes = 1 + kKeyDigits;  // "k" + zero-padded id
// keyid[10 digits] version[8 hex] crc[8 hex] filler[...]
inline constexpr std::size_t kValueHeader = 26;

// Appends the key's name without allocating beyond `out`'s growth.
void AppendKeyName(std::uint64_t key, std::string* out);
std::string KeyName(std::uint64_t key);
// Parses a key produced by KeyName; false for anything else.
bool ParseKey(std::string_view key, std::uint64_t* id);

void EncodeValue(std::uint64_t key, std::uint32_t version, std::size_t size, std::string* out);
// Checks size, checksum and header syntax; on success sets *key / *version.
bool DecodeValue(std::string_view value, std::size_t size, std::uint64_t* key,
                 std::uint32_t* version);

// ----- Operation streams ----------------------------------------------------

struct Op {
  bool get = false;
  int conn = 0;
  int nkeys = 0;
  std::uint64_t keys[16] = {};
};

// Draws keys with the workload's popularity. Ranks map to key ids through a
// seeded permutation, so the hottest keys are scattered over the table. A
// key is owned by connection rank % connections.
class KeyPicker {
 public:
  KeyPicker(const WorkloadSpec& spec, std::uint64_t seed);
  std::uint64_t NextRank();
  std::uint64_t KeyAt(std::uint64_t rank) const { return perm_[rank]; }
  std::uint64_t size() const { return perm_.size(); }

 private:
  std::vector<std::uint32_t> perm_;
  cuckoo::Xorshift128Plus rng_;
  std::unique_ptr<cuckoo::ZipfGenerator> zipf_;
};

// Generates the command mix of one workload from a seed.
class OpStream {
 public:
  OpStream(const WorkloadSpec& spec, std::uint64_t seed);
  // Open loop: SETs go to the owner of their key, GETs round-robin.
  Op Next();
  // Closed loop: the next command for connection `conn`; SET keys are moved
  // to the adjacent popularity rank that `conn` owns.
  Op NextFor(int conn);

 private:
  void Fill(Op* op, int conn, bool force_conn);

  const WorkloadSpec& spec_;
  KeyPicker picker_;
  cuckoo::Xorshift128Plus rng_;
  std::uint64_t count_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
