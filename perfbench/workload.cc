#include "perfbench/workload.h"

#include <cstdio>
#include <cstring>

#include "src/common/crc32c.h"
#include "src/common/hash.h"

namespace perfbench {

using cuckoo::persist::FsyncPolicy;

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;
    // The table lookup path: 900k keys of 100 B (several hundred MB, far
    // past L2), uniform popularity, pipelined 16-key multi-gets that go
    // through WithValueBatch. Loading from the default 2^10 buckets makes
    // setup_s price the table's incremental expansion. 900k rather than 1M:
    // 1M keys fill 2^20 slots to 95%, where insertion order decides whether
    // one more doubling happens, and memory and setup time turn bimodal.
    WorkloadSpec c;
    c.name = "cache_read";
    c.why = "in-memory 900k keys, 95% pipelined 16-key multi-gets: the cuckoo lookup path "
            "and its locks do most of the work";
    c.keys = 900000;
    c.value_size = 100;
    c.get_fraction = 0.95;
    c.keys_per_get = 16;
    c.pipeline_depth = 8;
    c.open_rate = 20000;
    v.push_back(c);

    // The write path: every SET crosses WAL group commit and a semi-sync
    // replica ACK; strict single-key GETs beside them show the event-loop
    // cost and any head-of-line blocking from WaitDurable. The WAL fsyncs
    // once a second: with fsync=always every SET waits on a device flush
    // whose latency on a shared virtio disk moved 5x between runs (SET p90
    // 0.28-1.27 ms, throughput 21-37k/s over ten runs), which no bound can
    // hold. The ladder prices fsync=always separately. The WAL's writer
    // thread also fsyncs every segment before rotating it, and semi-sync acks
    // wait behind that: 1 MiB segments put about three more fsyncs a second
    // on every SET's path, and throughput then ranged 14.5k-55.8k/s over ten
    // runs. 8 MiB segments keep several rotations, snapshots and WAL-GC
    // cycles in a run.
    WorkloadSpec d;
    d.name = "durable_mixed";
    d.why = "50% SET through WAL group commit, WAL-triggered snapshots and a semi-sync "
            "replica, zipf 0.99, strict round trips: persist, repl and the event loop";
    d.keys = 50000;
    d.value_size = 100;
    d.get_fraction = 0.5;
    d.zipf_theta = 0.99;
    d.pipeline_depth = 1;
    d.open_rate = 10000;
    d.wal = true;
    d.fsync = FsyncPolicy::kEverySec;
    d.wal_segment_bytes = 8u << 20;
    d.snapshot_trigger_bytes = 8u << 20;
    d.replica = true;
    v.push_back(d);

    // The value-log tier: ~200 MB of 4 KB values against a hot cache of 8%
    // of that, zipf 0.9 so hot hits and parked cold reads both occur, and
    // overwrites that keep the compactor cycling. 50k keys rather than 100k
    // halves the bytes every run writes, which other runs on a shared disk
    // would otherwise feel as fsync stalls. GC compacts a segment once 75%
    // of it is dead: at 50% it relocated about twice the keyset per run,
    // competing with the event loops for the VM's one effective core.
    WorkloadSpec t;
    t.name = "tiered_cold";
    t.why = "50k values of 4 KB in the value log, 8% hot cache, zipf 0.9, 10% overwrites "
            "with GC: hot-cache admission, parked cold reads and compaction";
    t.keys = 50000;
    t.value_size = 4096;
    t.get_fraction = 0.9;
    t.zipf_theta = 0.9;
    t.pipeline_depth = 8;
    t.open_rate = 10000;
    t.wal = true;
    t.fsync = FsyncPolicy::kEverySec;
    t.wal_segment_bytes = 4u << 20;
    t.snapshot_trigger_bytes = 4u << 20;
    t.tier = true;
    t.tier_threshold = 2048;
    t.hot_cache_bytes = 16u << 20;
    t.gc_trigger = 0.75;
    t.vlog_segment_bytes = 16u << 20;
    v.push_back(t);
    return v;
  }();
  return specs;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

// ----- Keys and values -------------------------------------------------------

void AppendKeyName(std::uint64_t key, std::string* out) {
  char buf[kKeyBytes];
  buf[0] = 'k';
  for (std::size_t i = kKeyBytes; i-- > 1;) {
    buf[i] = static_cast<char>('0' + key % 10);
    key /= 10;
  }
  out->append(buf, kKeyBytes);
}

std::string KeyName(std::uint64_t key) {
  std::string name;
  AppendKeyName(key, &name);
  return name;
}

bool ParseKey(std::string_view key, std::uint64_t* id) {
  if (key.size() != kKeyBytes || key[0] != 'k') {
    return false;
  }
  std::uint64_t v = 0;
  for (std::size_t i = 1; i < kKeyBytes; ++i) {
    if (key[i] < '0' || key[i] > '9') {
      return false;
    }
    v = v * 10 + static_cast<std::uint64_t>(key[i] - '0');
  }
  *id = v;
  return true;
}

namespace {

constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
constexpr std::size_t kAlphabetSize = sizeof(kAlphabet) - 1;

// A cyclic run of the alphabet long enough to slice any filler out of.
const std::string& FillerSource() {
  static const std::string source = [] {
    std::string s;
    while (s.size() < (64u << 10) + kAlphabetSize) {
      s.append(kAlphabet, kAlphabetSize);
    }
    return s;
  }();
  return source;
}

std::uint32_t ValueCrc(std::string_view value) {
  const std::uint32_t head = cuckoo::Crc32c(value.data(), 18);
  return cuckoo::Crc32cExtend(head, value.data() + kValueHeader, value.size() - kValueHeader);
}

bool ParseHex(std::string_view s, std::uint32_t* out) {
  std::uint32_t v = 0;
  for (char ch : s) {
    int d = 0;
    if (ch >= '0' && ch <= '9') {
      d = ch - '0';
    } else if (ch >= 'a' && ch <= 'f') {
      d = ch - 'a' + 10;
    } else {
      return false;
    }
    v = (v << 4) | static_cast<std::uint32_t>(d);
  }
  *out = v;
  return true;
}

}  // namespace

void EncodeValue(std::uint64_t key, std::uint32_t version, std::size_t size, std::string* out) {
  out->resize(size);
  char* p = out->data();
  char head[32];
  std::snprintf(head, sizeof(head), "%010llu%08x", static_cast<unsigned long long>(key),
                version);
  std::memcpy(p, head, 18);
  const std::size_t shift =
      cuckoo::Mix64((key << 32) ^ version) % kAlphabetSize;
  std::memcpy(p + kValueHeader, FillerSource().data() + shift, size - kValueHeader);
  std::snprintf(head, sizeof(head), "%08x", ValueCrc(*out));
  std::memcpy(p + 18, head, 8);
}

bool DecodeValue(std::string_view value, std::size_t size, std::uint64_t* key,
                 std::uint32_t* version) {
  if (value.size() != size || size < kValueHeader) {
    return false;
  }
  std::uint32_t crc = 0;
  if (!ParseHex(value.substr(18, 8), &crc) || crc != ValueCrc(value) ||
      !ParseHex(value.substr(10, 8), version)) {
    return false;
  }
  std::uint64_t k = 0;
  for (std::size_t i = 0; i < 10; ++i) {
    if (value[i] < '0' || value[i] > '9') {
      return false;
    }
    k = k * 10 + static_cast<std::uint64_t>(value[i] - '0');
  }
  *key = k;
  return true;
}

// ----- Operation streams ----------------------------------------------------

KeyPicker::KeyPicker(const WorkloadSpec& spec, std::uint64_t seed)
    : perm_(spec.keys), rng_(seed * 0x9e3779b97f4a7c15ull + 17) {
  for (std::uint64_t i = 0; i < spec.keys; ++i) {
    perm_[i] = static_cast<std::uint32_t>(i);
  }
  cuckoo::Xorshift128Plus shuffle(seed ^ 0x5bd1e995u);
  for (std::uint64_t i = spec.keys; i > 1; --i) {
    std::swap(perm_[i - 1], perm_[shuffle.NextBelow(i)]);
  }
  if (spec.zipf_theta > 0) {
    zipf_ = std::make_unique<cuckoo::ZipfGenerator>(spec.keys, spec.zipf_theta, seed + 101);
  }
}

std::uint64_t KeyPicker::NextRank() {
  return zipf_ ? zipf_->Next() : rng_.NextBelow(perm_.size());
}

OpStream::OpStream(const WorkloadSpec& spec, std::uint64_t seed)
    : spec_(spec), picker_(spec, seed), rng_(seed * 31 + 7) {}

void OpStream::Fill(Op* op, int conn, bool force_conn) {
  op->get = rng_.NextDouble() < spec_.get_fraction;
  const std::uint64_t conns = static_cast<std::uint64_t>(spec_.connections);
  if (op->get) {
    op->nkeys = spec_.keys_per_get;
    for (int i = 0; i < op->nkeys; ++i) {
      op->keys[i] = picker_.KeyAt(picker_.NextRank());
    }
    op->conn = force_conn ? conn : static_cast<int>(count_ % conns);
  } else {
    std::uint64_t rank = picker_.NextRank();
    if (force_conn) {
      rank = rank - rank % conns + static_cast<std::uint64_t>(conn);
      if (rank >= picker_.size()) {
        rank -= conns;
      }
    }
    op->nkeys = 1;
    op->keys[0] = picker_.KeyAt(rank);
    op->conn = static_cast<int>(rank % conns);
  }
  ++count_;
}

Op OpStream::Next() {
  Op op;
  Fill(&op, 0, false);
  return op;
}

Op OpStream::NextFor(int conn) {
  Op op;
  Fill(&op, conn, true);
  return op;
}

}  // namespace perfbench
