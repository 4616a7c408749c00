#include "perfbench/ladder.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <vector>

#include "perfbench/stack.h"
#include "src/common/timing.h"
#include "src/kvserver/kv_service.h"
#include "src/kvserver/protocol.h"
#include "src/store/tiered_store.h"

namespace perfbench {

namespace {

constexpr std::uint64_t kStepBudgetNs = 1'000'000'000;  // per timed step
constexpr std::size_t kGetCommands = 20000;
constexpr std::size_t kSetCommands = 4000;
constexpr std::size_t kColdReads = 2000;

struct Inputs {
  std::vector<Op> gets;
  std::vector<Op> sets;
};

// The first commands of the workload's own open-loop stream for this seed.
Inputs Generate(const WorkloadSpec& spec, std::uint64_t seed) {
  Inputs in;
  OpStream ops(spec, seed);
  for (int i = 0; i < 1'000'000 && (in.gets.size() < kGetCommands || in.sets.size() < kSetCommands);
       ++i) {
    const Op op = ops.Next();
    std::vector<Op>& into = op.get ? in.gets : in.sets;
    if (into.size() < (op.get ? kGetCommands : kSetCommands)) {
      into.push_back(op);
    }
  }
  return in;
}

// Calls fn(i) for i = 0, 1, ... until `n` calls or the step budget; returns
// nanoseconds per call.
template <typename Fn>
double TimePerOp(std::size_t n, Fn&& fn) {
  const std::uint64_t start = cuckoo::NowNanos();
  std::size_t done = 0;
  while (done < n) {
    fn(done);
    ++done;
    if ((done & 63) == 0 && cuckoo::NowNanos() - start > kStepBudgetNs) {
      break;
    }
  }
  return done == 0 ? 0 : static_cast<double>(cuckoo::NowNanos() - start) / static_cast<double>(done);
}

std::string GetBytes(const Op& op) {
  std::string s = "get";
  for (int i = 0; i < op.nkeys; ++i) {
    s += ' ';
    s += KeyName(op.keys[i]);
  }
  s += "\r\n";
  return s;
}

std::string SetBytes(std::uint64_t key, std::uint32_t version, std::size_t size) {
  std::string value;
  EncodeValue(key, version, size, &value);
  return "set " + KeyName(key) + " 0 0 " + std::to_string(size) + "\r\n" + value + "\r\n";
}

cuckoo::Request GetRequest(const Op& op) {
  cuckoo::Request r;
  r.type = cuckoo::RequestType::kGet;
  for (int i = 0; i < op.nkeys; ++i) {
    r.keys.push_back(KeyName(op.keys[i]));
  }
  r.key = r.keys.front();
  return r;
}

cuckoo::Request SetRequest(std::uint64_t key, std::uint32_t version, std::size_t size) {
  cuckoo::Request r;
  r.type = cuckoo::RequestType::kSet;
  r.key = KeyName(key);
  EncodeValue(key, version, size, &r.data);
  return r;
}

// Strict request/response over a blocking unix socket.
class BlockingClient {
 public:
  explicit BlockingClient(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    timeval tv{10, 0};
    if (fd_ >= 0 && (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0 ||
                     ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~BlockingClient() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  BlockingClient(const BlockingClient&) = delete;
  BlockingClient& operator=(const BlockingClient&) = delete;

  bool ok() const { return fd_ >= 0; }

  // Sends `request` and reads until the reply ends with `terminator`.
  bool RoundTrip(const std::string& request, std::string_view terminator) {
    std::size_t off = 0;
    while (off < request.size()) {
      const ssize_t n = ::send(fd_, request.data() + off, request.size() - off, MSG_NOSIGNAL);
      if (n <= 0) {
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    reply_.clear();
    char buf[64 << 10];
    while (reply_.size() < terminator.size() ||
           std::string_view(reply_).substr(reply_.size() - terminator.size()) != terminator) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) {
        return false;
      }
      reply_.append(buf, static_cast<std::size_t>(n));
    }
    return true;
  }
  const std::string& reply() const { return reply_; }

 private:
  int fd_ = -1;
  std::string reply_;
};

// SET round trips through a stack of `spec` started in `dir`.
double SocketSetNs(const WorkloadSpec& spec, const std::string& dir, const Inputs& in,
                   LadderResult* out) {
  StackConfig cfg{spec, dir, dir + "/l.sock"};
  Stack stack(cfg);
  std::string error;
  if (!stack.Start(&error)) {
    out->ok = false;
    out->error = "ladder stack: " + error;
    return 0;
  }
  BlockingClient client(cfg.socket);
  std::vector<std::string> bytes;
  for (const Op& op : in.sets) {
    bytes.push_back(SetBytes(op.keys[0], 1, spec.value_size));
  }
  bool ok = client.ok();
  const double ns = TimePerOp(bytes.size(), [&](std::size_t i) {
    ok = ok && client.RoundTrip(bytes[i], "\r\n") && client.reply() == "STORED\r\n";
  });
  stack.Stop();
  RemoveDir(dir);
  if (!ok) {
    out->ok = false;
    out->error = "ladder SET round trip failed on " + dir;
  }
  return ns;
}

void TableSteps(const WorkloadSpec& spec, const Inputs& in, LadderResult* out) {
  using Map = cuckoo::KvService::StoreMap;
  using Stored = cuckoo::KvService::StoredValue;
  Map::Options mo;
  mo.initial_bucket_count_log2 = cuckoo::KvService::Options{}.initial_bucket_count_log2;
  auto map = std::make_unique<Map>(mo);
  auto make = [&](std::uint64_t k, std::uint32_t version) {
    Stored v;
    v.cas_id = k + 1;
    if (spec.tier) {
      // The served table holds only a value-log location for tiered values.
      v.loc.segment = 1 + static_cast<std::uint32_t>(k >> 12);
      v.loc.length = static_cast<std::uint32_t>(spec.value_size + 64);
      v.loc.offset = (k & 4095) * v.loc.length;
    } else {
      EncodeValue(k, version, spec.value_size, &v.data);
    }
    return v;
  };

  // Load from the service's initial size, as setup does, in untimed chunks.
  std::uint64_t load_ns = 0;
  std::vector<std::pair<std::string, Stored>> chunk;
  for (std::uint64_t base = 0; base < spec.keys; base += 65536) {
    chunk.clear();
    for (std::uint64_t k = base; k < spec.keys && k < base + 65536; ++k) {
      chunk.emplace_back(KeyName(k), make(k, 1));
    }
    const std::uint64_t t0 = cuckoo::NowNanos();
    for (auto& [key, value] : chunk) {
      map->Upsert(std::move(key), std::move(value));
    }
    load_ns += cuckoo::NowNanos() - t0;
  }
  out->upsert_ns = static_cast<double>(load_ns) / static_cast<double>(spec.keys);

  std::vector<std::string> keys;
  for (const Op& op : in.gets) {
    for (int i = 0; i < op.nkeys; ++i) {
      keys.push_back(KeyName(op.keys[i]));
    }
  }
  std::uint64_t hits = 0;
  std::uint64_t tried = 0;
  out->lookup_ns = TimePerOp(keys.size(), [&](std::size_t i) {
    hits += map->WithValue(keys[i], [](const Stored&) {}) ? 1 : 0;
    ++tried;
  });
  std::uint64_t batch_hits = 0;
  std::uint64_t batch_tried = 0;
  out->batch_lookup_ns_per_key =
      TimePerOp(keys.size() / 16, [&](std::size_t i) {
        batch_hits += map->WithValueBatch(&keys[i * 16], 16, [](std::size_t, const Stored&) {});
        batch_tried += 16;
      }) / 16;
  out->table_get_ns = spec.keys_per_get == 1 ? out->lookup_ns
                                             : out->batch_lookup_ns_per_key * spec.keys_per_get;

  std::vector<std::pair<std::string, Stored>> sets;
  for (const Op& op : in.sets) {
    sets.emplace_back(KeyName(op.keys[0]), make(op.keys[0], 2));
  }
  out->table_set_ns = TimePerOp(sets.size(), [&](std::size_t i) {
    map->Upsert(std::move(sets[i].first), std::move(sets[i].second));
  });
  if (hits != tried || batch_hits != batch_tried) {
    out->ok = false;
    out->error = "ladder table lookups missed loaded keys";
  }
}

void ServiceSteps(const WorkloadSpec& spec, const Inputs& in, const std::string& dir,
                  LadderResult* out) {
  WorkloadSpec mem = spec;
  mem.wal = false;
  mem.replica = false;
  StackConfig cfg{mem, dir, dir + "/l.sock"};
  Stack stack(cfg);
  std::string error;
  if (!stack.Start(&error)) {
    out->ok = false;
    out->error = "ladder stack: " + error;
    return;
  }
  cuckoo::KvService& service = stack.service();
  std::string reply;
  bool ok = true;
  for (std::uint64_t k = 0; k < spec.keys && ok; ++k) {
    reply.clear();
    service.Process(SetRequest(k, 1, spec.value_size), &reply);
    ok = reply == "STORED\r\n";
  }

  // GET track. Every reply must carry every requested value.
  std::vector<cuckoo::Request> get_requests;
  std::vector<std::string> get_bytes;
  for (const Op& op : in.gets) {
    get_requests.push_back(GetRequest(op));
    get_bytes.push_back(GetBytes(op));
  }
  const std::size_t min_reply = static_cast<std::size_t>(spec.keys_per_get) * spec.value_size;
  out->process_get_ns = TimePerOp(get_requests.size(), [&](std::size_t i) {
    reply.clear();
    service.Process(get_requests[i], &reply);
    ok = ok && reply.size() > min_reply;
  });
  cuckoo::RequestParser parser;
  cuckoo::Request parsed;
  out->parse_ns = TimePerOp(get_bytes.size(), [&](std::size_t i) {
    parser.Feed(get_bytes[i]);
    ok = ok && parser.Next(&parsed) == cuckoo::ParseStatus::kOk;
  });
  cuckoo::KvService::Connection conn = service.Connect();
  out->drive_get_ns = TimePerOp(get_bytes.size(), [&](std::size_t i) {
    reply.clear();
    conn.Drive(get_bytes[i], &reply);
    ok = ok && reply.size() > min_reply;
  });
  BlockingClient client(cfg.socket);
  ok = ok && client.ok();
  out->socket_get_ns = TimePerOp(get_bytes.size(), [&](std::size_t i) {
    ok = ok && client.RoundTrip(get_bytes[i], "END\r\n") && client.reply().size() > min_reply;
  });

  // SET track: each step writes a fresh version so none is a no-op.
  std::vector<cuckoo::Request> set_requests;
  std::vector<std::string> set_bytes;
  std::vector<std::string> socket_set_bytes;
  for (const Op& op : in.sets) {
    set_requests.push_back(SetRequest(op.keys[0], 2, spec.value_size));
    set_bytes.push_back(SetBytes(op.keys[0], 3, spec.value_size));
    socket_set_bytes.push_back(SetBytes(op.keys[0], 4, spec.value_size));
  }
  out->process_set_ns = TimePerOp(set_requests.size(), [&](std::size_t i) {
    reply.clear();
    service.Process(set_requests[i], &reply);
    ok = ok && reply == "STORED\r\n";
  });
  out->drive_set_ns = TimePerOp(set_bytes.size(), [&](std::size_t i) {
    reply.clear();
    conn.Drive(set_bytes[i], &reply);
    ok = ok && reply == "STORED\r\n";
  });
  out->socket_set_ns = TimePerOp(socket_set_bytes.size(), [&](std::size_t i) {
    ok = ok && client.RoundTrip(socket_set_bytes[i], "\r\n") && client.reply() == "STORED\r\n";
  });
  stack.Stop();
  RemoveDir(dir);
  if (!ok) {
    out->ok = false;
    out->error = "ladder Process/Drive/socket step returned a wrong reply";
  }
}

void ColdReadStep(const WorkloadSpec& spec, const std::string& dir, LadderResult* out) {
  cuckoo::store::TieredStore tier;
  cuckoo::store::TieredStoreOptions t;
  t.dir = dir;
  t.threshold_bytes = spec.tier_threshold;
  t.segment_bytes = spec.vlog_segment_bytes;
  t.cache_capacity_bytes = 1;  // admits nothing: every read goes to the log
  std::string error;
  if (!tier.Open(t, &error)) {
    out->ok = false;
    out->error = "ladder tier: " + error;
    return;
  }
  std::vector<cuckoo::store::ValueLocation> locs(kColdReads);
  std::string value;
  bool ok = true;
  for (std::size_t i = 0; i < kColdReads && ok; ++i) {
    EncodeValue(i, 1, spec.value_size, &value);
    ok = tier.AppendValue(KeyName(i), value, &locs[i]);
  }
  std::string got;
  std::uint64_t key = 0;
  std::uint32_t version = 0;
  out->tier_cold_read_ns = TimePerOp(kColdReads, [&](std::size_t i) {
    got.clear();
    ok = ok && tier.ReadValue(KeyName(i), locs[i], i + 1, &got) &&
         DecodeValue(got, spec.value_size, &key, &version) && key == i;
  });
  tier.Close();
  RemoveDir(dir);
  if (!ok) {
    out->ok = false;
    out->error = "ladder cold read returned wrong bytes";
  }
}

}  // namespace

LadderResult RunLadder(const WorkloadSpec& spec, std::uint64_t seed, const std::string& dir) {
  LadderResult out;
  const Inputs in = Generate(spec, seed);
  TableSteps(spec, in, &out);
  ServiceSteps(spec, in, dir + "/ladder-service", &out);
  if (spec.wal) {
    WorkloadSpec wal = spec;
    wal.replica = false;
    out.wal_set_ns = SocketSetNs(wal, dir + "/ladder-wal", in, &out);
    wal.fsync = cuckoo::persist::FsyncPolicy::kAlways;
    out.wal_always_set_ns = SocketSetNs(wal, dir + "/ladder-wal-always", in, &out);
  }
  if (spec.replica) {
    out.replica_set_ns = SocketSetNs(spec, dir + "/ladder-replica", in, &out);
  }
  if (spec.tier) {
    ColdReadStep(spec, dir + "/ladder-cold", &out);
  }
  return out;
}

}  // namespace perfbench
