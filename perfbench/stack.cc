#include "perfbench/stack.h"

#include <unistd.h>

#include <filesystem>
#include <system_error>

#include "src/common/timing.h"

namespace perfbench {

namespace {

// What the traced wrappers learned on this thread about the SET in flight:
// OnSet and WaitDurable run back to back on the event-loop thread serving
// the request, and WaitReplicated runs inside WaitDurable.
struct ThreadTrace {
  bool pending = false;
  std::uint64_t key = 0;
  std::uint64_t on_set_start = 0;
  std::uint64_t on_set_end = 0;
  bool replicated = false;
  std::uint64_t repl_start = 0;
  std::uint64_t repl_end = 0;
};
thread_local ThreadTrace tls_trace;

}  // namespace

// ----- TracingObserver -------------------------------------------------------

TracingObserver::TracingObserver(cuckoo::KvService::MutationObserver* inner, SpanLog* log,
                                 std::size_t keys)
    : inner_(inner),
      log_(log),
      versions_(std::make_unique<std::atomic<std::uint32_t>[]>(keys)),
      key_count_(keys) {}

void TracingObserver::BeginRecording(const std::vector<std::uint32_t>& versions) {
  for (std::size_t i = 0; i < key_count_ && i < versions.size(); ++i) {
    versions_[i].store(versions[i], std::memory_order_relaxed);
  }
  recording_.store(true, std::memory_order_release);
}

std::uint64_t TracingObserver::OnSet(std::string_view key,
                                     const cuckoo::KvService::StoredValue& stored) {
  if (!recording_.load(std::memory_order_acquire)) {
    return inner_->OnSet(key, stored);
  }
  const std::uint64_t t0 = cuckoo::NowNanos();
  const std::uint64_t lsn = inner_->OnSet(key, stored);
  const std::uint64_t t1 = cuckoo::NowNanos();
  append_ns_.Record(t1 - t0);
  std::uint64_t id = 0;
  // Value-log GC relocations also log through OnSet, from the GC thread;
  // they are never followed by WaitDurable there, so they never join.
  tls_trace.pending = ParseKey(key, &id) && id < key_count_;
  tls_trace.key = id;
  tls_trace.on_set_start = t0;
  tls_trace.on_set_end = t1;
  return lsn;
}

std::uint64_t TracingObserver::OnDelete(std::string_view key) {
  if (!recording_.load(std::memory_order_acquire)) {
    return inner_->OnDelete(key);
  }
  const std::uint64_t t0 = cuckoo::NowNanos();
  const std::uint64_t lsn = inner_->OnDelete(key);
  append_ns_.Record(cuckoo::NowNanos() - t0);
  tls_trace.pending = false;
  return lsn;
}

bool TracingObserver::WaitDurable(std::uint64_t lsn) {
  // Only a SET's OnSet made while recording leaves a pending trace.
  if (!tls_trace.pending) {
    return inner_->WaitDurable(lsn);
  }
  tls_trace.pending = false;
  tls_trace.replicated = false;
  const std::uint64_t t0 = cuckoo::NowNanos();
  const bool ok = inner_->WaitDurable(lsn);
  const std::uint64_t t1 = cuckoo::NowNanos();
  const std::uint32_t version =
      versions_[tls_trace.key].fetch_add(1, std::memory_order_relaxed) + 1;
  const std::uint64_t id = SetRequestId(tls_trace.key, version);
  log_->Add({id, tls_trace.on_set_start, tls_trace.on_set_end, SpanKind::kOnSet});
  log_->Add({id, t0, t1, SpanKind::kWaitDurable});
  if (tls_trace.replicated) {
    log_->Add({id, tls_trace.repl_start, tls_trace.repl_end, SpanKind::kWaitReplicated});
  }
  return ok;
}

// ----- TracingBridge ---------------------------------------------------------

void TracingBridge::OnWalCommit(std::uint64_t written_lsn, std::uint64_t durable_lsn) {
  if (!recording_.load(std::memory_order_relaxed)) {
    inner_->OnWalCommit(written_lsn, durable_lsn);
    return;
  }
  const std::uint64_t t0 = cuckoo::NowNanos();
  inner_->OnWalCommit(written_lsn, durable_lsn);
  on_commit_ns_.Record(cuckoo::NowNanos() - t0);
}

bool TracingBridge::WaitReplicated(std::uint64_t lsn) {
  if (!recording_.load(std::memory_order_relaxed)) {
    return inner_->WaitReplicated(lsn);
  }
  const std::uint64_t t0 = cuckoo::NowNanos();
  const bool ok = inner_->WaitReplicated(lsn);
  tls_trace.replicated = true;
  tls_trace.repl_start = t0;
  tls_trace.repl_end = cuckoo::NowNanos();
  return ok;
}

// ----- Stack -----------------------------------------------------------------

Stack::Stack(StackConfig config) : config_(std::move(config)) {}

bool Stack::Start(std::string* error) {
  const WorkloadSpec& s = config_.spec;
  std::error_code ec;
  std::filesystem::create_directories(config_.dir, ec);
  if (s.tier) {
    tier_ = std::make_unique<cuckoo::store::TieredStore>();
    cuckoo::store::TieredStoreOptions t;
    t.dir = VlogDir();
    t.threshold_bytes = s.tier_threshold;
    t.segment_bytes = s.vlog_segment_bytes;
    t.gc_trigger = s.gc_trigger;
    t.cache_capacity_bytes = s.hot_cache_bytes;
    if (!tier_->Open(t, error)) {
      return false;
    }
  }
  cuckoo::KvService::Options so;
  so.tier = tier_.get();
  service_ = std::make_unique<cuckoo::KvService>(so);

  if (s.wal) {
    durability_ = std::make_unique<cuckoo::persist::DurabilityManager>(service_.get());
    if (s.replica) {
      cuckoo::repl::ReplicationHubOptions h;
      h.service = service_.get();
      h.durability = durability_.get();
      h.tier = tier_.get();
      h.wal_dir = WalDir();
      h.ack = cuckoo::repl::AckLevel::kSemiSync;
      h.semi_sync_timeout_ms = 5000;
      hub_ = std::make_unique<cuckoo::repl::ReplicationHub>(h);
      if (config_.trace != nullptr) {
        bridge_ = std::make_unique<TracingBridge>(hub_.get());
        durability_->SetReplicationBridge(bridge_.get());
      } else {
        durability_->SetReplicationBridge(hub_.get());
      }
    }
    cuckoo::persist::DurabilityOptions d;
    d.dir = WalDir();
    d.fsync_policy = s.fsync;
    d.segment_bytes = s.wal_segment_bytes;
    d.snapshot_trigger_bytes = s.snapshot_trigger_bytes;
    d.tier = tier_.get();
    if (!durability_->Start(d, error)) {
      return false;
    }
    // Start installed the manager as the service's observer; the wrapper
    // replaces it before any thread that reads the observer runs.
    if (config_.trace != nullptr) {
      observer_ = std::make_unique<TracingObserver>(durability_.get(), config_.trace, s.keys);
      service_->SetMutationObserver(observer_.get());
    }
  }
  if (tier_) {
    cuckoo::KvService* service = service_.get();
    cuckoo::persist::DurabilityManager* durability = durability_.get();
    cuckoo::store::TieredStore* tier = tier_.get();
    tier_->SetGcHooks(
        [service](const std::string& key, const cuckoo::store::ValueLocation& old_loc,
                  std::string_view data) { return service->RelocateTiered(key, old_loc, data); },
        [durability, tier] {
          return durability != nullptr ? durability->PersistBarrier() : tier->SyncLog();
        });
    if (s.gc_trigger > 0) {
      tier_->StartGc();
    }
  }

  cuckoo::SocketServer::Options o;
  o.unix_path = config_.socket;
  o.event_threads = s.event_threads;
  if (hub_) {
    service_->SetReplicationUpgradeEnabled(true);
    o.enable_tcp = true;  // loopback only; the replica follows over TCP
    cuckoo::repl::ReplicationHub* hub = hub_.get();
    o.replication_handoff = [hub](int fd, std::uint64_t start_lsn, std::string leftover) {
      hub->Adopt(fd, start_lsn, std::move(leftover));
    };
  }
  server_ = std::make_unique<cuckoo::SocketServer>(service_.get(), o);
  if (!server_->Start()) {
    *error = "cannot bind unix socket " + config_.socket;
    return false;
  }

  if (s.replica) {
    const std::uint16_t port = server_->tcp_port();
    replica_service_ = std::make_unique<cuckoo::KvService>();
    replica_service_->SetReadOnly(true, "127.0.0.1:" + std::to_string(port));
    replica_durability_ =
        std::make_unique<cuckoo::persist::DurabilityManager>(replica_service_.get());
    cuckoo::persist::DurabilityOptions rd;
    rd.dir = config_.dir + "/replica";
    rd.fsync_policy = cuckoo::persist::FsyncPolicy::kEverySec;
    if (!replica_durability_->Start(rd, error)) {
      return false;
    }
    cuckoo::repl::ReplicaClientOptions c;
    c.host = "127.0.0.1";
    c.port = port;
    c.durability = replica_durability_.get();
    c.wal_dir = rd.dir;
    replica_client_ = std::make_unique<cuckoo::repl::ReplicaClient>(c);
    replica_client_->Start();
    for (int i = 0; i < 10000 && hub_->ConnectedReplicas() == 0; ++i) {
      ::usleep(1000);
    }
    if (hub_->ConnectedReplicas() != 1) {
      *error = "replica never attached";
      return false;
    }
  }
  return true;
}

void Stack::BeginTracing(const std::vector<std::uint32_t>& versions) {
  if (observer_) {
    observer_->BeginRecording(versions);
  }
  if (bridge_) {
    bridge_->SetRecording(true);
  }
}

bool Stack::Settle() {
  bool ok = true;
  if (durability_) {
    ok = durability_->PersistBarrier() && ok;
  } else if (tier_) {
    ok = tier_->SyncLog() && ok;
  }
  if (replica_durability_) {
    ok = replica_durability_->PersistBarrier() && ok;
  }
  return ok;
}

void Stack::Stop() {
  // Serving stops first, then replication threads (client, then the hub's
  // senders), the compactor, and finally the WAL flush.
  if (server_) {
    server_->Stop();
  }
  if (replica_client_) {
    replica_client_->Stop();
  }
  if (hub_) {
    hub_->Stop();
  }
  if (tier_) {
    tier_->StopGc();
  }
  if (durability_) {
    durability_->Stop();
  }
  if (replica_durability_) {
    replica_durability_->Stop();
  }
  server_.reset();
  replica_client_.reset();
  replica_durability_.reset();
  replica_service_.reset();
  durability_.reset();
  observer_.reset();
  hub_.reset();
  bridge_.reset();
  service_.reset();
  tier_.reset();
}

bool Recover(const WorkloadSpec& spec, const std::string& dir, Recovered* out,
             std::string* error) {
  const std::uint64_t t0 = cuckoo::NowNanos();
  cuckoo::KvService::Options so;
  if (spec.tier) {
    out->tier = std::make_unique<cuckoo::store::TieredStore>();
    cuckoo::store::TieredStoreOptions t;
    t.dir = dir + "/vlog";
    t.threshold_bytes = spec.tier_threshold;
    t.segment_bytes = spec.vlog_segment_bytes;
    t.cache_capacity_bytes = spec.hot_cache_bytes;
    if (!out->tier->Open(t, error)) {
      return false;
    }
    so.tier = out->tier.get();
  }
  out->service = std::make_unique<cuckoo::KvService>(so);
  out->durability = std::make_unique<cuckoo::persist::DurabilityManager>(out->service.get());
  cuckoo::persist::DurabilityOptions d;
  d.dir = dir + "/wal";
  d.fsync_policy = spec.fsync;
  d.segment_bytes = spec.wal_segment_bytes;
  d.tier = out->tier.get();
  if (!out->durability->Start(d, error)) {
    return false;
  }
  out->seconds = static_cast<double>(cuckoo::NowNanos() - t0) / 1e9;
  return true;
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace perfbench
