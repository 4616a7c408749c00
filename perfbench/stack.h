// The serving stack of one workload, composed in process from the public
// APIs the way the server binary wires them: TieredStore, KvService,
// DurabilityManager, ReplicationHub with an in-process ReplicaClient, and a
// SocketServer on a unix socket.
#ifndef PERFBENCH_STACK_H_
#define PERFBENCH_STACK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/trace.h"
#include "perfbench/workload.h"
#include "src/kvserver/kv_service.h"
#include "src/kvserver/socket_server.h"
#include "src/obs/histogram.h"
#include "src/persist/durability.h"
#include "src/repl/replica_client.h"
#include "src/repl/replication_hub.h"
#include "src/store/tiered_store.h"

namespace perfbench {

// Forwarding MutationObserver installed around the DurabilityManager in the
// traced run, before serving starts, with recording off. While recording it
// times OnSet inside the bucket lock and WaitDurable, and joins them to the
// client's SET span through a per-key version count: SETs of a key are
// serialized on its owning connection, so the n-th acked SET of a key is the
// client's version n.
class TracingObserver : public cuckoo::KvService::MutationObserver {
 public:
  TracingObserver(cuckoo::KvService::MutationObserver* inner, SpanLog* log, std::size_t keys);

  std::uint64_t OnSet(std::string_view key,
                      const cuckoo::KvService::StoredValue& stored) override;
  std::uint64_t OnDelete(std::string_view key) override;
  bool WaitDurable(std::uint64_t lsn) override;

  // Seeds the per-key version counts with `versions` (the acked ones) and
  // turns recording on. Call while no request is in flight.
  void BeginRecording(const std::vector<std::uint32_t>& versions);
  cuckoo::obs::HistogramSnapshot AppendNs() const { return append_ns_.Snapshot(); }

 private:
  cuckoo::KvService::MutationObserver* inner_;
  SpanLog* log_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> versions_;
  std::size_t key_count_;
  std::atomic<bool> recording_{false};
  cuckoo::obs::Histogram append_ns_;
};

// Forwarding ReplicationBridge around the hub: times OnWalCommit and
// WaitReplicated while recording is on.
class TracingBridge : public cuckoo::persist::ReplicationBridge {
 public:
  explicit TracingBridge(cuckoo::persist::ReplicationBridge* inner) : inner_(inner) {}

  void OnWalCommit(std::uint64_t written_lsn, std::uint64_t durable_lsn) override;
  bool WaitReplicated(std::uint64_t lsn) override;
  std::uint64_t MinReplicaLsn() override { return inner_->MinReplicaLsn(); }

  void SetRecording(bool on) { recording_.store(on, std::memory_order_relaxed); }
  cuckoo::obs::HistogramSnapshot OnCommitNs() const { return on_commit_ns_.Snapshot(); }

 private:
  cuckoo::persist::ReplicationBridge* inner_;
  std::atomic<bool> recording_{false};
  cuckoo::obs::Histogram on_commit_ns_;
};

// What a stack is made of for one run. `dir` holds every file the stack
// writes; `socket` is the unix socket path (relative paths keep it short).
struct StackConfig {
  WorkloadSpec spec;
  std::string dir;
  std::string socket;
  // Traced run: where the observer wrapper records its spans. Non-null also
  // routes the replication bridge through TracingBridge.
  SpanLog* trace = nullptr;
};

class Stack {
 public:
  explicit Stack(StackConfig config);
  ~Stack() { Stop(); }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  // Opens the tier, recovers the (empty) WAL directory, starts the server
  // and, with a replica, waits until it is attached to the hub.
  bool Start(std::string* error);
  // Graceful shutdown in the server binary's order; idempotent.
  void Stop();

  // Makes everything applied so far durable (value log, WAL, the replica's
  // WAL), so a load's write-back is paid by setup, not by the first phase
  // measured after it. False on an I/O error.
  bool Settle();

  // Traced run: seed the observer wrapper with the current per-key versions
  // and turn span recording and bridge timing on. Call while no request is
  // in flight.
  void BeginTracing(const std::vector<std::uint32_t>& versions);

  cuckoo::KvService& service() { return *service_; }
  cuckoo::SocketServer& server() { return *server_; }
  cuckoo::persist::DurabilityManager* durability() { return durability_.get(); }
  cuckoo::repl::ReplicationHub* hub() { return hub_.get(); }
  cuckoo::store::TieredStore* tier() { return tier_.get(); }
  cuckoo::KvService* replica_service() { return replica_service_.get(); }
  TracingObserver* observer() { return observer_.get(); }
  TracingBridge* bridge() { return bridge_.get(); }

  std::string WalDir() const { return config_.dir + "/wal"; }
  std::string VlogDir() const { return config_.dir + "/vlog"; }

 private:
  StackConfig config_;
  std::unique_ptr<cuckoo::store::TieredStore> tier_;
  std::unique_ptr<cuckoo::KvService> service_;
  std::unique_ptr<cuckoo::persist::DurabilityManager> durability_;
  std::unique_ptr<cuckoo::repl::ReplicationHub> hub_;
  std::unique_ptr<TracingBridge> bridge_;
  std::unique_ptr<TracingObserver> observer_;
  std::unique_ptr<cuckoo::KvService> replica_service_;
  std::unique_ptr<cuckoo::persist::DurabilityManager> replica_durability_;
  std::unique_ptr<cuckoo::repl::ReplicaClient> replica_client_;
  std::unique_ptr<cuckoo::SocketServer> server_;
};

// A fresh stack reopened over a stopped stack's directories: the tier and
// DurabilityManager::Start (snapshot load + WAL replay), no server.
struct Recovered {
  std::unique_ptr<cuckoo::store::TieredStore> tier;
  std::unique_ptr<cuckoo::KvService> service;
  std::unique_ptr<cuckoo::persist::DurabilityManager> durability;
  double seconds = 0;
};
bool Recover(const WorkloadSpec& spec, const std::string& dir, Recovered* out,
             std::string* error);

// Empties and removes `dir` recursively; missing is fine.
void RemoveDir(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_STACK_H_
