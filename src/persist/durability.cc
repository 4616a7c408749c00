#include "src/persist/durability.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "src/common/file_util.h"
#include "src/kvserver/protocol.h"
#include "src/obs/metrics.h"
#include "src/persist/snapshot.h"
#include "src/store/tiered_store.h"

namespace cuckoo {
namespace persist {

bool DurabilityManager::Start(DurabilityOptions options, std::string* error) {
  options_ = std::move(options);
  if (!RecoverKvService(options_.dir, service_, &recovery_, error)) {
    return false;
  }
  WalOptions wal_options;
  wal_options.dir = options_.dir;
  wal_options.fsync_policy = options_.fsync_policy;
  wal_options.segment_bytes = options_.segment_bytes;
  if (bridge_ != nullptr) {
    // Fan replication out from the group-commit path: after each drain the
    // log-writer thread tells the hub how far the file (and the fsync
    // watermark) advanced. Installed before Open so no commit is missed.
    wal_.SetCommitSink([this](std::uint64_t written_lsn, std::uint64_t durable_lsn) {
      bridge_->OnWalCommit(written_lsn, durable_lsn);
    });
  }
  if (!wal_.Open(wal_options, recovery_.next_lsn)) {
    if (error != nullptr) {
      *error = "cannot open WAL in " + options_.dir;
    }
    return false;
  }
  service_->SetMutationObserver(this);
  service_->SetBgsaveHook([this] { return TriggerSnapshot(); });
  service_->AddExtraStatsHook([this](std::string* out) { AppendStats(out); });
  service_->AddDetailStatsHook([this](std::string* out) { AppendDetailStats(out); });
  {
    MutexLock lk(mutex_);
    stop_ = false;
    started_ = true;
  }
  snapshot_thread_ = std::thread(&DurabilityManager::SnapshotWorker, this);
  return true;
}

void DurabilityManager::Stop() {
  {
    MutexLock lk(mutex_);
    if (!started_) {
      return;
    }
    started_ = false;
    stop_ = true;
    cv_.notify_all();
  }
  snapshot_thread_.join();
  // Detach from the service FIRST so no new appends race the WAL teardown
  // (the server should already have drained connections by now).
  service_->SetMutationObserver(nullptr);
  // Final barrier: everything applied to the table reaches the disk before
  // exit, regardless of fsync policy — value bytes first, then the WAL.
  if (options_.tier != nullptr) {
    options_.tier->SyncLog();
  }
  wal_.Flush();
  wal_.Shutdown();
}

bool DurabilityManager::TriggerSnapshot() {
  MutexLock lk(mutex_);
  if (!started_ || snapshot_requested_ || snapshot_running_) {
    return false;
  }
  snapshot_requested_ = true;
  cv_.notify_all();
  return true;
}

bool DurabilityManager::WaitForSnapshot() {
  MutexLock lk(mutex_);
  const std::uint64_t target = rounds_started_ + (snapshot_requested_ ? 1 : 0);
  // Explicit loop instead of the predicate overload: the analysis treats the
  // predicate lambda as a lockless reader of the guarded fields.
  while (!(rounds_done_ >= target || stop_)) {
    done_cv_.wait(lk.native_handle());
  }
  return last_round_ok_;
}

bool DurabilityManager::ApplyReplicated(const WalRecord& record, std::string* error) {
  // Log first, table second — the mirror of the primary's ordering. A crash
  // between the two replays the record from the local WAL on restart, and
  // replay is idempotent.
  if (!wal_.AppendReplicated(record)) {
    if (error != nullptr) {
      *error = "replication LSN gap at " + std::to_string(record.lsn) +
               " (local next is " + std::to_string(wal_.LastAssignedLsn() + 1) + ")";
    }
    return false;
  }
  // The primary normally rewrites tiered records to inline sets before
  // streaming; one arriving verbatim means the primary could not read the
  // value back (GC relocated it). The relocation record — at a higher LSN,
  // already behind this one in the stream — re-delivers the value, so
  // skipping it converges. The location itself only makes sense if this
  // replica happens to share a value log (it never does in production, but
  // a local-process test tier can).
  thread_local KvService::StoredValue scratch;  // reused by the stream thread
  if (!ApplyWalRecord(record, service_, &scratch)) {
    replica_skipped_tiered_.fetch_add(1, std::memory_order_relaxed);
  }
  replica_applied_records_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool DurabilityManager::ResyncFromSnapshot(const std::string& snapshot_path,
                                           std::uint64_t snapshot_lsn, std::string* error) {
  {
    MutexLock lk(mutex_);
    // Wait out any in-flight snapshot round, then fence the worker off: the
    // WAL is about to be closed and the directory rewritten underneath it.
    while (snapshot_running_) {
      done_cv_.wait(lk.native_handle());
    }
    snapshot_requested_ = false;
    resync_in_progress_ = true;
  }
  wal_.Shutdown();
  service_->RestoreClear();
  for (const std::string& name : ListFilesWithPrefix(options_.dir, "wal-")) {
    RemoveFile(options_.dir + "/" + name);
  }
  for (const std::string& name : ListFilesWithPrefix(options_.dir, "snap-")) {
    RemoveFile(options_.dir + "/" + name);
  }
  const std::string published =
      options_.dir + "/" + internal::SnapshotFileName(snapshot_lsn);
  bool ok = std::rename(snapshot_path.c_str(), published.c_str()) == 0 &&
            SyncDir(options_.dir);
  std::uint64_t reopen_lsn = snapshot_lsn + 1;
  SnapshotLoadStats load;
  if (ok) {
    ok = LoadKvSnapshot(published, service_, &load, error);
  } else if (error != nullptr) {
    *error = "cannot publish replica snapshot as " + published;
  }
  if (!ok) {
    // Leave the replica empty but serviceable: a fresh WAL at LSN 1 puts it
    // in the same state as a blank data directory, and the caller retries
    // the bootstrap from scratch.
    service_->RestoreClear();
    RemoveFile(published);
    reopen_lsn = 1;
  }
  WalOptions wal_options;
  wal_options.dir = options_.dir;
  wal_options.fsync_policy = options_.fsync_policy;
  wal_options.segment_bytes = options_.segment_bytes;
  const bool reopened = wal_.Open(wal_options, reopen_lsn);
  if (!reopened && error != nullptr && ok) {
    *error = "cannot reopen WAL after resync in " + options_.dir;
  }
  {
    MutexLock lk(mutex_);
    bytes_at_last_snapshot_ = wal_.BytesAppended();
    resync_in_progress_ = false;
    cv_.notify_all();
  }
  if (ok && reopened) {
    last_snapshot_lsn_.store(snapshot_lsn, std::memory_order_relaxed);
    last_snapshot_entries_.store(load.entries, std::memory_order_relaxed);
    replica_resyncs_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void DurabilityManager::SnapshotWorker() {
  for (;;) {
    bool run = false;
    {
      MutexLock lk(mutex_);
      // Single timed wait; a spurious wakeup falls through with run=false
      // and the outer loop re-enters the wait (see WaitForSnapshot).
      if (!(stop_ || snapshot_requested_)) {
        cv_.wait_for(lk.native_handle(), std::chrono::milliseconds(200));
      }
      if (stop_) {
        return;
      }
      // Value-log counterpart of the WAL's everysec fsync: bound how much
      // tiered value data an OS crash can lose under the weaker policies.
      // EnsureDurable is a no-op when nothing was appended since last time,
      // so this costs one mutex hold per wakeup in the idle case. Under
      // fsync=always WaitDurable syncs inline and this never fires.
      if (options_.tier != nullptr && options_.fsync_policy != FsyncPolicy::kAlways) {
        const std::uint64_t now_ms = static_cast<std::uint64_t>(NowNanos() / 1000000);
        if (now_ms - last_vlog_sync_ms_ >= 1000) {
          options_.tier->SyncLog();
          last_vlog_sync_ms_ = now_ms;
        }
      }
      const bool byte_trigger =
          options_.snapshot_trigger_bytes != 0 &&
          wal_.BytesAppended() - bytes_at_last_snapshot_ >= options_.snapshot_trigger_bytes;
      // Never start a round mid-resync: the WAL is closed and the directory
      // is being rewritten. ResyncFromSnapshot waits out snapshot_running_
      // under this mutex, so the two phases strictly alternate.
      if (!resync_in_progress_ && (snapshot_requested_ || byte_trigger)) {
        snapshot_requested_ = false;
        snapshot_running_ = true;
        ++rounds_started_;
        run = true;
      }
    }
    if (!run) {
      continue;
    }
    const bool ok = RunSnapshot();
    {
      MutexLock lk(mutex_);
      snapshot_running_ = false;
      last_round_ok_ = ok;
      ++rounds_done_;
      done_cv_.notify_all();
    }
  }
}

bool DurabilityManager::RunSnapshot() {
  const std::uint64_t bytes_before = wal_.BytesAppended();
  const std::uint64_t walk_start = NowNanos();
  SnapshotWriteStats stats;
  std::string error;
  if (!WriteKvSnapshot(*service_, options_.dir, [this] { return wal_.LastAssignedLsn(); },
                       options_.snapshot_max_attempts, &stats, &error)) {
    snapshot_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // Walk + publish duration for the whole successful round (including
  // validation retries); the table was never globally locked during it.
  snapshot_walk_ns_.Record(NowNanos() - walk_start);
  snapshots_completed_.fetch_add(1, std::memory_order_relaxed);
  last_snapshot_lsn_.store(stats.wal_lsn, std::memory_order_relaxed);
  last_snapshot_entries_.store(stats.entries, std::memory_order_relaxed);
  snapshot_walk_lock_fallbacks_.fetch_add(stats.walk.lock_fallbacks,
                                          std::memory_order_relaxed);
  snapshot_displaced_entries_.fetch_add(stats.walk.displaced_entries,
                                        std::memory_order_relaxed);
  {
    MutexLock lk(mutex_);
    bytes_at_last_snapshot_ = bytes_before;
  }
  // The published snapshot covers every LSN <= its wal_lsn; segments fully
  // below that are dead weight. Flush first so the covering guarantee holds
  // even for records that were still only in the batch buffer. A lagging
  // replica holds GC back: removing a segment it still needs would force it
  // into a full resync, so keep everything from its next LSN onward.
  wal_.Flush();
  std::uint64_t gc_below = stats.wal_lsn;
  if (bridge_ != nullptr) {
    const std::uint64_t min_replica = bridge_->MinReplicaLsn();
    if (min_replica != UINT64_MAX) {
      // min_replica is the replica's NEXT lsn; the segment holding it (and
      // everything after) must survive, so only LSNs strictly below may go.
      gc_below = std::min(gc_below, min_replica - 1);
    }
  }
  wal_.RemoveSegmentsBelow(gc_below);
  return true;
}

void DurabilityManager::AppendStats(std::string* out) const {
  const WalStats w = wal_.Stats();
  out->append("STAT fsync_policy ");
  out->append(FsyncPolicyName(options_.fsync_policy));
  out->append("\r\n");
  AppendStat("wal_records_appended", w.records_appended, out);
  AppendStat("wal_bytes_appended", w.bytes_appended, out);
  AppendStat("wal_fsyncs", w.fsyncs, out);
  AppendStat("wal_group_commits", w.group_commits, out);
  AppendStat("wal_max_batch_records", w.max_batch_records, out);
  AppendStat("wal_segments_created", w.segments_created, out);
  AppendStat("wal_last_lsn", w.last_assigned_lsn, out);
  AppendStat("wal_written_lsn", wal_.WrittenLsn(), out);
  AppendStat("wal_durable_lsn", w.durable_lsn, out);
  AppendStat("wal_io_error", w.io_error ? 1 : 0, out);
  AppendStat("snapshots_completed", snapshots_completed_.load(std::memory_order_relaxed),
             out);
  AppendStat("snapshot_failures", snapshot_failures_.load(std::memory_order_relaxed), out);
  AppendStat("last_snapshot_lsn", last_snapshot_lsn_.load(std::memory_order_relaxed), out);
  AppendStat("last_snapshot_entries",
             last_snapshot_entries_.load(std::memory_order_relaxed), out);
  AppendStat("snapshot_lock_fallbacks",
             snapshot_walk_lock_fallbacks_.load(std::memory_order_relaxed), out);
  AppendStat("snapshot_displaced_entries",
             snapshot_displaced_entries_.load(std::memory_order_relaxed), out);
  AppendStat("replica_applied_records",
             replica_applied_records_.load(std::memory_order_relaxed), out);
  AppendStat("replica_skipped_tiered",
             replica_skipped_tiered_.load(std::memory_order_relaxed), out);
  AppendStat("replica_resyncs", replica_resyncs_.load(std::memory_order_relaxed), out);
  AppendStat("recovery_loaded_snapshot", recovery_.loaded_snapshot ? 1 : 0, out);
  AppendStat("recovery_snapshot_entries", recovery_.snapshot_entries, out);
  AppendStat("recovery_wal_records_applied", recovery_.wal_records_applied, out);
  AppendStat("recovery_truncated_tail", recovery_.truncated_tail ? 1 : 0, out);
  AppendStat("recovery_next_lsn", recovery_.next_lsn, out);
}

void DurabilityManager::AppendDetailStats(std::string* out) const {
  const obs::HistogramSnapshot durable = append_durable_ns_.Snapshot();
  AppendStat("wal_append_durable_ns_p50", durable.P50(), out);
  AppendStat("wal_append_durable_ns_p99", durable.P99(), out);
  AppendStat("wal_append_durable_ns_p999", durable.P999(), out);
  AppendStat("wal_append_durable_ns_max", durable.Max(), out);
  AppendStat("wal_append_durable_count", durable.Count(), out);
  const obs::HistogramSnapshot batch = wal_.BatchRecordsSnapshot();
  AppendStat("wal_batch_records_p50", batch.P50(), out);
  AppendStat("wal_batch_records_p99", batch.P99(), out);
  AppendStat("wal_batch_records_max", batch.Max(), out);
  const obs::HistogramSnapshot walk = snapshot_walk_ns_.Snapshot();
  AppendStat("snapshot_walk_ns_p50", walk.P50(), out);
  AppendStat("snapshot_walk_ns_max", walk.Max(), out);
  AppendStat("snapshot_walk_count", walk.Count(), out);
}

void DurabilityManager::AppendMetricsText(std::string* out) const {
  const WalStats w = wal_.Stats();
  obs::AppendCounter("cuckoo_wal_records_appended_total", "WAL records appended",
                     w.records_appended, out);
  obs::AppendCounter("cuckoo_wal_bytes_appended_total", "WAL bytes appended",
                     w.bytes_appended, out);
  obs::AppendCounter("cuckoo_wal_fsyncs_total", "WAL fsync calls", w.fsyncs, out);
  obs::AppendCounter("cuckoo_wal_group_commits_total", "WAL group-commit drain batches",
                     w.group_commits, out);
  obs::AppendGauge("cuckoo_wal_durable_lsn", "highest durable log sequence number",
                   static_cast<double>(w.durable_lsn), out);
  obs::AppendGauge("cuckoo_wal_written_lsn",
                   "highest log sequence number fully written to the segment file",
                   static_cast<double>(wal_.WrittenLsn()), out);
  obs::AppendCounter("cuckoo_replica_applied_records_total",
                     "replicated WAL records applied locally",
                     replica_applied_records_.load(std::memory_order_relaxed), out);
  obs::AppendCounter("cuckoo_replica_resyncs_total",
                     "full snapshot bootstraps performed as a replica",
                     replica_resyncs_.load(std::memory_order_relaxed), out);
  obs::AppendGauge("cuckoo_wal_io_error", "1 if the WAL is in its sticky I/O-error state",
                   w.io_error ? 1.0 : 0.0, out);
  obs::AppendCounter("cuckoo_snapshots_completed_total", "online snapshots completed",
                     snapshots_completed_.load(std::memory_order_relaxed), out);
  obs::AppendCounter("cuckoo_snapshot_failures_total", "online snapshot rounds that failed",
                     snapshot_failures_.load(std::memory_order_relaxed), out);
  // Seconds-scaled summaries, per Prometheus conventions.
  obs::AppendLatencySummary(
      std::string("cuckoo_wal_append_durable_seconds"),
      std::string("append to durable-ack latency (fsync policy: ") +
          FsyncPolicyName(options_.fsync_policy) + ")",
      append_durable_ns_.Snapshot(), 1e-9, out);
  obs::AppendLatencySummary("cuckoo_wal_group_commit_records",
                            "records per group-commit batch",
                            wal_.BatchRecordsSnapshot(), 1.0, out);
  obs::AppendLatencySummary("cuckoo_snapshot_walk_seconds",
                            "fuzzy snapshot walk+publish duration",
                            snapshot_walk_ns_.Snapshot(), 1e-9, out);
}

}  // namespace persist
}  // namespace cuckoo
