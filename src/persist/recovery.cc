#include "src/persist/recovery.h"

#include <utility>
#include <vector>

#include "src/common/file_util.h"
#include "src/persist/snapshot.h"
#include "src/persist/wal.h"
#include "src/store/value_log.h"

namespace cuckoo {
namespace persist {

bool ApplyWalRecord(const WalRecord& record, KvService* service,
                    KvService::StoredValue* scratch) {
  if (record.type == WalRecord::Type::kDelete) {
    service->RestoreErase(record.key);
    return true;
  }
  scratch->flags = record.flags;
  scratch->cas_id = record.cas_id;
  scratch->expires_at = record.expires_at;
  scratch->loc = store::ValueLocation{};
  if (record.type == WalRecord::Type::kSet) {
    scratch->data.assign(record.data);
  } else {
    scratch->data.clear();
    store::TieredStore* tier = service->tier();
    if (!store::DecodeValueLocation(record.data, &scratch->loc) || tier == nullptr ||
        !tier->ValidLocation(scratch->loc)) {
      service->AdvanceCasFloor(record.cas_id);
      return false;
    }
  }
  service->RestoreEntry(record.key, *scratch);
  return true;
}

bool RecoverKvService(const std::string& dir, KvService* service, RecoveryStats* stats,
                      std::string* error) {
  if (!EnsureDir(dir)) {
    if (error != nullptr) {
      *error = "cannot create durability dir " + dir;
    }
    return false;
  }

  // 1. Newest snapshot that validates end-to-end.
  std::vector<std::pair<std::uint64_t, std::string>> snapshots = ListSnapshots(dir);
  for (auto it = snapshots.rbegin(); it != snapshots.rend(); ++it) {
    const std::string path = dir + "/" + it->second;
    SnapshotLoadStats load;
    std::string load_error;
    if (LoadKvSnapshot(path, service, &load, &load_error)) {
      stats->loaded_snapshot = true;
      stats->snapshot_path = path;
      stats->snapshot_entries = load.entries;
      stats->snapshot_lsn = load.wal_lsn;
      break;
    }
    // Corrupt/truncated snapshot: drop whatever partially loaded and fall
    // back to the next older image (the WAL still covers the gap unless it
    // was GC'd, which step 2 detects).
    service->RestoreClear();
    ++stats->snapshots_skipped;
  }

  // 2. Replay the log past the snapshot.
  WalReplayStats replay;
  const std::uint64_t start_lsn = stats->snapshot_lsn + 1;
  KvService::StoredValue scratch;
  const bool ok = ReplayWal(
      dir, start_lsn, /*truncate_torn_tail=*/true,
      [&](const WalRecord& record) {
        if (!ApplyWalRecord(record, service, &scratch)) {
          // The value bytes never made it to the log (torn off its tail, a
          // crash between the vlog append fsync and the WAL fsync) — this
          // write was never acked, so keeping the PRIOR state of the key is
          // correct.
          ++stats->tiered_records_skipped;
        }
      },
      &replay, error);
  if (!ok) {
    return false;
  }
  // GC gap check: if segments survive but the oldest starts after the first
  // LSN we need, mutations in between are gone — refuse to serve the hole.
  if (replay.anchor_lsn != 0 && replay.anchor_lsn > start_lsn) {
    if (error != nullptr) {
      *error = "WAL gap: oldest segment starts at lsn " +
               std::to_string(replay.anchor_lsn) + " but recovery needs " +
               std::to_string(start_lsn);
    }
    return false;
  }

  stats->wal_segments = replay.segments;
  stats->wal_records_applied = replay.records_applied;
  stats->wal_records_skipped = replay.records_skipped;
  stats->truncated_tail = replay.truncated_tail;
  stats->torn_tail_bytes = replay.torn_tail_bytes;
  stats->next_lsn = replay.next_lsn > start_lsn ? replay.next_lsn : start_lsn;
  return true;
}

}  // namespace persist
}  // namespace cuckoo
