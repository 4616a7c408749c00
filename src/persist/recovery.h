// Crash-recovery pipeline: newest valid snapshot + WAL replay past its LSN.
//
// Sequence (RecoverKvService):
//   1. List snapshots (snap-<lsn>.ckpt), newest first. Load the first one
//      that validates end-to-end (CRC per record + footer count); a corrupt
//      or truncated snapshot is skipped (the table is cleared) and the next
//      older one is tried.
//   2. Replay every WAL record with lsn > snapshot_lsn in LSN order:
//      set -> RestoreEntry (upsert), delete -> RestoreErase. Replay is
//      idempotent, so records the fuzzy snapshot already reflects are
//      harmlessly re-applied.
//   3. Torn tail: a malformed record at the very end of the final segment is
//      truncated away (a crash mid-write); malformed bytes anywhere else, an
//      LSN discontinuity, or a GC gap between the snapshot and the oldest
//      surviving segment are unrecoverable and fail recovery loudly rather
//      than serving silently wrong data.
// The returned next_lsn seeds WriteAheadLog::Open.
#ifndef SRC_PERSIST_RECOVERY_H_
#define SRC_PERSIST_RECOVERY_H_

#include <cstdint>
#include <string>

#include "src/kvserver/kv_service.h"

namespace cuckoo {
namespace persist {

struct RecoveryStats {
  bool loaded_snapshot = false;
  std::string snapshot_path;
  std::uint64_t snapshot_entries = 0;
  std::uint64_t snapshot_lsn = 0;
  std::uint64_t snapshots_skipped = 0;  // corrupt snapshots passed over
  std::uint64_t wal_segments = 0;
  std::uint64_t wal_records_applied = 0;
  std::uint64_t wal_records_skipped = 0;
  // Tiered set records whose value-log bytes were gone at replay (torn off
  // the log tail before the write was ever acked): the key keeps its prior
  // state, only the cas floor advances.
  std::uint64_t tiered_records_skipped = 0;
  bool truncated_tail = false;
  std::uint64_t torn_tail_bytes = 0;
  std::uint64_t next_lsn = 1;  // seed for WriteAheadLog::Open
};

struct WalRecord;

// Apply one logged mutation (WAL replay and replica apply): set ->
// RestoreEntry, delete -> RestoreErase, decoding into the reused `scratch`.
// A tiered set whose location no longer names value-log bytes only advances
// the cas floor and returns false.
bool ApplyWalRecord(const WalRecord& record, KvService* service,
                    KvService::StoredValue* scratch);

// Rebuild `service` from the durability files in `dir` (created if missing).
// `service` must be fresh and unserved. Returns false with *error on
// unrecoverable corruption or I/O failure.
bool RecoverKvService(const std::string& dir, KvService* service, RecoveryStats* stats,
                      std::string* error);

}  // namespace persist
}  // namespace cuckoo

#endif  // SRC_PERSIST_RECOVERY_H_
