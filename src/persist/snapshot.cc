#include "src/persist/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "src/common/crc32c.h"
#include "src/common/file_util.h"
#include "src/store/value_log.h"

namespace cuckoo {
namespace persist {
namespace {

template <typename T>
void AppendPod(std::string* out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
bool ReadPod(const std::string& bytes, std::size_t* pos, T* out) {
  if (bytes.size() - *pos < sizeof(T)) {
    return false;
  }
  std::memcpy(out, bytes.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

void FrameRecord(std::string_view payload, std::string* out) {
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  std::uint32_t crc = Crc32c(&len, sizeof(len));
  crc = Crc32cExtend(crc, payload.data(), payload.size());
  AppendPod(out, Crc32cMask(crc));
  AppendPod(out, len);
  out->append(payload);
}

void EncodeEntry(const std::string& key, const KvService::StoredValue& value,
                 std::string* out) {
  // Tiered entries persist their 16-byte location record, never the value
  // bytes — that is what keeps snapshot size (and recovery time) a function
  // of the index, not the dataset.
  std::string data;
  if (value.Tiered()) {
    store::EncodeValueLocation(value.loc, &data);
  } else {
    data = value.data;
  }
  std::string payload;
  payload.reserve(1 + 4 + 8 + 8 + 4 + 4 + key.size() + data.size());
  AppendPod(&payload,
            value.Tiered() ? internal::kTieredEntryRecord : internal::kEntryRecord);
  AppendPod(&payload, value.flags);
  AppendPod(&payload, value.cas_id);
  AppendPod(&payload, value.expires_at);
  AppendPod(&payload, static_cast<std::uint32_t>(key.size()));
  AppendPod(&payload, static_cast<std::uint32_t>(data.size()));
  payload.append(key);
  payload.append(data);
  FrameRecord(payload, out);
}

// Unframe the record at *pos; false on any malformation (truncation, bad
// CRC, absurd length). *payload_out receives the verified payload bytes.
bool DecodeFrame(const std::string& bytes, std::size_t* pos, std::string_view* payload_out) {
  std::size_t p = *pos;
  std::uint32_t stored_crc = 0;
  std::uint32_t len = 0;
  if (!ReadPod(bytes, &p, &stored_crc) || !ReadPod(bytes, &p, &len)) {
    return false;
  }
  if (len > (16u << 20) || bytes.size() - p < len) {
    return false;
  }
  std::uint32_t crc = Crc32c(&len, sizeof(len));
  crc = Crc32cExtend(crc, bytes.data() + p, len);
  if (Crc32cMask(crc) != stored_crc) {
    return false;
  }
  *payload_out = std::string_view(bytes).substr(p, len);
  *pos = p + len;
  return true;
}

bool Fail(std::string* error, const std::string& msg) {
  if (error != nullptr) {
    *error = msg;
  }
  return false;
}

}  // namespace

namespace internal {

std::string SnapshotFileName(std::uint64_t wal_lsn) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "snap-%020llu.ckpt",
                static_cast<unsigned long long>(wal_lsn));
  return buf;
}

bool ParseSnapshotFileName(const std::string& name, std::uint64_t* wal_lsn) {
  unsigned long long lsn = 0;
  int consumed = 0;
  if (std::sscanf(name.c_str(), "snap-%llu.ckpt%n", &lsn, &consumed) != 1 ||
      static_cast<std::size_t>(consumed) != name.size()) {
    return false;
  }
  *wal_lsn = lsn;
  return true;
}

}  // namespace internal

std::vector<std::pair<std::uint64_t, std::string>> ListSnapshots(const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> out;
  for (const std::string& name : ListFilesWithPrefix(dir, "snap-")) {
    std::uint64_t lsn = 0;
    if (internal::ParseSnapshotFileName(name, &lsn)) {
      out.emplace_back(lsn, name);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

// One snapshot file at `path`, from a fuzzy walk retried while expansions
// interrupt it. With `inline_tiered`, tiered entries are read back from the
// value log and written as plain entries (replica bootstrap).
bool WriteSnapshotFile(const KvService& service, const std::string& path,
                       const std::function<std::uint64_t()>& lsn_provider, int max_attempts,
                       bool inline_tiered, SnapshotWriteStats* stats, std::string* error) {
  store::TieredStore* tier = service.tier();
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    ++stats->attempts;
    // Sample S before the walk starts: every mutation with lsn <= S is
    // already committed under a bucket lock the walk will synchronize with.
    const std::uint64_t wal_lsn = lsn_provider ? lsn_provider() : 0;

    AppendFile file;
    if (!file.Open(path, /*truncate=*/true)) {
      return Fail(error, "cannot open " + path);
    }
    std::string buf;
    buf.reserve(1u << 20);
    buf.append(internal::kKvSnapMagic, sizeof(internal::kKvSnapMagic));
    AppendPod(&buf, internal::kKvSnapVersion);
    AppendPod(&buf, std::uint32_t{0});  // flags
    AppendPod(&buf, wal_lsn);

    std::uint64_t entries = 0;
    std::uint64_t max_cas = 0;
    bool io_ok = true;
    KvService::StoreMap::SnapshotWalkStats walk;
    KvService::StoredValue inlined;  // reused across entries
    const bool complete = service.TrySnapshotEntries(
        [&](const std::string& key, const KvService::StoredValue& value) {
          if (!io_ok) {
            return;
          }
          const KvService::StoredValue* entry = &value;
          if (inline_tiered && value.Tiered()) {
            inlined = value;
            inlined.loc = store::ValueLocation{};
            // A failed read means GC moved the record after our bucket copy;
            // that relocation's WAL record (lsn > wal_lsn) re-delivers the
            // value on the stream, so skipping here cannot lose data.
            if (tier == nullptr ||
                !tier->ReadValue(key, value.loc, value.cas_id, &inlined.data)) {
              return;
            }
            entry = &inlined;
          }
          EncodeEntry(key, *entry, &buf);
          ++entries;
          max_cas = std::max(max_cas, value.cas_id);
          if (buf.size() >= (1u << 20)) {
            io_ok = file.Append(buf);
            buf.clear();
          }
        },
        &walk);
    if (!io_ok) {
      return Fail(error, "write error on " + path);
    }
    if (!complete) {
      continue;  // table expansion mid-walk; rewind and retry
    }
    // Footer: entry count + max cas id, CRC-framed like every record.
    std::string footer;
    AppendPod(&footer, internal::kFooterRecord);
    AppendPod(&footer, entries);
    AppendPod(&footer, max_cas);
    FrameRecord(footer, &buf);
    if (!file.Append(buf) || !file.Sync()) {
      return Fail(error, "write error on " + path);
    }
    stats->entries = entries;
    stats->wal_lsn = wal_lsn;
    stats->bytes = file.Size();
    stats->walk = walk;
    return true;
  }
  return Fail(error, "snapshot walk interrupted by expansion on every attempt");
}

}  // namespace

bool WriteKvSnapshot(const KvService& service, const std::string& dir,
                     const std::function<std::uint64_t()>& lsn_provider, int max_attempts,
                     SnapshotWriteStats* stats, std::string* error) {
  if (!EnsureDir(dir)) {
    return Fail(error, "cannot create snapshot dir " + dir);
  }
  SnapshotWriteStats local;
  SnapshotWriteStats* s = stats != nullptr ? stats : &local;
  const std::string tmp_path = dir + "/snap.tmp";
  if (!WriteSnapshotFile(service, tmp_path, lsn_provider, max_attempts,
                         /*inline_tiered=*/false, s, error)) {
    return false;
  }
  const std::string final_path = dir + "/" + internal::SnapshotFileName(s->wal_lsn);
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0 || !SyncDir(dir)) {
    return Fail(error, "cannot publish " + final_path);
  }
  return true;
}

bool WriteReplicaSnapshot(const KvService& service, const std::string& file_path,
                          const std::function<std::uint64_t()>& lsn_provider,
                          int max_attempts, SnapshotWriteStats* stats, std::string* error) {
  SnapshotWriteStats local;
  return WriteSnapshotFile(service, file_path, lsn_provider, max_attempts,
                           /*inline_tiered=*/true, stats != nullptr ? stats : &local, error);
}

bool LoadKvSnapshot(const std::string& path, KvService* service, SnapshotLoadStats* stats,
                    std::string* error) {
  std::string bytes;
  if (!ReadFileToString(path, &bytes)) {
    return Fail(error, "cannot read " + path);
  }
  constexpr std::size_t kHeaderSize = 8 + 4 + 4 + 8;
  if (bytes.size() < kHeaderSize ||
      std::memcmp(bytes.data(), internal::kKvSnapMagic, 8) != 0) {
    return Fail(error, "bad snapshot magic in " + path);
  }
  std::size_t pos = 8;
  std::uint32_t version = 0;
  std::uint32_t flags = 0;
  std::uint64_t wal_lsn = 0;
  ReadPod(bytes, &pos, &version);
  ReadPod(bytes, &pos, &flags);
  ReadPod(bytes, &pos, &wal_lsn);
  if (version != internal::kKvSnapVersion || flags != 0) {
    return Fail(error, "unknown snapshot version/flags in " + path);
  }

  std::uint64_t entries = 0;
  std::uint64_t max_cas = 0;
  bool saw_footer = false;
  KvService::StoredValue value;  // reused across entries
  while (pos < bytes.size()) {
    std::string_view payload;
    if (!DecodeFrame(bytes, &pos, &payload)) {
      return Fail(error, "corrupt snapshot record in " + path);
    }
    std::string pstr(payload);  // ReadPod operates on std::string
    std::size_t p = 0;
    std::uint8_t type = 0;
    if (!ReadPod(pstr, &p, &type)) {
      return Fail(error, "empty snapshot record in " + path);
    }
    if (type == internal::kEntryRecord || type == internal::kTieredEntryRecord) {
      if (saw_footer) {
        return Fail(error, "snapshot entry after footer in " + path);
      }
      value.data.clear();
      value.loc = store::ValueLocation{};
      std::uint32_t klen = 0;
      std::uint32_t dlen = 0;
      if (!ReadPod(pstr, &p, &value.flags) || !ReadPod(pstr, &p, &value.cas_id) ||
          !ReadPod(pstr, &p, &value.expires_at) || !ReadPod(pstr, &p, &klen) ||
          !ReadPod(pstr, &p, &dlen) ||
          pstr.size() - p != static_cast<std::uint64_t>(klen) + dlen) {
        return Fail(error, "malformed snapshot entry in " + path);
      }
      std::string key = pstr.substr(p, klen);
      max_cas = std::max(max_cas, value.cas_id);
      ++entries;  // counts against the footer even when the insert is skipped
      if (type == internal::kTieredEntryRecord) {
        if (!store::DecodeValueLocation(std::string_view(pstr).substr(p + klen, dlen),
                                        &value.loc)) {
          return Fail(error, "malformed tiered snapshot entry in " + path);
        }
        // The location must still name bytes in the value log. A miss means
        // the record was torn off the log tail before it was ever acked (the
        // snapshot is fuzzy and can run ahead of durability) — skip the
        // entry, keeping only the cas floor.
        store::TieredStore* tier = service->tier();
        if (tier == nullptr || !tier->ValidLocation(value.loc)) {
          service->AdvanceCasFloor(value.cas_id);
          continue;
        }
      } else {
        value.data.assign(pstr, p + klen, dlen);
      }
      if (!service->RestoreEntry(std::move(key), value)) {
        return Fail(error, "table rejected snapshot entry from " + path);
      }
    } else if (type == internal::kFooterRecord) {
      std::uint64_t footer_count = 0;
      std::uint64_t footer_max_cas = 0;
      if (!ReadPod(pstr, &p, &footer_count) || !ReadPod(pstr, &p, &footer_max_cas) ||
          p != pstr.size()) {
        return Fail(error, "malformed snapshot footer in " + path);
      }
      if (footer_count != entries) {
        return Fail(error, "snapshot footer count mismatch in " + path);
      }
      saw_footer = true;
    } else {
      return Fail(error, "unknown snapshot record type in " + path);
    }
  }
  if (!saw_footer) {
    return Fail(error, "snapshot missing footer (truncated) in " + path);
  }
  if (stats != nullptr) {
    stats->entries = entries;
    stats->wal_lsn = wal_lsn;
    stats->max_cas = max_cas;
  }
  return true;
}

}  // namespace persist
}  // namespace cuckoo
