// KvService's stored entry: each served slot holds the key plus one 8-byte
// handle to a heap block with flags, cas id, deadline, length and the value
// (or a value-log location). Covers the handle's own contract, size edges,
// the tier boundary in both directions, resolved-state logging, GC
// relocation, the snapshot/recovery and replica bootstrap round trips, the
// table_bytes/value_bytes memory stats, and a 4-thread mixed-op run.
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/file_util.h"
#include "src/kvserver/kv_service.h"
#include "src/persist/snapshot.h"
#include "src/store/tiered_store.h"

#include <gtest/gtest.h>

namespace cuckoo {
namespace {

using Entry = KvService::Entry;
using StoredValue = KvService::StoredValue;

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl = ::testing::TempDir() + "cuckoo_entry_XXXXXX";
    path = ::mkdtemp(tmpl.data());
    EXPECT_FALSE(path.empty());
  }
  ~TempDir() {
    for (const std::string& name : ListFilesWithPrefix(path, "")) {
      RemoveFile(path + "/" + name);
    }
    ::rmdir(path.c_str());
  }
};

// Records every logged mutation; safe to call from many threads.
class Recorder : public KvService::MutationObserver {
 public:
  std::uint64_t OnSet(std::string_view key, const StoredValue& stored) override {
    std::lock_guard<std::mutex> lk(mu_);
    sets_.emplace_back(std::string(key), stored);
    return ++lsn_;
  }
  std::uint64_t OnDelete(std::string_view) override {
    std::lock_guard<std::mutex> lk(mu_);
    return ++lsn_;
  }
  bool WaitDurable(std::uint64_t) override { return true; }

  std::pair<std::string, StoredValue> LastSet() {
    std::lock_guard<std::mutex> lk(mu_);
    return sets_.back();
  }

 private:
  std::mutex mu_;
  std::vector<std::pair<std::string, StoredValue>> sets_;
  std::uint64_t lsn_ = 0;
};

std::string Roundtrip(KvService& service, const std::string& command) {
  KvService::Connection conn = service.Connect();
  std::string out;
  conn.Drive(command, &out);
  return out;
}

std::string SetCmd(const std::string& key, const std::string& value, std::uint32_t flags = 0,
                   std::uint32_t exptime = 0) {
  return "set " + key + " " + std::to_string(flags) + " " + std::to_string(exptime) + " " +
         std::to_string(value.size()) + "\r\n" + value + "\r\n";
}

std::string ValueReply(const std::string& key, const std::string& value,
                       std::uint32_t flags = 0) {
  return "VALUE " + key + " " + std::to_string(flags) + " " + std::to_string(value.size()) +
         "\r\n" + value + "\r\nEND\r\n";
}

std::map<std::string, StoredValue> Entries(const KvService& service) {
  std::map<std::string, StoredValue> m;
  EXPECT_TRUE(service.TrySnapshotEntries(
      [&](const std::string& key, const StoredValue& value) { m[key] = value; }));
  return m;
}

void ExpectSameEntries(const std::map<std::string, StoredValue>& a,
                       const std::map<std::string, StoredValue>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [key, v] : a) {
    auto it = b.find(key);
    ASSERT_NE(it, b.end()) << key;
    EXPECT_EQ(it->second.data, v.data) << key;
    EXPECT_EQ(it->second.flags, v.flags) << key;
    EXPECT_EQ(it->second.cas_id, v.cas_id) << key;
    EXPECT_EQ(it->second.expires_at, v.expires_at) << key;
    EXPECT_EQ(it->second.loc, v.loc) << key;
  }
}

// Bytes of a block's fixed header (flags, cas id, deadline, length).
std::size_t HeaderBytes() { return Entry("", store::ValueLocation{}, 0, 0, 0).BlockBytes(); }

// Sum of BlockBytes over every stored entry, from the exchange form.
std::uint64_t DecodedBlockBytes(const KvService& service) {
  std::uint64_t bytes = 0;
  for (const auto& [key, v] : Entries(service)) {
    bytes += HeaderBytes() + (v.Tiered() ? sizeof(store::ValueLocation) : v.data.size());
  }
  return bytes;
}

struct TieredService {
  TempDir dir;
  store::TieredStore tier;
  Recorder recorder;
  std::unique_ptr<KvService> service;

  TieredService() {
    store::TieredStoreOptions t;
    t.dir = dir.path;
    t.threshold_bytes = 64;
    t.reader_threads = 1;
    std::string error;
    EXPECT_TRUE(tier.Open(t, &error)) << error;
    KvService::Options so;
    so.tier = &tier;
    service = std::make_unique<KvService>(so);
    service->SetMutationObserver(&recorder);
  }
  ~TieredService() {
    service.reset();
    tier.Close();
  }
};

TEST(KvEntryTest, HandleOwnsOneBlockAndDecodesExactly) {
  StoredValue inline_value;
  inline_value.data = std::string("a\0b", 3);
  inline_value.flags = 7;
  inline_value.cas_id = 42;
  inline_value.expires_at = 1u << 31;
  const Entry e(inline_value);
  EXPECT_FALSE(e.Tiered());
  EXPECT_EQ(e.data(), inline_value.data);
  EXPECT_EQ(e.BlockBytes(), HeaderBytes() + 3);
  const StoredValue back = e;  // the implicit decode
  EXPECT_EQ(back.data, inline_value.data);
  EXPECT_EQ(back.flags, 7u);
  EXPECT_EQ(back.cas_id, 42u);
  EXPECT_EQ(back.expires_at, 1u << 31);
  EXPECT_FALSE(back.Tiered());

  StoredValue tiered;
  tiered.data = "ignored when a location is set";
  tiered.loc = store::ValueLocation{3, 4200, 1ull << 40};
  tiered.cas_id = 9;
  Entry t(tiered);
  EXPECT_TRUE(t.Tiered());
  EXPECT_TRUE(t.data().empty());
  EXPECT_EQ(t.loc(), tiered.loc);
  EXPECT_EQ(t.BlockBytes(), HeaderBytes() + sizeof(store::ValueLocation));
  t.set_loc(store::ValueLocation{4, 4200, 64});
  EXPECT_EQ(t.loc(), (store::ValueLocation{4, 4200, 64}));

  Entry copy(e);  // deep copy: the snapshot walk copies entries under a lock
  EXPECT_NE(copy.data().data(), e.data().data());
  EXPECT_EQ(copy.data(), e.data());
  Entry moved(std::move(copy));
  EXPECT_EQ(copy.BlockBytes(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(copy.Tiered());       // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved.data(), e.data());
}

TEST(KvEntryTest, ZeroByteAndOneMebibyteValuesAndLongKeys) {
  KvService service;
  EXPECT_EQ(Roundtrip(service, SetCmd("empty", "")), "STORED\r\n");
  EXPECT_EQ(Roundtrip(service, "get empty\r\n"), ValueReply("empty", ""));

  const std::string big(1 << 20, 'z');
  EXPECT_EQ(Roundtrip(service, SetCmd("big", big, 5)), "STORED\r\n");
  EXPECT_EQ(Roundtrip(service, "get big\r\n"), ValueReply("big", big, 5));

  // 250 bytes is the protocol's key limit and far past std::string's inline
  // buffer, so the slot's key owns heap memory of its own.
  const std::string long_key(250, 'k');
  EXPECT_EQ(Roundtrip(service, SetCmd(long_key, "v")), "STORED\r\n");
  EXPECT_EQ(Roundtrip(service, "get " + long_key + "\r\n"), ValueReply(long_key, "v"));

  EXPECT_EQ(service.ValueBytes(), 3 * HeaderBytes() + big.size() + 1);
  EXPECT_EQ(service.ValueBytes(), DecodedBlockBytes(service));
  for (const std::string& key : {std::string("empty"), std::string("big"), long_key}) {
    EXPECT_EQ(Roundtrip(service, "delete " + key + "\r\n"), "DELETED\r\n");
  }
  EXPECT_EQ(service.ValueBytes(), 0u);
}

TEST(KvEntryTest, OverwritesCrossTheTierThresholdBothWays) {
  TieredService ts;
  KvService& service = *ts.service;
  const std::string small = "small";
  const std::string big(500, 'B');
  EXPECT_EQ(Roundtrip(service, SetCmd("k", small)), "STORED\r\n");
  EXPECT_FALSE(Entries(service)["k"].Tiered());

  EXPECT_EQ(Roundtrip(service, SetCmd("k", big, 3)), "STORED\r\n");  // inline -> tiered
  const StoredValue tiered = Entries(service)["k"];
  ASSERT_TRUE(tiered.Tiered());
  EXPECT_TRUE(tiered.data.empty());
  EXPECT_EQ(Roundtrip(service, "get k\r\n"), ValueReply("k", big, 3));
  EXPECT_EQ(service.ValueBytes(), HeaderBytes() + sizeof(store::ValueLocation));
  EXPECT_EQ(ts.tier.Stats().log.dead_bytes, 0u);

  EXPECT_EQ(Roundtrip(service, SetCmd("k", small, 4)), "STORED\r\n");  // tiered -> inline
  EXPECT_FALSE(Entries(service)["k"].Tiered());
  EXPECT_EQ(Roundtrip(service, "get k\r\n"), ValueReply("k", small, 4));
  EXPECT_EQ(service.ValueBytes(), HeaderBytes() + small.size());
  EXPECT_EQ(ts.tier.Stats().log.dead_bytes, tiered.loc.length)
      << "the replaced tiered record must become GC garbage";

  // cas across the boundary too: inline -> tiered.
  const std::uint64_t cas = Entries(service)["k"].cas_id;
  EXPECT_EQ(Roundtrip(service, "cas k 0 0 " + std::to_string(big.size()) + " " +
                             std::to_string(cas) + "\r\n" + big + "\r\n"),
            "STORED\r\n");
  EXPECT_TRUE(Entries(service)["k"].Tiered());
  EXPECT_EQ(Roundtrip(service, "get k\r\n"), ValueReply("k", big));
  EXPECT_EQ(service.ValueBytes(), DecodedBlockBytes(service));
}

TEST(KvEntryTest, CasAndTouchLogTheResolvedState) {
  auto now = std::make_shared<std::atomic<std::uint64_t>>(1000);
  KvService::Options o;
  o.clock = [now] { return now->load(); };
  KvService service(o);
  Recorder recorder;
  service.SetMutationObserver(&recorder);

  EXPECT_EQ(Roundtrip(service, SetCmd("k", "one", 1, 50)), "STORED\r\n");
  auto [key, set] = recorder.LastSet();
  EXPECT_EQ(key, "k");
  EXPECT_EQ(set.data, "one");
  EXPECT_EQ(set.flags, 1u);
  EXPECT_EQ(set.expires_at, 1050u);

  EXPECT_EQ(Roundtrip(service, "cas k 2 100 3 " + std::to_string(set.cas_id) + "\r\ntwo\r\n"),
            "STORED\r\n");
  const StoredValue after_cas = recorder.LastSet().second;
  EXPECT_EQ(after_cas.data, "two");
  EXPECT_EQ(after_cas.flags, 2u);
  EXPECT_EQ(after_cas.expires_at, 1100u);
  EXPECT_GT(after_cas.cas_id, set.cas_id);
  EXPECT_EQ(Entries(service)["k"].cas_id, after_cas.cas_id);

  now->store(1010);
  EXPECT_EQ(Roundtrip(service, "touch k 500\r\n"), "TOUCHED\r\n");
  const StoredValue after_touch = recorder.LastSet().second;
  EXPECT_EQ(after_touch.data, "two") << "touch logs the full entry, not a delta";
  EXPECT_EQ(after_touch.flags, 2u);
  EXPECT_EQ(after_touch.cas_id, after_cas.cas_id);
  EXPECT_EQ(after_touch.expires_at, 1510u);
  EXPECT_EQ(service.ValueBytes(), HeaderBytes() + 3);
}

TEST(KvEntryTest, GcRelocationSwingsTheStoredLocation) {
  TieredService ts;
  KvService& service = *ts.service;
  const std::string big(300, 'R');
  ASSERT_EQ(Roundtrip(service, SetCmd("k", big, 6)), "STORED\r\n");
  const StoredValue before = Entries(service)["k"];
  ASSERT_TRUE(before.Tiered());

  EXPECT_EQ(service.RelocateTiered("k", before.loc, big),
            store::TieredStore::RelocateResult::kRelocated);
  const StoredValue after = Entries(service)["k"];
  ASSERT_TRUE(after.Tiered());
  EXPECT_NE(after.loc, before.loc);
  EXPECT_EQ(after.cas_id, before.cas_id);
  EXPECT_EQ(after.flags, 6u);
  EXPECT_EQ(ts.recorder.LastSet().second.loc, after.loc) << "replay must learn the move";
  EXPECT_EQ(Roundtrip(service, "get k\r\n"), ValueReply("k", big, 6));
  EXPECT_EQ(service.ValueBytes(), HeaderBytes() + sizeof(store::ValueLocation));

  // The old location no longer backs the entry.
  EXPECT_EQ(service.RelocateTiered("k", before.loc, big),
            store::TieredStore::RelocateResult::kDead);
  EXPECT_EQ(Entries(service)["k"].loc, after.loc);
}

// A mix of shapes: empty, inline, 1 MiB, long keys, flags, deadlines, and
// (with a tier) value-log locations.
void LoadMixedEntries(KvService& service) {
  EXPECT_EQ(Roundtrip(service, SetCmd("empty", "", 11)), "STORED\r\n");
  EXPECT_EQ(Roundtrip(service, SetCmd(std::string(250, 'L'), "long key", 0, 100000)),
            "STORED\r\n");
  EXPECT_EQ(Roundtrip(service, SetCmd("mib", std::string(1 << 20, 'm'), 3)), "STORED\r\n");
  for (int i = 0; i < 200; ++i) {
    const std::string value(static_cast<std::size_t>(i), static_cast<char>('a' + i % 26));
    const std::string key = "k" + std::to_string(i);
    EXPECT_EQ(Roundtrip(service, SetCmd(key, value, static_cast<std::uint32_t>(i))), "STORED\r\n");
  }
}

TEST(KvEntryTest, SnapshotRecoveryRoundTripIsByteExact) {
  TieredService ts;
  LoadMixedEntries(*ts.service);
  const std::map<std::string, StoredValue> want = Entries(*ts.service);
  std::string error;
  ASSERT_TRUE(persist::WriteKvSnapshot(*ts.service, ts.dir.path, [] { return 7; }, 4, nullptr,
                                       &error))
      << error;

  KvService::Options so;
  so.tier = &ts.tier;  // same value log, so tiered locations stay valid
  KvService restored(so);
  persist::SnapshotLoadStats load;
  ASSERT_TRUE(persist::LoadKvSnapshot(ts.dir.path + "/" + persist::internal::SnapshotFileName(7),
                                      &restored, &load, &error))
      << error;
  EXPECT_EQ(load.entries, want.size());
  ExpectSameEntries(want, Entries(restored));
  EXPECT_EQ(restored.ValueBytes(), ts.service->ValueBytes());
  EXPECT_EQ(Roundtrip(restored, "get mib\r\n"), ValueReply("mib", std::string(1 << 20, 'm'), 3));

  restored.RestoreClear();
  EXPECT_EQ(restored.ItemCount(), 0u);
  EXPECT_EQ(restored.ValueBytes(), 0u);
}

TEST(KvEntryTest, ReplicaFullSyncInlinesTieredValues) {
  TieredService ts;
  LoadMixedEntries(*ts.service);
  std::map<std::string, StoredValue> want = Entries(*ts.service);
  std::string error;
  const std::string path = ts.dir.path + "/replica.snap";
  ASSERT_TRUE(persist::WriteReplicaSnapshot(*ts.service, path, [] { return 9; }, 4, nullptr,
                                            &error))
      << error;

  KvService replica;  // no tier: every value must arrive inline
  ASSERT_TRUE(persist::LoadKvSnapshot(path, &replica, nullptr, &error)) << error;
  std::size_t tiered = 0;
  for (auto& [key, v] : want) {
    if (v.Tiered()) {
      ++tiered;
      ASSERT_TRUE(ts.tier.ReadValue(key, v.loc, v.cas_id, &v.data)) << key;
      v.loc = store::ValueLocation{};
    }
  }
  EXPECT_GT(tiered, 100u);
  ExpectSameEntries(want, Entries(replica));
  EXPECT_EQ(replica.ValueBytes(), DecodedBlockBytes(replica));
}

std::uint64_t StatLine(const std::string& stats, const std::string& name) {
  const std::string needle = "STAT " + name + " ";
  const std::size_t at = stats.find(needle);
  EXPECT_NE(at, std::string::npos) << name;
  return at == std::string::npos ? 0 : std::stoull(stats.substr(at + needle.size()));
}

TEST(KvEntryTest, MemoryStatsMatchTheLayout) {
  auto now = std::make_shared<std::atomic<std::uint64_t>>(1000);
  KvService::Options o;
  o.initial_bucket_count_log2 = 10;
  o.stripe_count = 64;
  o.clock = [now] { return now->load(); };
  KvService service(o);
  constexpr std::size_t kKeys = 2000;  // load 0.49 of 4096 slots: no expansion
  constexpr std::size_t kValue = 100;
  for (std::size_t i = 0; i < kKeys; ++i) {
    ASSERT_EQ(Roundtrip(service, SetCmd("key" + std::to_string(i), std::string(kValue, 'v'), 0,
                                  i % 2 == 0 ? 10 : 0)),
              "STORED\r\n");
  }
  const std::string stats = Roundtrip(service, "stats\r\n");
  EXPECT_EQ(StatLine(stats, "value_bytes"), kKeys * (HeaderBytes() + kValue));
  EXPECT_EQ(StatLine(stats, "table_bytes"), service.TableBytes());
  std::string metrics;
  service.AppendMetricsText(&metrics);
  EXPECT_NE(metrics.find("cuckoo_kv_value_bytes " + std::to_string(service.ValueBytes())),
            std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("cuckoo_kv_table_bytes"), std::string::npos);

  // Layout arithmetic: every slot holds a one-byte tag, the key and the
  // handle; every key owns one block. Bucket padding and the lock stripes
  // are all it leaves out, so the measured sum must be within 5%.
  constexpr std::size_t kSlots = 4096;
  const double layout =
      static_cast<double>(kSlots * (1 + sizeof(std::string) + sizeof(Entry)) +
                          kKeys * (HeaderBytes() + kValue));
  const double measured = static_cast<double>(service.TableBytes() + service.ValueBytes());
  EXPECT_NEAR(measured / layout, 1.0, 0.05) << measured << " vs " << layout;

  // Lazy expiry frees the even keys' blocks; delete frees the rest.
  now->store(1010);
  for (std::size_t i = 0; i < kKeys; i += 2) {
    EXPECT_EQ(Roundtrip(service, "get key" + std::to_string(i) + "\r\n"), "END\r\n");
  }
  EXPECT_EQ(service.Expirations(), kKeys / 2);
  EXPECT_EQ(service.ValueBytes(), kKeys / 2 * (HeaderBytes() + kValue));
  for (std::size_t i = 1; i < kKeys; i += 2) {
    EXPECT_EQ(Roundtrip(service, "delete key" + std::to_string(i) + "\r\n"), "DELETED\r\n");
  }
  EXPECT_EQ(service.ItemCount(), 0u);
  EXPECT_EQ(service.ValueBytes(), 0u);
}

// Restore paths keep the count too: replayed overwrites and deletes.
TEST(KvEntryTest, RestorePathsKeepValueBytesExact) {
  KvService service;
  StoredValue v;
  v.data = "abc";
  v.cas_id = 5;
  ASSERT_TRUE(service.RestoreEntry("k", v));
  v.data = "abcdef";
  ASSERT_TRUE(service.RestoreEntry("k", v));
  EXPECT_EQ(service.ValueBytes(), HeaderBytes() + 6);
  EXPECT_TRUE(service.RestoreErase("k"));
  EXPECT_FALSE(service.RestoreErase("k"));
  EXPECT_EQ(service.ValueBytes(), 0u);
}

// Four threads run set, get, gets+cas, touch and delete on eight shared
// keys. Afterwards every surviving entry decodes cleanly and the live-block
// count equals the sum of the stored blocks.
TEST(KvEntryConcurrencyTest, MixedOpsOnSharedKeys) {
  KvService service;
  Recorder recorder;
  service.SetMutationObserver(&recorder);
  constexpr int kThreads = 4;
  constexpr int kOps = 3000;
  std::vector<std::thread> threads;
  std::atomic<int> malformed{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      KvService::Connection conn = service.Connect();
      std::uint64_t state = 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(t + 1);
      for (int i = 0; i < kOps; ++i) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        const std::string key = "k" + std::to_string(state % 8);
        const std::string value(static_cast<std::size_t>(state >> 58), static_cast<char>('a' + t));
        std::string out;
        switch ((state >> 8) % 5) {
          case 0:
            conn.Drive(SetCmd(key, value, static_cast<std::uint32_t>(t)), &out);
            malformed += out == "STORED\r\n" ? 0 : 1;
            break;
          case 1:
            conn.Drive("get " + key + "\r\n", &out);
            malformed += out.size() >= 5 && out.compare(out.size() - 5, 5, "END\r\n") == 0 ? 0 : 1;
            break;
          case 2: {
            conn.Drive("gets " + key + "\r\n", &out);
            std::size_t sp = out.rfind(' ', out.find("\r\n"));
            if (out.rfind("VALUE ", 0) == 0 && sp != std::string::npos) {
              const std::string cas = out.substr(sp + 1, out.find("\r\n") - sp - 1);
              out.clear();
              conn.Drive("cas " + key + " 0 0 " + std::to_string(value.size()) + " " + cas +
                             "\r\n" + value + "\r\n",
                         &out);
              malformed += out == "STORED\r\n" || out == "EXISTS\r\n" || out == "NOT_FOUND\r\n"
                               ? 0
                               : 1;
            }
            break;
          }
          case 3:
            conn.Drive("touch " + key + " 0\r\n", &out);
            malformed += out == "TOUCHED\r\n" || out == "NOT_FOUND\r\n" ? 0 : 1;
            break;
          default:
            conn.Drive("delete " + key + "\r\n", &out);
            malformed += out == "DELETED\r\n" || out == "NOT_FOUND\r\n" ? 0 : 1;
            break;
        }
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  EXPECT_EQ(malformed.load(), 0);
  for (const auto& [key, v] : Entries(service)) {
    EXPECT_EQ(v.data.find_first_not_of(v.data.empty() ? 'a' : v.data[0]), std::string::npos)
        << key << " holds a torn value";
  }
  EXPECT_EQ(service.ValueBytes(), DecodedBlockBytes(service));
}

}  // namespace
}  // namespace cuckoo
