// KvService — a MemC3-shaped in-process key-value service: the memcached
// text protocol dispatched onto the concurrent cuckoo table. Variable-length
// keys and values go through GeneralCuckooMap (the §7 generality layer);
// every public method is safe to call from any number of connection threads.
//
// Supported semantics: get/gets (single- and multi-key)/set/cas/delete/touch/
// stats, with lazy TTL expiry and monotonically increasing cas ids. exptime
// follows memcached: 0 = never, <= 30 days = relative seconds, > 30 days =
// absolute UNIX timestamp. Multi-key gets route through the table's batched
// prefetching lookup (WithValueBatch).
#ifndef SRC_KVSERVER_KV_SERVICE_H_
#define SRC_KVSERVER_KV_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/per_thread_counter.h"
#include "src/cuckoo/general_cuckoo_map.h"
#include "src/kvserver/protocol.h"
#include "src/obs/histogram.h"
#include "src/obs/slowlog.h"
#include "src/store/tiered_store.h"

namespace cuckoo {

class KvService {
 public:
  // exptime values above this are absolute UNIX timestamps, not relative
  // TTLs (memcached's REALTIME_MAXDELTA, 30 days in seconds).
  static constexpr std::uint32_t kMaxRelativeExptime = 60 * 60 * 24 * 30;

  // The exchange form of one key's record: what the durability layer (WAL,
  // snapshots, recovery) serializes and restores verbatim. With a tiered
  // store attached, values at/above the tiering threshold keep `data` empty
  // and carry a value-log location instead, which is what lets the dataset
  // outgrow RAM. The table itself stores the compact Entry below.
  struct StoredValue {
    std::string data;
    std::uint32_t flags = 0;
    std::uint64_t cas_id = 0;
    std::uint64_t expires_at = 0;  // absolute seconds; 0 = never
    store::ValueLocation loc{};    // set iff the value lives in the value log

    bool Tiered() const noexcept { return loc.IsValid(); }
  };

  // The served slot's value: one owning 8-byte handle to a single heap
  // block [Header | payload]. The payload is the value bytes, or for a
  // tiered value its ValueLocation, marked by kTieredBit in Header::size.
  // The service builds every block before it takes a pair lock, moves only
  // the handle in, and moves replaced or erased blocks out under the lock so
  // they are freed after it is released (docs/server.md, "Stored entry
  // layout"). Once the lock is released, no occupied slot holds a null
  // (default-constructed or moved-from) handle.
  class Entry {
   public:
    Entry() noexcept = default;
    // The payload is `loc` when it is valid, else `data`.
    Entry(std::string_view data, const store::ValueLocation& loc, std::uint32_t flags,
          std::uint64_t cas_id, std::uint64_t expires_at);
    explicit Entry(const StoredValue& v) : Entry(v.data, v.loc, v.flags, v.cas_id, v.expires_at) {}
    Entry(const Entry& other);
    Entry(Entry&& other) noexcept : block_(std::exchange(other.block_, nullptr)) {}
    Entry& operator=(Entry other) noexcept {
      std::swap(block_, other.block_);
      return *this;
    }
    ~Entry() { ::operator delete(block_); }

    // Decoding copies the value bytes. The service uses DecodeTo into a
    // reused StoredValue, and only where an observer or the snapshot walk
    // needs the exchange form; the implicit conversion serves callers that
    // read the table as StoredValue directly (the benchmark's table ladder).
    void DecodeTo(StoredValue* out) const;
    operator StoredValue() const {  // NOLINT(google-explicit-constructor)
      StoredValue v;
      DecodeTo(&v);
      return v;
    }

    std::uint32_t flags() const noexcept { return block_->flags; }
    std::uint64_t cas_id() const noexcept { return block_->cas_id; }
    std::uint64_t expires_at() const noexcept { return block_->expires_at; }
    bool Tiered() const noexcept { return block_ != nullptr && (block_->size & kTieredBit) != 0; }
    // Inline value bytes (empty for a tiered value).
    std::string_view data() const noexcept {
      return Tiered() ? std::string_view() : std::string_view(Payload(), block_->size);
    }
    // Value-log location (invalid for an inline value).
    store::ValueLocation loc() const noexcept {
      store::ValueLocation loc{};
      if (Tiered()) {
        std::memcpy(&loc, Payload(), sizeof(loc));
      }
      return loc;
    }
    // Bytes of the heap block this handle owns (0 for a null handle).
    std::size_t BlockBytes() const noexcept {
      return block_ == nullptr ? 0 : sizeof(Header) + (block_->size & ~kTieredBit);
    }

    void set_expires_at(std::uint64_t expires_at) noexcept { block_->expires_at = expires_at; }
    // Swing a tiered value to a new location (same payload size, in place).
    void set_loc(const store::ValueLocation& loc) noexcept {
      std::memcpy(Payload(), &loc, sizeof(loc));
    }

   private:
    static constexpr std::uint32_t kTieredBit = 0x80000000u;
    struct Header {
      std::uint64_t cas_id;
      std::uint64_t expires_at;  // absolute seconds; 0 = never
      std::uint32_t flags;
      std::uint32_t size;  // payload bytes | kTieredBit
    };
    char* Payload() const noexcept { return reinterpret_cast<char*>(block_ + 1); }

    Header* block_ = nullptr;
  };

  static_assert(sizeof(Entry) == 8, "a served slot holds the key plus one 8-byte handle");

  using StoreMap = GeneralCuckooMap<std::string, Entry>;

  // Durability hook. OnSet/OnDelete are invoked INSIDE the table's
  // bucket-pair critical section at the instant the mutation is applied, so
  // the observer can assign a log sequence number whose order matches the
  // per-key order of table mutations (two racing SETs of one key serialize
  // identically in the table and in the log). They must not block on I/O —
  // enqueue and return. WaitDurable is called OUTSIDE the locks, before the
  // client response is released, and may block per the fsync policy. It
  // returns false when durability could not be achieved (the log hit a
  // write/fsync error); the service then answers SERVER_ERROR instead of a
  // success ack — the mutation is applied in memory but never promised.
  //
  // Every mutation is logged as its resolved unconditional effect: a
  // successful cas/touch reports the final stored state through OnSet, so
  // replay never needs to re-evaluate conditions.
  class MutationObserver {
   public:
    virtual ~MutationObserver() = default;
    virtual std::uint64_t OnSet(std::string_view key, const StoredValue& stored) = 0;
    virtual std::uint64_t OnDelete(std::string_view key) = 0;
    virtual bool WaitDurable(std::uint64_t lsn) = 0;
  };

  // Install before serving traffic; the observer must outlive the service.
  void SetMutationObserver(MutationObserver* observer) { observer_ = observer; }

  // `bgsave` command handler: return true if a snapshot was started, false
  // if one is already running (reported to the client as BUSY).
  void SetBgsaveHook(std::function<bool()> hook) { bgsave_ = std::move(hook); }

  // ----- Replication hooks ---------------------------------------------------

  // Read-only (replica) mode: set/cas/delete/touch answer SERVER_ERROR with
  // a redirect to `primary` instead of mutating, and lazy expiry stops
  // erasing on GET (the primary replicates the authoritative delete; erasing
  // locally would fork the replica's WAL off the primary's LSN sequence).
  // `primary` is latched on the first call and must not change afterwards;
  // promotion (`replicaof none`) only ever flips the flag back off.
  void SetReadOnly(bool read_only, const std::string& primary) {
    if (readonly_redirect_.empty() && !primary.empty()) {
      readonly_redirect_ = primary;
    }
    read_only_.store(read_only, std::memory_order_release);
  }
  bool ReadOnly() const noexcept { return read_only_.load(std::memory_order_acquire); }

  // Allow `replicate` connection upgrades (the server wires the actual fd
  // handoff; without this the verb answers SERVER_ERROR).
  void SetReplicationUpgradeEnabled(bool enabled) { repl_upgrade_enabled_ = enabled; }

  // `replicaof` command handler: receives the parsed request and returns the
  // full protocol response (e.g. "OK\r\n"). Unset => ERROR.
  void SetReplicaofHandler(std::function<std::string(const Request&)> handler) {
    replicaof_ = std::move(handler);
  }

  struct Options {
    std::size_t initial_bucket_count_log2 = 10;
    bool auto_expand = true;
    // Lock stripes in the backing table. Expansion goes incremental (online)
    // once bucket_count % stripe_count == 0; smaller tables fall back to the
    // stop-the-world rehash. Tests shrink this to force the online path early.
    std::size_t stripe_count = LockStripes::kDefaultStripeCount;
    // Back the table cores with 2 MB transparent huge pages (madvise; falls
    // back to normal pages when the kernel declines). The granted byte count
    // is visible as `table_hugepage_bytes` / cuckoo_table_hugepage_bytes.
    bool hugepages = false;
    // Time source in seconds; injectable so TTL behaviour is testable
    // deterministically. Null = wall clock.
    std::function<std::uint64_t()> clock;
    // Commands taking at least this long land in a bounded ring dumped by
    // `stats slowlog`. 0 disables the log (the per-command latency
    // histograms are always on).
    std::uint64_t slowlog_threshold_ns = 0;
    std::size_t slowlog_capacity = 128;
    // Larger-than-memory tier. Null = every value inline in RAM (legacy
    // behaviour). The tier must be opened before and outlive the service.
    store::TieredStore* tier = nullptr;
  };

  KvService() : KvService(Options{}) {}
  explicit KvService(Options opts);

  // A GET parked on disk reads: HandleGet fills the item list and location
  // records, StartFetches resolves them on reader threads, FinishDeferred
  // renders the response in key order back on the caller's thread.
  struct DeferredGet {
    struct Item {
      std::string key;
      bool live = false;        // table hit, not expired
      bool need_fetch = false;  // tiered and not in the hot cache
      bool fetch_ok = false;    // disk read landed and verified
      std::string data;
      std::uint32_t flags = 0;
      std::uint64_t cas_id = 0;
      store::ValueLocation loc{};
    };
    bool with_cas = false;
    RequestType type = RequestType::kGet;
    std::uint64_t start_ns = 0;  // Process() entry; closes at FinishDeferred
    std::vector<Item> items;
    std::atomic<std::size_t> remaining{0};  // outstanding disk fetches
  };

  // kUpgradeReplication: the request was a `replicate` verb on a server with
  // replication enabled — no response bytes are appended; the caller must
  // detach the connection and hand its fd to the replication hub.
  enum class ProcessStatus : std::uint8_t { kDone, kSuspended, kUpgradeReplication };

  // Execute one request, appending the protocol response to *response_out.
  void Process(const Request& request, std::string* response_out) {
    (void)Process(request, response_out, nullptr);
  }

  // Async-aware variant: a GET that must touch disk returns kSuspended with
  // *deferred set instead of blocking; the caller parks the connection,
  // calls StartFetches, and on completion FinishDeferred. With `deferred`
  // null every request completes synchronously (disk reads block inline).
  ProcessStatus Process(const Request& request, std::string* response_out,
                        std::shared_ptr<DeferredGet>* deferred);

  // Submit the deferred GET's disk reads; `on_complete` fires exactly once,
  // on a reader thread, after the last fetch lands. Call once per deferred.
  void StartFetches(const std::shared_ptr<DeferredGet>& deferred,
                    std::function<void()> on_complete);

  // Render the completed deferred GET (failed fetches count as misses) and
  // close out its latency accounting.
  void FinishDeferred(DeferredGet& deferred, std::string* out);

  // Per-connection driver: feed raw protocol bytes, receive raw response
  // bytes. Each connection owns one Connection (the parser is stateful);
  // all connections share the service.
  class Connection {
   public:
    explicit Connection(KvService* service) : service_(service) {}

    // kUpgradeReplication: stop driving — the stream switched protocols.
    // upgrade_start_lsn() has the requested LSN and TakeBufferedInput() any
    // bytes that arrived after the `replicate` line.
    enum class DriveStatus : std::uint8_t { kIdle, kSuspended, kUpgradeReplication };

    // Parse and execute everything in `bytes`; append responses to *out.
    void Drive(std::string_view bytes, std::string* out) {
      (void)Drive(bytes, out, nullptr);
    }

    // Async-aware variant: stops at the first request that parks on disk,
    // returning kSuspended with *deferred set; unparsed input stays
    // buffered. After FinishDeferred, call Drive("", ...) to resume the
    // buffered stream (which may suspend again).
    DriveStatus Drive(std::string_view bytes, std::string* out,
                      std::shared_ptr<DeferredGet>* deferred);

    // Bytes of partial request currently buffered (backpressure input).
    std::size_t BufferedBytes() const noexcept { return parser_.BufferedBytes(); }

    // True if the protocol stream is unrecoverable; close the connection.
    bool Broken() const noexcept { return parser_.Broken(); }

    // Valid after Drive returned kUpgradeReplication.
    std::uint64_t upgrade_start_lsn() const noexcept { return upgrade_start_lsn_; }
    std::string TakeBufferedInput() { return parser_.TakeBuffered(); }

   private:
    KvService* service_;
    RequestParser parser_;
    std::uint64_t upgrade_start_lsn_ = 0;
  };

  Connection Connect() { return Connection(this); }

  // ----- Tiered-store integration -------------------------------------------

  store::TieredStore* tier() const noexcept { return tier_; }

  // GC relocation hook (see TieredStore::RelocateFn): re-checks liveness
  // under the bucket locks and swings the entry's location to the record's
  // new home, logging the move through the normal observer path.
  store::TieredStore::RelocateResult RelocateTiered(const std::string& key,
                                                    const store::ValueLocation& old_loc,
                                                    std::string_view data);

  // Extra STAT lines appended to every `stats` response — the network server
  // installs its connection/traffic counters here, the durability layer its
  // WAL/snapshot counters. Hooks must be thread-safe; install before serving
  // traffic. Hooks run in installation order.
  void AddExtraStatsHook(std::function<void(std::string*)> hook) {
    extra_stats_.push_back(std::move(hook));
  }

  // Extra STAT lines appended only to `stats detail` responses — latency
  // percentiles and other expensive-to-render reports live here so the plain
  // `stats` hot path stays cheap. Same contract as AddExtraStatsHook.
  void AddDetailStatsHook(std::function<void(std::string*)> hook) {
    detail_stats_.push_back(std::move(hook));
  }

  // Prometheus text-format metrics for the service: per-command latency
  // summaries, hit/miss/mutation counters, and the table-level cuckoo
  // counters. Thread-safe; wire into a MetricsRegistry as a source.
  void AppendMetricsText(std::string* out) const;

  obs::Slowlog& slowlog() noexcept { return slowlog_; }
  const obs::Slowlog& slowlog() const noexcept { return slowlog_; }

  // Snapshot of the end-to-end Process() latency histogram for one command
  // kind (benches and tests; `stats detail` serves the same data on-wire).
  obs::HistogramSnapshot CommandLatency(RequestType type) const {
    return cmd_ns_[static_cast<std::size_t>(type)].Snapshot();
  }

  // Toggle sampled latency recording inside the cuckoo table (the
  // per-command histograms in this class are unaffected — they are one
  // clock pair per network request and always on).
  void SetLatencyProfiling(bool enabled) { store_.SetLatencyProfiling(enabled); }

  // ----- Recovery API (single-threaded, before serving traffic) -------------

  // Apply a snapshot/WAL record directly: upsert the entry verbatim and
  // advance the cas floor past its cas id. Returns false only if the table
  // refused the insert (auto_expand disabled and full).
  bool RestoreEntry(std::string key, const StoredValue& value);

  // Apply a logged delete. Missing keys are fine (idempotent replay).
  bool RestoreErase(const std::string& key);

  // Ensure future cas ids are strictly greater than `cas_id`.
  void AdvanceCasFloor(std::uint64_t cas_id);

  // Drop everything (recovery retry after a partially loaded corrupt
  // snapshot). Exclusive; only call before serving traffic.
  void RestoreClear();

  // ----- Online snapshot (fuzzy walk; writers keep running) -----------------

  // Walk a fuzzy snapshot of the store (see GeneralCuckooMap::
  // TrySnapshotBuckets): `fn` sees each live entry at least once, copies
  // taken under per-bucket locks only. Returns false if a table expansion
  // interrupted the walk — the caller discards partial output and retries.
  // `fn` sees one reused StoredValue, valid only for the duration of a call.
  bool TrySnapshotEntries(const std::function<void(const std::string&, const StoredValue&)>& fn,
                          StoreMap::SnapshotWalkStats* stats = nullptr) const;

  std::size_t ItemCount() const noexcept { return store_.Size(); }
  std::uint64_t GetHits() const noexcept { return static_cast<std::uint64_t>(hits_.Sum()); }
  std::uint64_t GetMisses() const noexcept { return static_cast<std::uint64_t>(misses_.Sum()); }
  std::uint64_t Expirations() const noexcept {
    return static_cast<std::uint64_t>(expirations_.Sum());
  }
  MapStatsSnapshot StoreStats() const { return store_.Stats(); }
  // Memory the store holds: the committed bucket arrays (slots hold the key
  // and the Entry handle) and the live value blocks the handles own.
  std::size_t TableBytes() const { return store_.HeapBytes(); }
  std::uint64_t ValueBytes() const noexcept {
    return static_cast<std::uint64_t>(value_bytes_.Sum());
  }

 private:
  std::uint64_t NowSeconds() const { return clock_(); }
  // memcached exptime semantics: 0 = never; values up to 30 days are a
  // relative TTL; anything larger is already an absolute UNIX timestamp
  // (which may be in the past, making the entry immediately expired).
  std::uint64_t DeadlineFor(std::uint32_t exptime) const {
    if (exptime == 0) {
      return 0;
    }
    if (exptime > kMaxRelativeExptime) {
      return exptime;
    }
    return NowSeconds() + exptime;
  }
  bool Expired(const Entry& value, std::uint64_t now) const {
    return value.expires_at() != 0 && value.expires_at() <= now;
  }
  // Lazy expiry of a key a GET found expired.
  void ReapExpired(const std::string& key, std::uint64_t now);
  // Account for a block the table no longer references (overwritten or
  // erased) and turn its value-log bytes into garbage. Called after the pair
  // lock is released; the caller's scope frees the block.
  void Retire(const Entry& dead);

  ProcessStatus HandleGet(const Request& request, bool with_cas, std::string* out,
                          std::shared_ptr<DeferredGet>* deferred);
  void HandleSet(const Request& request, std::string* out);
  void HandleCas(const Request& request, std::string* out);
  void HandleTouch(const Request& request, std::string* out);
  void HandleStats(const Request& request, std::string* out);
  void HandleDelete(const Request& request, std::string* out);

  // Shared tail of the sync and deferred GET paths: VALUE blocks in key
  // order, hit/miss accounting, END.
  void RenderGet(DeferredGet& deferred, std::string* out);

  // Process() minus the latency accounting (the switch on request type).
  ProcessStatus Dispatch(const Request& request, std::string* out,
                         std::shared_ptr<DeferredGet>* deferred);
  void AppendLatencyStats(std::string* out) const;
  void AppendSlowlogStats(std::string* out) const;
  void AppendTierStats(std::string* out) const;

  // One histogram slot per RequestType value.
  static constexpr std::size_t kCommandKinds = 10;
  static const char* CommandName(RequestType type) noexcept;

  StoreMap store_;
  store::TieredStore* tier_ = nullptr;
  std::function<std::uint64_t()> clock_;
  std::vector<std::function<void(std::string*)>> extra_stats_;
  std::vector<std::function<void(std::string*)>> detail_stats_;
  MutationObserver* observer_ = nullptr;
  std::function<bool()> bgsave_;
  std::function<std::string(const Request&)> replicaof_;
  std::atomic<bool> read_only_{false};
  bool repl_upgrade_enabled_ = false;    // set before serving traffic
  std::string readonly_redirect_;        // latched before serving traffic
  std::atomic<std::uint64_t> next_cas_{1};
  PerThreadCounter hits_;
  PerThreadCounter misses_;
  PerThreadCounter sets_;
  PerThreadCounter deletes_;
  PerThreadCounter expirations_;
  PerThreadCounter value_bytes_;  // sum of BlockBytes() over stored entries
  obs::Histogram cmd_ns_[kCommandKinds];  // end-to-end Process() latency
  obs::Slowlog slowlog_;
};

}  // namespace cuckoo

#endif  // SRC_KVSERVER_KV_SERVICE_H_
