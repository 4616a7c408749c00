#include "src/kvserver/kv_service.h"

#include <chrono>
#include <cstring>
#include <utility>
#include <vector>

#include "src/common/timing.h"
#include "src/cuckoo/simd_probe.h"
#include "src/obs/metrics.h"

namespace cuckoo {
namespace {

std::uint64_t WallSeconds() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

// STAT <prefix>_count/_p50/_p99/_p999/_max lines for one latency histogram.
void AppendHistStats(const std::string& prefix, const obs::HistogramSnapshot& h,
                     std::string* out) {
  AppendStat(prefix + "_count", h.Count(), out);
  AppendStat(prefix + "_p50", h.P50(), out);
  AppendStat(prefix + "_p99", h.P99(), out);
  AppendStat(prefix + "_p999", h.P999(), out);
  AppendStat(prefix + "_max", h.Max(), out);
}

}  // namespace

KvService::Entry::Entry(std::string_view data, const store::ValueLocation& loc,
                        std::uint32_t flags, std::uint64_t cas_id, std::uint64_t expires_at) {
  const bool tiered = loc.IsValid();
  const std::size_t size = tiered ? sizeof(loc) : data.size();
  block_ = static_cast<Header*>(::operator new(sizeof(Header) + size));
  block_->cas_id = cas_id;
  block_->expires_at = expires_at;
  block_->flags = flags;
  block_->size = static_cast<std::uint32_t>(size) | (tiered ? kTieredBit : 0);
  std::memcpy(Payload(), tiered ? static_cast<const void*>(&loc) : data.data(), size);
}

KvService::Entry::Entry(const Entry& other) {
  if (other.block_ != nullptr) {
    block_ = static_cast<Header*>(::operator new(other.BlockBytes()));
    std::memcpy(block_, other.block_, other.BlockBytes());
  }
}

void KvService::Entry::DecodeTo(StoredValue* out) const {
  out->data.assign(data());
  out->flags = flags();
  out->cas_id = cas_id();
  out->expires_at = expires_at();
  out->loc = loc();
}

KvService::KvService(Options opts)
    : store_([&] {
        StoreMap::Options o;
        o.initial_bucket_count_log2 = opts.initial_bucket_count_log2;
        o.auto_expand = opts.auto_expand;
        o.stripe_count = opts.stripe_count;
        o.hugepages = opts.hugepages;
        return o;
      }()),
      tier_(opts.tier),
      clock_(opts.clock ? std::move(opts.clock) : WallSeconds),
      slowlog_(opts.slowlog_threshold_ns, opts.slowlog_capacity) {}

const char* KvService::CommandName(RequestType type) noexcept {
  switch (type) {
    case RequestType::kGet:
      return "get";
    case RequestType::kGets:
      return "gets";
    case RequestType::kSet:
      return "set";
    case RequestType::kCas:
      return "cas";
    case RequestType::kDelete:
      return "delete";
    case RequestType::kTouch:
      return "touch";
    case RequestType::kStats:
      return "stats";
    case RequestType::kBgsave:
      return "bgsave";
    case RequestType::kReplicate:
      return "replicate";
    case RequestType::kReplicaof:
      return "replicaof";
  }
  return "unknown";
}

void KvService::ReapExpired(const std::string& key, std::uint64_t now) {
  // Replicas never erase on expiry: the delete must come from the primary's
  // WAL stream, or the local LSN sequence forks off the primary's.
  if (ReadOnly()) {
    return;
  }
  // Only if the entry is still the expired one: a concurrent fresh SET must
  // not be deleted, so the predicate re-checks under the bucket locks. The
  // delete is logged, so replay does not resurrect the entry, but not
  // awaited: a get response makes no durability promise.
  Entry dead;
  if (store_.EraseIfThen(
          key,
          [&](Entry& value) {
            if (!Expired(value, now)) {
              return false;
            }
            dead = std::move(value);
            return true;
          },
          [&] {
            if (observer_ != nullptr) {
              observer_->OnDelete(key);
            }
          })) {
    Retire(dead);
    expirations_.Increment();
  }
}

KvService::ProcessStatus KvService::HandleGet(const Request& request, bool with_cas,
                                              std::string* out,
                                              std::shared_ptr<DeferredGet>* deferred) {
  // Multi-key gets arrive in request.keys; requests constructed by hand may
  // only set request.key.
  const std::string* keys = request.keys.empty() ? &request.key : request.keys.data();
  const std::size_t count = request.keys.empty() ? 1 : request.keys.size();
  const std::uint64_t now = NowSeconds();

  if (tier_ == nullptr) {
    // Every value is inline: one batched pass hashes + prefetches the whole
    // key batch ahead of the probes, appending VALUE blocks under the bucket
    // locks as hits land.
    std::vector<std::uint8_t> live(count, 0);
    std::vector<std::uint8_t> expired(count, 0);
    store_.WithValueBatch(keys, count, [&](std::size_t i, const Entry& value) {
      if (Expired(value, now)) {
        expired[i] = 1;
        return;
      }
      live[i] = 1;
      if (with_cas) {
        AppendValueResponseWithCas(keys[i], value.flags(), value.data(), value.cas_id(), out);
      } else {
        AppendValueResponse(keys[i], value.flags(), value.data(), out);
      }
    });
    for (std::size_t i = 0; i < count; ++i) {
      if (expired[i]) {
        ReapExpired(keys[i], now);
      }
      (live[i] ? hits_ : misses_).Increment();
    }
    AppendEnd(out);
    return ProcessStatus::kDone;
  }

  // Tiered path: the batch pass only copies metadata (and inline values)
  // under the bucket locks; value-log bytes are resolved afterwards so the
  // locks never wait on the hot cache or disk.
  auto d = std::make_shared<DeferredGet>();
  d->with_cas = with_cas;
  d->type = request.type;
  d->items.resize(count);
  std::vector<std::uint8_t> expired(count, 0);
  for (std::size_t i = 0; i < count; ++i) {
    d->items[i].key = keys[i];
  }
  store_.WithValueBatch(keys, count, [&](std::size_t i, const Entry& value) {
    if (Expired(value, now)) {
      expired[i] = 1;
      return;
    }
    DeferredGet::Item& item = d->items[i];
    item.live = true;
    item.flags = value.flags();
    item.cas_id = value.cas_id();
    if (value.Tiered()) {
      item.loc = value.loc();
      item.need_fetch = true;
    } else {
      item.data.assign(value.data());
    }
  });
  for (std::size_t i = 0; i < count; ++i) {
    if (expired[i]) {
      ReapExpired(keys[i], now);
    }
  }

  // Hot-tier pass: cas-checked cache hits resolve without touching disk.
  std::size_t fetches = 0;
  for (DeferredGet::Item& item : d->items) {
    if (!item.need_fetch) {
      continue;
    }
    if (tier_->TryHot(item.key, item.cas_id, &item.data)) {
      item.need_fetch = false;
      continue;
    }
    ++fetches;
  }

  if (fetches == 0) {
    RenderGet(*d, out);
    return ProcessStatus::kDone;
  }
  if (deferred == nullptr) {
    // Blocking caller (tests, tools, recovery checks): read inline.
    for (DeferredGet::Item& item : d->items) {
      if (item.need_fetch) {
        item.fetch_ok = tier_->ReadValue(item.key, item.loc, item.cas_id, &item.data);
      }
    }
    RenderGet(*d, out);
    return ProcessStatus::kDone;
  }
  // Park: the caller submits the reads (StartFetches) and renders the
  // response (FinishDeferred) once the last one lands.
  d->remaining.store(fetches, std::memory_order_relaxed);
  *deferred = std::move(d);
  return ProcessStatus::kSuspended;
}

void KvService::RenderGet(DeferredGet& deferred, std::string* out) {
  for (DeferredGet::Item& item : deferred.items) {
    const bool hit = item.live && (!item.need_fetch || item.fetch_ok);
    if (!hit) {
      // Absent, expired, or the disk read failed verification — a tiered
      // read error degrades to a miss rather than a protocol error.
      misses_.Increment();
      continue;
    }
    hits_.Increment();
    if (deferred.with_cas) {
      AppendValueResponseWithCas(item.key, item.flags, item.data, item.cas_id, out);
    } else {
      AppendValueResponse(item.key, item.flags, item.data, out);
    }
  }
  AppendEnd(out);
}

void KvService::StartFetches(const std::shared_ptr<DeferredGet>& deferred,
                             std::function<void()> on_complete) {
  auto complete = std::make_shared<std::function<void()>>(std::move(on_complete));
  for (std::size_t i = 0; i < deferred->items.size(); ++i) {
    DeferredGet::Item& item = deferred->items[i];
    if (!item.need_fetch) {
      continue;
    }
    tier_->ReadValueAsync(item.key, item.loc, item.cas_id,
                          [deferred, i, complete](bool ok, std::string data) {
                            DeferredGet::Item& it = deferred->items[i];
                            it.fetch_ok = ok;
                            it.data = std::move(data);
                            // acq_rel: the last decrement publishes every
                            // sibling fetch's writes to whoever renders.
                            if (deferred->remaining.fetch_sub(
                                    1, std::memory_order_acq_rel) == 1) {
                              (*complete)();
                            }
                          });
  }
}

void KvService::FinishDeferred(DeferredGet& deferred, std::string* out) {
  RenderGet(deferred, out);
  const std::uint64_t elapsed = NowNanos() - deferred.start_ns;
  const std::size_t idx = static_cast<std::size_t>(deferred.type);
  if (idx < kCommandKinds) {
    cmd_ns_[idx].Record(elapsed);
  }
  slowlog_.MaybeRecord(elapsed, CommandName(deferred.type),
                       deferred.items.empty() ? std::string() : deferred.items.front().key);
}

void KvService::HandleSet(const Request& request, std::string* out) {
  const bool tiered = tier_ != nullptr && tier_->ShouldTier(request.data.size());
  store::ValueLocation new_loc{};
  // Append the bytes BEFORE taking any bucket lock: log I/O must never run
  // inside the table's critical sections. A crash between the append and
  // the table mutation leaves an unreferenced record GC reclaims.
  if (tiered && !tier_->AppendValue(request.key, request.data, &new_loc)) {
    AppendServerError("vlog io error", out);
    return;
  }
  // The block is built here, outside the pair lock; only its handle moves in.
  Entry entry(request.data, new_loc, request.flags,
              next_cas_.fetch_add(1, std::memory_order_relaxed), DeadlineFor(request.exptime));
  const std::uint64_t new_cas = entry.cas_id();
  const std::size_t new_bytes = entry.BlockBytes();
  StoredValue logged;  // the observer's exchange form, built only for it
  if (observer_ != nullptr) {
    entry.DecodeTo(&logged);
  }
  std::uint64_t lsn = 0;
  Entry replaced;
  InsertResult r = store_.UpsertReplaceThen(
      std::string(request.key), std::move(entry),
      // Under the pair lock: take the old block so it is freed after unlock.
      [&](Entry& old) { replaced = std::move(old); },
      [&](const Entry&) {
        // Under the bucket-pair lock: the LSN the observer assigns here is
        // ordered exactly like the table mutation it describes.
        if (observer_ != nullptr) {
          lsn = observer_->OnSet(request.key, logged);
        }
      });
  if (r == InsertResult::kTableFull) {
    if (new_loc.IsValid()) {
      tier_->MarkDead(new_loc);  // appended but never referenced
    }
    AppendNotStored(out);
    return;
  }
  value_bytes_.Add(static_cast<std::int64_t>(new_bytes));
  Retire(replaced);
  if (observer_ != nullptr && !observer_->WaitDurable(lsn)) {
    // Applied in memory but not durable (WAL in its sticky I/O-error state):
    // never ack what a restart would lose.
    AppendServerError("wal io error", out);
    return;
  }
  if (tiered) {
    // Write-through admission: the value just written is the likeliest next
    // read; serve it from RAM instead of paying an immediate disk miss.
    tier_->Admit(request.key, new_cas, request.data);
  }
  sets_.Increment();
  AppendStored(out);
}

void KvService::HandleCas(const Request& request, std::string* out) {
  const std::uint64_t now = NowSeconds();
  const bool tiered = tier_ != nullptr && tier_->ShouldTier(request.data.size());
  store::ValueLocation new_loc{};
  if (tiered) {
    // Optimistic pre-append outside the locks (same rule as HandleSet). If
    // the comparison then fails, the record is marked dead for GC.
    if (!tier_->AppendValue(request.key, request.data, &new_loc)) {
      AppendServerError("vlog io error", out);
      return;
    }
  }
  // The replacement block is built outside the pair lock, as in HandleSet;
  // a comparison that fails burns its cas id, which only has to be unique.
  Entry fresh(request.data, new_loc, request.flags,
              next_cas_.fetch_add(1, std::memory_order_relaxed), DeadlineFor(request.exptime));
  const std::uint64_t new_cas = fresh.cas_id();
  const std::size_t new_bytes = fresh.BlockBytes();
  StoredValue logged;  // the observer's exchange form, built only for it
  if (observer_ != nullptr) {
    fresh.DecodeTo(&logged);
  }
  enum class Outcome { kNotFound, kExists, kStored } outcome = Outcome::kNotFound;
  std::uint64_t lsn = 0;
  store_.WithValueMut(request.key, [&](Entry& value) {
    if (Expired(value, now)) {
      outcome = Outcome::kNotFound;  // expired counts as absent
      return;
    }
    if (value.cas_id() != request.cas_id) {
      outcome = Outcome::kExists;
      return;
    }
    std::swap(value, fresh);  // `fresh` now holds the replaced block
    outcome = Outcome::kStored;
    // Log the RESOLVED state (an unconditional set) under the lock: replay
    // must not re-run the cas comparison against a different history.
    if (observer_ != nullptr) {
      lsn = observer_->OnSet(request.key, logged);
    }
  });
  switch (outcome) {
    case Outcome::kStored:
      value_bytes_.Add(static_cast<std::int64_t>(new_bytes));
      Retire(fresh);
      if (observer_ != nullptr && !observer_->WaitDurable(lsn)) {
        AppendServerError("wal io error", out);
        return;
      }
      if (tiered) {
        tier_->Admit(request.key, new_cas, request.data);
      }
      sets_.Increment();
      AppendStored(out);
      return;
    case Outcome::kExists:
      if (new_loc.IsValid()) {
        tier_->MarkDead(new_loc);  // pre-appended, comparison lost
      }
      AppendExists(out);
      return;
    case Outcome::kNotFound:
      if (new_loc.IsValid()) {
        tier_->MarkDead(new_loc);
      }
      AppendNotFound(out);
      return;
  }
}

void KvService::HandleTouch(const Request& request, std::string* out) {
  const std::uint64_t now = NowSeconds();
  bool touched = false;
  std::uint64_t lsn = 0;
  StoredValue logged;
  store_.WithValueMut(request.key, [&](Entry& value) {
    if (Expired(value, now)) {
      return;
    }
    value.set_expires_at(DeadlineFor(request.exptime));
    touched = true;
    if (observer_ != nullptr) {
      value.DecodeTo(&logged);
      lsn = observer_->OnSet(request.key, logged);  // resolved full state
    }
  });
  if (touched) {
    if (observer_ != nullptr && !observer_->WaitDurable(lsn)) {
      AppendServerError("wal io error", out);
      return;
    }
    AppendTouched(out);
  } else {
    AppendNotFound(out);
  }
}

bool KvService::RestoreEntry(std::string key, const StoredValue& value) {
  AdvanceCasFloor(value.cas_id);
  Entry entry(value);
  const std::size_t new_bytes = entry.BlockBytes();
  Entry replaced;
  if (store_.UpsertReplaceThen(
          std::move(key), std::move(entry), [&](Entry& old) { replaced = std::move(old); },
          [](const Entry&) {}) == InsertResult::kTableFull) {
    return false;
  }
  // Replay does not mark replaced log bytes dead; only the byte count moves.
  value_bytes_.Add(static_cast<std::int64_t>(new_bytes) -
                   static_cast<std::int64_t>(replaced.BlockBytes()));
  return true;
}

bool KvService::RestoreErase(const std::string& key) {
  Entry dead;
  if (!store_.EraseIf(key, [&](Entry& value) {
        dead = std::move(value);
        return true;
      })) {
    return false;
  }
  value_bytes_.Add(-static_cast<std::int64_t>(dead.BlockBytes()));
  return true;
}

void KvService::RestoreClear() {
  std::int64_t bytes = 0;
  store_.ForEach([&](const std::string&, const Entry& value) {
    bytes += static_cast<std::int64_t>(value.BlockBytes());
  });
  store_.Clear();
  value_bytes_.Add(-bytes);
}

bool KvService::TrySnapshotEntries(
    const std::function<void(const std::string&, const StoredValue&)>& fn,
    StoreMap::SnapshotWalkStats* stats) const {
  // The walk hands out copies taken under the stripe locks; decoding them
  // into one reused StoredValue adds no allocation per entry.
  StoredValue scratch;
  return store_.TrySnapshotBuckets(
      [&](const std::string& key, const Entry& value) {
        value.DecodeTo(&scratch);
        fn(key, scratch);
      },
      /*lock_retries=*/8, stats);
}

void KvService::Retire(const Entry& dead) {
  value_bytes_.Add(-static_cast<std::int64_t>(dead.BlockBytes()));
  if (tier_ != nullptr && dead.Tiered()) {
    tier_->MarkDead(dead.loc());
  }
}

void KvService::AdvanceCasFloor(std::uint64_t cas_id) {
  std::uint64_t cur = next_cas_.load(std::memory_order_relaxed);
  while (cur <= cas_id &&
         !next_cas_.compare_exchange_weak(cur, cas_id + 1, std::memory_order_relaxed)) {
  }
}

void KvService::HandleDelete(const Request& request, std::string* out) {
  std::uint64_t lsn = 0;
  Entry dead;
  if (store_.EraseIfThen(
          request.key,
          [&](Entry& value) {
            dead = std::move(value);  // taken under the lock, like expiry
            return true;
          },
          [&] {
            if (observer_ != nullptr) {
              lsn = observer_->OnDelete(request.key);
            }
          })) {
    Retire(dead);
    if (observer_ != nullptr && !observer_->WaitDurable(lsn)) {
      AppendServerError("wal io error", out);
      return;
    }
    deletes_.Increment();
    AppendDeleted(out);
  } else {
    AppendNotFound(out);
  }
}

store::TieredStore::RelocateResult KvService::RelocateTiered(
    const std::string& key, const store::ValueLocation& old_loc, std::string_view data) {
  // Cheap liveness probe first: in a GC-eligible segment most records are
  // dead, and the probe avoids appending bytes that would immediately be
  // garbage. The racy window is closed by the re-check under the lock below.
  bool maybe_live = false;
  store_.WithValue(key, [&](const Entry& value) { maybe_live = value.loc() == old_loc; });
  if (!maybe_live) {
    return store::TieredStore::RelocateResult::kDead;
  }
  store::ValueLocation new_loc{};
  if (!tier_->AppendValue(key, data, &new_loc)) {
    return store::TieredStore::RelocateResult::kFailed;  // sticky log error
  }
  bool relocated = false;
  std::uint64_t lsn = 0;
  StoredValue logged;
  store_.WithValueMut(key, [&](Entry& value) {
    if (value.loc() != old_loc) {
      return;  // overwritten/deleted since the probe — record is dead
    }
    value.set_loc(new_loc);
    relocated = true;
    // Same observer path as any set: replay learns the new location. The
    // cas id is unchanged — the value is byte-identical, so hot-cache
    // entries stay servable across the move.
    if (observer_ != nullptr) {
      value.DecodeTo(&logged);
      lsn = observer_->OnSet(key, logged);
    }
  });
  if (!relocated) {
    tier_->MarkDead(new_loc);
    return store::TieredStore::RelocateResult::kDead;
  }
  // Not awaited per record: TieredStore's persist barrier makes the whole
  // segment's relocations durable in one flush before retirement.
  (void)lsn;
  return store::TieredStore::RelocateResult::kRelocated;
}

KvService::ProcessStatus KvService::Process(const Request& request, std::string* response_out,
                                            std::shared_ptr<DeferredGet>* deferred) {
  // End-to-end command latency, including WaitDurable stalls. Always on:
  // one clock pair per network request is noise next to parsing + syscalls,
  // unlike the sampled per-probe timers inside the table.
  const std::uint64_t start = NowNanos();
  const ProcessStatus status = Dispatch(request, response_out, deferred);
  if (status == ProcessStatus::kSuspended) {
    // The command is still in flight; FinishDeferred closes its accounting.
    (*deferred)->start_ns = start;
    return status;
  }
  const std::uint64_t elapsed = NowNanos() - start;
  const std::size_t idx = static_cast<std::size_t>(request.type);
  if (idx < kCommandKinds) {
    cmd_ns_[idx].Record(elapsed);
  }
  slowlog_.MaybeRecord(elapsed, CommandName(request.type), request.key);
  return status;
}

KvService::ProcessStatus KvService::Dispatch(const Request& request, std::string* response_out,
                                             std::shared_ptr<DeferredGet>* deferred) {
  switch (request.type) {
    case RequestType::kGet:
      return HandleGet(request, /*with_cas=*/false, response_out, deferred);
    case RequestType::kGets:
      return HandleGet(request, /*with_cas=*/true, response_out, deferred);
    case RequestType::kSet:
    case RequestType::kCas:
    case RequestType::kTouch:
    case RequestType::kDelete:
      // Replica mode: reads only. Redirect the client to the primary rather
      // than silently diverging from the replicated stream.
      if (ReadOnly()) {
        AppendServerError(readonly_redirect_.empty()
                              ? std::string("read only replica")
                              : "read only replica; primary is " + readonly_redirect_,
                          response_out);
        return ProcessStatus::kDone;
      }
      switch (request.type) {
        case RequestType::kSet:
          HandleSet(request, response_out);
          break;
        case RequestType::kCas:
          HandleCas(request, response_out);
          break;
        case RequestType::kTouch:
          HandleTouch(request, response_out);
          break;
        default:
          HandleDelete(request, response_out);
          break;
      }
      return ProcessStatus::kDone;
    case RequestType::kReplicate:
      if (!repl_upgrade_enabled_) {
        AppendServerError("replication not enabled", response_out);
        return ProcessStatus::kDone;
      }
      // No response bytes: the server detaches this connection and the hub
      // answers with the SYNC/FULLSYNC header on the raw fd.
      return ProcessStatus::kUpgradeReplication;
    case RequestType::kReplicaof:
      if (!replicaof_) {
        AppendError(response_out);  // no replication control attached
      } else {
        response_out->append(replicaof_(request));
      }
      return ProcessStatus::kDone;
    case RequestType::kBgsave: {
      if (!bgsave_) {
        AppendError(response_out);  // no durability layer attached
      } else if (bgsave_()) {
        AppendOk(response_out);
      } else {
        AppendBusy(response_out);
      }
      return ProcessStatus::kDone;
    }
    case RequestType::kStats:
      HandleStats(request, response_out);
      return ProcessStatus::kDone;
  }
  AppendError(response_out);
  return ProcessStatus::kDone;
}

void KvService::HandleStats(const Request& request, std::string* response_out) {
  if (request.stats_arg == "slowlog") {
    AppendSlowlogStats(response_out);
    AppendEnd(response_out);
    return;
  }
  if (!request.stats_arg.empty() && request.stats_arg != "detail") {
    AppendError(response_out);  // unknown sub-report
    return;
  }
  AppendStat("curr_items", ItemCount(), response_out);
  AppendStat("get_hits", GetHits(), response_out);
  AppendStat("get_misses", GetMisses(), response_out);
  AppendStat("cmd_set", static_cast<std::uint64_t>(sets_.Sum()), response_out);
  AppendStat("cmd_delete", static_cast<std::uint64_t>(deletes_.Sum()), response_out);
  AppendStat("expired_unfetched", Expirations(), response_out);
  // Memory the store holds: bucket arrays (key + 8-byte handle per slot) and
  // the value blocks the handles own. See docs/server.md "Stored entry layout".
  AppendStat("table_bytes", static_cast<std::uint64_t>(TableBytes()), response_out);
  AppendStat("value_bytes", ValueBytes(), response_out);
  // Table-level observability: the MapStatsSnapshot counters that tell
  // an operator whether the serving layer stresses the cuckoo paths.
  const MapStatsSnapshot table = store_.Stats();
  AppendStat("table_lookups", static_cast<std::uint64_t>(table.lookups), response_out);
  AppendStat("table_read_retries", static_cast<std::uint64_t>(table.read_retries),
             response_out);
  AppendStat("table_path_searches", static_cast<std::uint64_t>(table.path_searches),
             response_out);
  AppendStat("table_path_invalidations",
             static_cast<std::uint64_t>(table.path_invalidations), response_out);
  AppendStat("table_displacements", static_cast<std::uint64_t>(table.displacements),
             response_out);
  AppendStat("table_expansions", static_cast<std::uint64_t>(table.expansions),
             response_out);
  AppendStat("table_insert_failures", static_cast<std::uint64_t>(table.insert_failures),
             response_out);
  AppendStat("table_migrations_started",
             static_cast<std::uint64_t>(table.migrations_started), response_out);
  AppendStat("table_migrations_completed",
             static_cast<std::uint64_t>(table.migrations_completed), response_out);
  AppendStat("table_migrations_force_finished",
             static_cast<std::uint64_t>(table.migrations_force_finished), response_out);
  AppendStat("table_migrated_entries",
             static_cast<std::uint64_t>(table.migrated_entries), response_out);
  AppendStat("table_migration_buckets_total",
             static_cast<std::uint64_t>(table.migration_buckets_total), response_out);
  AppendStat("table_migration_buckets_done",
             static_cast<std::uint64_t>(table.migration_buckets_done), response_out);
  AppendStat("table_hugepage_bytes", static_cast<std::uint64_t>(table.hugepage_bytes),
             response_out);
  AppendTierStats(response_out);
  for (const auto& hook : extra_stats_) {
    hook(response_out);  // server- and durability-layer counters
  }
  if (request.stats_arg == "detail") {
    AppendLatencyStats(response_out);
    for (const auto& hook : detail_stats_) {
      hook(response_out);  // durability-layer latency percentiles etc.
    }
  }
  AppendEnd(response_out);
}

void KvService::AppendLatencyStats(std::string* out) const {
  for (std::size_t i = 0; i < kCommandKinds; ++i) {
    const obs::HistogramSnapshot h = cmd_ns_[i].Snapshot();
    if (h.Count() == 0) {
      continue;
    }
    AppendHistStats(std::string("cmd_") + CommandName(static_cast<RequestType>(i)) + "_ns",
                    h, out);
  }
  const MapStatsSnapshot table = store_.Stats();
  AppendStat("table_lock_contended", static_cast<std::uint64_t>(table.lock_contended), out);
  AppendHistStats("table_lookup_ns", table.lookup_ns, out);
  AppendHistStats("table_insert_ns", table.insert_ns, out);
  AppendHistStats("table_expansion_pause_ns", table.expansion_pause_ns, out);
  AppendHistStats("table_migration_stall_ns", table.migration_stall_ns, out);
  AppendStat("table_migration_max_stall_ns",
             static_cast<std::uint64_t>(table.migration_max_stall_ns), out);
  // String-valued: the probe-kernel dispatch level lookups actually run with
  // (scalar / sse2 / avx2), resolved once from CPUID + CUCKOO_FORCE_PROBE.
  out->append("STAT probe_kernel ");
  out->append(simd::ProbeLevelName(simd::ActiveProbeLevel()));
  out->append("\r\n");
  if (tier_ != nullptr) {
    AppendHistStats("vlog_disk_read_ns", tier_->DiskReadLatency(), out);
  }
}

void KvService::AppendTierStats(std::string* out) const {
  if (tier_ == nullptr) {
    return;
  }
  const store::TieredStoreStats s = tier_->Stats();
  AppendStat("vlog_threshold_bytes", static_cast<std::uint64_t>(tier_->threshold_bytes()),
             out);
  AppendStat("vlog_segments", s.log.live_segments, out);
  AppendStat("vlog_total_bytes", s.log.total_bytes, out);
  AppendStat("vlog_dead_bytes", s.log.dead_bytes, out);
  AppendStat("vlog_appends", s.log.appends, out);
  AppendStat("vlog_append_bytes", s.log.append_bytes, out);
  AppendStat("vlog_torn_tail_bytes", s.log.torn_tail_bytes, out);
  AppendStat("vlog_tiered_sets", s.tiered_sets, out);
  AppendStat("vlog_hot_hits", s.hot_hits, out);
  AppendStat("vlog_hot_misses", s.hot_misses, out);
  AppendStat("vlog_disk_reads", s.disk_reads, out);
  AppendStat("vlog_disk_read_errors", s.disk_read_errors, out);
  AppendStat("vlog_gc_runs", s.gc_runs, out);
  AppendStat("vlog_gc_segments_retired", s.gc_segments, out);
  AppendStat("vlog_gc_records_scanned", s.gc_records_scanned, out);
  AppendStat("vlog_gc_records_relocated", s.gc_records_relocated, out);
  AppendStat("vlog_gc_failures", s.gc_failures, out);
  AppendStat("vlog_reclaimed_bytes", s.log.reclaimed_bytes, out);
  const auto hot = tier_->HotStats();
  AppendStat("vlog_cache_bytes", hot.bytes, out);
  AppendStat("vlog_cache_capacity_bytes", hot.capacity_bytes, out);
  AppendStat("vlog_cache_evictions", hot.evictions, out);
  out->append("STAT vlog_reader_backend ");
  out->append(tier_->reader_backend());
  out->append("\r\n");
}

void KvService::AppendSlowlogStats(std::string* out) const {
  AppendStat("slowlog_threshold_ns", slowlog_.threshold_ns(), out);
  AppendStat("slowlog_total", slowlog_.TotalLogged(), out);
  // One line per retained entry, oldest first:
  //   STAT slowlog_entry <id> <latency_ns> <op> [<key>]
  for (const obs::Slowlog::Entry& e : slowlog_.Entries()) {
    out->append("STAT slowlog_entry ");
    out->append(std::to_string(e.id));
    out->push_back(' ');
    out->append(std::to_string(e.latency_ns));
    out->push_back(' ');
    out->append(e.op);
    if (!e.detail.empty()) {
      out->push_back(' ');
      out->append(e.detail);
    }
    out->append("\r\n");
  }
}

void KvService::AppendMetricsText(std::string* out) const {
  obs::AppendGauge("cuckoo_kv_items", "Live entries in the store.",
                   static_cast<double>(ItemCount()), out);
  obs::AppendGauge("cuckoo_kv_table_bytes",
                   "Committed bucket-array bytes (key + 8-byte value handle per slot).",
                   static_cast<double>(TableBytes()), out);
  obs::AppendGauge("cuckoo_kv_value_bytes",
                   "Bytes of the value blocks (header + value or location) entries own.",
                   static_cast<double>(ValueBytes()), out);
  obs::AppendCounter("cuckoo_kv_get_hits_total", "get keys served from the table.",
                     GetHits(), out);
  obs::AppendCounter("cuckoo_kv_get_misses_total", "get keys not found (or expired).",
                     GetMisses(), out);
  obs::AppendCounter("cuckoo_kv_sets_total", "Successful set/cas stores.",
                     static_cast<std::uint64_t>(sets_.Sum()), out);
  obs::AppendCounter("cuckoo_kv_deletes_total", "Successful deletes.",
                     static_cast<std::uint64_t>(deletes_.Sum()), out);
  obs::AppendCounter("cuckoo_kv_expirations_total", "Entries reclaimed by lazy expiry.",
                     Expirations(), out);
  obs::AppendCounter("cuckoo_kv_slowlog_total",
                     "Commands that crossed the slowlog threshold.",
                     slowlog_.TotalLogged(), out);
  for (std::size_t i = 0; i < kCommandKinds; ++i) {
    const obs::HistogramSnapshot h = cmd_ns_[i].Snapshot();
    if (h.Count() == 0) {
      continue;
    }
    const std::string name = std::string("cuckoo_cmd_") +
                             CommandName(static_cast<RequestType>(i)) + "_seconds";
    obs::AppendLatencySummary(name, "End-to-end command latency.", h, 1e-9, out);
  }
  const MapStatsSnapshot table = store_.Stats();
  obs::AppendCounter("cuckoo_table_lookups_total", "Cuckoo table lookups.",
                     static_cast<std::uint64_t>(table.lookups), out);
  obs::AppendCounter("cuckoo_table_read_retries_total",
                     "Optimistic reads retried after a version bump.",
                     static_cast<std::uint64_t>(table.read_retries), out);
  obs::AppendCounter("cuckoo_table_path_searches_total", "BFS/DFS cuckoo path searches.",
                     static_cast<std::uint64_t>(table.path_searches), out);
  obs::AppendCounter("cuckoo_table_path_invalidations_total",
                     "Cuckoo paths invalidated by racing writers.",
                     static_cast<std::uint64_t>(table.path_invalidations), out);
  obs::AppendCounter("cuckoo_table_displacements_total", "Slot displacements executed.",
                     static_cast<std::uint64_t>(table.displacements), out);
  obs::AppendCounter("cuckoo_table_expansions_total", "Table expansions.",
                     static_cast<std::uint64_t>(table.expansions), out);
  obs::AppendCounter("cuckoo_table_lock_contended_total",
                     "Stripe-lock acquisitions that hit contention.",
                     static_cast<std::uint64_t>(table.lock_contended), out);
  obs::AppendLatencySummary("cuckoo_table_lookup_seconds",
                            "Sampled in-table lookup latency.", table.lookup_ns, 1e-9, out);
  obs::AppendLatencySummary("cuckoo_table_insert_seconds",
                            "Sampled in-table insert latency.", table.insert_ns, 1e-9, out);
  obs::AppendLatencySummary("cuckoo_table_expansion_pause_seconds",
                            "Write pause while the table doubled.",
                            table.expansion_pause_ns, 1e-9, out);
  obs::AppendCounter("cuckoo_table_migrations_total",
                     "Incremental expansion windows opened.",
                     static_cast<std::uint64_t>(table.migrations_started), out);
  obs::AppendCounter("cuckoo_table_migrations_completed_total",
                     "Incremental expansion windows fully drained.",
                     static_cast<std::uint64_t>(table.migrations_completed), out);
  obs::AppendCounter("cuckoo_table_migrations_force_finished_total",
                     "Migration windows closed by a bulk stop-the-world drain.",
                     static_cast<std::uint64_t>(table.migrations_force_finished), out);
  obs::AppendCounter("cuckoo_table_migrated_entries_total",
                     "Entries moved old-core to new-core during migration.",
                     static_cast<std::uint64_t>(table.migrated_entries), out);
  if (table.migration_buckets_total > 0) {
    obs::AppendGauge("cuckoo_table_migration_progress",
                     "Fraction of old-core buckets drained (current/last window).",
                     static_cast<double>(table.migration_buckets_done) /
                         static_cast<double>(table.migration_buckets_total),
                     out);
  }
  obs::AppendGauge("cuckoo_table_hugepage_bytes",
                   "Table bytes granted MADV_HUGEPAGE backing (0 without --hugepages "
                   "or when the kernel declined).",
                   static_cast<double>(table.hugepage_bytes), out);
  // One time-series per dispatch level, active level = 1: the idiomatic
  // Prometheus shape for an enum (obs::Append* have no label support, so the
  // lines are written directly).
  out->append("# HELP cuckoo_probe_kernel Active tag-probe dispatch level (1 = active).\n");
  out->append("# TYPE cuckoo_probe_kernel gauge\n");
  const simd::ProbeLevel active_level = simd::ActiveProbeLevel();
  for (const simd::ProbeLevel level :
       {simd::ProbeLevel::kScalar, simd::ProbeLevel::kSse2, simd::ProbeLevel::kAvx2}) {
    out->append("cuckoo_probe_kernel{level=\"");
    out->append(simd::ProbeLevelName(level));
    out->append(level == active_level ? "\"} 1\n" : "\"} 0\n");
  }
  obs::AppendGauge("cuckoo_table_migration_max_stall_seconds",
                   "Worst single-writer piggyback/help stall.",
                   static_cast<double>(table.migration_max_stall_ns) * 1e-9, out);
  obs::AppendLatencySummary("cuckoo_table_migration_stall_seconds",
                            "Per-writer migration piggyback/help stall.",
                            table.migration_stall_ns, 1e-9, out);
  if (tier_ != nullptr) {
    const store::TieredStoreStats s = tier_->Stats();
    obs::AppendCounter("cuckoo_vlog_tiered_sets_total",
                       "Sets whose value went to the value log.", s.tiered_sets, out);
    obs::AppendCounter("cuckoo_vlog_hot_hits_total",
                       "Tiered reads served from the hot value cache.", s.hot_hits, out);
    obs::AppendCounter("cuckoo_vlog_hot_misses_total",
                       "Tiered reads that missed the hot value cache.", s.hot_misses, out);
    obs::AppendCounter("cuckoo_vlog_disk_reads_total",
                       "Tiered reads served from the value log on disk.", s.disk_reads, out);
    obs::AppendCounter("cuckoo_vlog_disk_read_errors_total",
                       "Value-log reads that failed or failed verification.",
                       s.disk_read_errors, out);
    obs::AppendCounter("cuckoo_vlog_gc_segments_total",
                       "Value-log segments compacted and retired.", s.gc_segments, out);
    obs::AppendCounter("cuckoo_vlog_gc_records_relocated_total",
                       "Live records rewritten by value-log GC.", s.gc_records_relocated,
                       out);
    obs::AppendCounter("cuckoo_vlog_reclaimed_bytes_total",
                       "Bytes reclaimed by retiring value-log segments.",
                       s.log.reclaimed_bytes, out);
    obs::AppendGauge("cuckoo_vlog_segments", "Live value-log segment files.",
                     static_cast<double>(s.log.live_segments), out);
    obs::AppendGauge("cuckoo_vlog_total_bytes", "Bytes across live value-log segments.",
                     static_cast<double>(s.log.total_bytes), out);
    obs::AppendGauge("cuckoo_vlog_dead_bytes",
                     "Bytes in live segments no longer referenced by the table.",
                     static_cast<double>(s.log.dead_bytes), out);
    const auto hot = tier_->HotStats();
    obs::AppendGauge("cuckoo_vlog_cache_bytes", "Hot value cache footprint.",
                     static_cast<double>(hot.bytes), out);
    obs::AppendGauge("cuckoo_vlog_cache_capacity_bytes", "Hot value cache budget.",
                     static_cast<double>(hot.capacity_bytes), out);
    obs::AppendLatencySummary("cuckoo_vlog_disk_read_seconds",
                              "Value-log disk read latency (miss path).",
                              tier_->DiskReadLatency(), 1e-9, out);
  }
}

KvService::Connection::DriveStatus KvService::Connection::Drive(
    std::string_view bytes, std::string* out, std::shared_ptr<DeferredGet>* deferred) {
  parser_.Feed(bytes);
  Request request;
  for (;;) {
    ParseStatus status = parser_.Next(&request);
    if (status == ParseStatus::kNeedMore) {
      return DriveStatus::kIdle;
    }
    if (status == ParseStatus::kError) {
      AppendError(out);
      if (parser_.Broken()) {
        return DriveStatus::kIdle;  // caller should close the connection
      }
      continue;
    }
    const ProcessStatus status_p = service_->Process(request, out, deferred);
    if (status_p == ProcessStatus::kSuspended) {
      // Anything already parsed but not yet executed stays buffered in the
      // parser; the caller resumes with Drive("") after FinishDeferred.
      return DriveStatus::kSuspended;
    }
    if (status_p == ProcessStatus::kUpgradeReplication) {
      // The stream switched protocols; whatever is still buffered belongs to
      // the replication channel, not this parser.
      upgrade_start_lsn_ = request.repl_lsn;
      return DriveStatus::kUpgradeReplication;
    }
  }
}

}  // namespace cuckoo
