// CuckooMap — the paper's "cuckoo+" table (§4): a multi-reader/multi-writer
// B-way set-associative cuckoo hash table with
//
//   * optimistic lock-free reads validated by striped version counters,
//   * BFS cuckoo-path discovery performed entirely outside critical sections,
//   * per-displacement validate-and-execute under fine-grained bucket-pair
//     locks (at most L_BFS = 5 short critical sections per insert at the
//     default M = 2000, B = 8),
//   * striped spinlocks whose high-order bit doubles as the lock (§4.4),
//   * optional whole-table expansion (the §7 libcuckoo extension), and
//   * a LockedView exclusive iteration facility (also §7).
//
// Thread safety: all public member functions are safe to call concurrently
// except construction, destruction, and Clear()/Rehash() racing with reads
// that began before the call (see the retired-core note below).
#ifndef SRC_CUCKOO_CUCKOO_MAP_H_
#define SRC_CUCKOO_CUCKOO_MAP_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/cpu.h"
#include "src/common/debug_checks.h"
#include "src/common/hash.h"
#include "src/common/mutex.h"
#include "src/common/random.h"
#include "src/common/striped_locks.h"
#include "src/common/test_points.h"
#include "src/common/thread_annotations.h"
#include "src/cuckoo/path_search.h"
#include "src/cuckoo/simd_probe.h"
#include "src/cuckoo/stats.h"
#include "src/cuckoo/table_core.h"
#include "src/cuckoo/types.h"

namespace cuckoo {

template <typename K, typename V, typename Hash = DefaultHash<K>,
          typename KeyEqual = std::equal_to<K>, int B = 8>
class CuckooMap {
 public:
  using KeyType = K;
  using ValueType = V;
  using Core = TableCore<K, V, B>;
  static constexpr int kSlotsPerBucket = B;

  struct Options {
    // log2 of the initial bucket count; slots = buckets * B.
    std::size_t initial_bucket_count_log2 = 16;
    // Lock-stripe table size (the paper's default is 2048).
    std::size_t stripe_count = LockStripes::kDefaultStripeCount;
    // M: maximum slots examined per path search before declaring "too full".
    std::size_t max_search_slots = 2000;
    // Per-walk hop cap for the DFS ablation mode (MemC3 used 250).
    int dfs_max_path_len = 250;
    SearchMode search_mode = SearchMode::kBfs;
    ReadMode read_mode = ReadMode::kOptimistic;
    bool prefetch = true;
    // Grow (×2 rehash) instead of returning kTableFull when a path search
    // fails. MemC3/the paper's eval table is fixed-size; libcuckoo grows.
    bool auto_expand = true;
    // Request 2 MB huge-page backing for the table arrays (advisory; large
    // cores only — see src/common/page_alloc.h).
    bool hugepages = false;
  };

  explicit CuckooMap(Options opts = Options{}, Hash hasher = Hash{}, KeyEqual eq = KeyEqual{})
      : opts_(opts),
        hasher_(std::move(hasher)),
        eq_(std::move(eq)),
        stripes_(opts.stripe_count),
        core_(new Core(opts.initial_bucket_count_log2, opts.hugepages)) {
    stripes_.SetContentionCounter(stats_.ContentionCounter());
    stats_.SetHugepageBytes(core_.load(std::memory_order_relaxed)->hugepage_bytes());
  }

  CuckooMap(const CuckooMap&) = delete;
  CuckooMap& operator=(const CuckooMap&) = delete;

  ~CuckooMap() { delete core_.load(std::memory_order_relaxed); }

  // ----- Lookup ------------------------------------------------------------

  // Copy the value for `key` into *out. Returns false if absent.
  bool Find(const K& key, V* out) const {
    const std::uint64_t t0 = stats_.MaybeStartLookupTimer();
    const HashedKey h = HashedKey::From(hasher_(key));
    bool hit = (opts_.read_mode == ReadMode::kOptimistic) ? FindOptimistic(h, key, out)
                                                          : FindLocked(h, key, out);
    stats_.RecordLookup(hit);
    stats_.FinishLookupTimer(t0);
    return hit;
  }

  bool Contains(const K& key) const {
    V ignored;
    return Find(key, &ignored);
  }

  // Batched lookup with software pipelining (MemC3-style): hashes and bucket
  // prefetches for key i+D are issued while key i is probed, hiding DRAM
  // latency on out-of-cache tables. Writes per-key results into values[] and
  // found[]; returns the hit count. Concurrency-safe like Find.
  std::size_t FindBatch(const K* keys, std::size_t count, V* values, bool* found) const {
    // Three-stage pipeline, retuned for the vector probe kernel. D ops ahead,
    // hash and pull only the two tag lines; P ops ahead (when the tag lines
    // have likely arrived), racily movemask them and prefetch key/value lines
    // for candidate slots only — most misses match no tag, so this skips
    // their bucket lines entirely instead of blindly dragging in four lines
    // per key. The peek is a pure prefetch hint: it may race with writers or
    // an expansion swap (it recomputes buckets against the core it loads, so
    // indices stay in range), and the head-of-pipe probe re-reads everything
    // under version validation.
    constexpr std::size_t kDepth = 8;  // hash + tag-line prefetch distance
    constexpr std::size_t kPeek = 4;   // candidate key/value prefetch distance
    HashedKey ring[kDepth];

    auto stage = [&](std::size_t i) {
      ring[i % kDepth] = HashedKey::From(hasher_(keys[i]));
      Core* core = core_.load(std::memory_order_acquire);
      const std::size_t b1 = ring[i % kDepth].Bucket1(core->mask);
      core->PrefetchTags(b1);
      core->PrefetchTags(core->AltBucket(b1, ring[i % kDepth].tag));
    };
    auto peek = [&](std::size_t i) {
      const HashedKey& h = ring[i % kDepth];
      Core* core = core_.load(std::memory_order_acquire);
      const std::size_t b1 = h.Bucket1(core->mask);
      const std::size_t b2 = core->AltBucket(b1, h.tag);
      std::uint32_t cand =
          simd::MatchTagMask2<B>(core->LoadTagsVector(b1), core->LoadTagsVector(b2), h.tag);
      while (cand != 0) {
        const int bit = simd::NextCandidate(&cand);
        core->PrefetchCandidate(bit < B ? b1 : b2, bit < B ? bit : bit - B);
      }
    };

    const std::size_t lead = count < kDepth ? count : kDepth;
    for (std::size_t i = 0; i < lead; ++i) {
      stage(i);
    }
    for (std::size_t i = 0; i < (count < kPeek ? count : kPeek); ++i) {
      peek(i);
    }
    std::size_t hits = 0;
    for (std::size_t i = 0; i < count; ++i) {
      // Probe before staging: ring[i % kDepth] is the slot stage(i + kDepth)
      // would overwrite. peek(i + kPeek) reads an entry staged kDepth - kPeek
      // iterations ago, untouched until stage(i + kDepth + kPeek).
      bool hit = (opts_.read_mode == ReadMode::kOptimistic)
                     ? FindOptimistic(ring[i % kDepth], keys[i], &values[i])
                     : FindLocked(ring[i % kDepth], keys[i], &values[i]);
      if (i + kDepth < count) {
        stage(i + kDepth);
      }
      if (i + kPeek < count) {
        peek(i + kPeek);
      }
      found[i] = hit;
      hits += hit ? 1 : 0;
      stats_.RecordLookup(hit);
    }
    // Distribution of hits per batched (prefetch-pipelined) lookup call.
    stats_.RecordBatchHits(hits);
    return hits;
  }

  // ----- Mutation ----------------------------------------------------------

  // Insert key -> value. kKeyExists leaves the existing mapping untouched.
  InsertResult Insert(const K& key, const V& value) {
    return DoInsert(key, value, /*overwrite_existing=*/false);
  }

  // Insert or overwrite. Returns kOk (inserted), kKeyExists (overwritten), or
  // kTableFull.
  InsertResult Upsert(const K& key, const V& value) {
    return DoInsert(key, value, /*overwrite_existing=*/true);
  }

  // Atomically modify the value of `key` in place with `fn(V&)` while holding
  // its bucket locks, or insert `initial` if absent (libcuckoo's upsert).
  // Returns kOk if inserted, kKeyExists if modified, kTableFull on failure.
  template <typename Fn>
  InsertResult UpsertWith(const K& key, Fn&& fn, const V& initial) {
    const HashedKey h = HashedKey::From(hasher_(key));
    for (;;) {
      Core* core = core_.load(std::memory_order_acquire);
      const std::size_t b1 = h.Bucket1(core->mask);
      const std::size_t b2 = core->AltBucket(b1, h.tag);
      {
        PairGuard guard(stripes_, b1, b2);
        if (core_.load(std::memory_order_relaxed) != core) {
          guard.ReleaseNoModify();
          continue;
        }
        std::size_t bucket;
        int slot;
        if (FindSlotExclusive(*core, b1, b2, h.tag, key, &bucket, &slot)) {
          // Load/modify/store through the relaxed accessors rather than
          // handing `fn` a reference: a concurrent optimistic reader may be
          // copying these bytes, and the mutation must stay tear-tolerant.
          V v = core->LoadValue(bucket, slot);
          fn(v);
          core->WriteValue(bucket, slot, v);
          return InsertResult::kKeyExists;
        }
      }
      // Absent: fall through to a normal insert; on a kKeyExists race the
      // loop re-runs and modifies the now-present value.
      InsertResult r = DoInsert(key, initial, /*overwrite_existing=*/false);
      if (r != InsertResult::kKeyExists) {
        return r;
      }
    }
  }

  // Overwrite the value of an existing key. Returns false if absent.
  bool Update(const K& key, const V& value) {
    const HashedKey h = HashedKey::From(hasher_(key));
    for (;;) {
      Core* core = core_.load(std::memory_order_acquire);
      const std::size_t b1 = h.Bucket1(core->mask);
      const std::size_t b2 = core->AltBucket(b1, h.tag);
      PairGuard guard(stripes_, b1, b2);
      if (core_.load(std::memory_order_relaxed) != core) {
        guard.ReleaseNoModify();
        continue;
      }
      std::size_t bucket;
      int slot;
      if (!FindSlotExclusive(*core, b1, b2, h.tag, key, &bucket, &slot)) {
        guard.ReleaseNoModify();
        return false;
      }
      core->WriteValue(bucket, slot, value);
      return true;
    }
  }

  // Remove `key`. Returns true if it was present.
  bool Erase(const K& key) {
    const HashedKey h = HashedKey::From(hasher_(key));
    for (;;) {
      Core* core = core_.load(std::memory_order_acquire);
      const std::size_t b1 = h.Bucket1(core->mask);
      const std::size_t b2 = core->AltBucket(b1, h.tag);
      PairGuard guard(stripes_, b1, b2);
      if (core_.load(std::memory_order_relaxed) != core) {
        guard.ReleaseNoModify();
        continue;
      }
      std::size_t bucket;
      int slot;
      if (!FindSlotExclusive(*core, b1, b2, h.tag, key, &bucket, &slot)) {
        guard.ReleaseNoModify();
        return false;
      }
      core->ClearSlot(bucket, slot);
      size_.Decrement();
      stats_.RecordErase();
      return true;
    }
  }

  // ----- Capacity ----------------------------------------------------------

  std::size_t Size() const noexcept {
    std::int64_t n = size_.Sum();
    return n < 0 ? 0 : static_cast<std::size_t>(n);
  }

  std::size_t SlotCount() const noexcept {
    return core_.load(std::memory_order_acquire)->slot_count();
  }

  std::size_t BucketCount() const noexcept {
    return core_.load(std::memory_order_acquire)->bucket_count();
  }

  double LoadFactor() const noexcept {
    return static_cast<double>(Size()) / static_cast<double>(SlotCount());
  }

  // Grow until at least `n` items fit below ~95% occupancy.
  void Reserve(std::size_t n) {
    std::size_t needed_slots =
        static_cast<std::size_t>(static_cast<double>(n) / 0.95) + B;
    while (SlotCount() < needed_slots) {
      Expand(core_.load(std::memory_order_acquire));
    }
  }

  // Remove all items (buckets and capacity retained).
  void Clear() {
    MutexLock maintenance(maintenance_mutex_);
    AllGuard all(stripes_);
    Core* core = core_.load(std::memory_order_relaxed);
    for (std::size_t bkt = 0; bkt < core->bucket_count(); ++bkt) {
      for (int s = 0; s < B; ++s) {
        core->ClearSlot(bkt, s);
      }
    }
    size_.Reset();
  }

  // Approximate heap usage: live core + stripes. Retired cores stay mapped
  // but their pages are returned to the kernel, so they are not counted.
  std::size_t HeapBytes() const noexcept {
    return core_.load(std::memory_order_acquire)->HeapBytes() +
           stripes_.stripe_count() * sizeof(PaddedVersionLock);
  }

  // Resident bytes of superseded cores (PageBlock::ResidentBytes). Only
  // heap-backed small cores and pages a stale reader touched stay resident.
  std::size_t RetiredResidentBytes() const {
    MutexLock maintenance(maintenance_mutex_);
    std::size_t bytes = 0;
    for (const auto& core : retired_) {
      bytes += core->ResidentBytes();
    }
    return bytes;
  }

  // ----- Introspection -----------------------------------------------------

  MapStatsSnapshot Stats() const { return stats_.Read(); }
  void ResetStats() { stats_.Reset(); }
  // Toggle the sampled lookup/insert latency timers (counters stay on).
  void SetLatencyProfiling(bool enabled) { stats_.SetLatencyProfiling(enabled); }
  const Options& options() const noexcept { return opts_; }

  // Maximum cuckoo-path length the BFS can produce at the configured M (Eq. 2).
  std::size_t MaxBfsDepth() const noexcept {
    return MaxBfsPathLength(B, opts_.max_search_slots);
  }

  // Full-table invariant check for tests: acquires every stripe, then
  // verifies per-slot key/tag/bucket consistency and the size counter.
  // Aborts with a diagnostic on violation (active in all build types).
  void AssertInvariants() {
    MutexLock maintenance(maintenance_mutex_);
    AllGuard all(stripes_);
    Core* core = core_.load(std::memory_order_relaxed);
    core->AssertInvariants(static_cast<std::int64_t>(Size()));
    for (std::size_t bkt = 0; bkt < core->bucket_count(); ++bkt) {
      for (int s = 0; s < B; ++s) {
        const std::uint8_t tag = core->Tag(bkt, s);
        if (tag == 0) {
          continue;
        }
        const HashedKey h = HashedKey::From(hasher_(core->KeyRef(bkt, s)));
        CUCKOO_CHECK(h.tag == tag, "stored tag must be the key's partial key");
        const std::size_t b1 = h.Bucket1(core->mask);
        CUCKOO_CHECK(bkt == b1 || bkt == core->AltBucket(b1, h.tag),
                     "item must reside in one of its two candidate buckets");
      }
    }
  }

  // ----- Exclusive view (§7 libcuckoo-style iteration) ----------------------

  // Holds every lock stripe for its lifetime: all concurrent operations block.
  //
  // Thread-safety analysis cannot track scoped capabilities stored as
  // members (it models them as function-local only), so the constructor and
  // the lock-requiring methods are excluded from analysis; the guard members
  // still provide the actual exclusion for the view's whole lifetime.
  class LockedView {
   public:
    explicit LockedView(CuckooMap& map) NO_THREAD_SAFETY_ANALYSIS
        : map_(map), maintenance_(map.maintenance_mutex_), all_(map.stripes_) {
      core_ = map_.core_.load(std::memory_order_relaxed);
    }
    LockedView(const LockedView&) = delete;
    LockedView& operator=(const LockedView&) = delete;

    class Iterator {
     public:
      using value_type = std::pair<const K&, V&>;

      Iterator(Core* core, std::size_t bucket, int slot) noexcept
          : core_(core), bucket_(bucket), slot_(slot) {
        SkipToOccupied();
      }

      value_type operator*() const noexcept {
        return {core_->KeyRef(bucket_, slot_), core_->MutableValueRef(bucket_, slot_)};
      }

      Iterator& operator++() noexcept {
        ++slot_;
        SkipToOccupied();
        return *this;
      }

      bool operator==(const Iterator& other) const noexcept {
        return bucket_ == other.bucket_ && slot_ == other.slot_;
      }
      bool operator!=(const Iterator& other) const noexcept { return !(*this == other); }

     private:
      void SkipToOccupied() noexcept {
        while (bucket_ < core_->bucket_count()) {
          if (slot_ >= B) {
            slot_ = 0;
            ++bucket_;
            continue;
          }
          if (core_->Tag(bucket_, slot_) != 0) {
            return;
          }
          ++slot_;
        }
        slot_ = 0;  // canonical end() state
      }

      Core* core_;
      std::size_t bucket_;
      int slot_;
    };

    Iterator begin() noexcept { return Iterator(core_, 0, 0); }
    Iterator end() noexcept { return Iterator(core_, core_->bucket_count(), 0); }

    std::size_t Size() const noexcept { return map_.Size(); }

    bool Find(const K& key, V* out) const NO_THREAD_SAFETY_ANALYSIS {
      const HashedKey h = HashedKey::From(map_.hasher_(key));
      const std::size_t b1 = h.Bucket1(core_->mask);
      const std::size_t b2 = core_->AltBucket(b1, h.tag);
      std::size_t bucket;
      int slot;
      if (!map_.FindSlotExclusive(*core_, b1, b2, h.tag, key, &bucket, &slot)) {
        return false;
      }
      *out = core_->ValueRef(bucket, slot);
      return true;
    }

    // Exclusive insert; never expands (the view pins the core). Returns
    // kTableFull if no path exists.
    InsertResult Insert(const K& key, const V& value) NO_THREAD_SAFETY_ANALYSIS {
      const HashedKey h = HashedKey::From(map_.hasher_(key));
      const std::size_t b1 = h.Bucket1(core_->mask);
      const std::size_t b2 = core_->AltBucket(b1, h.tag);
      std::size_t bucket;
      int slot;
      if (map_.FindSlotExclusive(*core_, b1, b2, h.tag, key, &bucket, &slot)) {
        return InsertResult::kKeyExists;
      }
      if (!map_.ExclusiveInsert(*core_, h, key, value)) {
        return InsertResult::kTableFull;
      }
      map_.size_.Increment();
      return InsertResult::kOk;
    }

    bool Erase(const K& key) NO_THREAD_SAFETY_ANALYSIS {
      const HashedKey h = HashedKey::From(map_.hasher_(key));
      const std::size_t b1 = h.Bucket1(core_->mask);
      const std::size_t b2 = core_->AltBucket(b1, h.tag);
      std::size_t bucket;
      int slot;
      if (!map_.FindSlotExclusive(*core_, b1, b2, h.tag, key, &bucket, &slot)) {
        return false;
      }
      core_->ClearSlot(bucket, slot);
      map_.size_.Decrement();
      return true;
    }

   private:
    CuckooMap& map_;
    MutexLock maintenance_;
    AllGuard all_;
    Core* core_;
  };

  LockedView Lock() { return LockedView(*this); }

 private:
  // ----- Read paths ---------------------------------------------------------

  bool FindOptimistic(const HashedKey& h, const K& key, V* out) const {
    for (;;) {
      Core* core = core_.load(std::memory_order_acquire);
      const std::size_t b1 = h.Bucket1(core->mask);
      const std::size_t b2 = core->AltBucket(b1, h.tag);
      const std::size_t s1 = stripes_.StripeFor(b1);
      const std::size_t s2 = stripes_.StripeFor(b2);

      const std::uint64_t v1 = stripes_.Stripe(s1).AwaitVersion();
      const std::uint64_t v2 = (s2 == s1) ? v1 : stripes_.Stripe(s2).AwaitVersion();
      // Window: a writer committing here must make the validation below fail.
      CUCKOO_TEST_POINT(TestPoint::kReadAfterVersionSnapshot);

      if (opts_.prefetch) {
        core->PrefetchBucket(b2);
      }
      bool found = false;
      V value{};
      // One vectorized probe answers both buckets: candidate bits [0, B) are
      // b1's tag matches, [B, 2B) are b2's, walked in probe order. The tag
      // snapshots are tear-tolerant like every other load in this window —
      // the version validation below rejects any torn read.
      std::uint32_t cand =
          simd::MatchTagMask2<B>(core->LoadTagsVector(b1), core->LoadTagsVector(b2), h.tag);
      while (cand != 0) {
        const int bit = simd::NextCandidate(&cand);
        const std::size_t bucket = bit < B ? b1 : b2;
        const int s = bit < B ? bit : bit - B;
        if (eq_(core->LoadKey(bucket, s), key)) {
          value = core->LoadValue(bucket, s);
          found = true;
          break;
        }
      }

      CUCKOO_TEST_POINT(TestPoint::kReadBeforeValidate);
      std::atomic_thread_fence(std::memory_order_acquire);
      const bool valid = core_.load(std::memory_order_relaxed) == core &&
                         stripes_.Stripe(s1).LoadRaw() == v1 &&
                         stripes_.Stripe(s2).LoadRaw() == v2;
      if (valid) {
        if (found) {
          *out = value;
        }
        return found;
      }
      stats_.RecordReadRetry();
    }
  }

  bool FindLocked(const HashedKey& h, const K& key, V* out) const {
    for (;;) {
      Core* core = core_.load(std::memory_order_acquire);
      const std::size_t b1 = h.Bucket1(core->mask);
      const std::size_t b2 = core->AltBucket(b1, h.tag);
      PairGuard guard(stripes_, b1, b2);
      if (core_.load(std::memory_order_relaxed) != core) {
        guard.ReleaseNoModify();
        continue;
      }
      std::size_t bucket;
      int slot;
      bool found = FindSlotExclusive(*core, b1, b2, h.tag, key, &bucket, &slot);
      if (found) {
        *out = core->ValueRef(bucket, slot);
      }
      guard.ReleaseNoModify();
      return found;
    }
  }

  // Locate `key` in b1/b2 while holding their locks (or any exclusive view).
  bool FindSlotExclusive(const Core& core, std::size_t b1, std::size_t b2, std::uint8_t tag,
                         const K& key, std::size_t* bucket, int* slot) const
      REQUIRES(stripes_) {
    std::uint32_t cand =
        simd::MatchTagMask2<B>(core.LoadTagsVector(b1), core.LoadTagsVector(b2), tag);
    while (cand != 0) {
      const int bit = simd::NextCandidate(&cand);
      const std::size_t b = bit < B ? b1 : b2;
      const int s = bit < B ? bit : bit - B;
      if (eq_(core.KeyRef(b, s), key)) {
        *bucket = b;
        *slot = s;
        return true;
      }
    }
    return false;
  }

  // ----- Insert machinery ----------------------------------------------------

  InsertResult DoInsert(const K& key, const V& value, bool overwrite_existing) {
    const std::uint64_t t0 = stats_.MaybeStartInsertTimer();
    const InsertResult r = DoInsertLoop(key, value, overwrite_existing);
    stats_.FinishInsertTimer(t0);
    return r;
  }

  InsertResult DoInsertLoop(const K& key, const V& value, bool overwrite_existing) {
    const HashedKey h = HashedKey::From(hasher_(key));
    std::size_t executed_path_len = 0;  // displacements performed for this insert
    CuckooPath path;  // reused across retries to avoid reallocation
    for (;;) {
      Core* core = core_.load(std::memory_order_acquire);
      const std::size_t b1 = h.Bucket1(core->mask);
      const std::size_t b2 = core->AltBucket(b1, h.tag);

      {
        PairGuard guard(stripes_, b1, b2);
        if (core_.load(std::memory_order_relaxed) != core) {
          guard.ReleaseNoModify();
          continue;
        }
        std::size_t bucket;
        int slot;
        if (FindSlotExclusive(*core, b1, b2, h.tag, key, &bucket, &slot)) {
          if (overwrite_existing) {
            core->WriteValue(bucket, slot, value);
            stats_.RecordDuplicateInsert();
            return InsertResult::kKeyExists;
          }
          guard.ReleaseNoModify();
          stats_.RecordDuplicateInsert();
          return InsertResult::kKeyExists;
        }
        for (std::size_t b : {b1, b2}) {
          int s = core->FindEmptySlot(b);
          if (s >= 0) {
            core->WriteSlot(b, s, h.tag, key, value);
            size_.Increment();
            stats_.RecordInsert();
            stats_.RecordPathLength(executed_path_len);
            return InsertResult::kOk;
          }
        }
        guard.ReleaseNoModify();
      }

      // Both buckets full: discover a cuckoo path with no lock held (§4.3.1).
      stats_.RecordPathSearch();
      path.Clear();
      bool found;
      if (opts_.search_mode == SearchMode::kBfs) {
        found = BfsSearch(*core, b1, b2, opts_.max_search_slots, opts_.prefetch, &path);
      } else {
        found = DfsSearch(*core, b1, b2, opts_.dfs_max_path_len, ThreadRng(), &path);
      }

      if (!found) {
        if (!opts_.auto_expand) {
          stats_.RecordInsertFailure();
          return InsertResult::kTableFull;
        }
        Expand(core);
        continue;
      }

      // Window between discovery and the first displacement lock: concurrent
      // writers may consume the hole or move path items; ExecutePath's
      // per-hop validation must then fail (Appendix B).
      CUCKOO_TEST_POINT(TestPoint::kInsertAfterPathDiscovery);
      if (ExecutePath(core, path)) {
        executed_path_len += path.Displacements();
        // A slot is now free in b1 or b2 (unless stolen); retry the fast path.
      } else {
        stats_.RecordPathInvalidation();
      }
    }
  }

  // Validate-and-execute each displacement of `path` from the hole backwards,
  // locking one bucket pair at a time (Algorithm 2's VALIDATE_EXECUTE,
  // decomposed per §4.4). Returns false as soon as any hop fails validation.
  bool ExecutePath(Core* core, const CuckooPath& path) {
    if (path.hops.empty()) {
      // A path that was never found moves nothing; without this guard the
      // countdown below would start at SIZE_MAX and walk out of bounds.
      return false;
    }
    for (std::size_t i = path.hops.size() - 1; i-- > 0;) {
      const PathHop& from = path.hops[i];
      const PathHop& to = path.hops[i + 1];
      PairGuard guard(stripes_, from.bucket, to.bucket);
      if (core_.load(std::memory_order_relaxed) != core) {
        guard.ReleaseNoModify();
        return false;
      }
      // The source slot must still hold an item with the discovered tag (the
      // tag alone determines the alternate bucket, so a tag match guarantees
      // the move remains correct), and the destination must still be free.
      if (from.tag == 0 || core->Tag(from.bucket, from.slot) != from.tag ||
          core->Tag(to.bucket, to.slot) != 0) {
        guard.ReleaseNoModify();
        return false;
      }
      core->MoveSlot(from.bucket, from.slot, to.bucket, to.slot);
      stats_.RecordDisplacements(1);
    }
    return true;
  }

  // ----- Expansion -----------------------------------------------------------

  // Exclusive greedy insert used while holding every stripe (expansion,
  // LockedView). No locking needed, but hop validation still is: a BFS path
  // can revisit the same slot via a cycle in the cuckoo graph, in which case
  // an earlier executed hop invalidates a later one. Executed hops are
  // individually correct displacements, so on failure we just search again
  // over the (now perturbed) table.
  bool ExclusiveInsert(Core& core, const HashedKey& h, const K& key, const V& value)
      REQUIRES(stripes_) {
    for (;;) {
      const std::size_t b1 = h.Bucket1(core.mask);
      const std::size_t b2 = core.AltBucket(b1, h.tag);
      for (std::size_t b : {b1, b2}) {
        int s = core.FindEmptySlot(b);
        if (s >= 0) {
          core.WriteSlot(b, s, h.tag, key, value);
          return true;
        }
      }
      CuckooPath path;
      if (!BfsSearch(core, b1, b2, opts_.max_search_slots, opts_.prefetch, &path)) {
        return false;
      }
      const PathHop& hole = path.hops.front();
      if (!ExecutePathExclusive(core, path) || core.Tag(hole.bucket, hole.slot) != 0) {
        continue;  // self-overlapping path; table perturbed, search again
      }
      core.WriteSlot(hole.bucket, hole.slot, h.tag, key, value);
      return true;
    }
  }

  // Double the table (re-doubling if the rehash itself fails). No-op if
  // another thread already replaced `expected_core`.
  void Expand(Core* expected_core) {
    MutexLock maintenance(maintenance_mutex_);
    if (core_.load(std::memory_order_acquire) != expected_core) {
      return;  // somebody else expanded while we waited
    }
    std::size_t new_log2 = 1;
    while ((std::size_t{1} << new_log2) <= expected_core->mask) {
      ++new_log2;
    }
    ++new_log2;
    // First-attempt core allocated and populated before the stripes are
    // taken, so neither the allocation nor its page faults extend the
    // writer-visible pause. (Retry allocations after a failed rehash are
    // rare enough to stay inside.)
    auto fresh = std::make_unique<Core>(new_log2, opts_.hugepages);
    fresh->Populate();
    CUCKOO_TEST_POINT(TestPoint::kExpansionCoreAllocated);
    // Expansion pause = the full-table lock hold: every writer (and locked
    // reader) is stalled from here until the stripes release.
    const std::uint64_t pause_start = NowNanos();
    Core* old_core = core_.load(std::memory_order_relaxed);
    {
      AllGuard all(stripes_);
      // Rehash failed (pathological collisions): the partially filled core
      // holds copies, so just drop it and retry one size larger.
      while (!RehashInto(*old_core, *fresh)) {
        fresh = std::make_unique<Core>(++new_log2, opts_.hugepages);
      }
      retired_.emplace_back(old_core);
      stats_.SetHugepageBytes(fresh->hugepage_bytes());
      core_.store(fresh.release(), std::memory_order_release);
      stats_.RecordExpansion();
      stats_.RecordExpansionPauseNanos(NowNanos() - pause_start);
    }
    // Outside the pause: every locked path revalidates core_ before touching
    // a bucket, and a stale optimistic reader that reads zeros fails its
    // core_ check like one that reads the old bytes.
    old_core->Decommit();
  }

  bool RehashInto(const Core& from, Core& to) REQUIRES(stripes_) {
    for (std::size_t bkt = 0; bkt < from.bucket_count(); ++bkt) {
      for (int s = 0; s < B; ++s) {
        if (from.Tag(bkt, s) == 0) {
          continue;
        }
        const K& key = from.KeyRef(bkt, s);
        const HashedKey h = HashedKey::From(hasher_(key));
        if (!ExclusiveInsert(to, h, key, from.ValueRef(bkt, s))) {
          return false;
        }
      }
    }
    return true;
  }

  static Xorshift128Plus& ThreadRng() {
    thread_local Xorshift128Plus rng(Mix64(0xc0ffeeull + CurrentThreadId()));
    return rng;
  }

  Options opts_;
  Hash hasher_;
  KeyEqual eq_;
  mutable LockStripes stripes_;
  std::atomic<Core*> core_;
  // Serializes expansion / Clear / LockedView creation against each other.
  mutable Mutex maintenance_mutex_;
  // Old cores are kept mapped until destruction, with their pages returned
  // to the kernel: an optimistic reader may still be dereferencing one (its
  // validation will fail and it will retry, but the address must remain
  // mapped). Their address space is bounded by a geometric series — at most
  // the live core's size.
  std::vector<std::unique_ptr<Core>> retired_ GUARDED_BY(maintenance_mutex_);
  PerThreadCounter size_;
  mutable MapStats stats_;
};

}  // namespace cuckoo

#endif  // SRC_CUCKOO_CUCKOO_MAP_H_
