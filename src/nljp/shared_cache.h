#ifndef SMARTICEBERG_NLJP_SHARED_CACHE_H_
#define SMARTICEBERG_NLJP_SHARED_CACHE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/value.h"
#include "src/exec/governor.h"
#include "src/exec/key_codec.h"
#include "src/obs/metrics.h"

namespace iceberg {

/// One G_R-partition of a cached inner-query result (Section 6 /
/// Appendix C): the algebraic partial state per aggregate slot, or the
/// final values when the operator is not in algebraic mode.
struct NljpPartitionPayload {
  Row gr_key;                  // G_R values (empty when G_R is empty)
  std::vector<Row> partials;   // per aggregate: algebraic partial state
  std::vector<Value> finals;   // used instead when not in algebraic mode
  bool phi_pass = false;       // partition-level HAVING outcome
};

/// One memo/prune cache entry: the full Q_R(b) result for a binding, plus
/// the "unpromising" verdict that makes it a pruning witness
/// (Definition 5). Immutable once cached: memo hits borrow it.
struct NljpCacheEntry {
  Row binding;
  std::vector<NljpPartitionPayload> partitions;
  bool unpromising = false;
};
using NljpCacheEntryPtr = std::shared_ptr<const NljpCacheEntry>;

/// One binding as the cache sees it: the keys the caller encoded once
/// (NLJP's Q_B does so per binding) and reuses for the memo probe, the
/// witness probe and the insert. Each PackedKey is set exactly when its
/// Options codec is usable; otherwise the cache keys by `binding`.
struct NljpBindingProbe {
  const Row* binding = nullptr;         // J_L values (Row-keyed paths)
  const PackedKey* memo_key = nullptr;  // Options::binding_codec's key
  const PackedKey* eq_key = nullptr;    // Options::eq_codec's key
  /// p>= values and bits (fme::CompiledSubsumption::Decode); an insert
  /// stores them with the witness, so prune tests never decode.
  const double* decoded = nullptr;
  uint8_t decoded_bits = 0;
};

/// Byte footprint of one entry, charged against the governor's memory
/// budget.
size_t NljpCacheEntryBytes(const NljpCacheEntry& entry);

/// The NLJP operator's memo/prune cache C, at every thread count: entries
/// are sharded by binding hash across stripes, each with its own mutex and
/// FIFO, so pruning witnesses and memoized partitions found by one worker
/// publish to all the others. With one stripe the FIFO is a single global
/// oldest-first order and every operation is deterministic.
///
/// Safety: the cache is strictly advisory (Theorem 3's one-sided
/// guarantee — a cached unpromising witness only ever *skips* work whose
/// answer is already known to be empty, and a memo hit replays an exact
/// result). A racy miss — a lookup that runs before another worker's
/// insert lands — therefore costs one redundant inner evaluation and can
/// never produce a wrong result, which is why lookups take only one
/// stripe lock and no global coordination.
///
/// Concurrency invariants:
///  - at most one stripe mutex is ever held at a time (memo and witness
///    stripes are separate lock domains, acquired sequentially);
///  - the governor's Reserve/TryReserve is never called with a stripe
///    mutex held (Release is lock-free), so the governor's reclaimer may
///    call Shed() without deadlock;
///  - eviction/shed counters and entry/byte totals are atomics, so the
///    totals reported into NljpStats are exact even under races.
class SharedNljpCache {
 public:
  struct Options {
    /// Stripe count; rounded up to a power of two, at least 1.
    size_t stripes = 16;
    /// Global bound on live entries (0 = unbounded). FIFO order is
    /// per-stripe; the bound itself is exact at quiescence: every insert
    /// that pushes the total over the bound retires an oldest entry
    /// before returning.
    size_t max_entries = 0;
    /// Maintain the binding -> entry hash index (memoization).
    bool memo_index = true;
    /// Fig. 4's ablation without the cache index ("CI"): Lookup scans the
    /// live entries instead of probing the index.
    bool scan_lookup = false;
    /// Maintain unpromising-witness buckets (pruning).
    bool witness_index = false;
    /// Binding positions on which the derived p>= requires equality;
    /// witnesses are bucketed by these values (lossless accelerator).
    std::vector<size_t> eq_positions;
    /// Packed-key codecs (all-numeric keys): when usable, the memo index
    /// and witness buckets are keyed by fixed-width PackedKeys instead of
    /// Rows. Purely an index representation change — slot payloads, FIFO
    /// order, and the exact global entry bound are untouched.
    KeyCodec binding_codec;
    KeyCodec eq_codec;
    /// Doubles per decoded witness (fme::CompiledSubsumption::width()).
    size_t decoded_width = 0;
    /// Optional governor: entries are charged as advisory state.
    QueryGovernor* governor = nullptr;
  };

  explicit SharedNljpCache(Options options);
  ~SharedNljpCache();  // releases all remaining governor reservations
  SharedNljpCache(const SharedNljpCache&) = delete;
  SharedNljpCache& operator=(const SharedNljpCache&) = delete;

  /// Memo lookup: the cached entry for the binding, or null. The entry is
  /// borrowed, not copied; it stays valid for as long as the caller holds
  /// the pointer, even if another worker evicts its slot meanwhile. With
  /// Options::scan_lookup, scans every stripe's live slots in turn.
  NljpCacheEntryPtr Lookup(const NljpBindingProbe& probe);

  /// Visits the witnesses bucketed with the binding's equality key, in
  /// insertion order, until `test(values, bits)` returns true for one
  /// witness's decoded p>= values; returns whether any did. `test` runs
  /// under the witness stripe lock and must not touch the governor or this
  /// cache. A member template so the subsumption test is invoked directly.
  template <typename TestFn>
  bool AnyWitness(const NljpBindingProbe& probe, TestFn&& test) {
    if (witness_stripes_.empty()) return false;
    if (options_.eq_codec.usable()) {
      WitnessStripe& stripe =
          witness_stripes_[probe.eq_key->hash() & stripe_mask_];
      auto lock = LockStripe(stripe.mu);
      auto bucket = stripe.buckets_packed.find(*probe.eq_key);
      if (bucket == stripe.buckets_packed.end()) return false;
      return AnyInBucket(bucket->second, test);
    }
    Row eq_key = EqKeyOf(*probe.binding);
    WitnessStripe& stripe = witness_stripes_[WitnessStripeOf(eq_key)];
    auto lock = LockStripe(stripe.mu);
    auto bucket = stripe.buckets.find(eq_key);
    if (bucket == stripe.buckets.end()) return false;
    return AnyInBucket(bucket->second, test);
  }

  /// Inserts an entry (advisory) under the probe's keys; an unpromising
  /// entry also becomes a witness carrying the probe's decoded values.
  /// Under memory pressure the entry may be dropped instead (counted as
  /// shed). `probe.binding` is not read: the entry carries the binding.
  void Insert(NljpCacheEntryPtr entry, const NljpBindingProbe& probe);

  /// Governor reclaimer hook: retires oldest entries (round-robin across
  /// stripes) until at least `bytes_needed` bytes are freed or the cache
  /// is empty; returns the bytes actually freed.
  size_t Shed(size_t bytes_needed);

  // ---- Exact end-of-query counters ----
  size_t live_entries() const {
    return live_entries_.load(std::memory_order_relaxed);
  }
  size_t live_bytes() const {
    return live_bytes_.load(std::memory_order_relaxed);
  }
  size_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  size_t shed_entries() const {
    return shed_entries_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    NljpCacheEntryPtr entry;
    PackedKey memo_key;  // when Options::binding_codec is usable
    size_t bytes = 0;
    uint64_t witness_id = 0;  // 0 = not registered as a witness
    bool live = false;
  };
  struct MemoStripe {
    std::mutex mu;
    std::vector<Slot> slots;
    std::deque<size_t> fifo;  // live slot ids, oldest first
    std::vector<size_t> free_slots;
    // Exactly one index map is populated, per Options::binding_codec.
    std::unordered_map<Row, size_t, RowHash, RowEq> by_binding;
    std::unordered_map<PackedKey, size_t, PackedKeyHash, PackedKeyEq>
        by_binding_packed;
  };
  /// One equality key's witnesses in insertion order, stored decoded:
  /// witness j's p>= values are values[j * decoded_width, +decoded_width).
  /// They are copies, so witness lifetime is decoupled from the memo slot
  /// and no cross-stripe locks are ever nested.
  struct WitnessBucket {
    std::vector<uint64_t> ids;
    std::vector<uint8_t> bits;
    std::vector<double> values;
  };
  struct WitnessStripe {
    std::mutex mu;
    // Exactly one bucket map is populated, per Options::eq_codec.
    std::unordered_map<Row, WitnessBucket, RowHash, RowEq> buckets;
    std::unordered_map<PackedKey, WitnessBucket, PackedKeyHash, PackedKeyEq>
        buckets_packed;
  };

  /// Runs `test` over one witness bucket until it returns true.
  template <typename TestFn>
  bool AnyInBucket(const WitnessBucket& bucket, TestFn& test) const {
    const double* values = bucket.values.data();
    for (size_t j = 0; j < bucket.ids.size();
         ++j, values += options_.decoded_width) {
      if (test(values, bucket.bits[j])) return true;
    }
    return false;
  }

  /// Stripe-lock acquisition that counts contention: a failed try_lock
  /// (another worker holds this stripe) bumps nljp.cache.contention before
  /// blocking, making hot stripes visible in \metrics.
  std::unique_lock<std::mutex> LockStripe(std::mutex& mu);

  Row EqKeyOf(const Row& binding) const;
  size_t MemoStripeOf(const Row& binding) const;
  size_t WitnessStripeOf(const Row& eq_key) const;
  void RemoveWitness(uint64_t witness_id, const Row& binding);
  /// Retires the oldest entry of some stripe, starting the scan at
  /// `start_stripe`; returns the bytes freed (0 when every stripe was
  /// empty at the time it was inspected).
  size_t EvictOneGlobal(size_t start_stripe);

  Options options_;
  size_t stripe_mask_ = 0;
  std::vector<MemoStripe> memo_stripes_;
  std::vector<WitnessStripe> witness_stripes_;

  // Registry handles cached at construction (registration takes a mutex;
  // the handles themselves are lock-free on the hot path).
  Counter* inserts_ = nullptr;
  Counter* contention_ = nullptr;

  std::atomic<uint64_t> next_witness_id_{1};
  std::atomic<size_t> next_evict_stripe_{0};
  std::atomic<size_t> live_entries_{0};
  std::atomic<size_t> live_bytes_{0};
  std::atomic<size_t> evictions_{0};
  std::atomic<size_t> shed_entries_{0};
};

using SharedNljpCachePtr = std::shared_ptr<SharedNljpCache>;

/// Promotes the memo/prune cache from per-query to cross-query: a bounded
/// registry of SharedNljpCache instances keyed by (query fingerprint,
/// catalog version) so repeated iceberg queries — from any session — reuse
/// each other's memo entries and pruning witnesses.
///
/// Soundness: a cache key covers the full normalized statement text
/// (literals included, so entries are exact results of *this* inner query)
/// and the versions of every table, so any mutation rotates the key and the
/// stale cache is simply never fetched again (lazy invalidation). In-flight
/// queries holding the old shared_ptr finish against the snapshot they
/// pinned; the registry drops its reference on eviction.
///
/// Cross-query caches are never charged to a per-query governor (the
/// governor is single-use and dies with its query); they are bounded by
/// entry count instead, and the chaos harness can force storms via
/// ShedAll().
class NljpCacheRegistry {
 public:
  /// `max_caches` bounds distinct (statement, catalog-version) cache
  /// instances; least-recently-used instances are dropped beyond it.
  explicit NljpCacheRegistry(size_t max_caches = 8,
                             size_t max_entries_per_cache = 4096)
      : max_caches_(max_caches),
        max_entries_per_cache_(max_entries_per_cache) {}

  /// Returns the cache registered under `key`, creating it via `make` on
  /// first use. The returned cache is shared: concurrent queries with the
  /// same key use one instance (SharedNljpCache is fully thread-safe).
  /// `make`'s governor is overridden to null and its entry bound clamped
  /// to the registry's per-cache limit.
  SharedNljpCachePtr GetOrCreate(
      uint64_t key, const std::function<SharedNljpCache::Options()>& make);

  /// Sheds every entry of every registered cache (chaos storm / memory
  /// pressure). Returns total bytes freed. Always safe: the caches are
  /// advisory.
  size_t ShedAll();

  /// Drops all registered caches (in-flight holders keep theirs alive).
  void Clear();

  size_t num_caches() const;
  size_t total_entries() const;

 private:
  mutable std::mutex mu_;
  size_t max_caches_;
  size_t max_entries_per_cache_;
  /// MRU-front list of (key, cache); small N, so linear scan beats a map.
  std::list<std::pair<uint64_t, SharedNljpCachePtr>> caches_;
};

}  // namespace iceberg

#endif  // SMARTICEBERG_NLJP_SHARED_CACHE_H_
