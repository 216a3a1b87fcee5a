#ifndef SMARTICEBERG_SERVER_PLAN_CACHE_H_
#define SMARTICEBERG_SERVER_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "src/optimizer/iceberg_optimizer.h"

namespace iceberg {

/// Folds the planning-relevant IcebergOptions knobs into one word of the
/// plan-cache key: a trace captured under one technique configuration must
/// never replay under another (e.g. a no-NLJP decision recorded with
/// memoization disabled). Per-attempt fields (governor, thread count,
/// cache registry/key) do not shape the decisions and are excluded.
uint64_t PlanOptionsFingerprint(const IcebergOptions& options);

/// Process-wide cache of optimizer decision traces, keyed by
/// (statement shape, versions of the tables it names, planning options).
/// Repeated statements that differ only in literal values replay the
/// captured decisions — skipping the scored a-priori search, the NLJP
/// partition search, and (via artifact injection) the monotonicity scan
/// and subsumption derivation — while every literal-dependent computation
/// (reducer evaluation, execution) reruns against the fresh literals.
///
/// Soundness:
///  - the version hash of the tables the statement names is part of the
///    key, so a mutation of any of them rotates the key and stale traces
///    become unreachable (lazy invalidation, the same scheme as
///    NljpCacheRegistry); Insert additionally drops the shape's entry of
///    the previous generation and counts it as plan_cache.invalidations;
///  - Lookup verifies the stored literal-abstracted shape text, so a
///    64-bit shape-hash collision degrades to a miss, never a wrong trace;
///  - the optimizer re-verifies every recorded decision that is cheap to
///    re-check (reducer safety, NLJP applicability) and falls back to a
///    full optimization when the trace does not transfer.
///
/// Thread-safe: lookups take a shared lock; inserts take an exclusive
/// lock. Entries are immutable shared_ptr<const PlanTrace>, so replays
/// proceed lock-free after lookup, even across an eviction.
class PlanCache {
 public:
  /// `max_entries` bounds the resident traces; least-recently-used entries
  /// are evicted past it (0 means unbounded).
  explicit PlanCache(size_t max_entries = 64) : max_entries_(max_entries) {}

  struct Key {
    uint64_t shape_hash = 0;    // QueryShape::shape_hash
    uint64_t version_hash = 0;  // Database::VersionHashOf(shape)
    uint64_t options_fp = 0;    // PlanOptionsFingerprint
  };

  /// Returns the trace for the key, or null. `shape_text` is the
  /// literal-abstracted statement (QueryShape::shape) and must match the
  /// stored one exactly. Counts plan_cache.{hits,misses}.
  std::shared_ptr<const PlanTrace> Lookup(const Key& key,
                                          const std::string& shape_text);

  /// Inserts a captured trace. Keeps the incumbent on a same-key race
  /// (first capture wins; both are valid). Drops the entry this shape had
  /// under the previous table versions, and evicts the least-recently
  /// used entry when full.
  void Insert(const Key& key, const std::string& shape_text,
              std::shared_ptr<const PlanTrace> trace);

  void Clear();

  size_t size() const;
  size_t max_entries() const { return max_entries_; }

 private:
  struct Entry {
    std::string shape;
    std::shared_ptr<const PlanTrace> trace;
    /// Monotone recency stamp; the eviction victim has the minimum.
    std::atomic<uint64_t> stamp{0};
  };

  static uint64_t MapKey(const Key& key);

  const size_t max_entries_;
  mutable std::shared_mutex mu_;
  std::unordered_map<uint64_t, std::shared_ptr<Entry>> entries_;
  /// shape_hash ^ options_fp -> catalog hash of the resident entry, used
  /// to distinguish "mutation invalidated this shape" from a cold miss.
  std::unordered_map<uint64_t, uint64_t> generations_;
  std::atomic<uint64_t> clock_{0};
};

}  // namespace iceberg

#endif  // SMARTICEBERG_SERVER_PLAN_CACHE_H_
