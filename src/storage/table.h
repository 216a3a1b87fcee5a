#ifndef SMARTICEBERG_STORAGE_TABLE_H_
#define SMARTICEBERG_STORAGE_TABLE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/catalog/schema.h"
#include "src/common/status.h"
#include "src/common/value.h"
#include "src/storage/column_chunk.h"
#include "src/storage/index.h"

namespace iceberg {

class TableStats;  // src/stats/column_stats.h
using TableStatsPtr = std::shared_ptr<const TableStats>;

/// A pinned read point of one table: the mutation-counter version and the
/// row count it implied. Queries pin a snapshot per referenced table when
/// they are submitted; the serving layer validates the pins when execution
/// actually starts (admission may have queued the query across a
/// mutation), so a stale read surfaces as a clean retryable conflict
/// instead of racing with the writer. Derived state (columnar chunk sets,
/// cross-query NLJP caches) is keyed by the same version and therefore
/// invalidates lazily: stale entries are simply never looked up again.
struct TableSnapshot {
  uint64_t version = 0;
  size_t num_rows = 0;
};

/// An in-memory row-store relation with optional secondary indexes.
///
/// Tables are append-only (sufficient for the analytical workloads the paper
/// evaluates). Indexes built before loading are maintained on Append;
/// indexes can also be built after loading with BuildOrderedIndex /
/// BuildHashIndex.
class Table {
 public:
  explicit Table(Schema schema) : schema_(std::move(schema)) {}
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  // Movable but not copyable (the chunk cache and version counter are
  // identity state). A moved-from table keeps no cached chunks; the rows'
  // heap buffer moves wholesale, so borrowed string pointers in the moved
  // cache would actually survive, but dropping it keeps the invariant
  // simple: cache lifetime == (table identity, version).
  Table(Table&& other) noexcept
      : name_(std::move(other.name_)),
        schema_(std::move(other.schema_)),
        rows_(std::move(other.rows_)),
        ordered_indexes_(std::move(other.ordered_indexes_)),
        hash_indexes_(std::move(other.hash_indexes_)) {
    for (auto& idx : ordered_indexes_) idx->rows_ = &rows_;
    version_.store(other.version_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  }
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return name_; }
  void SetName(std::string name) { name_ = std::move(name); }
  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return rows_.size(); }
  const Row& row(size_t i) const { return rows_[i]; }
  const std::vector<Row>& rows() const { return rows_; }

  /// Appends a row; fails if the arity does not match the schema.
  Status Append(Row row);

  /// Appends without validation (hot path for generators).
  void AppendUnchecked(Row row);

  /// Replaces row `i` in place. Secondary indexes are NOT maintained; only
  /// valid for index-free tables (e.g. the NLJP parameter table).
  void UpdateRow(size_t i, Row row);

  /// Sorts rows into canonical (lexicographic Value) order — used to make
  /// parallel execution output deterministic across thread counts.
  /// Secondary indexes are NOT maintained; only valid for index-free
  /// tables (query results).
  void SortRowsCanonical();

  /// Builds an ordered index (row ids sorted by key) over the named
  /// columns.
  Result<size_t> BuildOrderedIndex(const std::vector<std::string>& columns);

  /// Builds a hash index over the named columns.
  Result<size_t> BuildHashIndex(const std::vector<std::string>& columns);

  /// Index builders addressed by column ordinal (used when copying index
  /// definitions onto derived tables).
  size_t BuildOrderedIndexByIds(std::vector<size_t> columns);
  size_t BuildHashIndexByIds(std::vector<size_t> columns);

  size_t num_ordered_indexes() const { return ordered_indexes_.size(); }
  size_t num_hash_indexes() const { return hash_indexes_.size(); }
  const OrderedIndex& ordered_index(size_t i) const {
    return *ordered_indexes_[i];
  }
  const HashIndex& hash_index(size_t i) const { return *hash_indexes_[i]; }

  /// Finds an ordered index whose key columns exactly match `columns`
  /// (in order); nullptr if none.
  const OrderedIndex* FindOrderedIndex(
      const std::vector<size_t>& columns) const;

  /// Finds a hash index whose key-column *set* matches `columns` (any
  /// order); returns nullptr if none. The matching key order is written to
  /// `key_order` so callers can build probe keys correctly.
  const HashIndex* FindHashIndex(const std::vector<size_t>& columns,
                                 std::vector<size_t>* key_order) const;

  /// Drops all secondary indexes (used by the Fig. 4 index-configuration
  /// experiments).
  void DropIndexes();

  /// Approximate memory footprint in bytes: stored rows plus secondary
  /// indexes (ordered + hash) plus any cached columnar chunk set plus any
  /// cached column statistics, so governor budgets see the whole physical
  /// footprint.
  size_t ApproxBytes() const;

  /// Monotonic mutation counter. Every row mutation (append, in-place
  /// update, canonical sort) bumps it; columnar chunk sets are stamped with
  /// the version they were built from and discarded on mismatch.
  uint64_t version() const {
    return version_.load(std::memory_order_relaxed);
  }

  /// Pins the current read point. Callers must hold whatever lock makes
  /// the (version, num_rows) pair coherent (the serving layer's catalog
  /// read lock); the table itself only guarantees the individual loads.
  TableSnapshot Snapshot() const {
    return TableSnapshot{version(), num_rows()};
  }

  /// Whether a pinned snapshot still describes the live table (no
  /// mutation since the pin).
  bool SnapshotValid(const TableSnapshot& snap) const {
    return snap.version == version() && snap.num_rows == num_rows();
  }

  /// Returns the columnar decomposition of the current version, building
  /// (and caching) it on first use. Thread-safe; concurrent planners share
  /// one build. The returned set is immutable and borrows the rows'
  /// strings, so callers must re-check `set->version() == version()`
  /// before using it after any point the table could have mutated.
  ColumnChunkSetPtr GetOrBuildChunks() const;

  std::string ToString(size_t max_rows = 20) const;

 private:
  void BumpVersion() {
    version_.fetch_add(1, std::memory_order_relaxed);
  }

  std::string name_;
  Schema schema_;
  std::vector<Row> rows_;
  std::vector<std::unique_ptr<OrderedIndex>> ordered_indexes_;
  std::vector<std::unique_ptr<HashIndex>> hash_indexes_;
  std::atomic<uint64_t> version_{1};
  mutable std::mutex chunks_mutex_;
  mutable ColumnChunkSetPtr chunks_cache_;

  /// Column-statistics cache slot, managed by GetOrBuildTableStats
  /// (src/stats/column_stats.h) and keyed by the same version stamp as the
  /// chunk cache: any mutation bumps version_ and the stale entry is never
  /// looked up again. `stats_bytes_` mirrors the cached entry's footprint
  /// so ApproxBytes can account it without the full TableStats type.
  friend TableStatsPtr GetOrBuildTableStats(const Table& table);
  mutable std::mutex stats_mutex_;
  mutable std::shared_ptr<const TableStats> stats_cache_;
  mutable size_t stats_bytes_ = 0;
};

using TablePtr = std::shared_ptr<Table>;

}  // namespace iceberg

#endif  // SMARTICEBERG_STORAGE_TABLE_H_
