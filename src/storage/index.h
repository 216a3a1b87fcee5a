#ifndef SMARTICEBERG_STORAGE_INDEX_H_
#define SMARTICEBERG_STORAGE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/value.h"

namespace iceberg {

/// A secondary index over a table, mapping a composite key (projection of a
/// row onto the indexed columns) to the row ids having that key.
///
/// Two physical forms are provided:
///  - OrderedIndex: the table's row ids sorted by key, supporting range
///    scans by binary search; the analogue of the paper's "BT" secondary
///    B-tree index.
///  - HashIndex: exact-match lookups only; the analogue of the hash lookup
///    PostgreSQL would use for equality predicates.
///
/// OrderedIndex stores no keys: as in Leapfrog Triejoin's sorted arrays,
/// it is a permutation of row ids ordered by CompareRows over the key
/// columns of the owning table's rows (equal keys in row-id order), and
/// every comparison reads the key through the rows. The owning Table keeps
/// `rows` pointed at its row vector (see Table's move constructor).
class OrderedIndex {
 public:
  OrderedIndex(std::vector<size_t> key_columns, const std::vector<Row>* rows)
      : key_columns_(std::move(key_columns)), rows_(rows) {}

  const std::vector<size_t>& key_columns() const { return key_columns_; }

  /// Indexes every row currently in the table (a stable sort by key).
  void Build();

  /// Adds row `row_id`, whose values are `row`: the table indexes a row
  /// before storing it, so `row` need not be in the table yet. `row_id`
  /// must exceed every indexed id; it goes after the equal keys.
  void Insert(const Row& row, size_t row_id);

  /// Row ids whose key equals `key` exactly.
  std::vector<size_t> Lookup(const Row& key) const;

  /// Row ids whose key is in [low, high] lexicographically (inclusive on
  /// both ends). Used by range predicates on a prefix of the key.
  std::vector<size_t> RangeLookup(const Row& low, const Row& high) const;

  /// Row ids with key >= low (lexicographic). `strict` excludes equality on
  /// the full key.
  std::vector<size_t> LowerBoundScan(const Row& low, bool strict) const;

  /// Row ids whose key *prefix* (first high.size() columns) is <= high.
  std::vector<size_t> UpperBoundScan(const Row& high) const;

  size_t num_entries() const { return ids_.size(); }

  /// Heap footprint: the row-id array (counted into Table::ApproxBytes).
  size_t ApproxBytes() const;

 private:
  friend class Table;  // re-points rows_ when the table moves

  /// Compares two full rows on the key columns.
  int CompareKeys(const Row& a, const Row& b) const;
  /// CompareRows(key of `row`, probe), reading the key columns in place.
  /// `prefix` compares only the first probe.size() key columns (no length
  /// tie-break).
  int CompareKey(const Row& row, const Row& probe, bool prefix) const;
  /// First position whose key is not below `probe` (`strict`: above it).
  size_t Bound(const Row& probe, bool strict, bool prefix = false) const;
  std::vector<size_t> Ids(size_t begin, size_t end) const;

  std::vector<size_t> key_columns_;
  const std::vector<Row>* rows_;
  std::vector<uint32_t> ids_;
};

class HashIndex {
 public:
  explicit HashIndex(std::vector<size_t> key_columns)
      : key_columns_(std::move(key_columns)) {}

  const std::vector<size_t>& key_columns() const { return key_columns_; }

  void Insert(const Row& row, size_t row_id);
  const std::vector<size_t>* Lookup(const Row& key) const;

  size_t num_keys() const { return entries_.size(); }

  /// Approximate heap footprint: buckets, per-key node overhead, key rows,
  /// and the row-id postings vectors.
  size_t ApproxBytes() const;

 private:
  Row ExtractKey(const Row& row) const;

  std::vector<size_t> key_columns_;
  std::unordered_map<Row, std::vector<size_t>, RowHash, RowEq> entries_;
};

}  // namespace iceberg

#endif  // SMARTICEBERG_STORAGE_INDEX_H_
