#include "src/storage/index.h"

#include <algorithm>
#include <numeric>

#include "src/common/logging.h"

namespace iceberg {

namespace {

/// Payload bytes of a materialized key row (header + values + string heap).
size_t RowFootprint(const Row& row) {
  size_t bytes = sizeof(Row) + row.capacity() * sizeof(Value);
  for (const Value& v : row) {
    if (v.is_string()) bytes += v.AsString().capacity();
  }
  return bytes;
}

/// Rough per-node bookkeeping overhead of a hash node (next pointer +
/// cached hash).
constexpr size_t kHashNodeOverhead = 16;

}  // namespace

int OrderedIndex::CompareKeys(const Row& a, const Row& b) const {
  for (size_t c : key_columns_) {
    int cmp = a[c].Compare(b[c]);
    if (cmp != 0) return cmp;
  }
  return 0;
}

int OrderedIndex::CompareKey(const Row& row, const Row& probe,
                             bool prefix) const {
  const size_t n = std::min(key_columns_.size(), probe.size());
  for (size_t i = 0; i < n; ++i) {
    int cmp = row[key_columns_[i]].Compare(probe[i]);
    if (cmp != 0) return cmp;
  }
  if (prefix) return 0;
  if (key_columns_.size() < probe.size()) return -1;
  if (key_columns_.size() > probe.size()) return 1;
  return 0;
}

size_t OrderedIndex::Bound(const Row& probe, bool strict, bool prefix) const {
  auto it = std::partition_point(ids_.begin(), ids_.end(), [&](uint32_t id) {
    int cmp = CompareKey((*rows_)[id], probe, prefix);
    return strict ? cmp <= 0 : cmp < 0;
  });
  return static_cast<size_t>(it - ids_.begin());
}

std::vector<size_t> OrderedIndex::Ids(size_t begin, size_t end) const {
  if (end <= begin) return {};
  return std::vector<size_t>(ids_.begin() + begin, ids_.begin() + end);
}

void OrderedIndex::Build() {
  ICEBERG_CHECK(rows_->size() <= UINT32_MAX);
  ids_.resize(rows_->size());
  std::iota(ids_.begin(), ids_.end(), 0u);
  std::stable_sort(ids_.begin(), ids_.end(), [&](uint32_t a, uint32_t b) {
    return CompareKeys((*rows_)[a], (*rows_)[b]) < 0;
  });
}

void OrderedIndex::Insert(const Row& row, size_t row_id) {
  ICEBERG_CHECK(row_id <= UINT32_MAX);
  auto pos = std::partition_point(ids_.begin(), ids_.end(), [&](uint32_t id) {
    return CompareKeys((*rows_)[id], row) <= 0;
  });
  ids_.insert(pos, static_cast<uint32_t>(row_id));
}

std::vector<size_t> OrderedIndex::Lookup(const Row& key) const {
  return Ids(Bound(key, /*strict=*/false), Bound(key, /*strict=*/true));
}

std::vector<size_t> OrderedIndex::RangeLookup(const Row& low,
                                              const Row& high) const {
  return Ids(Bound(low, /*strict=*/false), Bound(high, /*strict=*/true));
}

std::vector<size_t> OrderedIndex::LowerBoundScan(const Row& low,
                                                 bool strict) const {
  return Ids(Bound(low, strict), ids_.size());
}

std::vector<size_t> OrderedIndex::UpperBoundScan(const Row& high) const {
  // A partial bound on an index prefix includes all rows sharing the
  // boundary prefix.
  return Ids(0, Bound(high, /*strict=*/true, /*prefix=*/true));
}

size_t OrderedIndex::ApproxBytes() const {
  return sizeof(*this) + key_columns_.capacity() * sizeof(size_t) +
         ids_.capacity() * sizeof(uint32_t);
}

size_t HashIndex::ApproxBytes() const {
  size_t bytes = sizeof(*this) + key_columns_.capacity() * sizeof(size_t) +
                 entries_.bucket_count() * sizeof(void*);
  for (const auto& entry : entries_) {
    bytes += kHashNodeOverhead + sizeof(entry) + RowFootprint(entry.first) +
             entry.second.capacity() * sizeof(size_t);
  }
  return bytes;
}

Row HashIndex::ExtractKey(const Row& row) const {
  Row key;
  key.reserve(key_columns_.size());
  for (size_t c : key_columns_) key.push_back(row[c]);
  return key;
}

void HashIndex::Insert(const Row& row, size_t row_id) {
  entries_[ExtractKey(row)].push_back(row_id);
}

const std::vector<size_t>* HashIndex::Lookup(const Row& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  return &it->second;
}

}  // namespace iceberg
