#include "src/storage/table.h"

#include <algorithm>

#include "src/common/logging.h"

namespace iceberg {

Status Table::Append(Row row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) +
        " does not match schema arity " +
        std::to_string(schema_.num_columns()));
  }
  AppendUnchecked(std::move(row));
  return Status::OK();
}

void Table::AppendUnchecked(Row row) {
  size_t row_id = rows_.size();
  for (auto& idx : ordered_indexes_) idx->Insert(row, row_id);
  for (auto& idx : hash_indexes_) idx->Insert(row, row_id);
  rows_.push_back(std::move(row));
  BumpVersion();
}

Result<size_t> Table::BuildOrderedIndex(
    const std::vector<std::string>& columns) {
  std::vector<size_t> cols;
  for (const std::string& c : columns) {
    ICEBERG_ASSIGN_OR_RETURN(size_t idx, schema_.GetColumnIndex(c));
    cols.push_back(idx);
  }
  return BuildOrderedIndexByIds(std::move(cols));
}

Result<size_t> Table::BuildHashIndex(const std::vector<std::string>& columns) {
  std::vector<size_t> cols;
  for (const std::string& c : columns) {
    ICEBERG_ASSIGN_OR_RETURN(size_t idx, schema_.GetColumnIndex(c));
    cols.push_back(idx);
  }
  auto index = std::make_unique<HashIndex>(cols);
  for (size_t i = 0; i < rows_.size(); ++i) index->Insert(rows_[i], i);
  hash_indexes_.push_back(std::move(index));
  return hash_indexes_.size() - 1;
}

void Table::UpdateRow(size_t i, Row row) {
  ICEBERG_CHECK(ordered_indexes_.empty() && hash_indexes_.empty());
  ICEBERG_CHECK(i < rows_.size());
  rows_[i] = std::move(row);
  BumpVersion();
}

void Table::SortRowsCanonical() {
  ICEBERG_CHECK(ordered_indexes_.empty() && hash_indexes_.empty());
  std::sort(rows_.begin(), rows_.end(), RowLess());
  BumpVersion();
}

size_t Table::BuildOrderedIndexByIds(std::vector<size_t> columns) {
  auto index = std::make_unique<OrderedIndex>(std::move(columns), &rows_);
  index->Build();
  ordered_indexes_.push_back(std::move(index));
  return ordered_indexes_.size() - 1;
}

size_t Table::BuildHashIndexByIds(std::vector<size_t> columns) {
  auto index = std::make_unique<HashIndex>(std::move(columns));
  for (size_t i = 0; i < rows_.size(); ++i) index->Insert(rows_[i], i);
  hash_indexes_.push_back(std::move(index));
  return hash_indexes_.size() - 1;
}

const OrderedIndex* Table::FindOrderedIndex(
    const std::vector<size_t>& columns) const {
  for (const auto& idx : ordered_indexes_) {
    if (idx->key_columns() == columns) return idx.get();
  }
  return nullptr;
}

const HashIndex* Table::FindHashIndex(const std::vector<size_t>& columns,
                                      std::vector<size_t>* key_order) const {
  for (const auto& idx : hash_indexes_) {
    const std::vector<size_t>& key = idx->key_columns();
    if (key.size() != columns.size()) continue;
    std::vector<size_t> sorted_key = key;
    std::vector<size_t> sorted_cols = columns;
    std::sort(sorted_key.begin(), sorted_key.end());
    std::sort(sorted_cols.begin(), sorted_cols.end());
    if (sorted_key == sorted_cols) {
      if (key_order != nullptr) *key_order = key;
      return idx.get();
    }
  }
  return nullptr;
}

void Table::DropIndexes() {
  ordered_indexes_.clear();
  hash_indexes_.clear();
}

size_t Table::ApproxBytes() const {
  size_t bytes = 0;
  for (const Row& row : rows_) {
    bytes += sizeof(Row) + row.capacity() * sizeof(Value);
    for (const Value& v : row) {
      if (v.is_string()) bytes += v.AsString().capacity();
    }
  }
  for (const auto& idx : ordered_indexes_) bytes += idx->ApproxBytes();
  for (const auto& idx : hash_indexes_) bytes += idx->ApproxBytes();
  {
    std::lock_guard<std::mutex> lock(chunks_mutex_);
    if (chunks_cache_ != nullptr) bytes += chunks_cache_->approx_bytes();
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (stats_cache_ != nullptr) bytes += stats_bytes_;
  }
  return bytes;
}

ColumnChunkSetPtr Table::GetOrBuildChunks() const {
  const uint64_t v = version();
  std::lock_guard<std::mutex> lock(chunks_mutex_);
  if (chunks_cache_ == nullptr || chunks_cache_->version() != v) {
    chunks_cache_ = ColumnChunkSet::Build(*this, v);
  }
  return chunks_cache_;
}

std::string Table::ToString(size_t max_rows) const {
  std::string out = name_.empty() ? "<anon>" : name_;
  out += " ";
  out += schema_.ToString();
  out += " rows=" + std::to_string(rows_.size()) + "\n";
  for (size_t i = 0; i < rows_.size() && i < max_rows; ++i) {
    out += "  " + RowToString(rows_[i]) + "\n";
  }
  if (rows_.size() > max_rows) out += "  ...\n";
  return out;
}

}  // namespace iceberg
