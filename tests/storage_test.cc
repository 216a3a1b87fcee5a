// Unit tests for src/storage: table append/update and index behaviour
// (exact lookup, range scans, bound scans with multi-column prefixes), and
// OrderedIndex against a std::multimap reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/storage/table.h"

namespace iceberg {
namespace {

Table MakePoints() {
  Table t("pts", Schema({{"id", DataType::kInt64},
                         {"x", DataType::kInt64},
                         {"y", DataType::kInt64}}));
  int data[][3] = {{0, 1, 5}, {1, 2, 4}, {2, 2, 9}, {3, 3, 1}, {4, 5, 5}};
  for (auto& d : data) {
    t.AppendUnchecked({Value::Int(d[0]), Value::Int(d[1]), Value::Int(d[2])});
  }
  return t;
}

TEST(Table, AppendValidatesArity) {
  Table t("t", Schema({{"a", DataType::kInt64}}));
  EXPECT_TRUE(t.Append({Value::Int(1)}).ok());
  EXPECT_FALSE(t.Append({Value::Int(1), Value::Int(2)}).ok());
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(Table, UpdateRowInPlace) {
  Table t("t", Schema({{"a", DataType::kInt64}}));
  t.AppendUnchecked({Value::Int(1)});
  t.UpdateRow(0, {Value::Int(9)});
  EXPECT_EQ(t.row(0)[0].AsInt(), 9);
}

TEST(Table, BuildIndexUnknownColumnFails) {
  Table t = MakePoints();
  EXPECT_FALSE(t.BuildOrderedIndex({"nope"}).ok());
  EXPECT_FALSE(t.BuildHashIndex({"nope"}).ok());
}

TEST(OrderedIndex, ExactLookup) {
  Table t = MakePoints();
  ASSERT_TRUE(t.BuildOrderedIndex({"x"}).ok());
  const OrderedIndex& idx = t.ordered_index(0);
  std::vector<size_t> hits = idx.Lookup({Value::Int(2)});
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<size_t>{1, 2}));
  EXPECT_TRUE(idx.Lookup({Value::Int(99)}).empty());
}

TEST(OrderedIndex, LowerBoundScan) {
  Table t = MakePoints();
  ASSERT_TRUE(t.BuildOrderedIndex({"x"}).ok());
  std::vector<size_t> hits =
      t.ordered_index(0).LowerBoundScan({Value::Int(3)}, /*strict=*/false);
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<size_t>{3, 4}));  // x in {3, 5}
}

TEST(OrderedIndex, UpperBoundScanPrefixSemantics) {
  Table t = MakePoints();
  ASSERT_TRUE(t.BuildOrderedIndex({"x", "y"}).ok());
  // Prefix bound x <= 2 must include BOTH x=2 rows regardless of y.
  std::vector<size_t> hits =
      t.ordered_index(0).UpperBoundScan({Value::Int(2)});
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<size_t>{0, 1, 2}));
}

TEST(OrderedIndex, RangeLookupInclusive) {
  Table t = MakePoints();
  ASSERT_TRUE(t.BuildOrderedIndex({"x"}).ok());
  std::vector<size_t> hits = t.ordered_index(0).RangeLookup(
      {Value::Int(2)}, {Value::Int(3), Value::Int(1 << 30)});
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<size_t>{1, 2, 3}));
}

TEST(HashIndex, LookupAndMiss) {
  Table t = MakePoints();
  ASSERT_TRUE(t.BuildHashIndex({"x", "y"}).ok());
  const HashIndex& idx = t.hash_index(0);
  const std::vector<size_t>* hits = idx.Lookup({Value::Int(2), Value::Int(4)});
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(*hits, (std::vector<size_t>{1}));
  EXPECT_EQ(idx.Lookup({Value::Int(2), Value::Int(5)}), nullptr);
}

TEST(Table, IndexMaintainedOnAppend) {
  Table t("t", Schema({{"a", DataType::kInt64}}));
  ASSERT_TRUE(t.BuildHashIndex({"a"}).ok());
  t.AppendUnchecked({Value::Int(7)});
  const std::vector<size_t>* hits = t.hash_index(0).Lookup({Value::Int(7)});
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(hits->size(), 1u);
}

TEST(Table, FindHashIndexMatchesAnyOrder) {
  Table t = MakePoints();
  ASSERT_TRUE(t.BuildHashIndex({"x", "y"}).ok());
  std::vector<size_t> key_order;
  const HashIndex* idx = t.FindHashIndex({2, 1}, &key_order);  // (y, x)
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(key_order, (std::vector<size_t>{1, 2}));  // stored order (x, y)
  EXPECT_EQ(t.FindHashIndex({0, 1}, &key_order), nullptr);
}

TEST(Table, FindOrderedIndexExactOrderOnly) {
  Table t = MakePoints();
  ASSERT_TRUE(t.BuildOrderedIndex({"x", "y"}).ok());
  EXPECT_NE(t.FindOrderedIndex({1, 2}), nullptr);
  EXPECT_EQ(t.FindOrderedIndex({2, 1}), nullptr);
}

TEST(Table, DropIndexes) {
  Table t = MakePoints();
  ASSERT_TRUE(t.BuildOrderedIndex({"x"}).ok());
  ASSERT_TRUE(t.BuildHashIndex({"x"}).ok());
  t.DropIndexes();
  EXPECT_EQ(t.num_ordered_indexes(), 0u);
  EXPECT_EQ(t.num_hash_indexes(), 0u);
}

TEST(Table, BuildIndexByIdsAfterLoad) {
  Table t = MakePoints();
  t.BuildOrderedIndexByIds({1});
  EXPECT_EQ(t.ordered_index(0).num_entries(), t.num_rows());
}

TEST(Table, ApproxBytesGrowsWithRows) {
  Table t("t", Schema({{"s", DataType::kString}}));
  size_t empty = t.ApproxBytes();
  t.AppendUnchecked({Value::Str("hello world")});
  EXPECT_GT(t.ApproxBytes(), empty);
}

// ---------------------------------------------------------------------------
// OrderedIndex against a reference B-tree
// ---------------------------------------------------------------------------

// The reference: a multimap from key rows to row ids, whose equal keys
// keep insertion (row-id) order, scanned the way each lookup is specified.
class ReferenceIndex {
 public:
  explicit ReferenceIndex(std::vector<size_t> key_columns)
      : key_columns_(std::move(key_columns)) {}

  void Insert(const Row& row, size_t row_id) {
    Row key;
    for (size_t c : key_columns_) key.push_back(row[c]);
    entries_.emplace(std::move(key), row_id);
  }

  std::vector<size_t> Lookup(const Row& key) const {
    std::vector<size_t> out;
    auto range = entries_.equal_range(key);
    for (auto it = range.first; it != range.second; ++it) {
      out.push_back(it->second);
    }
    return out;
  }

  std::vector<size_t> RangeLookup(const Row& low, const Row& high) const {
    std::vector<size_t> out;
    for (auto it = entries_.lower_bound(low); it != entries_.end(); ++it) {
      if (CompareRows(it->first, high) > 0) break;
      out.push_back(it->second);
    }
    return out;
  }

  std::vector<size_t> LowerBoundScan(const Row& low, bool strict) const {
    std::vector<size_t> out;
    auto it = strict ? entries_.upper_bound(low) : entries_.lower_bound(low);
    for (; it != entries_.end(); ++it) out.push_back(it->second);
    return out;
  }

  std::vector<size_t> UpperBoundScan(const Row& high) const {
    std::vector<size_t> out;
    for (const auto& [key, id] : entries_) {
      bool within = true;
      for (size_t i = 0; i < high.size() && i < key.size(); ++i) {
        int c = key[i].Compare(high[i]);
        if (c > 0) within = false;
        if (c != 0) break;
      }
      if (!within) break;
      out.push_back(id);
    }
    return out;
  }

 private:
  std::vector<size_t> key_columns_;
  std::multimap<Row, size_t, RowLess> entries_;
};

// Values with many duplicates: small int and double domains, a few
// strings, and NULLs in every column.
Row RandomRow(std::mt19937_64* rng) {
  std::uniform_int_distribution<int> pick(0, 9);
  auto maybe_null = [&](Value v) {
    return pick(*rng) == 0 ? Value::Null() : v;
  };
  static const char* const kWords[] = {"", "a", "ab", "b", "zz"};
  return {maybe_null(Value::Int(pick(*rng) - 3)),
          maybe_null(Value::Double(pick(*rng) * 0.5 - 1.0)),
          maybe_null(Value::Str(kWords[pick(*rng) % 5]))};
}

// A probe of 1..width columns built from fresh random values.
Row RandomProbe(std::mt19937_64* rng, const std::vector<size_t>& columns) {
  Row values = RandomRow(rng);
  std::uniform_int_distribution<size_t> len(1, columns.size());
  Row probe;
  for (size_t i = 0, n = len(*rng); i < n; ++i) {
    probe.push_back(values[columns[i]]);
  }
  return probe;
}

void ExpectSameAsReference(const Table& table, size_t index,
                           const ReferenceIndex& ref, std::mt19937_64* rng,
                           const std::string& context) {
  const OrderedIndex& idx = table.ordered_index(index);
  ASSERT_EQ(idx.num_entries(), table.num_rows()) << context;
  const std::vector<size_t>& cols = idx.key_columns();
  for (int probe = 0; probe < 200; ++probe) {
    Row a = RandomProbe(rng, cols);
    Row b = RandomProbe(rng, cols);
    Row full;
    const Row& row = table.row((*rng)() % table.num_rows());
    for (size_t c : cols) full.push_back(row[c]);
    SCOPED_TRACE(context + ": " + RowToString(a) + " " + RowToString(b) +
                 " " + RowToString(full));
    EXPECT_EQ(idx.Lookup(full), ref.Lookup(full));
    EXPECT_EQ(idx.Lookup(a), ref.Lookup(a));
    EXPECT_EQ(idx.RangeLookup(a, b), ref.RangeLookup(a, b));
    EXPECT_EQ(idx.RangeLookup(a, full), ref.RangeLookup(a, full));
    EXPECT_EQ(idx.RangeLookup(full, b), ref.RangeLookup(full, b));
    for (bool strict : {false, true}) {
      EXPECT_EQ(idx.LowerBoundScan(a, strict), ref.LowerBoundScan(a, strict));
      EXPECT_EQ(idx.LowerBoundScan(full, strict),
                ref.LowerBoundScan(full, strict));
    }
    EXPECT_EQ(idx.UpperBoundScan(a), ref.UpperBoundScan(a));
    EXPECT_EQ(idx.UpperBoundScan(full), ref.UpperBoundScan(full));
  }
}

TEST(OrderedIndex, MatchesMultimapReference) {
  const std::vector<std::vector<size_t>> keys = {{0}, {1}, {2}, {0, 1},
                                                 {2, 0}, {1, 2, 0}};
  std::mt19937_64 rng(7);
  Table table("mixed", Schema({{"i", DataType::kInt64},
                               {"d", DataType::kDouble},
                               {"s", DataType::kString}}));
  for (int r = 0; r < 300; ++r) table.AppendUnchecked(RandomRow(&rng));
  std::vector<ReferenceIndex> refs;
  for (const std::vector<size_t>& cols : keys) {
    table.BuildOrderedIndexByIds(cols);
    refs.emplace_back(cols);
    for (size_t r = 0; r < table.num_rows(); ++r) {
      refs.back().Insert(table.row(r), r);
    }
  }
  for (size_t k = 0; k < keys.size(); ++k) {
    ExpectSameAsReference(table, k, refs[k], &rng, "bulk build");
  }

  // Rows appended after the build are indexed one at a time.
  for (int r = 0; r < 100; ++r) {
    Row row = RandomRow(&rng);
    for (ReferenceIndex& ref : refs) ref.Insert(row, table.num_rows());
    table.AppendUnchecked(std::move(row));
  }
  for (size_t k = 0; k < keys.size(); ++k) {
    ExpectSameAsReference(table, k, refs[k], &rng, "after inserts");
  }

  // A moved table's indexes read the rows at their new home, for lookups
  // and for later inserts.
  Table moved(std::move(table));
  for (int r = 0; r < 50; ++r) {
    Row row = RandomRow(&rng);
    for (ReferenceIndex& ref : refs) ref.Insert(row, moved.num_rows());
    moved.AppendUnchecked(std::move(row));
  }
  for (size_t k = 0; k < keys.size(); ++k) {
    ExpectSameAsReference(moved, k, refs[k], &rng, "moved table");
  }
}

}  // namespace
}  // namespace iceberg
