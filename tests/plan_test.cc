// Unit tests for src/plan: binding, name resolution, output schema
// inference, and query-level FD assembly.

#include <gtest/gtest.h>

#include "src/parser/parser.h"
#include "src/plan/query_block.h"

namespace iceberg {
namespace {

class PlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    basket_ = std::make_shared<Table>(
        "basket",
        Schema({{"bid", DataType::kInt64}, {"item", DataType::kInt64}}));
    score_ = std::make_shared<Table>(
        "score", Schema({{"pid", DataType::kInt64},
                         {"year", DataType::kInt64},
                         {"hits", DataType::kDouble},
                         {"team", DataType::kString}}));
    score_fds_.Add({"pid", "year"}, {"pid", "year", "hits", "team"});
  }

  TableResolver Resolver() {
    return [this](const std::string& name) -> Result<CatalogEntry> {
      if (name == "basket") return CatalogEntry{basket_, FdSet()};
      if (name == "score") return CatalogEntry{score_, score_fds_};
      return Status::NotFound(name);
    };
  }

  Result<QueryBlock> Bind(const std::string& sql) {
    ICEBERG_ASSIGN_OR_RETURN(ParsedQuery q, ParseSql(sql));
    Binder binder(Resolver());
    return binder.Bind(*q.select);
  }

  TablePtr basket_, score_;
  FdSet score_fds_;
};

TEST_F(PlanTest, ResolvesQualifiedColumnsToFlatOffsets) {
  auto block = Bind(
      "SELECT i1.item, i2.item FROM basket i1, basket i2 "
      "WHERE i1.bid = i2.bid GROUP BY i1.item, i2.item "
      "HAVING COUNT(*) >= 2");
  ASSERT_TRUE(block.ok()) << block.status().ToString();
  EXPECT_EQ(block->TotalWidth(), 4u);
  // i2.bid is the third flat column (offset 2).
  const ExprPtr& eq = block->where_conjuncts[0];
  EXPECT_EQ(eq->children[0]->resolved_index, 0);
  EXPECT_EQ(eq->children[1]->resolved_index, 2);
  EXPECT_EQ(block->QualifiedNameOfOffset(2), "i2.bid");
  EXPECT_EQ(block->TableOfOffset(3), 1u);
}

TEST_F(PlanTest, UnqualifiedUniqueColumnResolves) {
  auto block = Bind("SELECT hits FROM score");
  ASSERT_TRUE(block.ok()) << block.status().ToString();
  EXPECT_EQ(block->select[0].expr->resolved_index, 2);
}

TEST_F(PlanTest, AmbiguousColumnFails) {
  auto block = Bind("SELECT item FROM basket i1, basket i2");
  EXPECT_FALSE(block.ok());
  EXPECT_EQ(block.status().code(), StatusCode::kBindError);
}

TEST_F(PlanTest, UnknownColumnFails) {
  EXPECT_FALSE(Bind("SELECT nope FROM basket").ok());
}

TEST_F(PlanTest, UnknownTableFails) {
  EXPECT_FALSE(Bind("SELECT a FROM nonexistent").ok());
}

TEST_F(PlanTest, DuplicateAliasFails) {
  EXPECT_FALSE(Bind("SELECT 1 FROM basket b, score b").ok());
}

TEST_F(PlanTest, NonGroupedColumnInSelectFails) {
  auto block = Bind(
      "SELECT bid, COUNT(*) FROM basket GROUP BY item HAVING COUNT(*) >= 1");
  EXPECT_FALSE(block.ok());
}

// A column read outside an aggregate call must be one value per group:
// a GROUP BY column or one the GROUP BY columns determine. That holds in
// every select item, aggregated or not, and in HAVING.
TEST_F(PlanTest, UngroupedColumnBesideAggregateFails) {
  auto block =
      Bind("SELECT bid, item * 1000 + COUNT(*) FROM basket GROUP BY bid");
  ASSERT_FALSE(block.ok());
  EXPECT_EQ(block.status().code(), StatusCode::kBindError);
}

TEST_F(PlanTest, UngroupedColumnInHavingFails) {
  auto block = Bind(
      "SELECT bid, COUNT(*) FROM basket GROUP BY bid HAVING item < 4000");
  ASSERT_FALSE(block.ok());
  EXPECT_EQ(block.status().code(), StatusCode::kBindError);
}

TEST_F(PlanTest, DeterminedColumnOutsideGroupByBinds) {
  // score's key (pid, year) determines hits and team.
  auto block = Bind(
      "SELECT pid, year, hits, hits * 1000 + COUNT(*) FROM score "
      "GROUP BY pid, year HAVING team <> 'x'");
  EXPECT_TRUE(block.ok()) << block.status().ToString();
  // One key column alone does not.
  EXPECT_FALSE(Bind("SELECT pid, hits FROM score GROUP BY pid").ok());
  // A WHERE equality carries the key across a join.
  block = Bind(
      "SELECT s1.pid, s1.year, s2.hits, COUNT(*) FROM score s1, score s2 "
      "WHERE s1.pid = s2.pid AND s1.year = s2.year GROUP BY s1.pid, s1.year");
  EXPECT_TRUE(block.ok()) << block.status().ToString();
}

TEST_F(PlanTest, OutputSchemaTypesAndNames) {
  auto block = Bind(
      "SELECT pid, AVG(hits) AS avg_hits, COUNT(*) FROM score GROUP BY pid");
  ASSERT_TRUE(block.ok()) << block.status().ToString();
  const Schema& out = block->output_schema;
  ASSERT_EQ(out.num_columns(), 3u);
  EXPECT_EQ(out.column(0).name, "pid");
  EXPECT_EQ(out.column(0).type, DataType::kInt64);
  EXPECT_EQ(out.column(1).name, "avg_hits");
  EXPECT_EQ(out.column(1).type, DataType::kDouble);
  EXPECT_EQ(out.column(2).type, DataType::kInt64);
}

TEST_F(PlanTest, DuplicateOutputNamesDisambiguated) {
  auto block = Bind(
      "SELECT i1.item, i2.item FROM basket i1, basket i2 "
      "GROUP BY i1.item, i2.item");
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(block->output_schema.column(0).name, "item");
  EXPECT_EQ(block->output_schema.column(1).name, "item_2");
}

TEST_F(PlanTest, QueryFdsLiftTableFdsAndEqualities) {
  auto block = Bind(
      "SELECT s1.pid, COUNT(*) FROM score s1, score s2 "
      "WHERE s1.pid = s2.pid AND s1.year = s2.year "
      "GROUP BY s1.pid HAVING COUNT(*) >= 1");
  ASSERT_TRUE(block.ok()) << block.status().ToString();
  FdSet fds = block->QueryFds();
  // s1 key determines s1 attributes...
  EXPECT_TRUE(fds.Determines(MakeAttrSet({"s1.pid", "s1.year"}),
                             MakeAttrSet({"s1.hits"})));
  // ...and via the equalities, s2's key and hence s2's attributes.
  EXPECT_TRUE(fds.Determines(MakeAttrSet({"s1.pid", "s1.year"}),
                             MakeAttrSet({"s2.hits"})));
}

TEST_F(PlanTest, QueryFdsConstantEquality) {
  auto block = Bind("SELECT pid FROM score WHERE year = 1995 GROUP BY pid");
  ASSERT_TRUE(block.ok());
  FdSet fds = block->QueryFds();
  // year = constant: {} -> year.
  EXPECT_TRUE(fds.Determines({}, MakeAttrSet({"score.year"})));
}

TEST_F(PlanTest, GroupByExpressionRejected) {
  EXPECT_FALSE(Bind("SELECT 1 FROM score GROUP BY pid + 1").ok());
}

TEST_F(PlanTest, AttributesOf) {
  auto block = Bind("SELECT 1 FROM basket i1, score s");
  ASSERT_TRUE(block.ok());
  AttrSet attrs = block->AttributesOf({0});
  EXPECT_EQ(attrs, MakeAttrSet({"i1.bid", "i1.item"}));
}

TEST_F(PlanTest, InferTypeArithmetic) {
  auto block = Bind("SELECT pid + 1, hits + 1, pid / 2 FROM score "
                    "GROUP BY pid, hits");
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(block->output_schema.column(0).type, DataType::kInt64);
  EXPECT_EQ(block->output_schema.column(1).type, DataType::kDouble);
  EXPECT_EQ(block->output_schema.column(2).type, DataType::kDouble);
}

TEST_F(PlanTest, SubqueryInFromRejectedByBinder) {
  // The binder requires the engine to materialize subqueries first.
  ParsedQuery q = *ParseSql("SELECT s.a FROM (SELECT a FROM t) s");
  Binder binder(Resolver());
  EXPECT_FALSE(binder.Bind(*q.select).ok());
}

}  // namespace
}  // namespace iceberg
