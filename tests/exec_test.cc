// Tests for src/exec: baseline query execution — join methods, grouping,
// HAVING, projection, DISTINCT, parallel (Vendor A) equivalence, and the
// Appendix E plan shapes.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/engine/database.h"
#include "src/exec/executor.h"
#include "src/exec/join_pipeline.h"
#include "src/workload/object.h"

namespace iceberg {
namespace {

std::vector<Row> Sorted(const TablePtr& t) {
  std::vector<Row> rows = t->rows();
  std::sort(rows.begin(), rows.end(), RowLess());
  return rows;
}

void ExpectSame(const TablePtr& a, const TablePtr& b) {
  ASSERT_EQ(a->num_rows(), b->num_rows());
  std::vector<Row> ra = Sorted(a), rb = Sorted(b);
  for (size_t i = 0; i < ra.size(); ++i) {
    ASSERT_EQ(CompareRows(ra[i], rb[i]), 0)
        << RowToString(ra[i]) << " vs " << RowToString(rb[i]);
  }
}

class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable("emp", Schema({{"id", DataType::kInt64},
                                               {"dept", DataType::kInt64},
                                               {"salary", DataType::kInt64}}))
                    .ok());
    ASSERT_TRUE(db_.CreateTable("dept", Schema({{"id", DataType::kInt64},
                                                {"name", DataType::kString}}))
                    .ok());
    int emps[][3] = {{1, 10, 100}, {2, 10, 200}, {3, 20, 150},
                     {4, 20, 250},  {5, 30, 50}};
    for (auto& e : emps) {
      ASSERT_TRUE(db_.Insert("emp", {Value::Int(e[0]), Value::Int(e[1]),
                                     Value::Int(e[2])})
                      .ok());
    }
    ASSERT_TRUE(db_.Insert("dept", {Value::Int(10), Value::Str("eng")}).ok());
    ASSERT_TRUE(db_.Insert("dept", {Value::Int(20), Value::Str("ops")}).ok());
    ASSERT_TRUE(db_.Insert("dept", {Value::Int(30), Value::Str("hr")}).ok());
  }

  Database db_;
};

TEST_F(ExecTest, SingleTableProjectionAndFilter) {
  auto r = db_.Query("SELECT id, salary FROM emp WHERE salary > 150");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->num_rows(), 2u);
}

TEST_F(ExecTest, EquiJoinProducesAllMatches) {
  auto r = db_.Query(
      "SELECT e.id, d.name FROM emp e, dept d WHERE e.dept = d.id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->num_rows(), 5u);
}

TEST_F(ExecTest, JoinWithArithmeticProbeExpression) {
  auto r = db_.Query(
      "SELECT e.id FROM emp e, dept d WHERE e.dept + 0 = d.id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->num_rows(), 5u);
}

TEST_F(ExecTest, GroupByHavingSum) {
  auto r = db_.Query(
      "SELECT dept, SUM(salary) FROM emp GROUP BY dept "
      "HAVING SUM(salary) >= 300");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->num_rows(), 2u);  // dept 10: 300, dept 20: 400
}

TEST_F(ExecTest, ScalarAggregateOverEmptyInput) {
  auto r = db_.Query("SELECT COUNT(*) FROM emp WHERE salary > 10000");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ((*r)->num_rows(), 1u);
  EXPECT_EQ((*r)->row(0)[0].AsInt(), 0);
}

TEST_F(ExecTest, GroupedAggregateOverEmptyInputIsEmpty) {
  auto r = db_.Query(
      "SELECT dept, COUNT(*) FROM emp WHERE salary > 10000 GROUP BY dept");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_rows(), 0u);
}

TEST_F(ExecTest, DistinctDeduplicates) {
  auto r = db_.Query("SELECT DISTINCT dept FROM emp");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_rows(), 3u);
}

TEST_F(ExecTest, CrossJoinWhenNoPredicate) {
  auto r = db_.Query("SELECT e.id FROM emp e, dept d");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_rows(), 15u);
}

TEST_F(ExecTest, InequalityJoin) {
  auto r = db_.Query(
      "SELECT a.id, b.id FROM emp a, emp b WHERE a.salary < b.salary");
  ASSERT_TRUE(r.ok());
  // salaries 50,100,150,200,250 all distinct -> C(5,2) = 10 ordered pairs.
  EXPECT_EQ((*r)->num_rows(), 10u);
}

TEST_F(ExecTest, StatsCountJoinWork) {
  ExecStats stats;
  auto r = db_.Query("SELECT e.id FROM emp e, dept d WHERE e.dept = d.id",
                     ExecOptions::Postgres(), &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(stats.rows_joined, 5u);
  EXPECT_GT(stats.join_pairs_examined, 0u);
}

TEST_F(ExecTest, HavingOnCountDistinct) {
  auto r = db_.Query(
      "SELECT dept, COUNT(DISTINCT salary) FROM emp GROUP BY dept "
      "HAVING COUNT(DISTINCT salary) >= 2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->num_rows(), 2u);
}

// ----- join-method selection -----------------------------------------------

TEST(JoinPipeline, PicksHashJoinWithoutIndexes) {
  Database db;
  ASSERT_TRUE(db.CreateTable("a", Schema({{"k", DataType::kInt64}})).ok());
  ASSERT_TRUE(db.CreateTable("b", Schema({{"k", DataType::kInt64}})).ok());
  auto block = db.Prepare("SELECT a.k FROM a, b WHERE a.k = b.k");
  ASSERT_TRUE(block.ok());
  Executor ex;  // indexes enabled, but none exist
  std::string plan = ex.Explain(*block);
  EXPECT_NE(plan.find("HashJoin"), std::string::npos) << plan;
}

TEST(JoinPipeline, PicksHashIndexProbeWhenAvailable) {
  Database db;
  ASSERT_TRUE(db.CreateTable("a", Schema({{"k", DataType::kInt64}})).ok());
  ASSERT_TRUE(db.CreateTable("b", Schema({{"k", DataType::kInt64}})).ok());
  ASSERT_TRUE(db.CreateHashIndex("b", {"k"}).ok());
  auto block = db.Prepare("SELECT a.k FROM a, b WHERE a.k = b.k");
  Executor ex;
  std::string plan = ex.Explain(*block);
  EXPECT_NE(plan.find("IndexNLJoin(hash)"), std::string::npos) << plan;
}

TEST(JoinPipeline, PicksBtreeRangeForInequality) {
  Database db;
  ObjectConfig cfg;
  cfg.num_objects = 50;
  ASSERT_TRUE(RegisterObjects(&db, cfg).ok());
  auto block = db.Prepare(
      "SELECT L.id, COUNT(*) FROM object L, object R "
      "WHERE L.x <= R.x AND L.y <= R.y GROUP BY L.id HAVING COUNT(*) <= 5");
  Executor ex;
  std::string plan = ex.Explain(*block);
  // The Appendix E shape: hash aggregate over an indexed NLJ range probe.
  EXPECT_NE(plan.find("HashAggregate"), std::string::npos) << plan;
  EXPECT_NE(plan.find("IndexNLJoin(btree-range)"), std::string::npos) << plan;
}

TEST(JoinPipeline, DisablingIndexesFallsBackToBlockNlj) {
  Database db;
  ObjectConfig cfg;
  cfg.num_objects = 50;
  ASSERT_TRUE(RegisterObjects(&db, cfg).ok());
  auto block = db.Prepare(
      "SELECT L.id, COUNT(*) FROM object L, object R "
      "WHERE L.x <= R.x GROUP BY L.id HAVING COUNT(*) <= 5");
  ExecOptions opts;
  opts.use_indexes = false;
  Executor ex(opts);
  std::string plan = ex.Explain(*block);
  EXPECT_EQ(plan.find("IndexNLJoin"), std::string::npos) << plan;
}

TEST(JoinPipeline, IndexAndNoIndexAgree) {
  Database db;
  ObjectConfig cfg;
  cfg.num_objects = 300;
  cfg.domain = 50;
  ASSERT_TRUE(RegisterObjects(&db, cfg).ok());
  const char* sql =
      "SELECT L.id, COUNT(*) FROM object L, object R "
      "WHERE L.x <= R.x AND L.y <= R.y AND (L.x < R.x OR L.y < R.y) "
      "GROUP BY L.id HAVING COUNT(*) <= 10";
  ExecOptions no_idx;
  no_idx.use_indexes = false;
  auto with_index = db.Query(sql);
  auto without_index = db.Query(sql, no_idx);
  ASSERT_TRUE(with_index.ok());
  ASSERT_TRUE(without_index.ok());
  ExpectSame(*with_index, *without_index);
}

// ----- Vendor A (parallel) profile ------------------------------------------

TEST(VendorA, ParallelAggregationMatchesSequential) {
  Database db;
  ObjectConfig cfg;
  cfg.num_objects = 2000;  // above the parallel threshold
  cfg.domain = 200;
  ASSERT_TRUE(RegisterObjects(&db, cfg).ok());
  const char* sql =
      "SELECT L.id, COUNT(*) FROM object L, object R "
      "WHERE L.x <= R.x AND L.y <= R.y AND (L.x < R.x OR L.y < R.y) "
      "GROUP BY L.id HAVING COUNT(*) <= 30";
  auto sequential = db.Query(sql, ExecOptions::Postgres());
  auto parallel = db.Query(sql, ExecOptions::VendorA());
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(parallel.ok());
  ExpectSame(*sequential, *parallel);
}

TEST(VendorA, ParallelDistinctProjectionMatches) {
  Database db;
  ObjectConfig cfg;
  cfg.num_objects = 3000;
  cfg.domain = 40;
  ASSERT_TRUE(RegisterObjects(&db, cfg).ok());
  const char* sql = "SELECT DISTINCT o.x FROM object o WHERE o.x < 20";
  auto sequential = db.Query(sql, ExecOptions::Postgres());
  auto parallel = db.Query(sql, ExecOptions::VendorA());
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(parallel.ok());
  ExpectSame(*sequential, *parallel);
}

TEST(VendorA, ExplainShowsGather) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", Schema({{"a", DataType::kInt64}})).ok());
  auto block = db.Prepare("SELECT a FROM t");
  Executor ex(ExecOptions::VendorA());
  EXPECT_NE(ex.Explain(*block).find("Gather (workers=4)"),
            std::string::npos);
}

TEST(VendorA, ParallelCountDistinctMerges) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", Schema({{"g", DataType::kInt64},
                                          {"v", DataType::kInt64}}))
                  .ok());
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(
        db.Insert("t", {Value::Int(i % 3), Value::Int(i % 17)}).ok());
  }
  const char* sql =
      "SELECT g, COUNT(DISTINCT v) FROM t GROUP BY g "
      "HAVING COUNT(DISTINCT v) >= 1";
  auto seq = db.Query(sql, ExecOptions::Postgres());
  auto par = db.Query(sql, ExecOptions::VendorA());
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(par.ok());
  ExpectSame(*seq, *par);
}

}  // namespace
}  // namespace iceberg
