// Tests for the full optimization procedure (Section 7 / Appendix D,
// Listing 9): combining a-priori reducers with NLJP on multiway joins, the
// Example 13 walkthrough, FD-based equality inference, and end-to-end
// equivalence sweeps over all technique combinations.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/engine/database.h"
#include "src/rewrite/equality_inference.h"
#include "src/workload/baseball.h"
#include "src/workload/basket.h"
#include "src/workload/object.h"

namespace iceberg {
namespace {

void ExpectSame(const TablePtr& a, const TablePtr& b,
                const std::string& context = "") {
  ASSERT_EQ(a->num_rows(), b->num_rows()) << context;
  std::vector<Row> ra = a->rows(), rb = b->rows();
  std::sort(ra.begin(), ra.end(), RowLess());
  std::sort(rb.begin(), rb.end(), RowLess());
  for (size_t i = 0; i < ra.size(); ++i) {
    ASSERT_EQ(CompareRows(ra[i], rb[i]), 0)
        << context << ": " << RowToString(ra[i]) << " vs "
        << RowToString(rb[i]);
  }
}

/// EXPLAIN renders the plan Run executes: the same reductions, and either
/// the same NLJP section or the reason the plan fell back. An EXPLAIN
/// issued with a capture trace records nothing into it.
void ExpectExplainAgreesWithRun(Database* db, const std::string& sql) {
  IcebergReport report;
  Result<TablePtr> run = db->QueryIceberg(sql, IcebergOptions::All(), &report);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  Result<std::string> explain = db->ExplainIceberg(sql);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  ASSERT_FALSE(report.reductions.empty()) << report.ToString();
  for (const IcebergReport::Reduction& r : report.reductions) {
    const std::string line = "reduced " + r.alias + ": " +
                             std::to_string(r.rows_before) + " -> " +
                             std::to_string(r.rows_after) + " rows\n";
    EXPECT_NE(explain->find(line), std::string::npos) << *explain;
  }
  if (report.used_nljp) {
    const size_t nljp = explain->find("NLJP operator");
    ASSERT_NE(nljp, std::string::npos) << *explain;
    EXPECT_EQ(explain->substr(nljp), report.nljp_explain);
  } else {
    EXPECT_EQ(explain->find("NLJP operator"), std::string::npos) << *explain;
    const std::string prefix = "fallback to baseline plan: ";
    ASSERT_FALSE(report.degradations.empty()) << report.ToString();
    const std::string& fallback = report.degradations.back();
    ASSERT_EQ(fallback.rfind(prefix, 0), 0u) << fallback;
    EXPECT_NE(explain->find("no NLJP: " + fallback.substr(prefix.size()) +
                            "\n"),
              std::string::npos)
        << *explain;
  }

  PlanTrace trace;
  IcebergOptions capture = IcebergOptions::All();
  capture.capture = &trace;
  Result<TablePtr> explained = db->QueryIceberg("EXPLAIN " + sql, capture);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  EXPECT_FALSE(trace.captured);
  EXPECT_FALSE(trace.used_nljp);
  EXPECT_TRUE(trace.apriori_partitions.empty());
}

constexpr char kComplexSql[] =
    "SELECT S1.id, S1.attr, S2.attr, COUNT(*) "
    "FROM product S1, product S2, product T1, product T2 "
    "WHERE S1.id = S2.id AND T1.id = T2.id "
    "AND S1.category = T1.category "
    "AND T1.attr = S1.attr AND T2.attr = S2.attr "
    "AND T1.val > S1.val AND T2.val > S2.val "
    "GROUP BY S1.id, S1.attr, S2.attr HAVING COUNT(*) >= 25";

class ComplexQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BaseballConfig cfg;
    cfg.num_rows = 4000;
    cfg.num_players = 250;
    ASSERT_TRUE(RegisterProduct(&db_, cfg, /*max_base_rows=*/700).ok());
  }
  Database db_;
};

TEST_F(ComplexQueryTest, EqualityInferenceDerivesCategoryPredicates) {
  auto block = db_.Prepare(kComplexSql);
  ASSERT_TRUE(block.ok());
  size_t before = block->where_conjuncts.size();
  size_t derived = InferDerivedEqualities(&*block);
  // s1~s2 and t1~t2 category links exist plus pairwise closure; Example 13
  // needs at least S2.category = T2.category.
  EXPECT_GE(derived, 3u);
  EXPECT_EQ(block->where_conjuncts.size(), before + derived);
  bool found_s2_t2 = false;
  for (const ExprPtr& conjunct : block->where_conjuncts) {
    std::string text = conjunct->ToString();
    if (text == "s2.category = t2.category" ||
        text == "t2.category = s2.category") {
      found_s2_t2 = true;
    }
  }
  EXPECT_TRUE(found_s2_t2);
}

TEST_F(ComplexQueryTest, PlanCombinesBothReducersAndNljp) {
  // The paper's own prototype could not apply generalized a-priori together
  // with pruning on this query (Section 7's "temporary limitation"); the
  // full procedure of Appendix D can, and ours does.
  IcebergReport report;
  auto smart = db_.QueryIceberg(kComplexSql, IcebergOptions::All(), &report);
  ASSERT_TRUE(smart.ok()) << smart.status().ToString();
  EXPECT_EQ(report.reductions.size(), 2u) << report.ToString();  // Q_S1, Q_S2
  EXPECT_TRUE(report.used_nljp) << report.ToString();
  // Both reducers group by (id, attr) — the Example 13 shapes.
  bool has_s1 = false, has_s2 = false;
  for (const auto& r : report.reductions) {
    if (r.alias == "s1") has_s1 = true;
    if (r.alias == "s2") has_s2 = true;
    EXPECT_LE(r.rows_after, r.rows_before);
  }
  EXPECT_TRUE(has_s1);
  EXPECT_TRUE(has_s2);
}

TEST_F(ComplexQueryTest, AllConfigurationsAgree) {
  auto base = db_.Query(kComplexSql);
  ASSERT_TRUE(base.ok());
  EXPECT_GT((*base)->num_rows(), 0u);  // the iceberg has a tip
  for (int mask = 0; mask < 8; ++mask) {
    IcebergOptions options =
        IcebergOptions::Only(mask & 1, mask & 2, mask & 4);
    auto smart = db_.QueryIceberg(kComplexSql, options);
    ASSERT_TRUE(smart.ok()) << smart.status().ToString();
    ExpectSame(*base, *smart, "mask=" + std::to_string(mask));
  }
}

TEST_F(ComplexQueryTest, PruningPredicateMatchesListing10) {
  auto explain = db_.ExplainIceberg(kComplexSql);
  ASSERT_TRUE(explain.ok());
  // The derived Q_C requires equality on the attr pair (string residue)
  // and dominance on the vals — Listing 10's shape.
  EXPECT_NE(explain->find("Q_C"), std::string::npos) << *explain;
  EXPECT_NE(explain->find("="), std::string::npos);
  EXPECT_NE(explain->find("memoization: enabled"), std::string::npos)
      << *explain;
  // Reducers on S1 and S2, then NLJP.
  ExpectExplainAgreesWithRun(&db_, kComplexSql);
}

TEST_F(ComplexQueryTest, VendorAAgreesToo) {
  auto base = db_.Query(kComplexSql, ExecOptions::Postgres());
  auto vendor = db_.Query(kComplexSql, ExecOptions::VendorA());
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(vendor.ok());
  ExpectSame(*base, *vendor, "vendor A");
}

TEST(OptimizerPairs, FullPairsQueryAllConfigs) {
  Database db;
  BaseballConfig cfg;
  cfg.num_rows = 6000;
  cfg.num_players = 250;
  ASSERT_TRUE(RegisterBaseball(&db, cfg).ok());
  const char* sql =
      "WITH pair AS "
      " (SELECT s1.pid AS pid1, s2.pid AS pid2, "
      "         AVG(s1.hits) AS hits1, AVG(s1.hruns) AS hruns1, "
      "         AVG(s2.hits) AS hits2, AVG(s2.hruns) AS hruns2 "
      "  FROM score s1, score s2 "
      "  WHERE s1.teamid = s2.teamid AND s1.year = s2.year "
      "    AND s1.round = s2.round AND s1.pid < s2.pid "
      "  GROUP BY s1.pid, s2.pid HAVING COUNT(*) >= 4) "
      "SELECT L.pid1, L.pid2, COUNT(*) "
      "FROM pair L, pair R "
      "WHERE R.hits1 >= L.hits1 AND R.hruns1 >= L.hruns1 "
      "  AND R.hits2 >= L.hits2 AND R.hruns2 >= L.hruns2 "
      "  AND (R.hits1 > L.hits1 OR R.hruns1 > L.hruns1 "
      "    OR R.hits2 > L.hits2 OR R.hruns2 > L.hruns2) "
      "GROUP BY L.pid1, L.pid2 HAVING COUNT(*) <= 30";
  auto base = db.Query(sql);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  for (int mask = 0; mask < 8; ++mask) {
    IcebergOptions options =
        IcebergOptions::Only(mask & 1, mask & 2, mask & 4);
    auto smart = db.QueryIceberg(sql, options);
    ASSERT_TRUE(smart.ok()) << smart.status().ToString();
    ExpectSame(*base, *smart, "pairs mask=" + std::to_string(mask));
  }
}

TEST(OptimizerPairs, CteUsesAprioriMainUsesNljp) {
  Database db;
  BaseballConfig cfg;
  cfg.num_rows = 6000;
  cfg.num_players = 250;
  ASSERT_TRUE(RegisterBaseball(&db, cfg).ok());
  const char* sql =
      "WITH pair AS "
      " (SELECT s1.pid AS pid1, s2.pid AS pid2, "
      "         SUM(s1.hits) AS hits1, SUM(s2.hits) AS hits2 "
      "  FROM score s1, score s2 "
      "  WHERE s1.teamid = s2.teamid AND s1.year = s2.year "
      "    AND s1.round = s2.round AND s1.pid < s2.pid "
      "  GROUP BY s1.pid, s2.pid HAVING COUNT(*) >= 4) "
      "SELECT L.pid1, L.pid2, COUNT(*) FROM pair L, pair R "
      "WHERE R.hits1 >= L.hits1 AND R.hits2 >= L.hits2 "
      "  AND (R.hits1 > L.hits1 OR R.hits2 > L.hits2) "
      "GROUP BY L.pid1, L.pid2 HAVING COUNT(*) <= 25";
  IcebergReport report;
  auto smart = db.QueryIceberg(sql, IcebergOptions::All(), &report);
  ASSERT_TRUE(smart.ok()) << smart.status().ToString();
  // The WITH block reduced score via a-priori (both sides), and the main
  // block ran under NLJP.
  EXPECT_GE(report.reductions.size(), 1u) << report.ToString();
  EXPECT_TRUE(report.used_nljp) << report.ToString();
}

TEST(OptimizerFallback, NoHavingFallsBackToBaseline) {
  Database db;
  ObjectConfig cfg;
  cfg.num_objects = 100;
  ASSERT_TRUE(RegisterObjects(&db, cfg).ok());
  const char* sql = "SELECT o.id FROM object o WHERE o.x < 50";
  auto base = db.Query(sql);
  IcebergReport report;
  auto smart = db.QueryIceberg(sql, IcebergOptions::All(), &report);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(smart.ok());
  EXPECT_FALSE(report.used_nljp);
  ExpectSame(*base, *smart);
}

TEST(OptimizerFallback, NeitherMonotoneDirectionStillCorrect) {
  Database db;
  ObjectConfig cfg;
  cfg.num_objects = 200;
  cfg.domain = 30;
  ASSERT_TRUE(RegisterObjects(&db, cfg).ok());
  // AVG HAVING: no technique applies; must fall back and agree.
  const char* sql =
      "SELECT L.id, AVG(R.x) FROM object L, object R "
      "WHERE L.x <= R.x GROUP BY L.id HAVING AVG(R.x) >= 15";
  auto base = db.Query(sql);
  IcebergReport report;
  auto smart = db.QueryIceberg(sql, IcebergOptions::All(), &report);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(smart.ok()) << smart.status().ToString();
  ExpectSame(*base, *smart);
}

TEST(OptimizerExplain, SkybandShowsNljpNoApriori) {
  Database db;
  ObjectConfig cfg;
  cfg.num_objects = 100;
  ASSERT_TRUE(RegisterObjects(&db, cfg).ok());
  auto explain = db.ExplainIceberg(
      "SELECT L.id, COUNT(*) FROM object L, object R "
      "WHERE L.x <= R.x AND L.y <= R.y AND (L.x < R.x OR L.y < R.y) "
      "GROUP BY L.id HAVING COUNT(*) <= 50");
  ASSERT_TRUE(explain.ok());
  EXPECT_EQ(explain->find("Reducer"), std::string::npos) << *explain;
  EXPECT_NE(explain->find("NLJP"), std::string::npos) << *explain;
}

TEST(OptimizerMarketBasket, AprioriOnBothSidesNoNljp) {
  Database db;
  BasketConfig cfg;
  cfg.num_baskets = 1500;
  cfg.num_items = 300;
  ASSERT_TRUE(RegisterBaskets(&db, cfg).ok());
  const char* sql =
      "SELECT i1.item, i2.item, COUNT(*) FROM basket i1, basket i2 "
      "WHERE i1.bid = i2.bid AND i1.item < i2.item "
      "GROUP BY i1.item, i2.item HAVING COUNT(*) >= 25";
  IcebergReport report;
  auto smart = db.QueryIceberg(sql, IcebergOptions::All(), &report);
  ASSERT_TRUE(smart.ok()) << smart.status().ToString();
  EXPECT_EQ(report.reductions.size(), 2u) << report.ToString();
  EXPECT_FALSE(report.used_nljp);
  auto base = db.Query(sql);
  ASSERT_TRUE(base.ok());
  ExpectSame(*base, *smart);
  ExpectExplainAgreesWithRun(&db, sql);
}

}  // namespace
}  // namespace iceberg
