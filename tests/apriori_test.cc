// Tests for the generalized a-priori technique (Section 4): Theorem 2's
// schema-based safety checks on the paper's own examples, reducer
// construction, and end-to-end equivalence of the reduced query.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/engine/database.h"
#include "src/exec/exec_options.h"
#include "src/exec/governor.h"
#include "src/obs/metrics.h"
#include "src/rewrite/apriori.h"
#include "src/rewrite/iceberg_view.h"
#include "src/workload/baseball.h"
#include "src/workload/basket.h"

namespace iceberg {
namespace {

Result<IcebergView> ViewOf(Database* db, const std::string& sql,
                           std::vector<size_t> left,
                           std::vector<size_t> right,
                           QueryBlock* block_storage) {
  ICEBERG_ASSIGN_OR_RETURN(*block_storage, db->Prepare(sql));
  TablePartition part;
  part.left = std::move(left);
  part.right = std::move(right);
  return AnalyzeIceberg(*block_storage, part);
}

class AprioriTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // basket(bid, item), key (bid, item) — Listings 1 / Example 6.
    ASSERT_TRUE(db_.CreateTable("basket", Schema({{"bid", DataType::kInt64},
                                                  {"item", DataType::kInt64}}))
                    .ok());
    ASSERT_TRUE(db_.DeclareKey("basket", {"bid", "item"}).ok());
    // Example 7's tables: basket3(bid, item, did) and discount(did, rate).
    ASSERT_TRUE(
        db_.CreateTable("basket3", Schema({{"bid", DataType::kInt64},
                                           {"item", DataType::kInt64},
                                           {"did", DataType::kInt64}}))
            .ok());
    ASSERT_TRUE(db_.DeclareKey("basket3", {"bid", "item", "did"}).ok());
    ASSERT_TRUE(
        db_.CreateTable("discount", Schema({{"did", DataType::kInt64},
                                            {"rate", DataType::kDouble}}))
            .ok());
    ASSERT_TRUE(db_.DeclareKey("discount", {"did"}).ok());
    // object(id, x, y), key id — Listing 2.
    ASSERT_TRUE(db_.CreateTable("object", Schema({{"id", DataType::kInt64},
                                                  {"x", DataType::kInt64},
                                                  {"y", DataType::kInt64}}))
                    .ok());
    ASSERT_TRUE(db_.DeclareKey("object", {"id"}).ok());
  }

  Database db_;
};

TEST_F(AprioriTest, Example6MarketBasketMonotoneSafe) {
  QueryBlock block;
  auto view = ViewOf(&db_,
                     "SELECT i1.item, i2.item FROM basket i1, basket i2 "
                     "WHERE i1.bid = i2.bid GROUP BY i1.item, i2.item "
                     "HAVING COUNT(*) >= 20",
                     {0}, {1}, &block);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  auto opp = CheckApriori(*view);
  ASSERT_TRUE(opp.ok()) << opp.status().ToString();
  EXPECT_EQ(opp->monotonicity, Monotonicity::kMonotone);
  // The reducer is exactly Listing 1 pushed to one table.
  EXPECT_NE(opp->reducer_block.ToString().find("GROUP BY i1.item"),
            std::string::npos);
  ASSERT_EQ(opp->applications.size(), 1u);
  EXPECT_EQ(opp->applications[0].table_index, 0u);
}

TEST_F(AprioriTest, Example6AntiMonotoneUnsafe) {
  // Infrequent pairs: COUNT(*) <= 20 requires item -> bid, which fails.
  QueryBlock block;
  auto view = ViewOf(&db_,
                     "SELECT i1.item, i2.item FROM basket i1, basket i2 "
                     "WHERE i1.bid = i2.bid GROUP BY i1.item, i2.item "
                     "HAVING COUNT(*) <= 20",
                     {0}, {1}, &block);
  ASSERT_TRUE(view.ok());
  auto opp = CheckApriori(*view);
  EXPECT_FALSE(opp.ok());
}

TEST_F(AprioriTest, Example7MonotoneAsymmetry) {
  const char* sql =
      "SELECT item, rate FROM basket3 L, discount R WHERE L.did = R.did "
      "GROUP BY item, rate HAVING COUNT(DISTINCT bid) >= 25";
  // Safe for L = basket3: G_R + J_R^= = {rate, did} is a superkey of
  // discount.
  QueryBlock block1;
  auto view_l = ViewOf(&db_, sql, {0}, {1}, &block1);
  ASSERT_TRUE(view_l.ok());
  EXPECT_TRUE(CheckApriori(*view_l).ok());
  // NOT safe for R = discount: {item, did} is not a superkey of basket3.
  QueryBlock block2;
  auto view_r = ViewOf(&db_, sql, {1}, {0}, &block2);
  ASSERT_TRUE(view_r.ok());
  EXPECT_FALSE(CheckApriori(*view_r).ok());
}

TEST_F(AprioriTest, Example7AntiMonotoneViaGlDeterminesJl) {
  // With the additional FD item -> did, the anti-monotone variant becomes
  // safe for L through the OTHER Theorem 2 branch (G_L -> J_L).
  ASSERT_TRUE(db_.DeclareFd("basket3", {"item"}, {"did"}).ok());
  const char* sql =
      "SELECT item, rate FROM basket3 L, discount R WHERE L.did = R.did "
      "GROUP BY item, rate HAVING COUNT(DISTINCT bid) <= 25";
  QueryBlock block;
  auto view = ViewOf(&db_, sql, {0}, {1}, &block);
  ASSERT_TRUE(view.ok());
  auto opp = CheckApriori(*view);
  ASSERT_TRUE(opp.ok()) << opp.status().ToString();
  EXPECT_EQ(opp->monotonicity, Monotonicity::kAntiMonotone);
}

TEST_F(AprioriTest, Example7AntiMonotoneWithoutFdUnsafe) {
  const char* sql =
      "SELECT item, rate FROM basket3 L, discount R WHERE L.did = R.did "
      "GROUP BY item, rate HAVING COUNT(DISTINCT bid) <= 25";
  QueryBlock block;
  auto view = ViewOf(&db_, sql, {0}, {1}, &block);
  ASSERT_TRUE(view.ok());
  EXPECT_FALSE(CheckApriori(*view).ok());
}

TEST_F(AprioriTest, SkybandReducerRejectedAsUseless) {
  // Q1-Q3/Q8: safe per Theorem 2 but cannot filter singleton groups.
  QueryBlock block;
  auto view = ViewOf(&db_,
                     "SELECT L.id, COUNT(*) FROM object L, object R "
                     "WHERE L.x <= R.x AND L.y <= R.y "
                     "GROUP BY L.id HAVING COUNT(*) <= 50",
                     {0}, {1}, &block);
  ASSERT_TRUE(view.ok());
  auto opp = CheckApriori(*view);
  EXPECT_FALSE(opp.ok());
  EXPECT_NE(opp.status().message().find("singleton"), std::string::npos);
}

TEST_F(AprioriTest, NeitherMonotonicityRejected) {
  QueryBlock block;
  auto view = ViewOf(&db_,
                     "SELECT i1.item, i2.item FROM basket i1, basket i2 "
                     "WHERE i1.bid = i2.bid GROUP BY i1.item, i2.item "
                     "HAVING AVG(i1.bid) >= 20",
                     {0}, {1}, &block);
  ASSERT_TRUE(view.ok());
  EXPECT_FALSE(CheckApriori(*view).ok());
}

TEST_F(AprioriTest, HavingNotApplicableToLeftRejected) {
  QueryBlock block;
  auto view = ViewOf(&db_,
                     "SELECT i1.item, i2.item FROM basket i1, basket i2 "
                     "WHERE i1.bid = i2.bid GROUP BY i1.item, i2.item "
                     "HAVING MAX(i2.bid) >= 20",
                     {0}, {1}, &block);
  ASSERT_TRUE(view.ok());
  auto opp = CheckApriori(*view);
  EXPECT_FALSE(opp.ok());
  EXPECT_NE(opp.status().message().find("not applicable"),
            std::string::npos);
}

TEST_F(AprioriTest, ApplyAprioriFiltersRows) {
  // Items 1,2 appear 3x together; items 5-9 appear once each.
  int data[][2] = {{1, 1}, {1, 2}, {1, 9}, {2, 1}, {2, 2},
                   {3, 1}, {3, 2}, {3, 5}};
  for (auto& d : data) {
    ASSERT_TRUE(
        db_.Insert("basket", {Value::Int(d[0]), Value::Int(d[1])}).ok());
  }
  QueryBlock block;
  auto view = ViewOf(&db_,
                     "SELECT i1.item, i2.item FROM basket i1, basket i2 "
                     "WHERE i1.bid = i2.bid GROUP BY i1.item, i2.item "
                     "HAVING COUNT(*) >= 3",
                     {0}, {1}, &block);
  ASSERT_TRUE(view.ok());
  auto opp = CheckApriori(*view);
  ASSERT_TRUE(opp.ok()) << opp.status().ToString();
  Executor executor;
  size_t reducer_rows = 0;
  auto selections = ApplyApriori(*opp, &executor, &reducer_rows);
  ASSERT_TRUE(selections.ok()) << selections.status().ToString();
  EXPECT_EQ(reducer_rows, 2u);  // items 1 and 2 are frequent
  ASSERT_EQ(selections->size(), 1u);
  const AprioriSelection& s = (*selections)[0];
  EXPECT_EQ(s.table_index, 0u);
  EXPECT_EQ(s.rows_before, 8u);
  EXPECT_EQ(s.rows_after, 6u);  // rows with item in {1, 2}
  ASSERT_NE(s.selection, nullptr);
  const Table& basket = *block.tables[0].table;
  ASSERT_EQ(s.selection->keep.size(), basket.num_rows());
  EXPECT_TRUE(s.selection->LiveFor(basket));
  size_t kept = 0;
  for (size_t i = 0; i < basket.num_rows(); ++i) {
    const bool frequent = basket.row(i)[1].AsInt() <= 2;
    EXPECT_EQ(s.selection->keep[i] != 0, frequent) << "row " << i;
    if (frequent) ++kept;
  }
  EXPECT_EQ(kept, 6u);
  EXPECT_EQ(s.selection->kept, 6u);
}

/// Property sweep: on random basket instances and varying thresholds, the
/// reduced query must return exactly the original result (Definition 2).
class AprioriEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(AprioriEquivalence, ReducedQueryEquivalent) {
  int threshold = GetParam();
  Database db;
  ASSERT_TRUE(db.CreateTable("basket", Schema({{"bid", DataType::kInt64},
                                               {"item", DataType::kInt64}}))
                  .ok());
  ASSERT_TRUE(db.DeclareKey("basket", {"bid", "item"}).ok());
  // Deterministic pseudo-random content.
  uint64_t state = 12345 + static_cast<uint64_t>(threshold);
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  std::set<std::pair<int, int>> seen;
  for (int i = 0; i < 500; ++i) {
    int bid = static_cast<int>(next() % 60);
    int item = static_cast<int>(next() % 25);
    if (seen.emplace(bid, item).second) {
      ASSERT_TRUE(
          db.Insert("basket", {Value::Int(bid), Value::Int(item)}).ok());
    }
  }
  std::string sql =
      "SELECT i1.item, i2.item, COUNT(*) FROM basket i1, basket i2 "
      "WHERE i1.bid = i2.bid AND i1.item < i2.item "
      "GROUP BY i1.item, i2.item HAVING COUNT(*) >= " +
      std::to_string(threshold);
  auto base = db.Query(sql);
  ASSERT_TRUE(base.ok());
  auto smart = db.QueryIceberg(sql, IcebergOptions::Only(true, false, false));
  ASSERT_TRUE(smart.ok()) << smart.status().ToString();
  ASSERT_EQ((*base)->num_rows(), (*smart)->num_rows()) << sql;
  std::vector<Row> a = (*base)->rows(), b = (*smart)->rows();
  std::sort(a.begin(), a.end(), RowLess());
  std::sort(b.begin(), b.end(), RowLess());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(CompareRows(a[i], b[i]), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, AprioriEquivalence,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 12, 20));

// ---------------------------------------------------------------------------
// Reducers applied as row selections over the original tables
// ---------------------------------------------------------------------------

/// Restores the process-wide predicate-transfer chicken bit.
struct TransferFlagGuard {
  bool saved = PredicateTransferEnabled();
  ~TransferFlagGuard() { SetPredicateTransferEnabled(saved); }
};

void ExpectSameOrderedRows(const TablePtr& a, const TablePtr& b,
                           const std::string& ctx) {
  ASSERT_EQ(a->num_rows(), b->num_rows()) << ctx;
  for (size_t i = 0; i < a->num_rows(); ++i) {
    ASSERT_EQ(CompareRows(a->row(i), b->row(i)), 0)
        << ctx << " row " << i << ": " << RowToString(a->row(i)) << " vs "
        << RowToString(b->row(i));
  }
}

bool AnyReductionFilters(const IcebergReport& report) {
  for (const IcebergReport::Reduction& r : report.reductions) {
    if (r.rows_after < r.rows_before) return true;
  }
  return false;
}

TEST_F(AprioriTest, KeepAllReducerProducesNoSelection) {
  // Every item appears in all three baskets: COUNT(*) >= 3 keeps them all.
  for (int bid = 1; bid <= 3; ++bid) {
    for (int item = 1; item <= 2; ++item) {
      ASSERT_TRUE(
          db_.Insert("basket", {Value::Int(bid), Value::Int(item)}).ok());
    }
  }
  const std::string sql =
      "SELECT i1.item, i2.item, COUNT(*) FROM basket i1, basket i2 "
      "WHERE i1.bid = i2.bid GROUP BY i1.item, i2.item "
      "HAVING COUNT(*) >= 3";
  QueryBlock block;
  auto view = ViewOf(&db_, sql, {0}, {1}, &block);
  ASSERT_TRUE(view.ok());
  auto opp = CheckApriori(*view);
  ASSERT_TRUE(opp.ok()) << opp.status().ToString();
  Executor executor;
  auto selections = ApplyApriori(*opp, &executor);
  ASSERT_TRUE(selections.ok()) << selections.status().ToString();
  ASSERT_EQ(selections->size(), 1u);
  EXPECT_EQ((*selections)[0].rows_before, 6u);
  EXPECT_EQ((*selections)[0].rows_after, 6u);
  EXPECT_EQ((*selections)[0].selection, nullptr);

  // Through the optimizer: the reductions are reported, the plan scans the
  // original table (a repeated statement finds its statistics cached), and
  // no selection reaches the pipeline.
  ASSERT_TRUE(db_.QueryIceberg(sql, IcebergOptions::All()).ok());
  Counter* stats_builds = ICEBERG_COUNTER("cbo.stats_builds");
  const uint64_t builds_before = stats_builds->value();
  IcebergReport report;
  auto smart = db_.QueryIceberg(sql, IcebergOptions::All(), &report);
  ASSERT_TRUE(smart.ok()) << smart.status().ToString();
  EXPECT_EQ(stats_builds->value(), builds_before);
  ASSERT_FALSE(report.reductions.empty()) << report.ToString();
  EXPECT_FALSE(AnyReductionFilters(report)) << report.ToString();
  EXPECT_EQ(report.exec_stats.transfer_rows_eliminated, 0u);
  auto explain = db_.ExplainIceberg(sql);
  ASSERT_TRUE(explain.ok());
  EXPECT_EQ(explain->find("_reduced"), std::string::npos) << *explain;
  EXPECT_EQ(explain->find("transfer:"), std::string::npos) << *explain;
}

TEST(AprioriSelection, ReducedStatementsReuseTableStatistics) {
  // The reduced FROM entries keep the original TablePtrs, so a repeated
  // statement finds every table's statistics cached.
  Database db;
  BasketConfig cfg;
  cfg.num_baskets = 1500;
  cfg.num_items = 300;
  ASSERT_TRUE(RegisterBaskets(&db, cfg).ok());
  const char* sql =
      "SELECT i1.item, i2.item, COUNT(*) FROM basket i1, basket i2 "
      "WHERE i1.bid = i2.bid AND i1.item < i2.item "
      "GROUP BY i1.item, i2.item HAVING COUNT(*) >= 25";
  IcebergReport first;
  ASSERT_TRUE(db.QueryIceberg(sql, IcebergOptions::All(), &first).ok());
  ASSERT_TRUE(AnyReductionFilters(first)) << first.ToString();
  Counter* builds = ICEBERG_COUNTER("cbo.stats_builds");
  const uint64_t before = builds->value();
  IcebergReport second;
  ASSERT_TRUE(db.QueryIceberg(sql, IcebergOptions::All(), &second).ok());
  EXPECT_EQ(builds->value(), before) << second.ToString();
}

/// A filtering reducer gives the same ordered rows as the plan without
/// a-priori, on an NLJP plan (Example 13) and on a fallback plan (market
/// basket), at 1 and 4 threads, with predicate transfer on and off.
TEST(AprioriSelection, FilteringReducerMatchesAprioriOff) {
  TransferFlagGuard guard;
  Database product_db;
  BaseballConfig product_cfg;
  product_cfg.num_rows = 4000;
  product_cfg.num_players = 250;
  ASSERT_TRUE(
      RegisterProduct(&product_db, product_cfg, /*max_base_rows=*/700).ok());
  Database basket_db;
  BasketConfig basket_cfg;
  basket_cfg.num_baskets = 1500;
  basket_cfg.num_items = 300;
  ASSERT_TRUE(RegisterBaskets(&basket_db, basket_cfg).ok());
  struct Case {
    const char* name;
    Database* db;
    const char* sql;
    bool nljp;
  };
  const Case cases[] = {
      {"example13", &product_db,
       "SELECT S1.id, S1.attr, S2.attr, COUNT(*) "
       "FROM product S1, product S2, product T1, product T2 "
       "WHERE S1.id = S2.id AND T1.id = T2.id "
       "AND S1.category = T1.category "
       "AND T1.attr = S1.attr AND T2.attr = S2.attr "
       "AND T1.val > S1.val AND T2.val > S2.val "
       "GROUP BY S1.id, S1.attr, S2.attr HAVING COUNT(*) >= 25",
       true},
      {"basket", &basket_db,
       "SELECT i1.item, i2.item, COUNT(*) FROM basket i1, basket i2 "
       "WHERE i1.bid = i2.bid AND i1.item < i2.item "
       "GROUP BY i1.item, i2.item HAVING COUNT(*) >= 25",
       false},
  };
  for (const Case& c : cases) {
    for (bool transfer : {true, false}) {
      SetPredicateTransferEnabled(transfer);
      for (int threads : {1, 4}) {
        const std::string ctx = std::string(c.name) +
                                " transfer=" + (transfer ? "on" : "off") +
                                " threads=" + std::to_string(threads);
        IcebergOptions on = IcebergOptions::All();
        on.base_exec.num_threads = threads;
        IcebergOptions off = on;
        off.enable_apriori = false;
        IcebergReport report;
        auto reduced = c.db->QueryIceberg(c.sql, on, &report);
        auto plain = c.db->QueryIceberg(c.sql, off);
        ASSERT_TRUE(reduced.ok()) << ctx << reduced.status().ToString();
        ASSERT_TRUE(plain.ok()) << ctx << plain.status().ToString();
        EXPECT_GT((*plain)->num_rows(), 0u) << ctx;
        ExpectSameOrderedRows(*plain, *reduced, ctx);
        EXPECT_EQ(report.used_nljp, c.nljp) << ctx << report.ToString();
        EXPECT_TRUE(AnyReductionFilters(report)) << ctx << report.ToString();
        // The seeds show up as rows the pipelines skip.
        const size_t eliminated =
            c.nljp ? report.nljp_stats.transfer_rows_eliminated
                   : report.exec_stats.transfer_rows_eliminated;
        EXPECT_GT(eliminated, 0u) << ctx << report.ToString();
      }
    }
  }
}

/// `big` has a column g: all but `unique_g` rows share `shared_g` values,
/// and each of the rest has a g of its own, which
/// `GROUP BY b.g HAVING COUNT(*) >= 2` drops.
Status LoadSeedTables(Database* db, int big_rows, int shared_g, int unique_g,
                      int small_rows) {
  ICEBERG_RETURN_NOT_OK(db->CreateTable(
      "big", Schema({{"id", DataType::kInt64},
                     {"x", DataType::kInt64},
                     {"g", DataType::kInt64}})));
  ICEBERG_RETURN_NOT_OK(db->DeclareKey("big", {"id"}));
  for (int i = 0; i < big_rows; ++i) {
    const int g = i < big_rows - unique_g ? i % shared_g : big_rows + i;
    ICEBERG_RETURN_NOT_OK(db->Insert(
        "big", {Value::Int(i), Value::Int((i * 7) % 40), Value::Int(g)}));
  }
  ICEBERG_RETURN_NOT_OK(db->CreateTable(
      "small", Schema({{"id", DataType::kInt64}, {"x", DataType::kInt64}})));
  ICEBERG_RETURN_NOT_OK(db->DeclareKey("small", {"id"}));
  for (int i = 0; i < small_rows; ++i) {
    ICEBERG_RETURN_NOT_OK(
        db->Insert("small", {Value::Int(i), Value::Int((i * 3) % 40)}));
  }
  return Status::OK();
}

constexpr char kSeedSql[] =
    "SELECT s.id, b.g, COUNT(*) FROM small s, big b WHERE s.x <= b.x "
    "GROUP BY s.id, b.g HAVING COUNT(*) >= 2";

TEST(AprioriSelection, ReducerOnNljpInnerSideShrinksInnerScans) {
  // The reducer claims `big`, which NLJP puts on its R side: the seed must
  // reach the per-binding Q_R(b) pipeline even though that pipeline's
  // parameter table is rebound for every binding.
  TransferFlagGuard guard;
  Database db;
  ASSERT_TRUE(LoadSeedTables(&db, /*big_rows=*/4000, /*shared_g=*/10,
                             /*unique_g=*/1500,
                             /*small_rows=*/60)
                  .ok());
  for (bool transfer : {true, false}) {
    SetPredicateTransferEnabled(transfer);
    for (int threads : {1, 4}) {
      const std::string ctx = std::string("transfer=") +
                              (transfer ? "on" : "off") +
                              " threads=" + std::to_string(threads);
      IcebergOptions on = IcebergOptions::All();
      on.base_exec.num_threads = threads;
      IcebergOptions off = on;
      off.enable_apriori = false;
      IcebergReport with_seed, without;
      auto reduced = db.QueryIceberg(kSeedSql, on, &with_seed);
      auto plain = db.QueryIceberg(kSeedSql, off, &without);
      ASSERT_TRUE(reduced.ok()) << ctx << reduced.status().ToString();
      ASSERT_TRUE(plain.ok()) << ctx << plain.status().ToString();
      ExpectSameOrderedRows(*plain, *reduced, ctx);
      ASSERT_TRUE(with_seed.used_nljp) << ctx << with_seed.ToString();
      ASSERT_TRUE(without.used_nljp) << ctx << without.ToString();
      ASSERT_NE(with_seed.ToString().find("NLJP on L={s} R={b}"),
                std::string::npos)
          << ctx << with_seed.ToString();
      ASSERT_TRUE(AnyReductionFilters(with_seed))
          << ctx << with_seed.ToString();
      EXPECT_GT(without.nljp_stats.inner_batch_rows, 0u) << ctx;
      EXPECT_LT(with_seed.nljp_stats.inner_batch_rows,
                without.nljp_stats.inner_batch_rows)
          << ctx << "\n" << with_seed.ToString() << "\n" << without.ToString();
    }
  }
}

TEST(AprioriSelection, TransferCarriesTheSeedAcrossJoinEdges) {
  // big's last 20 rows have a g (and an x) of their own, so the reducer on
  // b drops them; small's last 20 rows join only those. With transfer on,
  // the fixpoint carries b's seed across s.x = b.x and drops them too.
  TransferFlagGuard guard;
  Database db;
  ASSERT_TRUE(db.CreateTable("big", Schema({{"id", DataType::kInt64},
                                            {"x", DataType::kInt64},
                                            {"g", DataType::kInt64}}))
                  .ok());
  ASSERT_TRUE(db.DeclareKey("big", {"id"}).ok());
  for (int i = 0; i < 100; ++i) {
    const bool shared = i < 80;
    ASSERT_TRUE(db.Insert("big", {Value::Int(i),
                                  Value::Int(shared ? i % 10 : 100 + i),
                                  Value::Int(shared ? i % 5 : 1000 + i)})
                    .ok());
  }
  ASSERT_TRUE(db.CreateTable("small", Schema({{"id", DataType::kInt64},
                                              {"x", DataType::kInt64}}))
                  .ok());
  ASSERT_TRUE(db.DeclareKey("small", {"id"}).ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(db.Insert("small", {Value::Int(i),
                                    Value::Int(i < 10 ? i : 170 + i)})
                    .ok());
  }
  const char* sql =
      "SELECT s.id, b.g, COUNT(*) FROM small s, big b WHERE s.x = b.x "
      "GROUP BY s.id, b.g HAVING COUNT(*) >= 2";
  auto base = db.Query(sql);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  for (bool transfer : {true, false}) {
    SetPredicateTransferEnabled(transfer);
    // A-priori alone: the fallback executor runs the join.
    IcebergReport report;
    auto reduced =
        db.QueryIceberg(sql, IcebergOptions::Only(true, false, false), &report);
    ASSERT_TRUE(reduced.ok()) << reduced.status().ToString();
    ExpectSameOrderedRows(*base, *reduced, transfer ? "on" : "off");
    ASSERT_EQ(report.reductions.size(), 1u) << report.ToString();
    EXPECT_EQ(report.reductions[0].rows_after, 80u) << report.ToString();
    EXPECT_EQ(report.exec_stats.transfer_rows_eliminated, transfer ? 40u : 20u)
        << report.ToString();
  }
}

TEST(AprioriSelection, RefusedSelectionBitmapSkipsTheReducer) {
  // The selection bitmap costs one byte per row of `big`. A budget below
  // that, but above what the statement needs without the reducer, refuses
  // the bitmap: the reducer is skipped (Theorem 2 makes it optional), the
  // result stays exact, and the degradation is reported.
  Database db;
  // Below the cost gate's 10^4 rows, so the reducer is always taken.
  constexpr int kBigRows = 9000;
  ASSERT_TRUE(LoadSeedTables(&db, kBigRows, /*shared_g=*/2, /*unique_g=*/3,
                             /*small_rows=*/2)
                  .ok());
  auto base = db.Query(kSeedSql);
  ASSERT_TRUE(base.ok()) << base.status().ToString();

  // Precondition: without the reducer the statement fits the budget.
  QueryGovernor::Limits limits;
  limits.memory_budget_bytes = kBigRows - 1;
  IcebergOptions plain = IcebergOptions::All();
  plain.enable_apriori = false;
  plain.governor = std::make_shared<QueryGovernor>(limits);
  auto fits = db.QueryIceberg(kSeedSql, plain);
  ASSERT_TRUE(fits.ok()) << fits.status().ToString();

  IcebergReport untracked;
  ASSERT_TRUE(
      db.QueryIceberg(kSeedSql, IcebergOptions::All(), &untracked).ok());
  ASSERT_TRUE(AnyReductionFilters(untracked)) << untracked.ToString();

  IcebergOptions tight = IcebergOptions::All();
  tight.governor = std::make_shared<QueryGovernor>(limits);
  IcebergReport report;
  auto result = db.QueryIceberg(kSeedSql, tight, &report);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameOrderedRows(*base, *result, "tight budget");
  EXPECT_TRUE(report.reductions.empty()) << report.ToString();
  bool recorded = false;
  for (const std::string& d : report.degradations) {
    if (d.find("a-priori selection on b") != std::string::npos) recorded = true;
  }
  EXPECT_TRUE(recorded) << report.ToString();
  EXPECT_EQ(tight.governor->bytes_in_use(), 0u);
}

}  // namespace
}  // namespace iceberg
