// Tests for the NLJP operator (Sections 5-7): applicability conditions,
// Theorem 3 pruning safety, memoization behaviour, and result equivalence
// against the baseline executor under every option combination.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <ostream>
#include <string>

#include "bench/workload_queries.h"
#include "src/engine/database.h"
#include "src/nljp/nljp.h"
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

constexpr char kSkyband[] =
    "SELECT L.id, COUNT(*) FROM object L, object R "
    "WHERE L.x <= R.x AND L.y <= R.y AND (L.x < R.x OR L.y < R.y) "
    "GROUP BY L.id HAVING COUNT(*) <= 15";

std::unique_ptr<Database> MakeObjectDb(size_t n, int64_t domain,
                                       PointDistribution dist =
                                           PointDistribution::kIndependent) {
  auto db = std::make_unique<Database>();
  ObjectConfig cfg;
  cfg.num_objects = n;
  cfg.domain = domain;
  cfg.distribution = dist;
  EXPECT_TRUE(RegisterObjects(db.get(), cfg).ok());
  return db;
}

Result<std::unique_ptr<NljpOperator>> MakeSkybandNljp(Database* db,
                                                      QueryBlock* block,
                                                      NljpOptions options) {
  ICEBERG_ASSIGN_OR_RETURN(*block, db->Prepare(kSkyband));
  TablePartition part;
  part.left = {0};
  part.right = {1};
  ICEBERG_ASSIGN_OR_RETURN(IcebergView view, AnalyzeIceberg(*block, part));
  return NljpOperator::Create(std::move(view), options);
}

TEST(Nljp, SkybandAppliesPruneAndMemo) {
  auto db = MakeObjectDb(300, 40);
  QueryBlock block;
  auto op = MakeSkybandNljp(db.get(), &block, NljpOptions());
  ASSERT_TRUE(op.ok()) << op.status().ToString();
  EXPECT_TRUE((*op)->prune_enabled());
  EXPECT_TRUE((*op)->memo_enabled());
  EXPECT_EQ((*op)->monotonicity(), Monotonicity::kAntiMonotone);
  // Derived predicate of Example 11/12 (componentwise <=).
  std::vector<size_t> eq = (*op)->subsumption().EqualityPositions();
  EXPECT_TRUE(eq.empty());
}

TEST(Nljp, MatchesBaselineAndCountsWork) {
  auto db = MakeObjectDb(400, 60);
  auto base = db->Query(kSkyband);
  ASSERT_TRUE(base.ok());
  QueryBlock block;
  auto op = MakeSkybandNljp(db.get(), &block, NljpOptions());
  ASSERT_TRUE(op.ok());
  NljpStats stats;
  auto result = (*op)->Execute(&stats);
  ASSERT_TRUE(result.ok());
  ExpectSame(*base, *result);
  EXPECT_EQ(stats.bindings_total, 400u);
  EXPECT_EQ(stats.bindings_total,
            stats.memo_hits + stats.pruned + stats.inner_evaluations);
  EXPECT_GT(stats.pruned, 0u);
  EXPECT_GT(stats.cache_entries, 0u);
}

TEST(Nljp, PruneOnlyAndMemoOnlyBothCorrect) {
  auto db = MakeObjectDb(350, 25);  // small domain: many duplicate bindings
  auto base = db->Query(kSkyband);
  ASSERT_TRUE(base.ok());
  {
    NljpOptions opts;
    opts.enable_memo = false;
    QueryBlock block;
    auto op = MakeSkybandNljp(db.get(), &block, opts);
    ASSERT_TRUE(op.ok());
    NljpStats stats;
    auto result = (*op)->Execute(&stats);
    ASSERT_TRUE(result.ok());
    ExpectSame(*base, *result, "prune only");
    EXPECT_EQ(stats.memo_hits, 0u);
    EXPECT_GT(stats.pruned, 0u);
  }
  {
    NljpOptions opts;
    opts.enable_prune = false;
    QueryBlock block;
    auto op = MakeSkybandNljp(db.get(), &block, opts);
    ASSERT_TRUE(op.ok());
    NljpStats stats;
    auto result = (*op)->Execute(&stats);
    ASSERT_TRUE(result.ok());
    ExpectSame(*base, *result, "memo only");
    EXPECT_EQ(stats.pruned, 0u);
    EXPECT_GT(stats.memo_hits, 0u);  // duplicates exist at domain 25
  }
}

TEST(Nljp, CacheIndexOffStillCorrect) {
  auto db = MakeObjectDb(300, 25);
  auto base = db->Query(kSkyband);
  ASSERT_TRUE(base.ok());
  NljpOptions opts;
  opts.cache_index = false;  // linear-scan memo lookups (Fig. 4 PK+BT)
  QueryBlock block;
  auto op = MakeSkybandNljp(db.get(), &block, opts);
  ASSERT_TRUE(op.ok());
  auto result = (*op)->Execute(nullptr);
  ASSERT_TRUE(result.ok());
  ExpectSame(*base, *result);

  // The linear scan is a lookup mode of the shared cache, so it holds at
  // any thread count; output is canonically ordered either way.
  opts.num_threads = 4;
  QueryBlock block4;
  auto op4 = MakeSkybandNljp(db.get(), &block4, opts);
  ASSERT_TRUE(op4.ok());
  NljpStats stats4;
  auto result4 = (*op4)->Execute(&stats4);
  ASSERT_TRUE(result4.ok());
  EXPECT_EQ(stats4.workers, 4u);
  EXPECT_GT(stats4.memo_hits, 0u);
  ASSERT_EQ((*result)->num_rows(), (*result4)->num_rows());
  for (size_t i = 0; i < (*result)->num_rows(); ++i) {
    ASSERT_EQ(RowToString((*result)->rows()[i]),
              RowToString((*result4)->rows()[i]))
        << "row " << i;
  }
}

// Exact work counters of the one-thread main loop on Fig. 1's Q1-Q8 at
// 3,000 score rows. At one thread the memo/prune cache has a single
// stripe, so its FIFO is one global oldest-first order and witnesses are
// tested in insertion order: every counter below is deterministic. A
// change to binding order, cache policy, witness order or memo/prune
// applicability shows up here as a diff.
std::string WorkCounters(const NljpStats& s) {
  return "bindings=" + std::to_string(s.bindings_total) +
         " memo_hits=" + std::to_string(s.memo_hits) +
         " pruned=" + std::to_string(s.pruned) +
         " inner_evals=" + std::to_string(s.inner_evaluations) +
         " prune_tests=" + std::to_string(s.prune_tests) +
         " cache_entries=" + std::to_string(s.cache_entries) +
         " evictions=" + std::to_string(s.cache_evictions);
}

TEST(NljpWorkCounters, Figure1AtOneThread) {
  const char* const kExpected[] = {
      "bindings=3000 memo_hits=91 pruned=2872 inner_evals=37"
      " prune_tests=3834 cache_entries=37 evictions=0",
      "bindings=3000 memo_hits=834 pruned=2081 inner_evals=85"
      " prune_tests=7789 cache_entries=85 evictions=0",
      "bindings=3000 memo_hits=312 pruned=2623 inner_evals=65"
      " prune_tests=3957 cache_entries=65 evictions=0",
      "bindings=1005 memo_hits=0 pruned=847 inner_evals=158"
      " prune_tests=10420 cache_entries=158 evictions=0",
      "bindings=1005 memo_hits=0 pruned=747 inner_evals=258"
      " prune_tests=12814 cache_entries=258 evictions=0",
      "bindings=1005 memo_hits=0 pruned=888 inner_evals=117"
      " prune_tests=8290 cache_entries=117 evictions=0",
      "bindings=1005 memo_hits=0 pruned=609 inner_evals=396"
      " prune_tests=15826 cache_entries=396 evictions=0",
      "bindings=250 memo_hits=1 pruned=213 inner_evals=36"
      " prune_tests=407 cache_entries=36 evictions=0",
  };
  std::unique_ptr<Database> db = bench::MakeScoreDb(3000);
  const std::vector<bench::NamedQuery> queries = bench::Figure1Queries();
  ASSERT_EQ(queries.size(), std::size(kExpected));
  auto reductions = [](const IcebergReport& r) {
    std::string out;
    for (const IcebergReport::Reduction& x : r.reductions) {
      out += x.alias + ":" + std::to_string(x.rows_before) + "->" +
             std::to_string(x.rows_after) + ";";
    }
    return out;
  };
  for (size_t i = 0; i < queries.size(); ++i) {
    IcebergOptions options = IcebergOptions::All();
    options.base_exec.num_threads = 1;
    PlanTrace trace;
    IcebergOptions capture = options;
    capture.capture = &trace;
    IcebergReport report;
    Result<TablePtr> result =
        db->QueryIceberg(queries[i].sql, capture, &report);
    ASSERT_TRUE(result.ok()) << queries[i].name << ": "
                             << result.status().ToString();
    ASSERT_TRUE(report.used_nljp) << queries[i].name;
    EXPECT_EQ(WorkCounters(report.nljp_stats), kExpected[i])
        << queries[i].name;

    // Replaying the captured trace plans and runs the same work. CTE
    // statements bypass the plan cache, so they have no replay leg.
    if (report.plan_provenance == "bypass") continue;
    ASSERT_TRUE(trace.captured) << queries[i].name;
    IcebergOptions replay = options;
    replay.replay = &trace;
    IcebergReport replay_report;
    Result<TablePtr> replayed =
        db->QueryIceberg(queries[i].sql, replay, &replay_report);
    ASSERT_TRUE(replayed.ok()) << queries[i].name << ": "
                               << replayed.status().ToString();
    EXPECT_EQ(replay_report.plan_provenance, "hit") << queries[i].name;
    ASSERT_EQ((*replayed)->num_rows(), (*result)->num_rows())
        << queries[i].name;
    for (size_t r = 0; r < (*result)->num_rows(); ++r) {
      ASSERT_EQ(RowToString((*replayed)->rows()[r]),
                RowToString((*result)->rows()[r]))
          << queries[i].name << " row " << r;
    }
    EXPECT_EQ(replay_report.nljp_explain, report.nljp_explain)
        << queries[i].name;
    EXPECT_EQ(reductions(replay_report), reductions(report))
        << queries[i].name;
    EXPECT_EQ(WorkCounters(replay_report.nljp_stats), kExpected[i])
        << queries[i].name << " (replayed)";
  }
}

// A warm statement: the second run of Fig. 1's Q1 through one registry
// cache answers every binding from memo entries and pruning witnesses the
// first run left behind. Its work counters pin the warm-cache main loop
// (memo probe -> Q_C bucket scan) the way Figure1AtOneThread pins the cold
// one; the registry's entry bound matches the server's default.
TEST(NljpWorkCounters, WarmRegistryCacheAtOneThread) {
  std::unique_ptr<Database> db = bench::MakeScoreDb(3000);
  const std::string sql = bench::Figure1Queries()[0].sql;
  NljpCacheRegistry registry(/*max_caches=*/8,
                             /*max_entries_per_cache=*/4096);
  IcebergOptions options = IcebergOptions::All();
  options.base_exec.num_threads = 1;
  options.cache_registry = &registry;
  options.cache_key = 0x51;
  IcebergReport cold;
  Result<TablePtr> first = db->QueryIceberg(sql, options, &cold);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(cold.used_nljp);
  IcebergReport warm;
  Result<TablePtr> second = db->QueryIceberg(sql, options, &warm);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ExpectSame(*first, *second, "warm registry run");
  const NljpStats& s = warm.nljp_stats;
  EXPECT_EQ("bindings=" + std::to_string(s.bindings_total) +
                " memo_hits=" + std::to_string(s.memo_hits) +
                " pruned=" + std::to_string(s.pruned) +
                " inner_evals=" + std::to_string(s.inner_evaluations) +
                " prune_tests=" + std::to_string(s.prune_tests),
            "bindings=3000 memo_hits=128 pruned=2872 inner_evals=0"
            " prune_tests=3672");
  EXPECT_EQ(registry.num_caches(), 1u);

  // Run 2 evaluated no inner query, so it recorded its answer: run 3
  // replays it without streaming a binding.
  IcebergReport replay;
  Result<TablePtr> third = db->QueryIceberg(sql, options, &replay);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  ExpectSame(*first, *third, "replayed answer");
  const NljpStats& r = replay.nljp_stats;
  EXPECT_EQ("answer_replays=" + std::to_string(r.answer_replays) +
                " bindings=" + std::to_string(r.bindings_total) +
                " memo_hits=" + std::to_string(r.memo_hits) +
                " pruned=" + std::to_string(r.pruned) +
                " inner_evals=" + std::to_string(r.inner_evaluations),
            "answer_replays=1 bindings=0 memo_hits=0 pruned=0 inner_evals=0");
  EXPECT_EQ(registry.num_caches(), 1u);
}

// An answer with more rows than the registry's per-cache entry bound is
// never recorded: every warm run loops, with the same work as run 2 above.
TEST(NljpWorkCounters, AnswerAboveEntryBoundNeverReplays) {
  std::unique_ptr<Database> db = bench::MakeScoreDb(3000);
  const std::string sql = bench::Figure1Queries()[0].sql;
  Result<TablePtr> direct = db->QueryIceberg(sql);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  // Room for Q1's 37 cache entries, one row short of its answer.
  const size_t bound = (*direct)->num_rows() - 1;
  ASSERT_GE(bound, 37u);
  NljpCacheRegistry registry(/*max_caches=*/8, bound);
  IcebergOptions options = IcebergOptions::All();
  options.base_exec.num_threads = 1;
  options.cache_registry = &registry;
  options.cache_key = 0x51;
  for (int run = 1; run <= 4; ++run) {
    IcebergReport report;
    Result<TablePtr> result = db->QueryIceberg(sql, options, &report);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSame(*direct, *result, "run " + std::to_string(run));
    EXPECT_EQ(report.nljp_stats.answer_replays, 0u) << "run " << run;
    EXPECT_EQ(report.nljp_stats.bindings_total, 3000u) << "run " << run;
    if (run > 1) {
      EXPECT_EQ(report.nljp_stats.inner_evaluations, 0u) << "run " << run;
    }
  }
}

TEST(Nljp, BindingOrderDoesNotChangeResults) {
  auto db = MakeObjectDb(300, 50);
  auto base = db->Query(kSkyband);
  ASSERT_TRUE(base.ok());
  for (BindingOrder order : {BindingOrder::kNatural, BindingOrder::kSortedAsc,
                             BindingOrder::kSortedDesc}) {
    NljpOptions opts;
    opts.binding_order = order;
    QueryBlock block;
    auto op = MakeSkybandNljp(db.get(), &block, opts);
    ASSERT_TRUE(op.ok());
    NljpStats stats;
    auto result = (*op)->Execute(&stats);
    ASSERT_TRUE(result.ok());
    ExpectSame(*base, *result, "order variant");
  }
}

TEST(Nljp, SortedDescBindingOrderPrunesMoreOnAntiMonotone) {
  // For COUNT(*) <= k with dominance joins, starting from maximal bindings
  // discovers unpromising regions early: sorted-desc should prune at least
  // as much as sorted-asc on this workload.
  auto db = MakeObjectDb(500, 200, PointDistribution::kIndependent);
  NljpStats asc_stats, desc_stats;
  {
    NljpOptions opts;
    opts.binding_order = BindingOrder::kSortedAsc;
    QueryBlock block;
    auto op = MakeSkybandNljp(db.get(), &block, opts);
    ASSERT_TRUE(op.ok());
    ASSERT_TRUE((*op)->Execute(&asc_stats).ok());
  }
  {
    NljpOptions opts;
    opts.binding_order = BindingOrder::kSortedDesc;
    QueryBlock block;
    auto op = MakeSkybandNljp(db.get(), &block, opts);
    ASSERT_TRUE(op.ok());
    ASSERT_TRUE((*op)->Execute(&desc_stats).ok());
  }
  EXPECT_GE(desc_stats.pruned, asc_stats.pruned);
}

TEST(Nljp, RequiresHavingApplicableToInner) {
  auto db = MakeObjectDb(50, 10);
  auto block = db->Prepare(
      "SELECT L.id, COUNT(*) FROM object L, object R "
      "WHERE L.x <= R.x GROUP BY L.id HAVING MAX(L.y) <= 5");
  ASSERT_TRUE(block.ok());
  TablePartition part;
  part.left = {0};
  part.right = {1};
  auto view = AnalyzeIceberg(*block, part);
  ASSERT_TRUE(view.ok());
  auto op = NljpOperator::Create(std::move(*view), NljpOptions());
  EXPECT_FALSE(op.ok());
}

TEST(Nljp, RequiresJoinCondition) {
  auto db = MakeObjectDb(50, 10);
  auto block = db->Prepare(
      "SELECT L.id, COUNT(*) FROM object L, object R "
      "GROUP BY L.id HAVING COUNT(*) <= 5");
  ASSERT_TRUE(block.ok());
  TablePartition part;
  part.left = {0};
  part.right = {1};
  auto view = AnalyzeIceberg(*block, part);
  ASSERT_TRUE(view.ok());
  EXPECT_FALSE(NljpOperator::Create(std::move(*view), NljpOptions()).ok());
}

TEST(Nljp, MemoDisabledWhenBindingsUnique) {
  // J_L = {id, x}: id is a key, so J_L -> A_L and memoization is skipped
  // as non-beneficial (Section 6) — unless forced.
  auto db = MakeObjectDb(60, 10);
  auto block = db->Prepare(
      "SELECT L.id, COUNT(*) FROM object L, object R "
      "WHERE L.id <> R.id AND L.x <= R.x GROUP BY L.id "
      "HAVING COUNT(*) <= 5");
  ASSERT_TRUE(block.ok());
  TablePartition part;
  part.left = {0};
  part.right = {1};
  {
    auto view = AnalyzeIceberg(*block, part);
    ASSERT_TRUE(view.ok());
    auto op = NljpOperator::Create(std::move(*view), NljpOptions());
    ASSERT_TRUE(op.ok()) << op.status().ToString();
    EXPECT_FALSE((*op)->memo_enabled());
  }
  {
    NljpOptions opts;
    opts.force_memo = true;
    auto view = AnalyzeIceberg(*block, part);
    ASSERT_TRUE(view.ok());
    auto op = NljpOperator::Create(std::move(*view), opts);
    ASSERT_TRUE(op.ok());
    EXPECT_TRUE((*op)->memo_enabled());
  }
}

TEST(Nljp, PruneDisabledWhenGlNotSuperkey) {
  // Group by x (not a key): Theorem 3's premise fails; pruning must be off
  // but memoization still works and results stay correct.
  auto db = MakeObjectDb(200, 20);
  const char* sql =
      "SELECT L.x, COUNT(*) FROM object L, object R "
      "WHERE L.x <= R.x AND L.y <= R.y GROUP BY L.x "
      "HAVING COUNT(*) >= 30";
  auto block = db->Prepare(sql);
  ASSERT_TRUE(block.ok());
  TablePartition part;
  part.left = {0};
  part.right = {1};
  auto view = AnalyzeIceberg(*block, part);
  ASSERT_TRUE(view.ok());
  auto op = NljpOperator::Create(std::move(*view), NljpOptions());
  ASSERT_TRUE(op.ok()) << op.status().ToString();
  EXPECT_FALSE((*op)->prune_enabled());
  EXPECT_TRUE((*op)->memo_enabled());
  auto base = db->Query(sql);
  ASSERT_TRUE(base.ok());
  auto result = (*op)->Execute(nullptr);
  ASSERT_TRUE(result.ok());
  ExpectSame(*base, *result, "memo with multi-tuple groups");
}

TEST(Nljp, AntiMonotonePruneNeedsEmptyGr) {
  // G_R non-empty with anti-monotone HAVING: Theorem 3 forbids pruning.
  auto db = MakeObjectDb(100, 15);
  auto block = db->Prepare(
      "SELECT L.id, R.x, COUNT(*) FROM object L, object R "
      "WHERE L.x <= R.x GROUP BY L.id, R.x HAVING COUNT(*) <= 5");
  ASSERT_TRUE(block.ok());
  TablePartition part;
  part.left = {0};
  part.right = {1};
  auto view = AnalyzeIceberg(*block, part);
  ASSERT_TRUE(view.ok());
  auto op = NljpOperator::Create(std::move(*view), NljpOptions());
  ASSERT_TRUE(op.ok()) << op.status().ToString();
  EXPECT_FALSE((*op)->prune_enabled());
}

TEST(Nljp, MonotonePruneAllowsNonEmptyGr) {
  auto db = MakeObjectDb(150, 15);
  const char* sql =
      "SELECT L.id, R.x, COUNT(*) FROM object L, object R "
      "WHERE L.x <= R.x AND L.y <= R.y GROUP BY L.id, R.x "
      "HAVING COUNT(*) >= 4";
  auto block = db->Prepare(sql);
  ASSERT_TRUE(block.ok());
  TablePartition part;
  part.left = {0};
  part.right = {1};
  auto view = AnalyzeIceberg(*block, part);
  ASSERT_TRUE(view.ok());
  auto op = NljpOperator::Create(std::move(*view), NljpOptions());
  ASSERT_TRUE(op.ok()) << op.status().ToString();
  EXPECT_TRUE((*op)->prune_enabled());
  auto base = db->Query(sql);
  ASSERT_TRUE(base.ok());
  auto result = (*op)->Execute(nullptr);
  ASSERT_TRUE(result.ok());
  ExpectSame(*base, *result, "monotone prune with G_R");
}

TEST(Nljp, RsideColumnDeterminedByGrFallsBack) {
  // R.x is determined by G_R = {R.id} (object's key), so it binds, but
  // Q_R(b) hands Q_P only G_R's values: NLJP stands down and the baseline
  // answers. L.x, determined by G_L, stays fine on the NLJP side.
  auto db = MakeObjectDb(120, 15);
  const char* r_side =
      "SELECT L.id, R.id, R.x, COUNT(*) FROM object L, object R "
      "WHERE L.x <= R.x AND L.y <= R.y GROUP BY L.id, R.id "
      "HAVING COUNT(*) >= 1";
  auto block = db->Prepare(r_side);
  ASSERT_TRUE(block.ok()) << block.status().ToString();
  TablePartition part;
  part.left = {0};
  part.right = {1};
  auto view = AnalyzeIceberg(*block, part);
  ASSERT_TRUE(view.ok());
  auto op = NljpOperator::Create(std::move(*view), NljpOptions());
  ASSERT_FALSE(op.ok());
  EXPECT_EQ(op.status().code(), StatusCode::kNotSupported);
  auto base = db->Query(r_side);
  ASSERT_TRUE(base.ok());
  auto smart = db->QueryIceberg(r_side);
  ASSERT_TRUE(smart.ok()) << smart.status().ToString();
  ExpectSame(*base, *smart, "R-side determined column");

  const char* l_side =
      "SELECT L.id, L.y, L.x + COUNT(*) FROM object L, object R "
      "WHERE L.x <= R.x AND L.y <= R.y GROUP BY L.id HAVING COUNT(*) <= 15";
  base = db->Query(l_side);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  IcebergReport report;
  smart = db->QueryIceberg(l_side, IcebergOptions::All(), &report);
  ASSERT_TRUE(smart.ok()) << smart.status().ToString();
  EXPECT_TRUE(report.used_nljp);
  ExpectSame(*base, *smart, "L-side determined column");
}

TEST(Nljp, GroupByRsideOnlyAggregates) {
  // Aggregates over R attributes (SUM/MIN) exercise the payload machinery
  // beyond COUNT.
  auto db = MakeObjectDb(200, 25);
  const char* sql =
      "SELECT L.id, SUM(R.x), MIN(R.y), COUNT(*) FROM object L, object R "
      "WHERE L.x <= R.x AND L.y <= R.y AND (L.x < R.x OR L.y < R.y) "
      "GROUP BY L.id HAVING COUNT(*) <= 20";
  auto base = db->Query(sql);
  ASSERT_TRUE(base.ok());
  auto block = db->Prepare(sql);
  ASSERT_TRUE(block.ok());
  TablePartition part;
  part.left = {0};
  part.right = {1};
  auto view = AnalyzeIceberg(*block, part);
  ASSERT_TRUE(view.ok());
  auto op = NljpOperator::Create(std::move(*view), NljpOptions());
  ASSERT_TRUE(op.ok()) << op.status().ToString();
  auto result = (*op)->Execute(nullptr);
  ASSERT_TRUE(result.ok());
  ExpectSame(*base, *result, "R-side aggregates");
}

TEST(Nljp, CountDistinctRequiresKeyGrouping) {
  // COUNT(DISTINCT R.x) is holistic: allowed when G_L -> A_L...
  auto db = MakeObjectDb(150, 20);
  const char* sql =
      "SELECT L.id, COUNT(DISTINCT R.x) FROM object L, object R "
      "WHERE L.x <= R.x GROUP BY L.id HAVING COUNT(DISTINCT R.x) <= 8";
  auto base = db->Query(sql);
  ASSERT_TRUE(base.ok());
  auto block = db->Prepare(sql);
  TablePartition part;
  part.left = {0};
  part.right = {1};
  auto view = AnalyzeIceberg(*block, part);
  auto op = NljpOperator::Create(std::move(*view), NljpOptions());
  ASSERT_TRUE(op.ok()) << op.status().ToString();
  auto result = (*op)->Execute(nullptr);
  ASSERT_TRUE(result.ok());
  ExpectSame(*base, *result, "count distinct key mode");

  // ...but rejected when groups can combine multiple bindings.
  const char* nonkey_sql =
      "SELECT L.x, COUNT(DISTINCT R.x) FROM object L, object R "
      "WHERE L.y <= R.y GROUP BY L.x HAVING COUNT(DISTINCT R.x) <= 8";
  auto nonkey_block = db->Prepare(nonkey_sql);
  ASSERT_TRUE(nonkey_block.ok());
  auto nonkey_view = AnalyzeIceberg(*nonkey_block, part);
  ASSERT_TRUE(nonkey_view.ok());
  EXPECT_FALSE(
      NljpOperator::Create(std::move(*nonkey_view), NljpOptions()).ok());
}

TEST(Nljp, ExplainListsComponentQueries) {
  auto db = MakeObjectDb(50, 10);
  QueryBlock block;
  auto op = MakeSkybandNljp(db.get(), &block, NljpOptions());
  ASSERT_TRUE(op.ok());
  std::string explain = (*op)->Explain();
  EXPECT_NE(explain.find("Q_B"), std::string::npos);
  EXPECT_NE(explain.find("Q_R(b)"), std::string::npos);
  EXPECT_NE(explain.find("Q_C(b')"), std::string::npos);
  EXPECT_NE(explain.find("Q_P"), std::string::npos);
  EXPECT_NE(explain.find("w.0 - w'.0 <= 0"), std::string::npos) << explain;
}

/// Property: across distributions, domains, and thresholds, NLJP equals the
/// baseline (the paper's correctness claim for Theorem 3 + memoization).
struct SweepCase {
  PointDistribution dist;
  int64_t domain;
  int threshold;
  bool monotone;  // use COUNT >= threshold instead of <=
};

class NljpSweep : public ::testing::TestWithParam<SweepCase> {};

/// Prints a case by its content, e.g. "Independent_d40_le5". The test
/// discovery names each ctest case after this value, so it must not
/// depend on the build (gtest's default byte dump includes padding).
void PrintTo(const SweepCase& c, std::ostream* os) {
  const char* dist = "Independent";
  if (c.dist == PointDistribution::kCorrelated) dist = "Correlated";
  if (c.dist == PointDistribution::kAnticorrelated) dist = "Anticorrelated";
  *os << dist << "_d" << c.domain << (c.monotone ? "_ge" : "_le")
      << c.threshold;
}

TEST_P(NljpSweep, EquivalentToBaseline) {
  const SweepCase& c = GetParam();
  auto db = MakeObjectDb(250, c.domain, c.dist);
  std::string sql =
      "SELECT L.id, COUNT(*) FROM object L, object R "
      "WHERE L.x <= R.x AND L.y <= R.y AND (L.x < R.x OR L.y < R.y) "
      "GROUP BY L.id HAVING COUNT(*) " +
      std::string(c.monotone ? ">= " : "<= ") + std::to_string(c.threshold);
  auto base = db->Query(sql);
  ASSERT_TRUE(base.ok());
  auto smart = db->QueryIceberg(sql);
  ASSERT_TRUE(smart.ok()) << smart.status().ToString();
  ExpectSame(*base, *smart, sql);
}

INSTANTIATE_TEST_SUITE_P(
    DistributionsAndThresholds, NljpSweep,
    ::testing::Values(
        SweepCase{PointDistribution::kIndependent, 40, 0, false},
        SweepCase{PointDistribution::kIndependent, 40, 5, false},
        SweepCase{PointDistribution::kIndependent, 40, 50, false},
        SweepCase{PointDistribution::kIndependent, 40, 240, false},
        SweepCase{PointDistribution::kCorrelated, 40, 10, false},
        SweepCase{PointDistribution::kAnticorrelated, 40, 10, false},
        SweepCase{PointDistribution::kIndependent, 8, 10, false},
        SweepCase{PointDistribution::kCorrelated, 8, 10, false},
        SweepCase{PointDistribution::kIndependent, 40, 10, true},
        SweepCase{PointDistribution::kAnticorrelated, 40, 40, true},
        SweepCase{PointDistribution::kIndependent, 8, 100, true},
        SweepCase{PointDistribution::kCorrelated, 200, 3, true}));

}  // namespace
}  // namespace iceberg
