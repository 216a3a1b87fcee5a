// Morsel-driven parallel execution tests: TaskPool scheduling invariants,
// serial-vs-parallel result equality on the full workload for both
// engines, a differential test of hash aggregation against a reference
// built on Evaluate, shared-cache bounds under concurrency, and governor
// trips (cancellation / budget exhaustion) injected while several workers
// run.
// Labeled `tsan` in tests/CMakeLists.txt: this binary plus governor_test
// form the ThreadSanitizer job.

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/workload_queries.h"
#include "src/engine/database.h"
#include "src/exec/task_pool.h"
#include "src/expr/aggregate.h"
#include "src/expr/evaluator.h"
#include "src/workload/object.h"

namespace iceberg {
namespace {

// ---------------------------------------------------------------------------
// TaskPool scheduling
// ---------------------------------------------------------------------------

TEST(TaskPoolTest, CoversRangeExactlyOnce) {
  TaskPool pool(4);
  constexpr size_t kTotal = 1000;
  std::vector<std::atomic<int>> hits(kTotal);
  Status st = pool.RunMorsels(
      kTotal, 7, [&](int worker, size_t begin, size_t end) -> Status {
        EXPECT_GE(worker, 0);
        EXPECT_LT(worker, 4);
        EXPECT_LT(begin, end);
        EXPECT_LE(end, kTotal);
        for (size_t i = begin; i < end; ++i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
        return Status::OK();
      });
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (size_t i = 0; i < kTotal; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(TaskPoolTest, SingleThreadRunsInlineOnCaller) {
  TaskPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  size_t covered = 0;
  Status st = pool.RunMorsels(
      100, 8, [&](int worker, size_t begin, size_t end) -> Status {
        EXPECT_EQ(worker, 0);
        EXPECT_EQ(std::this_thread::get_id(), caller);
        covered += end - begin;
        return Status::OK();
      });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(covered, 100u);
}

TEST(TaskPoolTest, FirstErrorStopsTheJobAndIsReturned) {
  TaskPool pool(4);
  Status st = pool.RunMorsels(
      10000, 16, [&](int, size_t begin, size_t end) -> Status {
        if (begin <= 123 && 123 < end) {
          return Status::InvalidArgument("injected failure");
        }
        return Status::OK();
      });
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
}

TEST(TaskPoolTest, PoolIsReusableAcrossJobsAndAfterFailure) {
  TaskPool pool(3);
  std::atomic<size_t> covered{0};
  auto count = [&](int, size_t begin, size_t end) -> Status {
    covered.fetch_add(end - begin);
    return Status::OK();
  };
  ASSERT_TRUE(pool.RunMorsels(500, 13, count).ok());
  EXPECT_EQ(covered.load(), 500u);
  ASSERT_FALSE(pool.RunMorsels(500, 13, [](int, size_t, size_t) {
                     return Status::Internal("boom");
                   }).ok());
  covered = 0;
  ASSERT_TRUE(pool.RunMorsels(700, 13, count).ok());
  EXPECT_EQ(covered.load(), 700u);
}

TEST(TaskPoolTest, ResolveAndMorselHelpers) {
  EXPECT_GE(ResolveThreads(0), 1);  // auto, whatever the host reports
  EXPECT_EQ(ResolveThreads(1), 1);
  EXPECT_EQ(ResolveThreads(6), 6);
  for (int threads : {1, 2, 4, 8}) {
    for (size_t total : {0ul, 10ul, 480ul, 1000000ul}) {
      size_t m = MorselFor(total, threads);
      EXPECT_GE(m, 64u);
      EXPECT_LE(m, 1024u);
    }
  }
}

TEST(TaskPoolTest, AutoThreadsFollowTheAffinityMask) {
  cpu_set_t original;
  CPU_ZERO(&original);
  ASSERT_EQ(sched_getaffinity(0, sizeof(original), &original), 0);
  EXPECT_EQ(ResolveThreads(0), CPU_COUNT(&original));
  int first_cpu = 0;
  while (!CPU_ISSET(first_cpu, &original)) ++first_cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first_cpu, &one);
  // Narrows this thread only; the original mask is restored before any
  // assertion can end the test.
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const int narrowed = ResolveThreads(0);
  ASSERT_EQ(sched_setaffinity(0, sizeof(original), &original), 0);
  EXPECT_EQ(narrowed, 1);
  EXPECT_EQ(ResolveThreads(3), 3);  // an explicit count ignores the mask
}

// ---------------------------------------------------------------------------
// Serial vs parallel equality, every workload query, both engines
// ---------------------------------------------------------------------------

/// Asserts equal rows in equal order, printed values included (so 1 and
/// 1.0 differ).
void ExpectIdenticalInOrder(const std::vector<Row>& expected,
                            const std::vector<Row>& actual,
                            const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(RowToString(expected[i]), RowToString(actual[i]))
        << label << " row " << i;
  }
}

void ExpectSameRows(const TablePtr& a, const TablePtr& b) {
  ASSERT_EQ(a->num_rows(), b->num_rows());
  std::vector<Row> ra = a->rows(), rb = b->rows();
  std::sort(ra.begin(), ra.end(), RowLess());
  std::sort(rb.begin(), rb.end(), RowLess());
  for (size_t i = 0; i < ra.size(); ++i) {
    ASSERT_EQ(CompareRows(ra[i], rb[i]), 0) << "row " << i;
  }
}

class WorkloadEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = bench::MakeScoreDb(480).release();
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static Database* db_;
};

Database* WorkloadEquivalenceTest::db_ = nullptr;

TEST_F(WorkloadEquivalenceTest, BaselineMatchesSerialAtEveryThreadCount) {
  for (const bench::NamedQuery& q : bench::Figure1Queries()) {
    ExecOptions serial;
    serial.num_threads = 1;
    Result<TablePtr> base = db_->Query(q.sql, serial);
    ASSERT_TRUE(base.ok()) << q.name << ": " << base.status().ToString();
    for (int threads : {2, 4, 8}) {
      ExecOptions exec;
      exec.num_threads = threads;
      Result<TablePtr> parallel = db_->Query(q.sql, exec);
      ASSERT_TRUE(parallel.ok())
          << q.name << " t=" << threads << ": "
          << parallel.status().ToString();
      ExpectSameRows(*base, *parallel);
    }
  }
}

TEST_F(WorkloadEquivalenceTest, IcebergMatchesSerialAtEveryThreadCount) {
  for (const bench::NamedQuery& q : bench::Figure1Queries()) {
    IcebergOptions serial = IcebergOptions::All();
    serial.base_exec.num_threads = 1;
    Result<TablePtr> base = db_->QueryIceberg(q.sql, serial);
    ASSERT_TRUE(base.ok()) << q.name << ": " << base.status().ToString();
    for (int threads : {2, 4, 8}) {
      IcebergOptions options = IcebergOptions::All();
      options.base_exec.num_threads = threads;
      Result<TablePtr> parallel = db_->QueryIceberg(q.sql, options);
      ASSERT_TRUE(parallel.ok())
          << q.name << " t=" << threads << ": "
          << parallel.status().ToString();
      ExpectSameRows(*base, *parallel);
    }
  }
}

TEST(CanonicalOrderTest, Figure1IdenticalAcrossEnginesAndThreadCounts) {
  std::unique_ptr<Database> db = bench::MakeScoreDb(3000);
  for (const bench::NamedQuery& q : bench::Figure1Queries()) {
    ExecOptions serial;
    serial.num_threads = 1;
    Result<TablePtr> reference = db->Query(q.sql, serial);
    ASSERT_TRUE(reference.ok()) << q.name << ": "
                                << reference.status().ToString();
    for (int threads : {1, 4}) {
      ExecOptions exec;
      exec.num_threads = threads;
      Result<TablePtr> base = db->Query(q.sql, exec);
      ASSERT_TRUE(base.ok()) << q.name << ": " << base.status().ToString();
      ExpectIdenticalInOrder((*reference)->rows(), (*base)->rows(),
                             q.name + " baseline t=" + std::to_string(threads));
      IcebergOptions options = IcebergOptions::All();
      options.base_exec.num_threads = threads;
      Result<TablePtr> smart = db->QueryIceberg(q.sql, options);
      ASSERT_TRUE(smart.ok()) << q.name << ": " << smart.status().ToString();
      ExpectIdenticalInOrder((*reference)->rows(), (*smart)->rows(),
                             q.name + " iceberg t=" + std::to_string(threads));
    }
  }
}

// ---------------------------------------------------------------------------
// Hash aggregation vs a reference built on Evaluate
// ---------------------------------------------------------------------------

/// GROUP BY over a single table the slow, obvious way: tree-walking
/// Evaluate, one Accumulator per aggregate per group, the group's first
/// row for non-aggregate columns, canonical order, DISTINCT dedup.
std::vector<Row> ReferenceAggregate(const QueryBlock& block,
                                    const Table& table) {
  std::vector<ExprPtr> aggs;
  CollectAggregates(block.having, &aggs);
  for (const BoundSelectItem& item : block.select) {
    CollectAggregates(item.expr, &aggs);
  }
  struct Group {
    Row first;
    std::vector<Accumulator> accs;
  };
  std::map<Row, Group, RowLess> groups;
  auto new_group = [&](const Row& first) {
    Group g{first, {}};
    for (const ExprPtr& agg : aggs) g.accs.emplace_back(agg->agg);
    return g;
  };
  for (const Row& row : table.rows()) {
    bool keep = true;
    for (const ExprPtr& c : block.where_conjuncts) {
      keep = keep && EvaluatePredicate(*c, row);
    }
    if (!keep) continue;
    Row key;
    for (const ExprPtr& g : block.group_by) key.push_back(Evaluate(*g, row));
    auto it = groups.find(key);
    if (it == groups.end()) it = groups.emplace(key, new_group(row)).first;
    for (size_t i = 0; i < aggs.size(); ++i) {
      it->second.accs[i].Add(aggs[i]->children.empty()
                                 ? Value::Null()
                                 : Evaluate(*aggs[i]->children[0], row));
    }
  }
  if (groups.empty() && block.group_by.empty()) {
    groups.emplace(Row{}, new_group(Row(block.TotalWidth(), Value::Null())));
  }
  std::vector<Row> out;
  for (const auto& [key, g] : groups) {
    AggValueMap values;
    for (size_t i = 0; i < aggs.size(); ++i) {
      values[aggs[i].get()] = g.accs[i].Final();
    }
    if (block.having != nullptr &&
        !EvaluatePredicate(*block.having, g.first, &values)) {
      continue;
    }
    Row projected;
    for (const BoundSelectItem& item : block.select) {
      projected.push_back(Evaluate(*item.expr, g.first, &values));
    }
    out.push_back(std::move(projected));
  }
  std::sort(out.begin(), out.end(), RowLess());
  if (block.distinct) {
    out.erase(std::unique(out.begin(), out.end(), RowEq()), out.end());
  }
  return out;
}

class AggregationDifferentialTest : public ::testing::Test {
 protected:
  // 12,000 rows, 2,100 (g, h) groups of ~6 rows spread over the whole
  // range, so every group's rows land in several workers' morsels.
  static void SetUpTestSuite() {
    db_ = new Database();
    ASSERT_TRUE(db_->CreateTable("t", Schema({{"g", DataType::kInt64},
                                              {"h", DataType::kInt64},
                                              {"s", DataType::kString},
                                              {"fd", DataType::kInt64},
                                              {"v", DataType::kInt64},
                                              {"d", DataType::kDouble}}))
                    .ok());
    // fd is a function of g, and declared so: the binder admits a column
    // outside GROUP BY only when the grouping columns determine it.
    ASSERT_TRUE(db_->DeclareFd("t", {"g"}, {"fd"}).ok());
    for (int64_t i = 0; i < 12000; ++i) {
      const int64_t g = i % 700;
      ASSERT_TRUE(
          db_->Insert("t", {Value::Int(g), Value::Int(i % 3),
                            Value::Str("k" + std::to_string(i % 37)),
                            Value::Int(g * 7),  // determined by g
                            i % 11 == 0 ? Value::Null()
                                        : Value::Int((i * 31) % 97),
                            Value::Double(static_cast<double>(i % 13) * 0.5)})
              .ok());
    }
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static Database* db_;
};

Database* AggregationDifferentialTest::db_ = nullptr;

TEST_F(AggregationDifferentialTest, MatchesReferenceInOrderAtEveryThreadCount) {
  const std::vector<std::string> queries = {
      // Packed keys, every aggregate, and a non-key column determined by
      // g (declared, so the binder admits it beside an aggregate and in
      // HAVING).
      "SELECT g, h, fd * 1000 + COUNT(*), COUNT(v), COUNT(DISTINCT v), "
      "SUM(v), SUM(d), AVG(v), AVG(d), MIN(v), MAX(d), MIN(s), MAX(s) "
      "FROM t GROUP BY g, h HAVING fd < 4000",
      // Row (string) keys with HAVING.
      "SELECT s, COUNT(*), SUM(v), MAX(v), COUNT(DISTINCT h) FROM t "
      "GROUP BY s HAVING COUNT(v) >= 295",
      // HAVING on aggregates the select list does not show.
      "SELECT g, SUM(v) FROM t GROUP BY g HAVING SUM(d) >= 30 AND "
      "MIN(v) < 40",
      // Mixed string and numeric keys.
      "SELECT s, h, SUM(d), AVG(v) FROM t GROUP BY s, h",
      // DISTINCT over grouped output: many groups share a row.
      "SELECT DISTINCT h, COUNT(*) FROM t GROUP BY g, h",
      // Scalar aggregates, over all rows and over none.
      "SELECT COUNT(*), SUM(v), SUM(d), MIN(s) FROM t",
      "SELECT COUNT(*), COUNT(v), SUM(v), AVG(d), MIN(s), MAX(v) FROM t "
      "WHERE v > 1000",
  };
  Result<TablePtr> table = db_->GetTable("t");
  ASSERT_TRUE(table.ok());
  for (const std::string& sql : queries) {
    Result<QueryBlock> block = db_->Prepare(sql);
    ASSERT_TRUE(block.ok()) << sql << ": " << block.status().ToString();
    const std::vector<Row> expected = ReferenceAggregate(*block, **table);
    ASSERT_FALSE(expected.empty()) << sql;
    for (int threads : {1, 2, 4, 8}) {
      ExecOptions exec;
      exec.num_threads = threads;
      ExecStats stats;
      Result<TablePtr> result = db_->Query(sql, exec, &stats);
      ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
      ExpectIdenticalInOrder(expected, (*result)->rows(),
                             sql + " t=" + std::to_string(threads));
      EXPECT_EQ(stats.groups_output, expected.size()) << sql;
    }
  }
}

TEST_F(AggregationDifferentialTest, BudgetTripReleasesEveryReservation) {
  QueryGovernor::Limits limits;
  limits.memory_budget_bytes = 32 * 1024;  // far below 2,100 groups' state
  auto governor = std::make_shared<QueryGovernor>(limits);
  ExecOptions exec;
  exec.num_threads = 4;
  exec.governor = governor;
  Result<TablePtr> result = db_->Query(
      "SELECT g, h, COUNT(*), MIN(s) FROM t GROUP BY g, h", exec);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted())
      << result.status().ToString();
  EXPECT_EQ(governor->bytes_in_use(), 0u);
}

// ---------------------------------------------------------------------------
// Parallel NLJP: shared cache, determinism, worker stats
// ---------------------------------------------------------------------------

constexpr char kSkyband[] =
    "SELECT L.id, COUNT(*) FROM object L, object R "
    "WHERE L.x <= R.x AND L.y <= R.y AND (L.x < R.x OR L.y < R.y) "
    "GROUP BY L.id HAVING COUNT(*) <= 12";

class ParallelNljpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ObjectConfig cfg;
    cfg.num_objects = 400;
    cfg.domain = 30;  // duplicate-rich: memoization and pruning both apply
    ASSERT_TRUE(RegisterObjects(&db_, cfg).ok());
    base_ = *db_.Query(kSkyband);
  }
  Database db_;
  TablePtr base_;
};

TEST_F(ParallelNljpTest, ParallelOutputIsCanonicallyOrderedAndStable) {
  IcebergOptions options = IcebergOptions::All();
  options.base_exec.num_threads = 4;
  Result<TablePtr> first = db_.QueryIceberg(kSkyband, options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  Result<TablePtr> second = db_.QueryIceberg(kSkyband, options);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ExpectSameRows(base_, *first);
  // Byte-identical order across runs, not just as a set: parallel results
  // are canonically sorted.
  ASSERT_EQ((*first)->num_rows(), (*second)->num_rows());
  for (size_t i = 0; i < (*first)->num_rows(); ++i) {
    ASSERT_EQ(CompareRows((*first)->rows()[i], (*second)->rows()[i]), 0);
  }
  for (size_t i = 1; i < (*first)->num_rows(); ++i) {
    ASSERT_FALSE(RowLess()((*first)->rows()[i], (*first)->rows()[i - 1]));
  }
}

TEST_F(ParallelNljpTest, DistinctSelectListIsDeduplicated) {
  const std::string sql =
      "SELECT DISTINCT COUNT(*) FROM object L, object R "
      "WHERE L.x <= R.x AND L.y <= R.y AND (L.x < R.x OR L.y < R.y) "
      "GROUP BY L.id HAVING COUNT(*) <= 12";
  Result<TablePtr> base = db_.Query(sql);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_GT((*base)->num_rows(), 1u);
  for (int threads : {1, 4}) {
    IcebergOptions options = IcebergOptions::All();
    options.base_exec.num_threads = threads;
    IcebergReport report;
    Result<TablePtr> smart = db_.QueryIceberg(sql, options, &report);
    ASSERT_TRUE(smart.ok()) << smart.status().ToString();
    ASSERT_TRUE(report.used_nljp);
    ExpectIdenticalInOrder((*base)->rows(), (*smart)->rows(),
                           "t=" + std::to_string(threads));
  }
}

TEST_F(ParallelNljpTest, PerWorkerCountersAreSurfaced) {
  IcebergOptions options = IcebergOptions::All();
  options.base_exec.num_threads = 4;
  IcebergReport report;
  ASSERT_TRUE(db_.QueryIceberg(kSkyband, options, &report).ok());
  ASSERT_TRUE(report.used_nljp);
  EXPECT_EQ(report.nljp_stats.workers, 4u);
  ASSERT_EQ(report.nljp_stats.bindings_per_worker.size(), 4u);
  size_t sum = 0;
  for (size_t n : report.nljp_stats.bindings_per_worker) sum += n;
  EXPECT_EQ(sum, report.nljp_stats.bindings_total);
  EXPECT_NE(report.nljp_stats.ToString().find("workers=4"),
            std::string::npos);
}

TEST_F(ParallelNljpTest, SharedCacheBoundHoldsUnderConcurrency) {
  IcebergOptions options = IcebergOptions::All();
  options.base_exec.num_threads = 4;
  options.max_cache_entries = 8;
  IcebergReport report;
  Result<TablePtr> smart = db_.QueryIceberg(kSkyband, options, &report);
  ASSERT_TRUE(smart.ok()) << smart.status().ToString();
  ExpectSameRows(base_, *smart);
  ASSERT_TRUE(report.used_nljp);
  EXPECT_LE(report.nljp_stats.cache_entries, 8u);
  EXPECT_GT(report.nljp_stats.cache_evictions, 0u);
}

TEST_F(ParallelNljpTest, TinySharedCacheBoundsStillCorrect) {
  for (size_t bound : {1u, 2u, 16u}) {
    for (int threads : {2, 4, 8}) {
      IcebergOptions options = IcebergOptions::All();
      options.base_exec.num_threads = threads;
      options.max_cache_entries = bound;
      IcebergReport report;
      Result<TablePtr> smart = db_.QueryIceberg(kSkyband, options, &report);
      ASSERT_TRUE(smart.ok())
          << "bound=" << bound << " t=" << threads << ": "
          << smart.status().ToString();
      ExpectSameRows(base_, *smart);
      EXPECT_LE(report.nljp_stats.cache_entries, bound)
          << "bound=" << bound << " t=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Governor trips while four workers run
// ---------------------------------------------------------------------------

TEST_F(ParallelNljpTest, InjectedCancellationTripsCleanlyAcrossWorkers) {
  GovernorProbe probe;
  probe.on_check = [](size_t ordinal) {
    return ordinal == 40 ? Status::Cancelled("injected mid-run cancel")
                         : Status::OK();
  };
  auto governor = std::make_shared<QueryGovernor>(QueryGovernor::Limits{},
                                                  probe);
  IcebergOptions options = IcebergOptions::All();
  options.base_exec.num_threads = 4;
  options.governor = governor;
  Result<TablePtr> smart = db_.QueryIceberg(kSkyband, options);
  ASSERT_FALSE(smart.ok());
  EXPECT_TRUE(smart.status().IsCancelled()) << smart.status().ToString();
  // No torn accounting: every reservation (bindings, groups, cache) was
  // released on the error path.
  EXPECT_EQ(governor->bytes_in_use(), 0u);
}

TEST_F(ParallelNljpTest, BudgetExhaustionTripsCleanlyAcrossWorkers) {
  QueryGovernor::Limits limits;
  limits.memory_budget_bytes = 16 * 1024;  // far below the mandatory state
  auto governor = std::make_shared<QueryGovernor>(limits);
  IcebergOptions options = IcebergOptions::All();
  options.base_exec.num_threads = 4;
  options.governor = governor;
  Result<TablePtr> smart = db_.QueryIceberg(kSkyband, options);
  ASSERT_FALSE(smart.ok());
  EXPECT_TRUE(smart.status().IsResourceExhausted())
      << smart.status().ToString();
  EXPECT_EQ(governor->bytes_in_use(), 0u);
}

TEST_F(ParallelNljpTest, ExternalCancelDuringParallelBaseline) {
  GovernorProbe probe;
  probe.on_check = [](size_t ordinal) {
    return ordinal == 25 ? Status::Cancelled("client disconnect")
                         : Status::OK();
  };
  auto governor = std::make_shared<QueryGovernor>(QueryGovernor::Limits{},
                                                  probe);
  ExecOptions exec;
  exec.num_threads = 4;
  exec.governor = governor;
  Result<TablePtr> result = db_.Query(kSkyband, exec);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
  EXPECT_EQ(governor->bytes_in_use(), 0u);
}

}  // namespace
}  // namespace iceberg
