// Tests for the bounded NLJP cache (FIFO replacement) — the paper's
// Section 7 future-work item. Eviction must never change results, only
// trade memory for re-evaluation.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "src/engine/database.h"
#include "src/workload/object.h"

namespace iceberg {
namespace {

void ExpectSame(const TablePtr& a, const TablePtr& b) {
  ASSERT_EQ(a->num_rows(), b->num_rows());
  std::vector<Row> ra = a->rows(), rb = b->rows();
  std::sort(ra.begin(), ra.end(), RowLess());
  std::sort(rb.begin(), rb.end(), RowLess());
  for (size_t i = 0; i < ra.size(); ++i) {
    ASSERT_EQ(CompareRows(ra[i], rb[i]), 0);
  }
}

constexpr char kSkyband[] =
    "SELECT L.id, COUNT(*) FROM object L, object R "
    "WHERE L.x <= R.x AND L.y <= R.y AND (L.x < R.x OR L.y < R.y) "
    "GROUP BY L.id HAVING COUNT(*) <= 12";

class BoundedCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ObjectConfig cfg;
    cfg.num_objects = 400;
    cfg.domain = 30;  // duplicate-rich
    ASSERT_TRUE(RegisterObjects(&db_, cfg).ok());
    base_ = *db_.Query(kSkyband);
  }
  Database db_;
  TablePtr base_;
};

TEST_F(BoundedCacheTest, TinyCacheStillCorrect) {
  for (size_t bound : {1u, 2u, 8u, 64u}) {
    IcebergOptions options = IcebergOptions::All();
    options.max_cache_entries = bound;
    IcebergReport report;
    auto smart = db_.QueryIceberg(kSkyband, options, &report);
    ASSERT_TRUE(smart.ok()) << smart.status().ToString();
    ExpectSame(base_, *smart);
    EXPECT_LE(report.nljp_stats.cache_entries, bound)
        << "bound=" << bound;
  }
}

// Exact work counters of the one-thread main loop under each bound. At one
// thread the cache has a single stripe, so the FIFO bound retires the
// globally oldest entry and every counter is deterministic.
TEST_F(BoundedCacheTest, OneThreadWorkCountersArePinned) {
  const std::pair<size_t, const char*> kExpected[] = {
      {1,
       "bindings=400 memo_hits=2 pruned=102 inner_evals=296"
       " prune_tests=357 cache_entries=1 evictions=295"},
      {2,
       "bindings=400 memo_hits=3 pruned=183 inner_evals=214"
       " prune_tests=565 cache_entries=2 evictions=212"},
      {8,
       "bindings=400 memo_hits=5 pruned=307 inner_evals=88"
       " prune_tests=981 cache_entries=8 evictions=80"},
      {64,
       "bindings=400 memo_hits=10 pruned=338 inner_evals=52"
       " prune_tests=1584 cache_entries=52 evictions=0"},
  };
  for (const auto& [bound, expected] : kExpected) {
    IcebergOptions options = IcebergOptions::All();
    options.base_exec.num_threads = 1;
    options.max_cache_entries = bound;
    IcebergReport report;
    auto smart = db_.QueryIceberg(kSkyband, options, &report);
    ASSERT_TRUE(smart.ok()) << smart.status().ToString();
    ExpectSame(base_, *smart);
    const NljpStats& s = report.nljp_stats;
    EXPECT_EQ("bindings=" + std::to_string(s.bindings_total) +
                  " memo_hits=" + std::to_string(s.memo_hits) +
                  " pruned=" + std::to_string(s.pruned) +
                  " inner_evals=" + std::to_string(s.inner_evaluations) +
                  " prune_tests=" + std::to_string(s.prune_tests) +
                  " cache_entries=" + std::to_string(s.cache_entries) +
                  " evictions=" + std::to_string(s.cache_evictions),
              expected)
        << "bound=" << bound;
  }
}

TEST_F(BoundedCacheTest, EvictionsReportedAndWorkIncreases) {
  IcebergOptions unbounded = IcebergOptions::All();
  IcebergReport full_report;
  ASSERT_TRUE(db_.QueryIceberg(kSkyband, unbounded, &full_report).ok());
  EXPECT_EQ(full_report.nljp_stats.cache_evictions, 0u);

  IcebergOptions bounded = IcebergOptions::All();
  bounded.max_cache_entries = 4;
  IcebergReport small_report;
  ASSERT_TRUE(db_.QueryIceberg(kSkyband, bounded, &small_report).ok());
  EXPECT_GT(small_report.nljp_stats.cache_evictions, 0u);
  // Fewer cached witnesses -> less pruning/memoization -> more inner work.
  EXPECT_GE(small_report.nljp_stats.inner_evaluations,
            full_report.nljp_stats.inner_evaluations);
}

TEST_F(BoundedCacheTest, MemoOnlyWithBoundStillCorrect) {
  IcebergOptions options = IcebergOptions::Only(false, true, false);
  options.max_cache_entries = 16;
  auto smart = db_.QueryIceberg(kSkyband, options);
  ASSERT_TRUE(smart.ok()) << smart.status().ToString();
  ExpectSame(base_, *smart);
}

TEST_F(BoundedCacheTest, PruneOnlyWithBoundStillCorrect) {
  IcebergOptions options = IcebergOptions::Only(false, false, true);
  options.max_cache_entries = 3;
  auto smart = db_.QueryIceberg(kSkyband, options);
  ASSERT_TRUE(smart.ok()) << smart.status().ToString();
  ExpectSame(base_, *smart);
}

TEST_F(BoundedCacheTest, MonotoneQueryWithBound) {
  const char* sql =
      "SELECT L.id, COUNT(*) FROM object L, object R "
      "WHERE L.x <= R.x AND L.y <= R.y GROUP BY L.id "
      "HAVING COUNT(*) >= 40";
  auto base = db_.Query(sql);
  ASSERT_TRUE(base.ok());
  IcebergOptions options = IcebergOptions::All();
  options.max_cache_entries = 5;
  auto smart = db_.QueryIceberg(sql, options);
  ASSERT_TRUE(smart.ok()) << smart.status().ToString();
  ExpectSame(*base, *smart);
}

}  // namespace
}  // namespace iceberg
