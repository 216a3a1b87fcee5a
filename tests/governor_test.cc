// Tests for the per-query resource governor: deadlines, cooperative
// cancellation, memory budgets with graceful cache shedding, and the
// intermediate-row limit — driven through the deterministic fault-injection
// probe rather than wall-clock sleeps wherever possible.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "src/engine/database.h"
#include "src/exec/governor.h"
#include "src/nljp/shared_cache.h"
#include "src/workload/object.h"

namespace iceberg {
namespace {

// ---------------------------------------------------------------------------
// QueryGovernor unit tests
// ---------------------------------------------------------------------------

TEST(Governor, UnlimitedByDefault) {
  QueryGovernor gov;
  EXPECT_TRUE(gov.Check().ok());
  EXPECT_TRUE(gov.Reserve(1 << 30, "test").ok());
  EXPECT_TRUE(gov.TryReserve(1 << 30, "test"));
  EXPECT_TRUE(gov.CountIntermediateRows(1000000).ok());
  EXPECT_TRUE(gov.Check().ok());
}

TEST(Governor, ZeroDeadlineTripsImmediately) {
  QueryGovernor::Limits limits;
  limits.deadline_ms = 0;  // already expired: deterministic
  QueryGovernor gov(limits);
  Status st = gov.Check();
  EXPECT_TRUE(st.IsCancelled()) << st.ToString();
  EXPECT_NE(st.message().find("deadline"), std::string::npos);
}

TEST(Governor, CancellationTokenObservedByCheck) {
  QueryGovernor gov;
  EXPECT_TRUE(gov.Check().ok());
  gov.RequestCancel();
  EXPECT_TRUE(gov.cancel_requested());
  Status st = gov.Check();
  EXPECT_TRUE(st.IsCancelled()) << st.ToString();
}

TEST(Governor, ProbeCancelsAtNthCheckAndPoisonSticks) {
  GovernorProbe probe;
  probe.on_check = [](size_t ordinal) {
    return ordinal == 3 ? Status::Cancelled("injected at check 3")
                        : Status::OK();
  };
  QueryGovernor gov(QueryGovernor::Limits(), probe);
  EXPECT_TRUE(gov.Check().ok());
  EXPECT_TRUE(gov.Check().ok());
  Status st = gov.Check();
  EXPECT_TRUE(st.IsCancelled());
  // Poisoned: the same status is returned forever after, even though the
  // probe no longer fires.
  EXPECT_TRUE(gov.poisoned());
  Status again = gov.Check();
  EXPECT_TRUE(again.IsCancelled());
  EXPECT_NE(again.message().find("injected at check 3"), std::string::npos);
  EXPECT_EQ(gov.checks_performed(), 4u);
}

TEST(Governor, ReserveReleaseAccounting) {
  QueryGovernor gov;
  EXPECT_TRUE(gov.Reserve(100, "a").ok());
  EXPECT_TRUE(gov.Reserve(50, "b").ok());
  EXPECT_EQ(gov.bytes_in_use(), 150u);
  EXPECT_EQ(gov.bytes_peak(), 150u);
  gov.Release(100);
  EXPECT_EQ(gov.bytes_in_use(), 50u);
  EXPECT_EQ(gov.bytes_peak(), 150u);  // peak is sticky
  gov.Release(1000);                  // clamped, never underflows
  EXPECT_EQ(gov.bytes_in_use(), 0u);
}

TEST(Governor, HardReserveOverBudgetPoisons) {
  QueryGovernor::Limits limits;
  limits.memory_budget_bytes = 100;
  QueryGovernor gov(limits);
  Status st = gov.Reserve(200, "hash-aggregation");
  EXPECT_TRUE(st.IsResourceExhausted()) << st.ToString();
  EXPECT_NE(st.message().find("hash-aggregation"), std::string::npos);
  // Poisoned: subsequent checks fail with the same status.
  EXPECT_TRUE(gov.Check().IsResourceExhausted());
}

TEST(Governor, SoftReserveOverBudgetDoesNotPoison) {
  QueryGovernor::Limits limits;
  limits.memory_budget_bytes = 100;
  QueryGovernor gov(limits);
  EXPECT_FALSE(gov.TryReserve(200, "nljp-cache"));
  EXPECT_FALSE(gov.poisoned());
  EXPECT_TRUE(gov.Check().ok());
  EXPECT_TRUE(gov.TryReserve(80, "nljp-cache"));
  EXPECT_EQ(gov.bytes_in_use(), 80u);
}

TEST(Governor, ReclaimerShedsBeforeFailure) {
  QueryGovernor::Limits limits;
  limits.memory_budget_bytes = 1000;
  QueryGovernor gov(limits);
  ASSERT_TRUE(gov.Reserve(900, "advisory").ok());
  size_t reclaims = 0;
  gov.RegisterReclaimer([&](size_t needed) -> size_t {
    ++reclaims;
    size_t freed = std::max<size_t>(needed, 500);
    gov.Release(freed);
    gov.AddCacheShed(1);
    return freed;
  });
  // 900 + 400 > 1000: the reclaimer must be consulted, after which the
  // reservation fits.
  EXPECT_TRUE(gov.Reserve(400, "mandatory").ok());
  EXPECT_EQ(reclaims, 1u);
  EXPECT_EQ(gov.cache_shed_entries(), 1u);
  gov.UnregisterReclaimer();
  // Without the reclaimer, the same pressure is fatal.
  Status st = gov.Reserve(900, "mandatory");
  EXPECT_TRUE(st.IsResourceExhausted()) << st.ToString();
}

TEST(Governor, ProbeInjectsBudgetFailureAtNthReserve) {
  GovernorProbe probe;
  probe.on_reserve = [](size_t ordinal, size_t bytes, const char* tag) {
    (void)bytes;
    (void)tag;
    return ordinal == 2 ? Status::ResourceExhausted("injected at reserve 2")
                        : Status::OK();
  };
  QueryGovernor gov(QueryGovernor::Limits(), probe);
  EXPECT_TRUE(gov.Reserve(10, "a").ok());
  Status st = gov.Reserve(10, "b");
  EXPECT_TRUE(st.IsResourceExhausted());
  EXPECT_TRUE(gov.Check().IsResourceExhausted());  // hard failure poisons
}

TEST(Governor, ProbeSeesReserveTags) {
  std::vector<std::string> tags;
  GovernorProbe probe;
  probe.on_reserve = [&](size_t, size_t, const char* tag) {
    tags.push_back(tag);
    return Status::OK();
  };
  QueryGovernor gov(QueryGovernor::Limits(), probe);
  ASSERT_TRUE(gov.Reserve(1, "hash-aggregation").ok());
  ASSERT_TRUE(gov.TryReserve(1, "nljp-cache"));
  ASSERT_EQ(tags.size(), 2u);
  EXPECT_EQ(tags[0], "hash-aggregation");
  EXPECT_EQ(tags[1], "nljp-cache");
}

TEST(Governor, IntermediateRowLimit) {
  QueryGovernor::Limits limits;
  limits.max_intermediate_rows = 10;
  QueryGovernor gov(limits);
  EXPECT_TRUE(gov.CountIntermediateRows(10).ok());
  Status st = gov.CountIntermediateRows(1);
  EXPECT_TRUE(st.IsResourceExhausted()) << st.ToString();
  EXPECT_TRUE(gov.Check().IsResourceExhausted());
}

// ---------------------------------------------------------------------------
// End-to-end: both engines under governance
// ---------------------------------------------------------------------------

constexpr char kSkyband[] =
    "SELECT L.id, COUNT(*) FROM object L, object R "
    "WHERE L.x <= R.x AND L.y <= R.y AND (L.x < R.x OR L.y < R.y) "
    "GROUP BY L.id HAVING COUNT(*) <= 12";

class GovernedQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ObjectConfig cfg;
    cfg.num_objects = 400;
    cfg.domain = 30;  // duplicate-rich: NLJP memoization applies
    ASSERT_TRUE(RegisterObjects(&db_, cfg).ok());
    base_ = *db_.Query(kSkyband);
  }

  void ExpectSame(const TablePtr& a, const TablePtr& b) {
    ASSERT_EQ(a->num_rows(), b->num_rows());
    std::vector<Row> ra = a->rows(), rb = b->rows();
    std::sort(ra.begin(), ra.end(), RowLess());
    std::sort(rb.begin(), rb.end(), RowLess());
    for (size_t i = 0; i < ra.size(); ++i) {
      ASSERT_EQ(CompareRows(ra[i], rb[i]), 0);
    }
  }

  Database db_;
  TablePtr base_;
};

TEST_F(GovernedQueryTest, ExpiredDeadlineCancelsBothEngines) {
  QueryGovernor::Limits limits;
  limits.deadline_ms = 0;  // deterministically already expired

  ExecOptions exec;
  exec.governor = std::make_shared<QueryGovernor>(limits);
  Result<TablePtr> baseline = db_.Query(kSkyband, exec);
  ASSERT_FALSE(baseline.ok());
  EXPECT_TRUE(baseline.status().IsCancelled())
      << baseline.status().ToString();

  IcebergOptions options = IcebergOptions::All();
  options.governor = std::make_shared<QueryGovernor>(limits);
  Result<TablePtr> smart = db_.QueryIceberg(kSkyband, options);
  ASSERT_FALSE(smart.ok());
  EXPECT_TRUE(smart.status().IsCancelled()) << smart.status().ToString();
}

TEST_F(GovernedQueryTest, PreCancelledTokenRejectsBothEngines) {
  ExecOptions exec;
  exec.governor = std::make_shared<QueryGovernor>();
  exec.governor->RequestCancel();
  Result<TablePtr> baseline = db_.Query(kSkyband, exec);
  ASSERT_FALSE(baseline.ok());
  EXPECT_TRUE(baseline.status().IsCancelled());

  IcebergOptions options = IcebergOptions::All();
  options.governor = std::make_shared<QueryGovernor>();
  options.governor->RequestCancel();
  Result<TablePtr> smart = db_.QueryIceberg(kSkyband, options);
  ASSERT_FALSE(smart.ok());
  EXPECT_TRUE(smart.status().IsCancelled());
}

TEST_F(GovernedQueryTest, ProbeCancelsMidJoinOnBaseline) {
  GovernorProbe probe;
  probe.on_check = [](size_t ordinal) {
    return ordinal == 50 ? Status::Cancelled("mid-join cancel")
                         : Status::OK();
  };
  ExecOptions exec;
  exec.governor =
      std::make_shared<QueryGovernor>(QueryGovernor::Limits(), probe);
  ExecStats stats;
  Result<TablePtr> r = db_.Query(kSkyband, exec, &stats);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("mid-join cancel"), std::string::npos);
  // The join loop performed checks up to the injected trip and not many
  // more (it aborts at loop granularity, not at the end).
  EXPECT_GE(exec.governor->checks_performed(), 50u);
  EXPECT_LT(exec.governor->checks_performed(), 100u);
}

TEST_F(GovernedQueryTest, ProbeCancelsMidJoinOnIceberg) {
  GovernorProbe probe;
  probe.on_check = [](size_t ordinal) {
    return ordinal == 50 ? Status::Cancelled("mid-join cancel")
                         : Status::OK();
  };
  IcebergOptions options = IcebergOptions::All();
  options.governor =
      std::make_shared<QueryGovernor>(QueryGovernor::Limits(), probe);
  Result<TablePtr> r = db_.QueryIceberg(kSkyband, options);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
}

// A warm run through a registry cache that trips its governor leaves no
// answer behind, although it evaluated no inner query: only a clean
// zero-evaluation run records the answer that later runs replay.
TEST_F(GovernedQueryTest, FailedWarmRunRecordsNoAnswer) {
  GovernorProbe groups;
  groups.on_reserve = [](size_t, size_t, const char* tag) {
    return std::string(tag) == "nljp-groups"
               ? Status::ResourceExhausted("injected at nljp-groups")
               : Status::OK();
  };
  GovernorProbe cancel;
  cancel.on_check = [](size_t ordinal) {
    return ordinal == 600 ? Status::Cancelled("injected cancel")
                          : Status::OK();
  };
  for (const GovernorProbe& trip : {groups, cancel}) {
    NljpCacheRegistry registry;
    auto run = [&](const GovernorProbe& probe, IcebergReport* report) {
      IcebergOptions options = IcebergOptions::All();
      options.base_exec.num_threads = 1;
      options.cache_registry = &registry;
      options.cache_key = 0x7;
      QueryGovernor::Limits generous;
      generous.memory_budget_bytes = 64u << 20;
      options.governor = std::make_shared<QueryGovernor>(generous, probe);
      return db_.QueryIceberg(kSkyband, options, report);
    };
    const std::string kind = trip.on_check ? "cancel" : "nljp-groups";
    IcebergReport cold;
    Result<TablePtr> first = run(GovernorProbe(), &cold);
    ASSERT_TRUE(first.ok()) << kind << ": " << first.status().ToString();
    ASSERT_TRUE(cold.used_nljp) << kind;
    EXPECT_GT(cold.nljp_stats.inner_evaluations, 0u) << kind;

    IcebergReport tripped;
    Result<TablePtr> failed = run(trip, &tripped);
    ASSERT_FALSE(failed.ok()) << kind;
    EXPECT_TRUE(failed.status().IsCancelled() ||
                failed.status().IsResourceExhausted())
        << kind << ": " << failed.status().ToString();

    // The next generous run loops: the tripped run recorded nothing.
    IcebergReport second;
    Result<TablePtr> looped = run(GovernorProbe(), &second);
    ASSERT_TRUE(looped.ok()) << kind << ": " << looped.status().ToString();
    ExpectSame(base_, *looped);
    EXPECT_EQ(second.nljp_stats.answer_replays, 0u) << kind;
    EXPECT_EQ(second.nljp_stats.inner_evaluations, 0u) << kind;
    EXPECT_GT(second.nljp_stats.bindings_total, 0u) << kind;

    // That clean zero-evaluation run recorded the answer.
    IcebergReport third;
    Result<TablePtr> replayed = run(GovernorProbe(), &third);
    ASSERT_TRUE(replayed.ok()) << kind << ": "
                               << replayed.status().ToString();
    ExpectSame(base_, *replayed);
    EXPECT_EQ(third.nljp_stats.answer_replays, 1u) << kind;
    EXPECT_EQ(third.nljp_stats.bindings_total, 0u) << kind;
  }
}

TEST_F(GovernedQueryTest, ProbeCancelsParallelBaseline) {
  ObjectConfig big;
  big.num_objects = 3000;  // above the parallel threshold
  big.domain = 50;
  Database db;
  ASSERT_TRUE(RegisterObjects(&db, big).ok());
  GovernorProbe probe;
  probe.on_check = [](size_t ordinal) {
    return ordinal == 40 ? Status::Cancelled("parallel cancel")
                         : Status::OK();
  };
  ExecOptions exec = ExecOptions::VendorA();
  exec.governor =
      std::make_shared<QueryGovernor>(QueryGovernor::Limits(), probe);
  Result<TablePtr> r = db.Query(kSkyband, exec);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
}

TEST_F(GovernedQueryTest, InjectedBudgetFailureOnAggregation) {
  GovernorProbe probe;
  probe.on_reserve = [](size_t, size_t, const char* tag) {
    return std::string(tag) == "hash-aggregation"
               ? Status::ResourceExhausted("injected aggregation overrun")
               : Status::OK();
  };
  ExecOptions exec;
  exec.governor =
      std::make_shared<QueryGovernor>(QueryGovernor::Limits(), probe);
  Result<TablePtr> r = db_.Query(kSkyband, exec);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
}

TEST_F(GovernedQueryTest, IntermediateRowLimitTripsBaseline) {
  QueryGovernor::Limits limits;
  limits.max_intermediate_rows = 100;  // far below the join's output
  ExecOptions exec;
  exec.governor = std::make_shared<QueryGovernor>(limits);
  Result<TablePtr> r = db_.Query(kSkyband, exec);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("intermediate-row"),
            std::string::npos);
}

TEST_F(GovernedQueryTest, GovernedRunMatchesUngovernedAndFillsStats) {
  ExecOptions exec;
  exec.governor = std::make_shared<QueryGovernor>();  // track, no limits
  ExecStats stats;
  Result<TablePtr> r = db_.Query(kSkyband, exec, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectSame(base_, *r);
  EXPECT_GT(stats.cancel_checks, 0u);
  EXPECT_GT(stats.budget_bytes_peak, 0u);
  EXPECT_NE(stats.ToString().find("checks="), std::string::npos);
  EXPECT_NE(stats.ToString().find("peak_kb="), std::string::npos);
}

TEST_F(GovernedQueryTest, MemoryBudgetForcesCacheShedButStaysCorrect) {
  // Pass 1: track (no limit) to learn the working set.
  IcebergOptions options = IcebergOptions::All();
  options.governor = std::make_shared<QueryGovernor>();
  IcebergReport full_report;
  Result<TablePtr> full = db_.QueryIceberg(kSkyband, options, &full_report);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_TRUE(full_report.used_nljp);
  size_t peak = full_report.nljp_stats.budget_bytes_peak;
  size_t cache_bytes = full_report.nljp_stats.cache_bytes;
  ASSERT_GT(peak, 0u);
  ASSERT_GT(cache_bytes, 0u);
  ASSERT_GT(peak, cache_bytes / 2);

  // Pass 2: a budget below the working set but with room for all mandatory
  // state — the cache must shed instead of the query failing.
  QueryGovernor::Limits limits;
  limits.memory_budget_bytes = peak - cache_bytes / 2;
  IcebergOptions tight = IcebergOptions::All();
  tight.governor = std::make_shared<QueryGovernor>(limits);
  IcebergReport report;
  Result<TablePtr> shed = db_.QueryIceberg(kSkyband, tight, &report);
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  ExpectSame(base_, *shed);
  EXPECT_GT(report.nljp_stats.cache_shed_entries, 0u);
  EXPECT_LE(report.nljp_stats.budget_bytes_peak,
            limits.memory_budget_bytes);
  // The degradation is surfaced in the report.
  bool recorded = false;
  for (const std::string& d : report.degradations) {
    if (d.find("shed") != std::string::npos) recorded = true;
  }
  EXPECT_TRUE(recorded) << report.ToString();
}

TEST_F(GovernedQueryTest, TinyBudgetFailsCleanlyWithResourceExhausted) {
  // A budget too small even for mandatory state: the query must fail with
  // ResourceExhausted, not crash or hang.
  QueryGovernor::Limits limits;
  limits.memory_budget_bytes = 64;
  IcebergOptions options = IcebergOptions::All();
  options.governor = std::make_shared<QueryGovernor>(limits);
  Result<TablePtr> r = db_.QueryIceberg(kSkyband, options);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();

  ExecOptions exec;
  exec.governor = std::make_shared<QueryGovernor>(limits);
  Result<TablePtr> b = db_.Query(kSkyband, exec);
  ASSERT_FALSE(b.ok());
  EXPECT_TRUE(b.status().IsResourceExhausted()) << b.status().ToString();
}

TEST_F(GovernedQueryTest, NljpStatsRecordGovernance) {
  IcebergOptions options = IcebergOptions::All();
  options.governor = std::make_shared<QueryGovernor>();
  IcebergReport report;
  Result<TablePtr> r = db_.QueryIceberg(kSkyband, options, &report);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(report.used_nljp);
  EXPECT_GT(report.nljp_stats.cancel_checks, 0u);
  EXPECT_GT(report.nljp_stats.budget_bytes_peak, 0u);
  EXPECT_NE(report.nljp_stats.ToString().find("checks="),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Every reservation a query takes is returned when the query ends
// ---------------------------------------------------------------------------

/// `big` is large enough for column-chunk projections on its scans;
/// `small` holds x values covering a quarter of big's, so an equi-join
/// on x lets predicate transfer eliminate rows.
void LoadSmallAndBig(Database* db) {
  ASSERT_TRUE(db->CreateTable("big", Schema({{"id", DataType::kInt64},
                                             {"x", DataType::kInt64},
                                             {"g", DataType::kInt64}}))
                  .ok());
  ASSERT_TRUE(db->DeclareKey("big", {"id"}).ok());
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(db->Insert("big", {Value::Int(i), Value::Int((i * 7) % 40),
                                   Value::Int(i % 10)})
                    .ok());
  }
  ASSERT_TRUE(db->CreateTable("small", Schema({{"id", DataType::kInt64},
                                               {"x", DataType::kInt64}}))
                  .ok());
  ASSERT_TRUE(db->DeclareKey("small", {"id"}).ok());
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(
        db->Insert("small", {Value::Int(i), Value::Int((i * 3) % 10)}).ok());
  }
}

TEST(GovernorRelease, NljpQueryReturnsEveryByteAtOneAndFourThreads) {
  Database db;
  LoadSmallAndBig(&db);
  const char* sql =
      "SELECT s.id, b.g, COUNT(*) FROM small s, big b WHERE s.x <= b.x "
      "GROUP BY s.id, b.g HAVING COUNT(*) >= 2";
  for (int threads : {1, 4}) {
    IcebergOptions options = IcebergOptions::All();
    options.base_exec.num_threads = threads;
    options.governor = std::make_shared<QueryGovernor>();  // track only
    IcebergReport report;
    Result<TablePtr> r = db.QueryIceberg(sql, options, &report);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(report.used_nljp) << report.ToString();
    // The inner Q_R(b) scans over `big` ran on column chunks, so the
    // chunk reservation was taken, and then given back.
    EXPECT_GT(report.nljp_stats.inner_batch_rows, 0u) << "t=" << threads;
    EXPECT_EQ(options.governor->bytes_in_use(), 0u) << "t=" << threads;
  }
}

TEST(GovernorRelease, TransferFiltersAreReturnedAfterTheQuery) {
  Database db;
  LoadSmallAndBig(&db);
  for (int threads : {1, 4}) {
    ExecOptions exec;
    exec.num_threads = threads;
    exec.governor = std::make_shared<QueryGovernor>();  // track only
    ExecStats stats;
    Result<TablePtr> r = db.Query(
        "SELECT s.id, COUNT(*) FROM small s, big b WHERE s.x = b.x "
        "GROUP BY s.id",
        exec, &stats);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GT(stats.transfer_filters_built, 0u) << "t=" << threads;
    EXPECT_EQ(exec.governor->bytes_in_use(), 0u) << "t=" << threads;
  }
}

}  // namespace
}  // namespace iceberg
