// Serving-layer units: admission control (queue bound, shed order, budget
// apportionment), retry policy determinism, statement shapes, snapshot
// pinning, cross-query cache promotion, and the per-attempt governor
// lifecycle (no double counting under retries), and served answers
// against direct ones while warm statements replay recorded NLJP answers.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bench/workload_queries.h"
#include "src/engine/database.h"
#include "src/nljp/shared_cache.h"
#include "src/obs/metrics.h"
#include "src/server/admission.h"
#include "src/server/chaos.h"
#include "src/server/retry.h"
#include "src/server/session.h"
#include "src/common/shape.h"

namespace iceberg {
namespace {

// ---------------------------------------------------------------------------
// Status retryability
// ---------------------------------------------------------------------------

TEST(StatusRetryable, OverloadedIsAlwaysRetryable) {
  Status st = Status::Overloaded("queue full");
  EXPECT_TRUE(st.IsOverloaded());
  EXPECT_TRUE(st.IsRetryable());
}

TEST(StatusRetryable, MarkRetryableTagsTransients) {
  EXPECT_FALSE(Status::Cancelled("deadline exceeded").IsRetryable());
  EXPECT_FALSE(Status::ResourceExhausted("row limit").IsRetryable());
  EXPECT_TRUE(Status::Cancelled("chaos").MarkRetryable().IsRetryable());
  EXPECT_TRUE(
      Status::ResourceExhausted("shared").MarkRetryable().IsRetryable());
  // OK can never be marked retryable.
  EXPECT_FALSE(Status::OK().MarkRetryable().IsRetryable());
}

TEST(StatusRetryable, FlagSurvivesCopies) {
  Status st = Status::Cancelled("chaos").MarkRetryable();
  Status copy = st;
  EXPECT_TRUE(copy.IsRetryable());
  EXPECT_NE(copy.ToString().find("retryable"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Query shapes
// ---------------------------------------------------------------------------

TEST(QueryShapeTest, FingerprintNormalizesCaseAndWhitespace) {
  QueryShape a = ComputeQueryShape("SELECT  x FROM t1   WHERE x > 5");
  QueryShape b = ComputeQueryShape("select x\nfrom t1 where x > 5");
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.normalized, "select x from t1 where x > 5");
}

TEST(QueryShapeTest, FingerprintKeepsLiterals) {
  // Different constants => different results => different cache keys.
  QueryShape a = ComputeQueryShape("SELECT x FROM t WHERE x > 5");
  QueryShape b = ComputeQueryShape("SELECT x FROM t WHERE x > 6");
  EXPECT_NE(a.fingerprint, b.fingerprint);
  // ... but the same shape for per-shape observability.
  EXPECT_EQ(a.shape_hash, b.shape_hash);
  EXPECT_EQ(a.shape, "select x from t where x > ?");
}

TEST(QueryShapeTest, StringLiteralsPreservedInNormalizedForm) {
  QueryShape a = ComputeQueryShape("SELECT x FROM t WHERE s = 'ABC def'");
  // Case inside the literal is untouched; outside it is lowered.
  EXPECT_EQ(a.normalized, "select x from t where s = 'ABC def'");
  EXPECT_EQ(a.shape, "select x from t where s = ?");
  QueryShape b = ComputeQueryShape("SELECT x FROM t WHERE s = 'other'");
  EXPECT_NE(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.shape_hash, b.shape_hash);
}

TEST(QueryShapeTest, DigitsInsideIdentifiersAreNotLiterals) {
  QueryShape a = ComputeQueryShape("SELECT c1 FROM t1");
  EXPECT_EQ(a.shape, "select c1 from t1");
  EXPECT_EQ(a.fingerprint, a.shape_hash);  // no literals => same hash input
}

// ---------------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------------

TEST(RetryPolicyTest, OnlyRetryableStatusesRetry) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  EXPECT_TRUE(policy.ShouldRetry(Status::Overloaded("shed"), 1));
  EXPECT_TRUE(policy.ShouldRetry(
      Status::Cancelled("chaos").MarkRetryable(), 2));
  EXPECT_FALSE(policy.ShouldRetry(Status::Overloaded("shed"), 3));  // budget
  EXPECT_FALSE(policy.ShouldRetry(Status::Cancelled("user"), 1));
  EXPECT_FALSE(policy.ShouldRetry(Status::ParseError("syntax"), 1));
  EXPECT_FALSE(policy.ShouldRetry(Status::OK(), 1));
}

TEST(RetryPolicyTest, BackoffIsDeterministicAndBounded) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 4;
  policy.max_backoff_ms = 32;
  policy.jitter_seed = 42;
  for (int attempt = 1; attempt <= 8; ++attempt) {
    int64_t b1 = policy.BackoffMs(attempt);
    int64_t b2 = policy.BackoffMs(attempt);
    EXPECT_EQ(b1, b2) << "jitter must be a pure function of (seed, attempt)";
    int64_t base = std::min<int64_t>(4LL << (attempt - 1), 32);
    EXPECT_GE(b1, (base + 1) / 2);
    EXPECT_LE(b1, base);
  }
}

TEST(RetryPolicyTest, DifferentSeedsDesynchronize) {
  RetryPolicy a, b;
  a.initial_backoff_ms = b.initial_backoff_ms = 64;
  a.max_backoff_ms = b.max_backoff_ms = 4096;
  a.jitter_seed = 1;
  b.jitter_seed = 2;
  bool differ = false;
  for (int attempt = 1; attempt <= 6; ++attempt) {
    differ |= a.BackoffMs(attempt) != b.BackoffMs(attempt);
  }
  EXPECT_TRUE(differ);
}

TEST(RetryPolicyTest, NonePolicyNeverRetries) {
  RetryPolicy none = RetryPolicy::None();
  EXPECT_FALSE(none.ShouldRetry(Status::Overloaded("shed"), 1));
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

TEST(AdmissionTest, BudgetApportionmentArithmetic) {
  AdmissionConfig config;
  config.max_concurrent = 4;
  config.memory_budget_bytes = 1 << 20;
  config.thread_budget = 8;
  EXPECT_EQ(AdmissionController::MemoryGrant(config), (1u << 20) / 4);
  EXPECT_EQ(AdmissionController::ThreadGrant(config), 2);

  config.thread_budget = 2;  // fewer threads than slots: floor at 1
  EXPECT_EQ(AdmissionController::ThreadGrant(config), 1);

  config.memory_budget_bytes = 0;  // ungoverned pool
  EXPECT_EQ(AdmissionController::MemoryGrant(config), 0u);
  config.thread_budget = 0;
  EXPECT_EQ(AdmissionController::ThreadGrant(config), 0);

  config.max_concurrent = 0;  // degenerate config clamps to one slot
  config.memory_budget_bytes = 512;
  EXPECT_EQ(AdmissionController::MemoryGrant(config), 512u);
}

TEST(AdmissionTest, GrantsFlowIntoTickets) {
  AdmissionConfig config;
  config.max_concurrent = 2;
  config.memory_budget_bytes = 1024;
  config.thread_budget = 4;
  AdmissionController admission(config);
  auto ticket = admission.Admit();
  ASSERT_TRUE(ticket.ok());
  EXPECT_EQ(ticket->memory_grant_bytes, 512u);
  EXPECT_EQ(ticket->thread_grant, 2);
  EXPECT_EQ(admission.in_flight(), 1u);
  admission.Release(*ticket);
  EXPECT_EQ(admission.in_flight(), 0u);
}

TEST(AdmissionTest, QueueFullShedsImmediatelyWithRetryableOverload) {
  AdmissionConfig config;
  config.max_concurrent = 1;
  config.max_queue_depth = 0;  // no waiting room at all
  AdmissionController admission(config);
  auto first = admission.Admit();
  ASSERT_TRUE(first.ok());
  auto second = admission.Admit();  // slot busy, queue full -> immediate shed
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsOverloaded());
  EXPECT_TRUE(second.status().IsRetryable());
  EXPECT_EQ(admission.shed_queue_full_total(), 1u);
  admission.Release(*first);
  // Slot free again: next admit succeeds.
  auto third = admission.Admit();
  ASSERT_TRUE(third.ok());
  admission.Release(*third);
}

TEST(AdmissionTest, QueueTimeoutShedsWithRetryableOverload) {
  AdmissionConfig config;
  config.max_concurrent = 1;
  config.max_queue_depth = 4;
  config.queue_timeout_ms = 30;
  AdmissionController admission(config);
  auto first = admission.Admit();
  ASSERT_TRUE(first.ok());
  auto start = std::chrono::steady_clock::now();
  auto second = admission.Admit();  // queues, then times out
  auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsOverloaded());
  EXPECT_GE(waited, 25);
  EXPECT_EQ(admission.shed_timeout_total(), 1u);
  EXPECT_EQ(admission.queued(), 0u) << "timed-out waiter must leave queue";
  admission.Release(*first);
}

TEST(AdmissionTest, FifoOrderNoStarvation) {
  AdmissionConfig config;
  config.max_concurrent = 1;
  config.max_queue_depth = 8;
  config.queue_timeout_ms = 0;  // wait forever: order must guarantee progress
  AdmissionController admission(config);
  auto gate = admission.Admit();
  ASSERT_TRUE(gate.ok());

  std::mutex mu;
  std::vector<int> admitted_order;
  std::vector<std::thread> waiters;
  for (int i = 0; i < 4; ++i) {
    waiters.emplace_back([&, i] {
      auto ticket = admission.Admit();
      ASSERT_TRUE(ticket.ok());
      {
        std::lock_guard<std::mutex> lock(mu);
        admitted_order.push_back(i);
      }
      admission.Release(*ticket);
    });
    // Serialize arrival so FIFO order is well-defined.
    while (admission.queued() < static_cast<size_t>(i + 1)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  admission.Release(*gate);  // open the floodgate
  for (auto& t : waiters) t.join();
  EXPECT_EQ(admitted_order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(admission.admitted_total(), 5u);
}

// ---------------------------------------------------------------------------
// Snapshot pinning
// ---------------------------------------------------------------------------

Database MakeTinyDb() {
  Database db;
  EXPECT_TRUE(db.CreateTable("obj", Schema({{"id", DataType::kInt64},
                                            {"x", DataType::kInt64},
                                            {"y", DataType::kInt64}}))
                  .ok());
  EXPECT_TRUE(db.DeclareKey("obj", {"id"}).ok());
  for (int64_t i = 0; i < 16; ++i) {
    EXPECT_TRUE(db.Insert("obj", {Value::Int(i), Value::Int(i % 5),
                                  Value::Int((i * 7) % 11)})
                    .ok());
  }
  return db;
}

TEST(SnapshotTest, MutationInvalidatesPins) {
  Database db = MakeTinyDb();
  auto pins = db.SnapshotTables();
  ASSERT_EQ(pins.size(), 1u);
  auto table = db.GetTable("obj");
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE((*table)->SnapshotValid(pins[0].second));

  uint64_t hash_before = db.CatalogVersionHash();
  ASSERT_TRUE(db.Insert("obj", {Value::Int(99), Value::Int(1), Value::Int(2)})
                  .ok());
  EXPECT_FALSE((*table)->SnapshotValid(pins[0].second));
  EXPECT_NE(db.CatalogVersionHash(), hash_before)
      << "catalog hash must rotate on any table mutation";
}

TEST(SnapshotTest, VersionHashCoversOnlyNamedTables) {
  Database db = MakeTinyDb();
  ASSERT_TRUE(db.CreateTable("obj_2", Schema({{"id", DataType::kInt64}})).ok());
  // "obj" occurs inside "obj_2", but not as a whole identifier.
  const std::string reads_obj =
      ComputeQueryShape("SELECT o.id FROM obj o WHERE o.x < 3").shape;
  const std::string reads_obj_2 =
      ComputeQueryShape("SELECT Obj_2.id FROM OBJ_2").shape;
  const uint64_t obj_before = db.VersionHashOf(reads_obj);
  const uint64_t obj_2_before = db.VersionHashOf(reads_obj_2);

  ASSERT_TRUE(db.Insert("obj", {Value::Int(99), Value::Int(1), Value::Int(2)})
                  .ok());
  EXPECT_NE(db.VersionHashOf(reads_obj), obj_before);
  EXPECT_EQ(db.VersionHashOf(reads_obj_2), obj_2_before)
      << "a mutation of obj must not rotate a statement that reads obj_2";
  ASSERT_TRUE(db.Insert("obj_2", {Value::Int(1)}).ok());
  EXPECT_NE(db.VersionHashOf(reads_obj_2), obj_2_before);

  // A table created under a name the statement mentions rotates it too.
  const std::string reads_later =
      ComputeQueryShape("SELECT * FROM later").shape;
  const uint64_t later_before = db.VersionHashOf(reads_later);
  ASSERT_TRUE(db.CreateTable("later", Schema({{"id", DataType::kInt64}})).ok());
  EXPECT_NE(db.VersionHashOf(reads_later), later_before);
}

// ---------------------------------------------------------------------------
// Cross-query NLJP cache registry
// ---------------------------------------------------------------------------

TEST(CacheRegistryTest, ReusesByKeyAndEvictsLru) {
  NljpCacheRegistry registry(/*max_caches=*/2, /*max_entries_per_cache=*/64);
  auto make = [] {
    SharedNljpCache::Options opts;
    opts.stripes = 4;
    return opts;
  };
  auto a = registry.GetOrCreate(1, make);
  auto a_again = registry.GetOrCreate(1, make);
  EXPECT_EQ(a.get(), a_again.get()) << "same key must reuse the same cache";
  auto b = registry.GetOrCreate(2, make);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(registry.num_caches(), 2u);
  // Touch key 1 so key 2 is the LRU, then force an eviction.
  registry.GetOrCreate(1, make);
  registry.GetOrCreate(3, make);
  EXPECT_EQ(registry.num_caches(), 2u);
  auto b_again = registry.GetOrCreate(2, make);
  EXPECT_NE(b.get(), b_again.get()) << "key 2 was evicted as LRU";

  // Re-creating key 2 evicted key 1; key 3 stays, until Clear.
  auto c = registry.GetOrCreate(3, make);
  EXPECT_EQ(registry.GetOrCreate(3, make).get(), c.get());
  EXPECT_NE(registry.GetOrCreate(1, make).get(), a.get())
      << "key 1 was evicted when key 2 came back";
  EXPECT_EQ(registry.num_caches(), 2u);
  registry.Clear();
  EXPECT_EQ(registry.num_caches(), 0u);
  EXPECT_NE(registry.GetOrCreate(3, make).get(), c.get());
}

TEST(CacheRegistryTest, ServerPromotesCachesAcrossStatements) {
  Database db = MakeTinyDb();
  ServerConfig config;
  config.retry = RetryPolicy::None();
  IcebergServer server(&db, config);
  auto session = server.OpenSession();

  const std::string sql =
      "SELECT L.id, COUNT(*) FROM obj L, obj R "
      "WHERE L.x <= R.x AND L.y <= R.y AND (L.x < R.x OR L.y < R.y) "
      "GROUP BY L.id HAVING COUNT(*) <= 50";
  QueryOutcome first = session->Execute(sql);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  size_t caches_after_first = server.cache_registry().num_caches();
  EXPECT_GE(caches_after_first, 1u)
      << "iceberg statement must promote its NLJP cache into the registry";

  MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  QueryOutcome second = session->Execute(sql);
  ASSERT_TRUE(second.status.ok());
  MetricsSnapshot delta =
      MetricsRegistry::Global().Snapshot().DiffSince(before);
  EXPECT_GE(delta.counters["nljp.registry.hits"], 1u)
      << "identical statement must hit the promoted cache";
  EXPECT_EQ(server.cache_registry().num_caches(), caches_after_first);

  // Results are identical across the cold and warm runs.
  ASSERT_TRUE(first.table != nullptr && second.table != nullptr);
  EXPECT_EQ(first.table->num_rows(), second.table->num_rows());

  // A mutation of obj rotates the version hash, so the same statement now
  // keys a *new* cache (the stale one ages out of the MRU list).
  ASSERT_TRUE(server.Insert("obj", {Value::Int(100), Value::Int(2),
                                    Value::Int(3)})
                  .ok());
  QueryOutcome third = session->Execute(sql);
  ASSERT_TRUE(third.status.ok());
  EXPECT_GT(server.cache_registry().num_caches(), caches_after_first)
      << "mutation must rotate the cross-query cache key";
}

// ---------------------------------------------------------------------------
// Served answers equal direct ones, warm or cold
// ---------------------------------------------------------------------------

// Rows in order, rendered: canonical output order is part of the answer.
std::vector<std::string> Rendered(const Table& table) {
  std::vector<std::string> out;
  for (const Row& row : table.rows()) out.push_back(RowToString(row));
  return out;
}

// A WITH body and the outer block each run their own NLJP. Both used to
// share the statement's one registry cache, so the second operator to run
// probed memo entries the first had cached under its own binding codec:
// on every run the served answer came back with 36 rows instead of 33.
TEST(ServedNljpTest, EachNljpBlockOfAStatementHasItsOwnCache) {
  std::unique_ptr<Database> db = bench::MakeScoreDb(3000);
  const std::string dominance =
      "L.hits <= R.hits AND L.hruns <= R.hruns AND "
      "(L.hits < R.hits OR L.hruns < R.hruns)";
  const std::string sql =
      "WITH s AS (SELECT L.pid, L.year, L.round, L.hits, L.hruns, "
      "COUNT(*) AS c FROM score L, score R WHERE " + dominance +
      " GROUP BY L.pid, L.year, L.round HAVING COUNT(*) <= 200) "
      "SELECT L.pid, L.year, L.round, COUNT(*) FROM s L, s R WHERE " +
      dominance + " GROUP BY L.pid, L.year, L.round HAVING COUNT(*) <= 20";
  Result<TablePtr> direct = db->QueryIceberg(sql);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  Result<TablePtr> baseline = db->Query(sql);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_EQ(Rendered(**direct), Rendered(**baseline));
  ASSERT_GT((*direct)->num_rows(), 0u);

  ServerConfig config;
  config.retry = RetryPolicy::None();
  IcebergServer server(db.get(), config);
  auto session = server.OpenSession();
  for (int run = 1; run <= 3; ++run) {
    QueryOutcome outcome = session->Execute(sql);
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    ASSERT_TRUE(outcome.report.used_nljp);
    EXPECT_EQ(Rendered(*outcome.table), Rendered(**direct)) << "run " << run;
  }
  EXPECT_EQ(server.cache_registry().num_caches(), 2u)
      << "one registry cache per NLJP operator";
}

// Two NLJP blocks of one statement whose operators print the same plan
// text: they differ only in the select list or GROUP BY, or read different
// tables under one name (a FROM-subquery alias in each of two nested
// blocks). Whichever runs second with zero inner evaluations would record
// its answer in a shared cache, and the other would replay it.
TEST(ServedNljpTest, BlocksWithEqualPlanTextKeepTheirOwnAnswers) {
  std::unique_ptr<Database> db = bench::MakeScoreDb(3000);
  const std::string dominance =
      "L.hits <= R.hits AND L.hruns <= R.hruns AND "
      "(L.hits < R.hits OR L.hruns < R.hruns)";
  const std::string key = "L.pid, L.year, L.round";
  auto skyband = [&](const std::string& select, const std::string& from,
                     const std::string& group_by) {
    return "SELECT " + select + " FROM " + from + " WHERE " + dominance +
           " GROUP BY " + group_by + " HAVING COUNT(*) <= 20";
  };
  const std::string score_pair = "score L, score R";
  // The outer blocks join the two answers on round: few values, so every
  // row of each answer shows in the result.
  const std::vector<std::string> statements = {
      // Same operator, different projection.
      "WITH a AS (" + skyband(key + ", COUNT(*) AS c", score_pair, key) +
          "), b AS (" +
          skyband(key + ", COUNT(*) + 1 AS c", score_pair, key) +
          ") SELECT a.pid, a.year, a.c, b.pid, b.year, b.c FROM a, b "
          "WHERE a.round = b.round",
      // Same operator, different G_L and arity.
      "WITH a AS (" + skyband(key + ", COUNT(*) AS c", score_pair, key) +
          "), b AS (" +
          skyband(key + ", L.teamid, COUNT(*) AS c", score_pair,
                  key + ", L.teamid") +
          ") SELECT a.pid, a.year, a.c, b.pid, b.teamid, b.c FROM a, b "
          "WHERE a.round = b.round",
      // Equal block text over different inputs named L and R.
      "SELECT a.pid, a.year, a.c, b.pid, b.year, b.c FROM (" +
          skyband(key + ", COUNT(*) AS c",
                  "(SELECT pid, year, round, hits, hruns FROM score "
                  "WHERE year < 1990) L, "
                  "(SELECT pid, year, round, hits, hruns FROM score "
                  "WHERE year < 1990) R",
                  key) +
          ") a, (" +
          skyband(key + ", COUNT(*) AS c",
                  "(SELECT pid, year, round, hits, hruns FROM score "
                  "WHERE year >= 1990) L, "
                  "(SELECT pid, year, round, hits, hruns FROM score "
                  "WHERE year >= 1990) R",
                  key) +
          ") b WHERE a.round = b.round",
  };

  ServerConfig config;
  config.retry = RetryPolicy::None();
  IcebergServer server(db.get(), config);
  auto session = server.OpenSession();
  for (size_t i = 0; i < statements.size(); ++i) {
    const std::string& sql = statements[i];
    Result<TablePtr> direct = db->QueryIceberg(sql);
    ASSERT_TRUE(direct.ok()) << i << ": " << direct.status().ToString();
    Result<TablePtr> baseline = db->Query(sql);
    ASSERT_TRUE(baseline.ok()) << i << ": " << baseline.status().ToString();
    ASSERT_EQ(Rendered(**direct), Rendered(**baseline)) << "statement " << i;
    ASSERT_GT((*direct)->num_rows(), 0u) << "statement " << i;
    int64_t replays = 0;
    for (int run = 1; run <= 4; ++run) {
      QueryOutcome outcome = session->Execute(sql);
      ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
      ASSERT_TRUE(outcome.report.used_nljp) << "statement " << i;
      EXPECT_EQ(Rendered(*outcome.table), Rendered(**direct))
          << "statement " << i << " run " << run;
      replays += outcome.report.nljp_stats.answer_replays;
    }
    EXPECT_GT(replays, 0) << "statement " << i << " never replayed";
  }
}

// Fig. 1's Q1-Q8, served four times each through one session: every run
// equals the direct answer, and from the third run on a statement whose
// NLJP found its registry cache complete replays the recorded answer
// without streaming a binding. A mutation and a shed storm each force the
// next run back through the loop.
TEST(ServedNljpTest, WarmStatementsReplayTheDirectAnswer) {
  std::unique_ptr<Database> db = bench::MakeScoreDb(3000);
  const std::vector<bench::NamedQuery> queries = bench::Figure1Queries();
  ServerConfig config;
  config.retry = RetryPolicy::None();
  IcebergServer server(db.get(), config);
  auto session = server.OpenSession();

  auto direct_answers = [&] {
    std::vector<std::vector<std::string>> out;
    for (const bench::NamedQuery& q : queries) {
      Result<TablePtr> direct = db->QueryIceberg(q.sql);
      EXPECT_TRUE(direct.ok()) << q.name << ": " << direct.status().ToString();
      out.push_back(direct.ok() ? Rendered(**direct)
                                : std::vector<std::string>{});
    }
    return out;
  };
  // One run of every statement: each equals its direct answer, and the
  // run's NLJP stats are returned.
  auto serve_all = [&](const std::vector<std::vector<std::string>>& expected,
                       const std::string& context) {
    std::vector<NljpStats> stats;
    for (size_t i = 0; i < queries.size(); ++i) {
      QueryOutcome outcome = session->Execute(queries[i].sql);
      EXPECT_TRUE(outcome.status.ok())
          << queries[i].name << ": " << outcome.status.ToString();
      if (!outcome.status.ok()) {
        stats.emplace_back();
        continue;
      }
      EXPECT_TRUE(outcome.report.used_nljp) << queries[i].name;
      EXPECT_EQ(Rendered(*outcome.table), expected[i])
          << queries[i].name << " (" << context << ")";
      stats.push_back(outcome.report.nljp_stats);
    }
    return stats;
  };

  std::vector<std::vector<std::string>> expected = direct_answers();
  for (int run = 1; run <= 4; ++run) {
    const std::string context = "run " + std::to_string(run);
    std::vector<NljpStats> stats = serve_all(expected, context);
    for (size_t i = 0; i < stats.size(); ++i) {
      if (run < 3) {
        EXPECT_EQ(stats[i].answer_replays, 0u)
            << queries[i].name << " " << context;
      } else {
        EXPECT_EQ(stats[i].answer_replays, 1u)
            << queries[i].name << " " << context;
        EXPECT_EQ(stats[i].bindings_total, 0u)
            << queries[i].name << " " << context;
      }
    }
  }

  // Every statement reads score, so an insert into it rotates every key:
  // the next run loops again.
  ASSERT_TRUE(server
                  .Insert("score", {Value::Int(1000000), Value::Int(1985),
                                    Value::Int(0), Value::Int(0),
                                    Value::Int(0), Value::Int(0),
                                    Value::Int(0), Value::Int(0)})
                  .ok());
  expected = direct_answers();
  for (const NljpStats& s : serve_all(expected, "after insert")) {
    EXPECT_EQ(s.answer_replays, 0u) << "after insert";
  }
  // The second run after the insert records the answers again, and a
  // shed storm drops them with the caches' entries.
  serve_all(expected, "second run after insert");
  server.cache_registry().ShedAll();
  for (const NljpStats& s : serve_all(expected, "after ShedAll")) {
    EXPECT_EQ(s.answer_replays, 0u) << "after ShedAll";
  }
}

// An insert rotates the registry and plan-cache keys of the statements
// that name its table, and of no other statement.
TEST(ServedNljpTest, InsertsIntoAnotherTableKeepAnswersWarm) {
  std::unique_ptr<Database> db = bench::MakeScoreDb(3000);
  ASSERT_TRUE(db->CreateTable("extra", Schema({{"id", DataType::kInt64}}))
                  .ok());
  ServerConfig config;
  config.retry = RetryPolicy::None();
  IcebergServer server(db.get(), config);
  auto session = server.OpenSession();
  const std::string sql = bench::SkybandSql("hits", "hruns", 50);

  std::vector<std::string> expected;
  auto direct_answer = [&] {
    Result<TablePtr> direct = db->QueryIceberg(sql);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    expected = Rendered(**direct);
  };
  auto serve = [&](const std::string& context) {
    QueryOutcome outcome = session->Execute(sql);
    EXPECT_TRUE(outcome.status.ok())
        << context << ": " << outcome.status.ToString();
    if (!outcome.status.ok()) return IcebergReport();
    EXPECT_EQ(Rendered(*outcome.table), expected) << context;
    return outcome.report;
  };

  direct_answer();
  serve("run 1");
  serve("run 2");
  EXPECT_EQ(serve("run 3").nljp_stats.answer_replays, 1u);

  for (int64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(server.Insert("extra", {Value::Int(i)}).ok());
    IcebergReport report = serve("after an insert into extra");
    EXPECT_EQ(report.nljp_stats.answer_replays, 1u)
        << "an insert into a table the statement does not name";
    EXPECT_EQ(report.plan_provenance, "hit");
  }

  // An all-zero row dominates no row, so the answer stays; the key rotates.
  ASSERT_TRUE(server
                  .Insert("score", {Value::Int(1000000), Value::Int(1985),
                                    Value::Int(0), Value::Int(0),
                                    Value::Int(0), Value::Int(0),
                                    Value::Int(0), Value::Int(0)})
                  .ok());
  direct_answer();
  IcebergReport report = serve("after an insert into score");
  EXPECT_EQ(report.nljp_stats.answer_replays, 0u);
  EXPECT_EQ(report.plan_provenance, "miss");
}

// ---------------------------------------------------------------------------
// Session execution, retries, and the per-attempt governor lifecycle
// ---------------------------------------------------------------------------

TEST(SessionTest, ExecutesAndMatchesDirectResult) {
  Database db = MakeTinyDb();
  IcebergServer server(&db);
  auto session = server.OpenSession();
  QueryOutcome outcome =
      session->Execute("SELECT id FROM obj WHERE x > 2");
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.attempts, 1);
  ASSERT_NE(outcome.table, nullptr);

  auto direct = db.QueryIceberg("SELECT id FROM obj WHERE x > 2");
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(outcome.table->num_rows(), (*direct)->num_rows());
}

TEST(SessionTest, BaselinePathServedToo) {
  Database db = MakeTinyDb();
  IcebergServer server(&db);
  auto session = server.OpenSession();
  QueryOutcome outcome =
      session->ExecuteBaseline("SELECT id FROM obj WHERE x > 2");
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_GT(outcome.exec_stats.join_pairs_examined +
                outcome.table->num_rows(),
            0u);
}

TEST(SessionTest, NonRetryableFailureReturnsWithoutRetry) {
  Database db = MakeTinyDb();
  ServerConfig config;
  config.retry.max_attempts = 5;
  IcebergServer server(&db, config);
  auto session = server.OpenSession();
  QueryOutcome outcome = session->Execute("SELECT FROM nonsense !!");
  ASSERT_FALSE(outcome.status.ok());
  EXPECT_FALSE(outcome.status.IsRetryable());
  EXPECT_EQ(outcome.attempts, 1) << "parse errors must not burn retries";
}

// Satellite: every retry attempt gets a *fresh* governor (they are
// single-use) and fresh stats/report, so governor metrics reconcile
// exactly: governor.queries delta == attempts, no double counting.
TEST(SessionTest, RetryAttemptsUseFreshGovernors) {
  Database db = MakeTinyDb();
  ServerConfig config;
  config.retry.max_attempts = 3;
  config.retry.initial_backoff_ms = 1;
  config.retry.max_backoff_ms = 2;
  // A shared (admission-granted) budget far too small for the join: every
  // attempt exhausts it retryably, so the retry loop runs to its bound.
  config.admission.max_concurrent = 1;
  config.admission.memory_budget_bytes = 64;
  IcebergServer server(&db, config);
  auto session = server.OpenSession();

  MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  QueryOutcome outcome = session->Execute(
      "SELECT L.id, COUNT(*) FROM obj L, obj R "
      "WHERE L.x <= R.x GROUP BY L.id HAVING COUNT(*) <= 50");
  MetricsSnapshot delta =
      MetricsRegistry::Global().Snapshot().DiffSince(before);

  ASSERT_FALSE(outcome.status.ok());
  EXPECT_TRUE(outcome.status.IsRetryable())
      << "shared-budget exhaustion must surface retryably: "
      << outcome.status.ToString();
  EXPECT_EQ(outcome.attempts, 3);
  EXPECT_EQ(delta.counters["governor.queries"],
            static_cast<uint64_t>(outcome.attempts))
      << "each attempt must run under its own single-use governor";
  EXPECT_EQ(delta.counters["server.retries"], 2u);
  EXPECT_GT(outcome.backoff_total_ms, 0);
}

TEST(SessionTest, SharedBudgetLargeEnoughSucceedsFirstTry) {
  Database db = MakeTinyDb();
  ServerConfig config;
  config.admission.max_concurrent = 2;
  config.admission.memory_budget_bytes = 64u << 20;
  IcebergServer server(&db, config);
  auto session = server.OpenSession();
  QueryOutcome outcome = session->Execute(
      "SELECT L.id, COUNT(*) FROM obj L, obj R "
      "WHERE L.x <= R.x GROUP BY L.id HAVING COUNT(*) <= 50");
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.attempts, 1);
}

TEST(SessionTest, ConcurrentSessionsAllServed) {
  Database db = MakeTinyDb();
  ServerConfig config;
  config.admission.max_concurrent = 2;
  config.admission.max_queue_depth = 16;
  config.admission.queue_timeout_ms = 5000;
  IcebergServer server(&db, config);

  constexpr int kSessions = 6;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&server, &ok] {
      auto session = server.OpenSession();
      QueryOutcome outcome =
          session->Execute("SELECT id FROM obj WHERE x > 1");
      if (outcome.status.ok()) ok.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kSessions)
      << "bounded queue + FIFO admission must serve a modest burst fully";
}

}  // namespace
}  // namespace iceberg
