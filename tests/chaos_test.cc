// Deterministic chaos soak for the serving layer (ISSUE 6 correctness
// bar): under any chaos seed and any session interleaving, every query
// either returns byte-identical results or fails with a clean *retryable*
// error — never a crash, a wrong answer, or a non-retryable transient.
//
// Injection decisions are pure functions of (seed, session, statement,
// attempt, site, ordinal), so a failing (seed, sessions) pair reproduces
// by re-running the same test filter; thread interleaving only changes
// which operation draws a given ordinal, never the correctness outcome.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/database.h"
#include "src/obs/metrics.h"
#include "src/server/chaos.h"
#include "src/server/session.h"

namespace iceberg {
namespace {

/// Restores "chaos off" no matter how a test exits.
struct ChaosGuard {
  explicit ChaosGuard(ChaosConfig config) {
    ChaosSchedule::SetGlobal(config);
  }
  ~ChaosGuard() { ChaosSchedule::SetGlobal(ChaosConfig{}); }
};

/// Canonical byte rendering of a result: rows sorted with the engine's
/// total order, so comparisons are independent of output order.
std::string CanonicalRender(const TablePtr& table) {
  std::vector<Row> rows = table->rows();
  std::sort(rows.begin(), rows.end(), RowLess{});
  std::string out;
  for (const Row& row : rows) {
    out += RowToString(row);
    out += '\n';
  }
  return out;
}

Database MakeDb() {
  Database db;
  EXPECT_TRUE(db.CreateTable("object", Schema({{"id", DataType::kInt64},
                                               {"x", DataType::kInt64},
                                               {"y", DataType::kInt64}}))
                  .ok());
  EXPECT_TRUE(db.DeclareKey("object", {"id"}).ok());
  for (int64_t i = 0; i < 24; ++i) {
    EXPECT_TRUE(db.Insert("object", {Value::Int(i), Value::Int((i * 13) % 7),
                                     Value::Int((i * 5) % 11)})
                    .ok());
  }
  EXPECT_TRUE(db.CreateTable("extra", Schema({{"id", DataType::kInt64},
                                              {"v", DataType::kInt64}}))
                  .ok());
  EXPECT_TRUE(db.Insert("extra", {Value::Int(0), Value::Int(0)}).ok());
  return db;
}

std::vector<std::string> Script() {
  return {
      "SELECT L.id, COUNT(*) FROM object L, object R "
      "WHERE L.x <= R.x AND L.y <= R.y AND (L.x < R.x OR L.y < R.y) "
      "GROUP BY L.id HAVING COUNT(*) <= 50",
      "SELECT id FROM object WHERE x > 2",
      "SELECT L.id, COUNT(*) FROM object L, object R "
      "WHERE L.x <= R.x GROUP BY L.id HAVING COUNT(*) <= 12",
  };
}

ServerConfig SoakServerConfig() {
  ServerConfig config;
  config.admission.max_concurrent = 2;
  config.admission.max_queue_depth = 32;
  config.admission.queue_timeout_ms = 10000;
  config.admission.memory_budget_bytes = 256u << 20;  // ample shared pool
  config.retry.max_attempts = 6;
  config.retry.initial_backoff_ms = 1;
  config.retry.max_backoff_ms = 4;
  return config;
}

/// Fault rates for the soak: every class active, tuned so that on this
/// workload most attempts complete and the retry loop sees real traffic.
ChaosConfig SoakChaos(uint64_t seed) {
  ChaosConfig c;
  c.seed = seed;
  c.cancel_every = 2000;
  // Reserve sites are ~100x rarer than check sites (they guard whole
  // allocations, not loop iterations), so the rate is correspondingly
  // higher to actually draw hits.
  c.alloc_fail_every = 40;
  c.shed_storm_every = 300;
  c.delay_every = 200;
  c.delay_us = 5;
  return c;
}

/// Fault-free reference results, computed once per statement.
std::map<std::string, std::string> ExpectedResults() {
  Database db = MakeDb();
  IcebergServer server(&db, SoakServerConfig());
  auto session = server.OpenSession();
  std::map<std::string, std::string> expected;
  for (const std::string& sql : Script()) {
    QueryOutcome outcome = session->Execute(sql);
    EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    expected[sql] = CanonicalRender(outcome.table);
    EXPECT_FALSE(expected[sql].empty());
  }
  return expected;
}

struct SoakTally {
  int ok = 0;
  int shed = 0;  // clean retryable failures after retries were exhausted
};

/// Runs `num_sessions` thread-per-session clients through the script and
/// asserts the chaos invariant on every outcome.
SoakTally RunSoak(uint64_t seed, int num_sessions,
                  const std::map<std::string, std::string>& expected,
                  bool mutate_unrelated_table) {
  Database db = MakeDb();
  IcebergServer server(&db, SoakServerConfig());
  ChaosGuard chaos(SoakChaos(seed));

  std::mutex mu;
  SoakTally tally;
  std::vector<std::string> violations;
  std::atomic<bool> stop_mutator{false};

  std::vector<std::thread> threads;
  for (int s = 0; s < num_sessions; ++s) {
    threads.emplace_back([&] {
      auto session = server.OpenSession();
      for (const std::string& sql : Script()) {
        QueryOutcome outcome = session->Execute(sql);
        std::lock_guard<std::mutex> lock(mu);
        if (outcome.status.ok()) {
          ++tally.ok;
          if (CanonicalRender(outcome.table) != expected.at(sql)) {
            violations.push_back("result mismatch for: " + sql);
          }
        } else if (outcome.status.IsRetryable()) {
          ++tally.shed;
        } else {
          violations.push_back("non-retryable failure: " +
                               outcome.status.ToString());
        }
      }
    });
  }

  std::thread mutator;
  if (mutate_unrelated_table) {
    // Concurrent mutation of a table the script never reads: provokes
    // snapshot conflicts, but rotates no cache key of the script's
    // statements and changes no expected result.
    mutator = std::thread([&] {
      int64_t i = 1;
      while (!stop_mutator.load(std::memory_order_acquire)) {
        Status st = server.Insert("extra", {Value::Int(i), Value::Int(i)});
        ASSERT_TRUE(st.ok());
        ++i;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  for (auto& t : threads) t.join();
  stop_mutator.store(true, std::memory_order_release);
  if (mutator.joinable()) mutator.join();

  EXPECT_TRUE(violations.empty())
      << "seed=" << seed << " sessions=" << num_sessions << ": "
      << violations.front() << " (" << violations.size() << " total)";
  return tally;
}

TEST(ChaosSoak, SeedSweepByteIdenticalOrCleanRetryable) {
  const std::map<std::string, std::string> expected = ExpectedResults();
  MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  SoakTally total;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    for (int sessions : {1, 4, 8}) {
      SoakTally tally = RunSoak(seed, sessions, expected,
                                /*mutate_unrelated_table=*/false);
      total.ok += tally.ok;
      total.shed += tally.shed;
    }
  }
  // The harness must not degenerate into shedding everything: across the
  // sweep the overwhelming majority of statements complete exactly.
  EXPECT_GT(total.ok, total.shed * 4)
      << "ok=" << total.ok << " shed=" << total.shed;
  // ... and the invariant must not be vacuous: the sweep really injected
  // faults from every class.
  MetricsSnapshot delta =
      MetricsRegistry::Global().Snapshot().DiffSince(before);
  EXPECT_GT(delta.counters["chaos.injected_cancels"], 0u);
  EXPECT_GT(delta.counters["chaos.injected_alloc_failures"], 0u);
  EXPECT_GT(delta.counters["chaos.injected_shed_storms"], 0u);
  EXPECT_GT(delta.counters["chaos.injected_delays"], 0u);
}

TEST(ChaosSoak, ConcurrentMutationKeepsReadersExact) {
  const std::map<std::string, std::string> expected = ExpectedResults();
  MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  SoakTally total;
  for (uint64_t seed : {3u, 11u}) {
    SoakTally tally = RunSoak(seed, 4, expected,
                              /*mutate_unrelated_table=*/true);
    total.ok += tally.ok;
    total.shed += tally.shed;
  }
  EXPECT_GT(total.ok, 0);
  // Snapshot conflicts may or may not trigger depending on timing; what
  // matters (asserted in RunSoak) is that readers never see torn state.
  MetricsSnapshot delta =
      MetricsRegistry::Global().Snapshot().DiffSince(before);
  SUCCEED() << "snapshot conflicts observed: "
            << delta.counters["server.snapshot_conflicts"];
}

TEST(ChaosSoak, SameSeedSerialRunsAreReplayable) {
  const std::map<std::string, std::string> expected = ExpectedResults();
  // Two fresh single-session serial runs under the same seed must make
  // identical injection decisions: same per-statement attempt counts,
  // same final status codes.
  auto run = [&] {
    Database db = MakeDb();
    IcebergServer server(&db, SoakServerConfig());
    ChaosGuard chaos(SoakChaos(/*seed=*/77));
    auto session = server.OpenSession();
    std::vector<std::pair<int, StatusCode>> trace;
    for (const std::string& sql : Script()) {
      QueryOutcome outcome = session->Execute(sql);
      trace.emplace_back(outcome.attempts, outcome.status.code());
      if (outcome.status.ok()) {
        EXPECT_EQ(CanonicalRender(outcome.table), expected.at(sql));
      } else {
        EXPECT_TRUE(outcome.status.IsRetryable());
      }
    }
    return trace;
  };
  auto first = run();
  auto second = run();
  EXPECT_EQ(first, second)
      << "chaos schedule must be a pure function of the seed";
}

TEST(ChaosSoak, DisabledChaosInjectsNothing) {
  ChaosSchedule::SetGlobal(ChaosConfig{});
  MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  Database db = MakeDb();
  IcebergServer server(&db, SoakServerConfig());
  auto session = server.OpenSession();
  for (const std::string& sql : Script()) {
    QueryOutcome outcome = session->Execute(sql);
    EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    EXPECT_EQ(outcome.attempts, 1);
  }
  MetricsSnapshot delta =
      MetricsRegistry::Global().Snapshot().DiffSince(before);
  EXPECT_EQ(delta.counters["chaos.injected_cancels"], 0u);
  EXPECT_EQ(delta.counters["chaos.injected_alloc_failures"], 0u);
  EXPECT_EQ(delta.counters["chaos.injected_shed_storms"], 0u);
  EXPECT_EQ(delta.counters["chaos.injected_delays"], 0u);
}

}  // namespace
}  // namespace iceberg
