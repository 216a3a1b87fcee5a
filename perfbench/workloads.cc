#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <utility>

#include "data.h"
#include "layers.h"
#include "src/parser/parser.h"
#include "src/server/session.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using iceberg::Database;
using iceberg::IcebergOptions;
using iceberg::IcebergReport;
using iceberg::MetricsRegistry;
using iceberg::MetricsSnapshot;
using iceberg::Result;
using iceberg::TablePtr;
using Clock = std::chrono::steady_clock;

/// The seed the pinned row counts below were taken at.
constexpr uint64_t kDefaultSeed = 42;
/// Set-ups per run: at least kMinSetups, and more until kSetupBudgetS has
/// passed (at most kMaxSetups), so a cheap set-up still yields a steady
/// median. setup_s is their median.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 15;
constexpr double kSetupBudgetS = 1.5;

double NowS() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

double ElapsedUs(Clock::time_point since) {
  return std::chrono::duration<double, std::micro>(Clock::now() - since)
      .count();
}

void SleepUntilS(double t) {
  const double wait = t - NowS();
  if (wait > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

/// CPUs this process may run on, as `nproc` reports them (taskset-aware,
/// unlike std::thread::hardware_concurrency).
int Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Collects output mismatches; any one fails the run.
class Checker {
 public:
  void Mismatch(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    if (reported_ < 20) std::fprintf(stderr, "MISMATCH: %s\n", what.c_str());
    ++reported_;
  }
  bool ok() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reported_ == 0;
  }

 private:
  mutable std::mutex mu_;
  int reported_ = 0;
};

std::string Digest(const iceberg::Table& table) {
  return ResultDigest(RenderRows(table));
}

void PrintProvenance(const RunOptions& o, size_t rows, int threads,
                     int sessions) {
  std::printf(
      "provenance: {\"workload\": \"%s\", \"seed\": %llu, \"rows\": %zu, "
      "\"threads_per_query\": %d, \"sessions\": %d, \"nproc\": %d, "
      "\"git_rev\": \"%s\", \"build_type\": \"%s\", \"seconds\": %g, "
      "\"trace\": %d}\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed), rows,
      threads, sessions, Nproc(), o.revision.c_str(), PERFBENCH_BUILD_TYPE,
      o.seconds, o.trace ? 1 : 0);
}

std::string PercentileLabel(double p) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "p%g", p);
  return buf;
}

void PrintMetric(const char* name, double value, const char* unit,
                 const std::string& note = "") {
  std::printf("  %-24s %14.4f %-6s %s\n", name, value, unit, note.c_str());
}

void PrintLines(const std::vector<std::string>& lines) {
  for (const std::string& line : lines) std::printf("%s\n", line.c_str());
}

/// Name of table t of `tables`: "score" alone, else score_0, score_1, ...
std::string ScoreTableName(size_t t, size_t tables) {
  return tables == 1 ? "score" : "score_" + std::to_string(t);
}

/// The generator seed of table t; a lone table takes the workload seed.
uint64_t ScoreTableSeed(uint64_t seed, size_t t, size_t tables) {
  return tables == 1 ? seed : seed * 1000003 + t + 1;
}

struct SetUpResult {
  std::unique_ptr<Database> db;
  std::vector<double> setup_s;
  std::vector<double> warmup_ms;
};

/// Set-up, repeated as above: generate `tables` score tables of `rows`
/// rows, load and index them, warm the lazy column-chunk and
/// column-statistics caches, then `extra` (the served workloads' server
/// start and plan-cache warm-up). The last one is kept; `teardown`
/// releases what `extra` made before its database goes.
template <typename Extra, typename Teardown>
SetUpResult SetUp(size_t rows, size_t tables, uint64_t seed, Extra extra,
                  Teardown teardown) {
  SetUpResult r;
  const Clock::time_point first = Clock::now();
  for (int i = 0; i < kMaxSetups; ++i) {
    if (i >= kMinSetups && ElapsedUs(first) >= kSetupBudgetS * 1e6) break;
    teardown();
    r.db.reset();
    const Clock::time_point start = Clock::now();
    std::vector<TablePtr> made;
    std::vector<std::string> names;
    for (size_t t = 0; t < tables; ++t) {
      names.push_back(ScoreTableName(t, tables));
      made.push_back(MakeScoreTable(rows, ScoreTableSeed(seed, t, tables),
                                    names.back()));
    }
    std::unique_ptr<Database> db = LoadScoreDb(made);
    r.warmup_ms.push_back(WarmUp(db.get(), names) * 1e3);
    extra(db.get());
    r.setup_s.push_back(ElapsedUs(start) / 1e6);
    r.db = std::move(db);
  }
  return r;
}

/// Prints the figures every workload shares and returns the end-to-end
/// metrics of the result line.
std::vector<Metric> ReportShared(const SetUpResult& setup,
                                 const std::vector<double>& pass_s, double qps,
                                 const RunOutput& out) {
  const double error_rate =
      out.attempted > 0
          ? static_cast<double>(out.failed) / static_cast<double>(out.attempted)
          : 0;
  PrintMetric("error_rate", error_rate, "ratio",
              std::to_string(out.failed) + " of " +
                  std::to_string(out.attempted));
  PrintMetric("setup_s", Median(setup.setup_s), "s",
              "median of " + std::to_string(setup.setup_s.size()) +
                  " set-ups");
  PrintMetric("storage.warmup_ms", Median(setup.warmup_ms), "ms",
              "chunk + column-stats build, included in setup_s");
  PrintMetric("peak_rss_mb", PeakRssMb(), "MB", "getrusage ru_maxrss");
  return {{"setup_s", Median(setup.setup_s), "s"},
          {"pass_s", Median(pass_s), "s"},
          {"qps", qps, "1/s"},
          {"peak_rss_mb", PeakRssMb(), "MB"}};
}

/// Smart-Iceberg must agree with the baseline executor on every statement,
/// on a reduced table from the same seed.
void VerifyAgainstBaseline(const std::vector<Statement>& statements,
                           size_t rows, uint64_t seed, Checker* check,
                           RunOutput* out) {
  std::unique_ptr<Database> db = LoadScoreDb({MakeScoreTable(rows, seed)});
  for (const Statement& st : statements) {
    Result<TablePtr> iceberg = db->QueryIceberg(st.sql);
    Result<TablePtr> baseline = db->Query(st.sql);
    out->attempted += 2;
    if (!iceberg.ok() || !baseline.ok()) {
      ++out->failed;
      check->Mismatch(st.name + " failed at verification scale: " +
                      (iceberg.ok() ? baseline : iceberg).status().ToString());
      continue;
    }
    const std::string a = Digest(**iceberg), b = Digest(**baseline);
    std::printf("verify %s at %zu rows: smart-iceberg %s, baseline %s\n",
                st.name.c_str(), rows, a.c_str(), b.c_str());
    if (a != b) {
      check->Mismatch(st.name + ": smart-iceberg differs from baseline");
    }
  }
}

/// Times the per-layer probes outside the measured passes, each statement
/// weighted by how often one pass runs it: ParseSql (median of 5),
/// Database::Prepare (which binds, and materializes WITH bodies on the
/// baseline executor), and Database::Query on each WITH body alone.
ProbeTimes RunProbes(Database* db,
                     const std::vector<std::pair<Statement, double>>& weighted,
                     Checker* check) {
  ProbeTimes probes;
  for (const auto& [st, weight] : weighted) {
    std::vector<double> parse_us;
    for (int i = 0; i < 5; ++i) {
      const Clock::time_point start = Clock::now();
      const bool ok = iceberg::ParseSql(st.sql).ok();
      parse_us.push_back(ElapsedUs(start));
      if (!ok) check->Mismatch(st.name + ": ParseSql failed");
    }
    probes.parse_us += Median(parse_us) * weight;
    Clock::time_point start = Clock::now();
    if (!db->Prepare(st.sql).ok()) {
      check->Mismatch(st.name + ": Prepare failed");
    }
    probes.prepare_ms += ElapsedUs(start) / 1e3 * weight;
    if (!st.cte_body.empty()) {
      start = Clock::now();
      if (!db->Query(st.cte_body).ok()) {
        check->Mismatch(st.name + ": WITH body failed");
      }
      probes.cte_ms += ElapsedUs(start) / 1e3 * weight;
    }
  }
  return probes;
}

// ---------------------------------------------------------------------------
// skyband and pairs: one statement at a time.

struct AnalyticSpec {
  size_t rows;
  size_t verify_rows;
  std::vector<std::string> statements;
  /// Result row counts at kDefaultSeed.
  std::map<std::string, size_t> pinned_rows;
};

const AnalyticSpec& SpecOf(const std::string& workload) {
  static const AnalyticSpec skyband{300000,
                                    3000,
                                    {"Q1", "Q2", "Q3", "Q8"},
                                    {{"Q1", 115}, {"Q2", 874}, {"Q3", 377},
                                     {"Q8", 80}}};
  static const AnalyticSpec pairs{30000,
                                  3000,
                                  {"Q4", "Q5", "Q6", "Q7"},
                                  {{"Q4", 226}, {"Q5", 585}, {"Q6", 115},
                                   {"Q7", 1161}}};
  return workload == "skyband" ? skyband : pairs;
}

struct Pass {
  double seconds = 0;
  std::vector<double> statement_ms;
  std::vector<std::string> digests;
};

/// Runs every statement once through Database::QueryIceberg. With a tally,
/// each call is a traced span whose IcebergReport is attributed.
Pass RunPass(Database* db, const std::vector<Statement>& statements,
             LayerTally* tally, Checker* check, RunOutput* out) {
  Pass pass;
  for (const Statement& st : statements) {
    IcebergReport report;
    const Clock::time_point start = Clock::now();
    Result<TablePtr> result = db->QueryIceberg(
        st.sql, IcebergOptions(), tally != nullptr ? &report : nullptr);
    const double us = ElapsedUs(start);
    ++out->attempted;
    pass.seconds += us / 1e6;
    pass.statement_ms.push_back(us / 1e3);
    if (!result.ok()) {
      ++out->failed;
      check->Mismatch(st.name + " failed: " + result.status().ToString());
      pass.digests.push_back("error");
      continue;
    }
    if (tally != nullptr) tally->AddStatement(us, report);
    pass.digests.push_back(Digest(**result));
  }
  return pass;
}

std::vector<Statement> Pick(const std::vector<std::string>& names) {
  std::vector<Statement> picked;
  for (const std::string& name : names) {
    for (const Statement& st : Figure1()) {
      if (st.name == name) picked.push_back(st);
    }
  }
  return picked;
}

void RunAnalytic(const RunOptions& o, RunOutput* out) {
  const AnalyticSpec& spec = SpecOf(o.workload);
  const std::vector<Statement> statements = Pick(spec.statements);
  PrintProvenance(o, spec.rows, Nproc(), 1);

  Checker check;
  SetUpResult setup =
      SetUp(spec.rows, 1, o.seed, [](Database*) {}, [] {});
  VerifyAgainstBaseline(statements, spec.verify_rows, o.seed, &check, out);

  // Untraced passes only, or (traced run) untraced and traced passes
  // alternating, so drift hits both sides alike.
  const size_t min_passes = o.trace ? 4 : 2;
  std::vector<Pass> untraced, traced;
  std::vector<std::string> reference;
  LayerTally tally;
  MetricsSnapshot delta;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0;; ++i) {
    if (i >= min_passes && ElapsedUs(start) >= o.seconds * 1e6) break;
    const bool trace_this = o.trace && i % 2 == 1;
    MetricsSnapshot before;
    if (trace_this) before = MetricsRegistry::Global().Snapshot();
    Pass pass = RunPass(setup.db.get(), statements,
                        trace_this ? &tally : nullptr, &check, out);
    if (trace_this) {
      AddDelta(&delta, MetricsRegistry::Global().Snapshot().DiffSince(before));
    }
    if (reference.empty()) reference = pass.digests;
    for (size_t s = 0; s < statements.size(); ++s) {
      if (pass.digests[s] != reference[s]) {
        check.Mismatch(statements[s].name +
                       ": result changed between passes (" + reference[s] +
                       " vs " + pass.digests[s] + ")");
      }
    }
    (trace_this ? traced : untraced).push_back(std::move(pass));
  }

  for (size_t s = 0; s < statements.size(); ++s) {
    std::printf("result %s: %s\n", statements[s].name.c_str(),
                reference[s].c_str());
    if (reference[s] == "error") continue;
    const size_t rows =
        std::stoul(reference[s].substr(0, reference[s].find(':')));
    const size_t pinned = spec.pinned_rows.at(statements[s].name);
    if (o.seed == kDefaultSeed && rows != pinned) {
      check.Mismatch(statements[s].name + ": " + std::to_string(rows) +
                     " rows, expected " + std::to_string(pinned) +
                     " at the default seed");
    }
  }

  std::vector<double> pass_s;
  std::string each;
  double statements_run = 0, busy_s = 0;
  for (const Pass& p : untraced) {
    pass_s.push_back(p.seconds);
    each += (each.empty() ? "" : " ") + std::to_string(p.seconds);
    statements_run += static_cast<double>(p.statement_ms.size());
    busy_s += p.seconds;
  }
  const double qps = busy_s > 0 ? statements_run / busy_s : 0;

  std::printf("%s: %zu untraced passes of %zu statements\n",
              o.workload.c_str(), untraced.size(), statements.size());
  for (size_t s = 0; s < statements.size(); ++s) {
    std::vector<double> ms;
    for (const Pass& p : untraced) ms.push_back(p.statement_ms[s]);
    std::string name = statements[s].name + "_ms";
    name[0] = 'q';
    PrintMetric(name.c_str(), Median(ms), "ms", "median over passes");
  }
  PrintMetric("pass_s", Median(pass_s), "s", "median of " + each);
  PrintMetric("qps", qps, "1/s", "statements per second of statement time");
  out->metrics = ReportShared(setup, pass_s, qps, *out);

  if (o.trace) {
    std::vector<double> traced_s;
    for (const Pass& p : traced) traced_s.push_back(p.seconds);
    const double overhead_pct =
        (Median(traced_s) / Median(pass_s) - 1.0) * 100.0;
    std::vector<std::pair<Statement, double>> weighted;
    for (const Statement& st : statements) weighted.emplace_back(st, 1.0);
    const ProbeTimes probes = RunProbes(setup.db.get(), weighted, &check);
    const double passes = static_cast<double>(traced.size());
    PrintLines(LayerReport::SelfTimeTable(o.workload, tally, passes, probes));
    out->metrics = LayerReport::Metrics(tally, delta, passes, probes,
                                        Median(setup.warmup_ms), overhead_pct);
  }
  out->correct = check.ok();
}

// ---------------------------------------------------------------------------
// served_read and served_write: an IcebergServer under closed-loop sessions.

/// The served data: kServedTables score tables of kServedRows rows, each
/// from its own seed. One 2x10^3-row table's statement cost swings with
/// its seed (Q_C prune tests per pass vary 4x between seeds), so sessions
/// spread over several independent tables and a run's figures average
/// over them.
constexpr size_t kServedTables = 16;
constexpr size_t kServedRows = 2000;
/// Served-workload completions that make up one pass.
constexpr size_t kServedPass = 100;
/// Open-loop insert rate of served_write, per second. Every insert rotates
/// the catalog version, which every cached plan and NLJP cache is keyed
/// by, and waits ~150 ms for readers to leave the shared lock. At one
/// insert per two seconds the cold re-plans stay a small, steady share of
/// the reads; at 2/s they made qps swing 20% between runs.
constexpr double kInsertRate = 0.5;
/// pids of inserted rows start here, above every generated pid.
constexpr int64_t kFreshPid = 10000000;

struct ServedMix {
  std::vector<Statement> statements;
  std::vector<double> weights;
  /// Which shape each statement has: 0 = Q1, 1 = Q2, 2 = Q8.
  std::vector<size_t> shape;
};

const char* const kShapeNames[] = {"q1_shape", "q2_shape", "q8"};

/// Per table: mostly the Q1 skyband shape with rotating k (one plan-cache
/// shape, distinct literals), plus two cold shapes: a Q2-shaped skyband,
/// and Q8, whose WITH block bypasses the plan cache.
ServedMix MakeServedMix() {
  ServedMix mix;
  auto add = [&](Statement st, double weight, size_t shape) {
    mix.statements.push_back(std::move(st));
    mix.weights.push_back(weight);
    mix.shape.push_back(shape);
  };
  for (size_t t = 0; t < kServedTables; ++t) {
    const std::string table = ScoreTableName(t, kServedTables);
    for (int k : {40, 45, 50, 55, 60}) {
      add(Skyband("Q1k" + std::to_string(k) + "@" + table, "hits", "hruns", k,
                  table),
          0.18, 0);
    }
    add(Skyband("Q2@" + table, "h2", "sb", 50, table), 0.05, 1);
    add(PlayerAvgSkyband("Q8@" + table, 30, table), 0.05, 2);
  }
  return mix;
}

/// Statement indices of one session's stream, from the workload seed.
std::vector<size_t> SessionStream(const ServedMix& mix, uint64_t seed,
                                  int session) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull +
                      static_cast<uint64_t>(session) + 1);
  std::discrete_distribution<size_t> pick(mix.weights.begin(),
                                          mix.weights.end());
  std::vector<size_t> stream(4096);
  for (size_t& s : stream) s = pick(rng);
  return stream;
}

iceberg::ServerConfig MakeServerConfig(int sessions, size_t statements) {
  iceberg::ServerConfig config;
  const size_t n = static_cast<size_t>(sessions);
  config.admission.max_concurrent = n;
  config.admission.max_queue_depth = 2 * n;
  config.admission.queue_timeout_ms = 5000;
  config.admission.memory_budget_bytes = n * (64u << 20);
  config.retry.max_attempts = 4;
  config.default_threads = 1;
  // One cross-query NLJP cache per distinct statement of the mix.
  config.cache_registry_max_caches = statements;
  return config;
}

/// What one reader session saw.
struct SessionLog {
  std::vector<size_t> which;
  std::vector<double> latency_ms;
  std::vector<double> done_s;
  std::vector<char> traced;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

void RunServed(const RunOptions& o, RunOutput* out) {
  const bool writer = o.workload == "served_write";
  const int readers = writer ? std::max(1, Nproc() - 1) : Nproc();
  PrintProvenance(o, kServedTables * kServedRows, 1,
                  readers + (writer ? 1 : 0));

  const ServedMix mix = MakeServedMix();
  Checker check;
  std::unique_ptr<iceberg::IcebergServer> server;
  SetUpResult setup = SetUp(
      kServedRows, kServedTables, o.seed,
      [&](Database* db) {
        server = std::make_unique<iceberg::IcebergServer>(
            db, MakeServerConfig(readers, mix.statements.size()));
        std::unique_ptr<iceberg::Session> warm = server->OpenSession();
        for (const Statement& st : mix.statements) {
          if (!warm->Execute(st.sql).status.ok()) {
            check.Mismatch(st.name + " failed during warm-up");
          }
        }
      },
      [&] { server.reset(); });

  // Expected answers: direct Database::QueryIceberg before the load
  // starts. The first table's statements (every shape and k) are also
  // cross-checked against the baseline executor.
  std::vector<std::string> expected;
  const size_t per_table = mix.statements.size() / kServedTables;
  for (size_t i = 0; i < mix.statements.size(); ++i) {
    const Statement& st = mix.statements[i];
    Result<TablePtr> direct = setup.db->QueryIceberg(st.sql);
    ++out->attempted;
    if (!direct.ok()) {
      ++out->failed;
      check.Mismatch(st.name + " failed before the load");
      expected.push_back("error");
      continue;
    }
    expected.push_back(Digest(**direct));
    if (i >= per_table) continue;
    Result<TablePtr> baseline = setup.db->Query(st.sql);
    ++out->attempted;
    if (!baseline.ok()) ++out->failed;
    const std::string base = baseline.ok() ? Digest(**baseline) : "error";
    std::printf("verify %s: smart-iceberg %s, baseline %s\n", st.name.c_str(),
                expected.back().c_str(), base.c_str());
    if (base != expected.back()) {
      check.Mismatch(st.name + ": smart-iceberg differs from baseline");
    }
  }

  // Traced runs alternate untraced and traced windows (U T U T).
  const double window_s = o.seconds / 4;
  std::atomic<bool> stop{false};
  const double start_s = NowS();
  auto traced_at = [&](double t) {
    return o.trace && static_cast<int64_t>((t - start_s) / window_s) % 2 == 1;
  };
  LayerTally tally;
  std::mutex tally_mu;

  std::vector<SessionLog> logs(static_cast<size_t>(readers));
  std::vector<std::thread> threads;
  for (int s = 0; s < readers; ++s) {
    threads.emplace_back([&, s] {
      SessionLog& log = logs[static_cast<size_t>(s)];
      std::unique_ptr<iceberg::Session> session = server->OpenSession();
      const std::vector<size_t> stream = SessionStream(mix, o.seed, s);
      for (size_t i = 0; !stop.load(std::memory_order_acquire); ++i) {
        const size_t which = stream[i % stream.size()];
        const double t0 = NowS();
        iceberg::QueryOutcome outcome =
            session->Execute(mix.statements[which].sql);
        const double t1 = NowS();
        ++log.attempted;
        if (!outcome.status.ok()) {
          ++log.failed;
          check.Mismatch(mix.statements[which].name +
                         " failed: " + outcome.status.ToString());
          continue;
        }
        const bool traced = traced_at(t0);
        log.which.push_back(which);
        log.latency_ms.push_back((t1 - t0) * 1e3);
        log.done_s.push_back(t1);
        log.traced.push_back(traced ? 1 : 0);
        if (traced) {
          std::lock_guard<std::mutex> lock(tally_mu);
          tally.AddServedStatement((t1 - t0) * 1e6, outcome.report,
                                   outcome.queue_wait_us, outcome.attempts);
        }
        if (Digest(*outcome.table) != expected[which]) {
          check.Mismatch(mix.statements[which].name +
                         ": served answer differs from the direct answer");
        }
      }
    });
  }

  // The writer: fresh pids with all-zero statistics. Such a row dominates
  // no row and is dominated by more than k rows, so every read's answer
  // stays fixed while catalog versions rotate.
  OpenLoopStats writes;
  uint64_t write_failures = 0;
  std::thread writer_thread;
  if (writer) {
    writer_thread = std::thread([&] {
      int64_t pid = kFreshPid;
      size_t table = 0;
      writes = RunOpenLoop(
          start_s, 1.0 / kInsertRate, start_s + o.seconds, NowS, SleepUntilS,
          [&] {
            const double t0 = NowS();
            iceberg::Status st = server->Insert(
                ScoreTableName(table++ % kServedTables, kServedTables),
                {iceberg::Value::Int(pid++), iceberg::Value::Int(1985),
                 iceberg::Value::Int(0), iceberg::Value::Int(0),
                 iceberg::Value::Int(0), iceberg::Value::Int(0),
                 iceberg::Value::Int(0), iceberg::Value::Int(0)});
            const double t1 = NowS();
            if (!st.ok()) {
              ++write_failures;
              check.Mismatch("insert failed: " + st.ToString());
            }
            if (traced_at(t0)) {
              std::lock_guard<std::mutex> lock(tally_mu);
              tally.AddInsert((t1 - t0) * 1e6);
            }
          });
    });
  }

  // The main thread snapshots the registry at each window boundary and
  // keeps the traced windows' deltas.
  MetricsSnapshot delta;
  MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  for (int w = 1; w <= 4; ++w) {
    SleepUntilS(start_s + w * window_s);
    MetricsSnapshot now = MetricsRegistry::Global().Snapshot();
    if (o.trace && w % 2 == 0) AddDelta(&delta, now.DiffSince(before));
    before = std::move(now);
  }
  stop.store(true, std::memory_order_release);
  const double measured_s = NowS() - start_s;
  for (std::thread& t : threads) t.join();
  if (writer_thread.joinable()) writer_thread.join();

  std::vector<double> latency_ms, done_s;
  std::vector<std::vector<double>> by_shape(std::size(kShapeNames));
  double reads_untraced = 0, reads_traced = 0;
  for (const SessionLog& log : logs) {
    out->attempted += log.attempted;
    out->failed += log.failed;
    for (size_t i = 0; i < log.latency_ms.size(); ++i) {
      // The untraced run reports every read; the traced run keeps its
      // latency figures to the untraced windows.
      if (log.traced[i]) {
        reads_traced += 1;
        continue;
      }
      reads_untraced += 1;
      by_shape[mix.shape[log.which[i]]].push_back(log.latency_ms[i]);
      latency_ms.push_back(log.latency_ms[i]);
      done_s.push_back(log.done_s[i]);
    }
  }
  out->attempted += writes.latency_s.size();
  out->failed += write_failures;

  // A pass is kServedPass consecutive completions (all sessions).
  std::sort(done_s.begin(), done_s.end());
  std::vector<double> pass_s;
  for (size_t j = kServedPass; j < done_s.size(); j += kServedPass) {
    pass_s.push_back(done_s[j] - done_s[j - kServedPass]);
  }
  const double untraced_s = o.trace ? measured_s / 2 : measured_s;
  const double qps = reads_untraced / untraced_s;

  std::printf("%s: %d reader sessions%s, %.0f reads in %.2f s%s\n",
              o.workload.c_str(), readers,
              writer ? " + 1 open-loop writer" : "",
              reads_untraced + reads_traced, measured_s,
              o.trace ? " (half of them traced)" : "");
  PrintMetric("qps", qps, "1/s", "completed reads per second");
  PrintMetric("pass_s", Median(pass_s), "s",
              "median time of " + std::to_string(kServedPass) +
                  " consecutive reads");
  PrintMetric("read_p50_ms", Percentile(latency_ms, 50), "ms",
              "n=" + std::to_string(latency_ms.size()));
  PrintMetric("read_p99_ms", Percentile(latency_ms, 99), "ms",
              latency_ms.size() >= 1000 ? ""
                                        : "(fewer than 10 samples beyond)");
  const double tail = HighestSupportedPercentile(latency_ms.size());
  PrintMetric("read_tail_ms", Percentile(latency_ms, tail), "ms",
              PercentileLabel(tail) +
                  ", highest percentile with >= 10 samples beyond");
  for (size_t i = 0; i < by_shape.size(); ++i) {
    const std::string name = std::string(kShapeNames[i]) + "_p50_ms";
    PrintMetric(name.c_str(), Percentile(by_shape[i], 50), "ms",
                "n=" + std::to_string(by_shape[i].size()));
  }
  if (writer) {
    std::vector<double> write_ms, late_ms;
    for (double s : writes.latency_s) write_ms.push_back(s * 1e3);
    for (double s : writes.lateness_s) late_ms.push_back(s * 1e3);
    const double wtail = HighestSupportedPercentile(write_ms.size());
    PrintMetric("write_p50_ms", Percentile(write_ms, 50), "ms",
                "from due time, n=" + std::to_string(write_ms.size()) +
                    " at " + PercentileLabel(kInsertRate).substr(1) + "/s");
    if (wtail > 0) {
      PrintMetric("write_tail_ms", Percentile(write_ms, wtail), "ms",
                  PercentileLabel(wtail));
    }
    PrintMetric("writer_late_max_ms",
                late_ms.empty()
                    ? 0
                    : *std::max_element(late_ms.begin(), late_ms.end()),
                "ms", "how far the generator fell behind its schedule");
  }
  out->metrics = ReportShared(setup, pass_s, qps, *out);

  if (o.trace) {
    const double traced_qps = reads_traced / (measured_s / 2);
    const double overhead_pct =
        traced_qps > 0 ? (qps / traced_qps - 1.0) * 100.0 : 0;
    // Probes over one pass: the first kServedPass statements of session 0.
    const std::vector<size_t> stream = SessionStream(mix, o.seed, 0);
    std::map<size_t, double> counts;
    for (size_t i = 0; i < kServedPass; ++i) counts[stream[i]] += 1;
    std::vector<std::pair<Statement, double>> weighted;
    for (const auto& [which, times] : counts) {
      weighted.emplace_back(mix.statements[which], times);
    }
    const ProbeTimes probes = RunProbes(setup.db.get(), weighted, &check);
    const double passes = reads_traced / static_cast<double>(kServedPass);
    PrintLines(LayerReport::SelfTimeTable(o.workload, tally, passes, probes));
    out->metrics = LayerReport::Metrics(tally, delta, passes, probes,
                                        Median(setup.warmup_ms), overhead_pct);
  }
  // The server borrows the database; stop it first.
  server.reset();
  out->correct = check.ok();
}

}  // namespace

bool RunWorkload(const RunOptions& options, RunOutput* out) {
  if (options.workload == "skyband" || options.workload == "pairs") {
    RunAnalytic(options, out);
    return true;
  }
  if (options.workload == "served_read" || options.workload == "served_write") {
    RunServed(options, out);
    return true;
  }
  return false;
}

}  // namespace perfbench
