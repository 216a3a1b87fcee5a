#include "src/server/session.h"

#include <chrono>
#include <mutex>
#include <thread>

#include "src/engine/analyze.h"
#include "src/engine/query_record.h"
#include "src/expr/compiled.h"
#include "src/obs/metrics.h"
#include "src/obs/query_log.h"
#include "src/obs/trace.h"
#include "src/server/chaos.h"

namespace iceberg {

IcebergServer::IcebergServer(Database* db, ServerConfig config)
    : db_(db),
      config_(config),
      admission_(config.admission),
      cache_registry_(config.cache_registry_max_caches,
                      config.cache_registry_max_entries),
      plan_cache_(config.plan_cache_max_entries) {}

std::unique_ptr<Session> IcebergServer::OpenSession() {
  uint64_t id = next_session_id_.fetch_add(1, std::memory_order_relaxed);
  RetryPolicy retry = config_.retry;
  // Desynchronize backoff across sessions deterministically.
  retry.jitter_seed ^= id * 0x9e3779b97f4a7c15ull;
  ICEBERG_COUNTER("server.sessions_opened")->Increment();
  return std::unique_ptr<Session>(new Session(this, id, retry));
}

Status IcebergServer::Insert(const std::string& table, Row row) {
  std::unique_lock<std::shared_mutex> lock(catalog_mu_);
  return db_->Insert(table, std::move(row));
}

Status IcebergServer::Mutate(const std::function<Status(Database&)>& fn) {
  std::unique_lock<std::shared_mutex> lock(catalog_mu_);
  return fn(*db_);
}

namespace {

/// RAII slot return for an admission ticket.
struct TicketGuard {
  AdmissionController* controller;
  AdmissionController::Ticket ticket;
  ~TicketGuard() { controller->Release(ticket); }
};

bool PinsStillValid(
    const std::vector<std::pair<std::string, TableSnapshot>>& pins,
    const std::vector<std::pair<std::string, TableSnapshot>>& now) {
  if (pins.size() != now.size()) return false;
  for (size_t i = 0; i < pins.size(); ++i) {
    if (pins[i].first != now[i].first ||
        pins[i].second.version != now[i].second.version) {
      return false;
    }
  }
  return true;
}

}  // namespace

QueryOutcome Session::Run(const std::string& sql, bool use_iceberg) {
  const uint64_t ordinal = ++statement_ordinal_;
  const ServerConfig& config = server_->config();

  QueryOutcome outcome;
  QueryShape shape = ComputeQueryShape(sql);
  outcome.fingerprint = shape.fingerprint;
  outcome.shape_hash = shape.shape_hash;

  // Flight recorder: one record per attempt, all sharing one query id.
  // `recording` is latched per statement so a mid-statement flip of the
  // chicken bit cannot tear a retry sequence.
  const bool recording = QueryLogEnabled();
  const uint64_t query_id = recording ? QueryLog::NextQueryId() : 0;
  std::string prev_status_name;

  const int max_attempts = retry_.max_attempts <= 0 ? 1 : retry_.max_attempts;
  for (int attempt = 1;; ++attempt) {
    outcome.attempts = attempt;
    ICEBERG_COUNTER("server.attempts")->Increment();

    QueryRecord rec;
    rec.start_us = TraceNowMicros();
    if (recording) {
      rec.query_id = query_id;
      rec.session_id = id_;
      rec.attempt = static_cast<uint32_t>(attempt);
      rec.iceberg = use_iceberg;
      rec.shape_hash = shape.shape_hash;
      rec.shape = shape.shape;
      rec.retry_cause = prev_status_name;
    }

    // --- Submit: pin every table's snapshot under the shared lock. The
    // caches below are keyed by the versions of the tables the statement
    // names, so a mutation of any other table leaves them warm. ---
    std::vector<std::pair<std::string, TableSnapshot>> pins;
    uint64_t version_hash = 0;
    {
      std::shared_lock<std::shared_mutex> lock(server_->catalog_mu_);
      pins = server_->db_->SnapshotTables();
      version_hash = server_->db_->VersionHashOf(shape.shape);
    }

    // --- Admission: blocks, queues bounded, or sheds (retryable). ---
    Status st;
    Result<AdmissionController::Ticket> admitted =
        server_->admission_.Admit();
    if (admitted.ok()) {
      TicketGuard guard{&server_->admission_, *admitted};
      outcome.queue_wait_us = guard.ticket.queue_wait_us;
      rec.admission_wait_us =
          static_cast<uint64_t>(guard.ticket.queue_wait_us);
      rec.queue_depth_at_admit = guard.ticket.queue_depth_at_admit;

      // --- Fresh per-attempt state (satellite: governors are single-use
      // and reports/stats append, so reuse across attempts would double
      // count in EXPLAIN ANALYZE reconciliation). ---
      ChaosSchedule::BoundProbe chaos = ChaosSchedule::MakeProbe(
          ChaosSchedule::StreamId(id_, ordinal, attempt));
      QueryGovernor::Limits limits;
      limits.memory_budget_bytes = guard.ticket.memory_grant_bytes;
      limits.shared_budget = guard.ticket.memory_grant_bytes > 0;
      auto governor =
          std::make_shared<QueryGovernor>(limits, chaos.probe);
      chaos.Bind(governor.get());
      const int threads = guard.ticket.thread_grant > 0
                              ? guard.ticket.thread_grant
                              : config.default_threads;
      IcebergReport report;
      ExecStats stats;

      // --- Execute under the shared lock: mutations cannot race us;
      // mutations that landed while we were queued invalidate the pins
      // and surface as a clean retryable conflict instead. ---
      Result<TablePtr> result = Status::Internal("not executed");
      {
        std::shared_lock<std::shared_mutex> lock(server_->catalog_mu_);
        // This attempt is recorded here, with its admission/retry context;
        // suppress the Database layer's own record for the nested call.
        QueryLogScope suppress;
        if (!PinsStillValid(pins, server_->db_->SnapshotTables())) {
          ++outcome.snapshot_conflicts;
          ICEBERG_COUNTER("server.snapshot_conflicts")->Increment();
          result = Status::Overloaded(
              "snapshot conflict: catalog mutated while queued");
        } else if (use_iceberg) {
          IcebergOptions options = config.iceberg;
          options.governor = governor;
          options.base_exec.governor = governor;
          options.base_exec.num_threads = threads;
          options.cache_registry = &server_->cache_registry_;
          uint64_t key = shape.fingerprint ^ version_hash;
          options.cache_key = key != 0 ? key : 1;
          // Plan cache: replay the decision trace captured for this shape
          // over these table versions, or capture one on this (post-
          // admission, snapshot-validated) attempt. The key pins shape,
          // table versions and planning options; the engine re-verifies
          // the trace and falls back to a full plan when it does not
          // transfer.
          PlanTrace capture_buf;
          std::shared_ptr<const PlanTrace> replay_trace;
          PlanCache::Key pkey{shape.shape_hash, version_hash,
                              PlanOptionsFingerprint(config.iceberg)};
          if (PlanCacheEnabled()) {
            replay_trace = server_->plan_cache_.Lookup(pkey, shape.shape);
            if (replay_trace != nullptr) {
              options.replay = replay_trace.get();
            } else {
              options.capture = &capture_buf;
            }
          }
          result = server_->db_->QueryIceberg(sql, options, &report);
          if (result.ok() && capture_buf.captured) {
            server_->plan_cache_.Insert(
                pkey, shape.shape,
                std::make_shared<const PlanTrace>(std::move(capture_buf)));
          }
          stats = report.exec_stats;
        } else {
          ExecOptions exec = config.iceberg.base_exec;
          exec.governor = governor;
          exec.num_threads = threads;
          result = server_->db_->Query(sql, exec, &stats);
        }
      }

      // Assemble the record's execution fields while the governor and the
      // chaos probe are still alive — everything comes from this attempt's
      // own run-local state, never from global counters.
      if (recording) {
        FillRecordStatus(&rec,
                         result.ok() ? Status::OK() : result.status());
        rec.latency_us =
            static_cast<uint64_t>(TraceNowMicros() - rec.start_us);
        FillRecordGovernor(&rec, governor.get());
        ChaosSchedule::BoundProbe::Counts injected = chaos.injected();
        rec.chaos_delays = injected.delays;
        rec.chaos_shed_storms = injected.shed_storms;
        rec.chaos_cancels = injected.cancels;
        rec.chaos_alloc_failures = injected.alloc_failures;
        if (use_iceberg) {
          FillRecordStats(&rec, report);
        } else {
          FillRecordStats(&rec, stats);
        }
        if (result.ok()) rec.rows_returned = (*result)->num_rows();
        uint64_t slow_us = SlowQueryThresholdUs();
        if (slow_us != 0 && rec.latency_us >= slow_us && result.ok()) {
          int64_t end_us = rec.start_us + static_cast<int64_t>(rec.latency_us);
          if (use_iceberg) {
            rec.slow_capture = MakeSlowCapture(
                RenderAnalyzeIceberg(report, MetricsSnapshot(),
                                     rec.rows_returned,
                                     static_cast<int64_t>(rec.latency_us)),
                rec.start_us, end_us);
          } else {
            std::shared_lock<std::shared_mutex> lock(server_->catalog_mu_);
            ExecOptions plan_exec = config.iceberg.base_exec;
            Result<std::string> plan = server_->db_->ExplainBaseline(
                sql, plan_exec);
            if (plan.ok()) {
              rec.slow_capture = MakeSlowCapture(
                  RenderAnalyzeBaseline(stats, *plan, MetricsSnapshot(),
                                        rec.rows_returned,
                                        static_cast<int64_t>(rec.latency_us)),
                  rec.start_us, end_us);
            }
          }
        }
      }

      if (result.ok()) {
        outcome.status = Status::OK();
        outcome.table = std::move(result).value();
        outcome.report = std::move(report);
        outcome.exec_stats = stats;
        ICEBERG_COUNTER("server.queries_ok")->Increment();
        if (recording) QueryLog::Global().Record(std::move(rec));
        return outcome;
      }
      st = result.status();
      outcome.report = std::move(report);
      outcome.exec_stats = stats;
    } else {
      st = admitted.status();
      // Shed before admission: the record carries the shed status and the
      // time burned waiting, but no governor/execution fields (none ran).
      if (recording) {
        FillRecordStatus(&rec, st);
        rec.latency_us =
            static_cast<uint64_t>(TraceNowMicros() - rec.start_us);
      }
    }

    const bool will_retry =
        retry_.ShouldRetry(st, attempt) && attempt < max_attempts;
    if (recording) {
      rec.will_retry = will_retry;
      prev_status_name = rec.status;
    }
    if (will_retry) {
      int64_t backoff = retry_.BackoffMs(attempt);
      outcome.backoff_total_ms += backoff;
      rec.backoff_ms = static_cast<uint64_t>(backoff);
      ICEBERG_COUNTER("server.retries")->Increment();
      if (recording) QueryLog::Global().Record(std::move(rec));
      if (backoff > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      }
      continue;
    }
    if (recording) QueryLog::Global().Record(std::move(rec));
    outcome.status = st;
    if (st.IsRetryable()) {
      ICEBERG_COUNTER("server.queries_shed")->Increment();
    } else {
      ICEBERG_COUNTER("server.queries_failed")->Increment();
    }
    return outcome;
  }
}

QueryOutcome Session::Execute(const std::string& sql) {
  return Run(sql, /*use_iceberg=*/true);
}

QueryOutcome Session::ExecuteBaseline(const std::string& sql) {
  return Run(sql, /*use_iceberg=*/false);
}

std::vector<QueryOutcome> Session::ExecuteAll(
    const std::vector<std::string>& sqls) {
  std::vector<QueryOutcome> outcomes;
  outcomes.reserve(sqls.size());
  for (const auto& sql : sqls) outcomes.push_back(Execute(sql));
  return outcomes;
}

Status Session::Insert(const std::string& table, Row row) {
  return server_->Insert(table, std::move(row));
}

}  // namespace iceberg
