#include "src/exec/executor.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <set>
#include <utility>

#include "src/exec/aggregator.h"
#include "src/exec/join_pipeline.h"
#include "src/exec/task_pool.h"
#include "src/plan/cost/join_order.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace iceberg {

std::string ExecStats::ToString() const {
  std::string out = "pairs=" + std::to_string(join_pairs_examined) +
                    " joined=" + std::to_string(rows_joined) +
                    " groups=" + std::to_string(groups_created) +
                    " output=" + std::to_string(groups_output) +
                    " probes=" + std::to_string(index_probes) +
                    " checks=" + std::to_string(cancel_checks) +
                    " peak_kb=" + std::to_string(budget_bytes_peak / 1024) +
                    " workers=" + std::to_string(workers);
  if (batch_rows > 0 || chunks_skipped > 0) {
    out += " batch_rows=" + std::to_string(batch_rows) +
           " chunks_skipped=" + std::to_string(chunks_skipped);
  }
  if (transfer_probes > 0 || transfer_passes > 0) {
    out += " transfer_passes=" + std::to_string(transfer_passes) +
           " transfer=" + std::to_string(transfer_hits) + "/" +
           std::to_string(transfer_probes) +
           " transfer_eliminated=" + std::to_string(transfer_rows_eliminated);
    if (transfer_chunks_refuted > 0) {
      out += " transfer_chunks_refuted=" +
             std::to_string(transfer_chunks_refuted);
    }
  }
  if (!rows_joined_per_worker.empty()) {
    out += " joined_per_worker=[";
    for (size_t i = 0; i < rows_joined_per_worker.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(rows_joined_per_worker[i]);
    }
    out += "]";
  }
  if (!busy_us_per_worker.empty()) {
    out += " busy_us_per_worker=[";
    for (size_t i = 0; i < busy_us_per_worker.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(busy_us_per_worker[i]);
    }
    out += "]";
  }
  if (execute_us > 0) out += " execute_us=" + std::to_string(execute_us);
  return out;
}

namespace {

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Copies the governor's end-of-query counters into the stats block.
void FillGovernorStats(const QueryGovernor* governor, ExecStats* stats) {
  if (governor == nullptr || stats == nullptr) return;
  stats->cancel_checks = governor->checks_performed();
  stats->budget_bytes_peak = governor->bytes_peak();
}

/// Folds per-worker partial stats into the caller's stats block and
/// records the per-worker distribution. Replaces (never appends to) the
/// per-worker vectors so a reused stats block stays consistent when the
/// thread count changes between runs.
void MergeWorkerStats(const std::vector<ExecStats>& partials,
                      const TaskPool& pool, ExecStats* stats) {
  if (stats == nullptr) return;
  stats->workers = partials.size();
  stats->rows_joined_per_worker.clear();
  for (const ExecStats& s : partials) {
    stats->join_pairs_examined += s.join_pairs_examined;
    stats->rows_joined += s.rows_joined;
    stats->index_probes += s.index_probes;
    stats->chunks_skipped += s.chunks_skipped;
    stats->batch_rows += s.batch_rows;
    if (stats->level_rows.size() < s.level_rows.size()) {
      stats->level_rows.resize(s.level_rows.size(), 0);
    }
    for (size_t i = 0; i < s.level_rows.size(); ++i) {
      stats->level_rows[i] += s.level_rows[i];
    }
    stats->rows_joined_per_worker.push_back(s.rows_joined);
  }
  stats->busy_us_per_worker = pool.last_busy_micros();
}

/// End-of-run publication into the process-wide metrics registry; the same
/// run-local totals also feed the caller's (optional) accumulating block,
/// so EXPLAIN ANALYZE, \metrics, and ExecStats always reconcile exactly.
void PublishExecMetrics(const ExecStats& run) {
  ICEBERG_COUNTER("exec.queries")->Increment();
  ICEBERG_COUNTER("exec.pairs_examined")->Add(run.join_pairs_examined);
  ICEBERG_COUNTER("exec.rows_joined")->Add(run.rows_joined);
  ICEBERG_COUNTER("exec.groups_created")->Add(run.groups_created);
  ICEBERG_COUNTER("exec.groups_output")->Add(run.groups_output);
  ICEBERG_COUNTER("exec.index_probes")->Add(run.index_probes);
  ICEBERG_COUNTER("scan.chunks_skipped")->Add(run.chunks_skipped);
  ICEBERG_COUNTER("scan.batch_rows")->Add(run.batch_rows);
  ICEBERG_COUNTER("transfer.passes")->Add(run.transfer_passes);
  ICEBERG_COUNTER("transfer.filters_built")->Add(run.transfer_filters_built);
  ICEBERG_COUNTER("transfer.probes")->Add(run.transfer_probes);
  ICEBERG_COUNTER("transfer.hits")->Add(run.transfer_hits);
  ICEBERG_COUNTER("transfer.rows_eliminated")
      ->Add(run.transfer_rows_eliminated);
  ICEBERG_COUNTER("transfer.chunks_refuted")
      ->Add(run.transfer_chunks_refuted);
  ICEBERG_COUNTER("transfer.build_ns")
      ->Add(static_cast<uint64_t>(run.transfer_build_ns));
  ICEBERG_HISTOGRAM("exec.query_us")
      ->Record(static_cast<uint64_t>(run.execute_us));
}

/// Output of the cost-based optimizer's pre-planning pass. `block` is the
/// block the pipeline should execute: the original, or `permuted` when the
/// enumerator deviated from FROM order. `topts` always carries a prebuilt
/// transfer decision so JoinPipeline::Plan never rebuilds the graph the
/// pass already ran.
struct CboPlan {
  const QueryBlock* block = nullptr;
  QueryBlock permuted;
  TransferPlanOptions topts;
  PipelinePlanHints hints;
  bool use_hints = false;
  std::vector<double> est_rows;  // cumulative per pipeline level
  bool reordered = false;
};

/// Runs the CBO ahead of physical planning: predicate transfer first (on
/// the as-written block, so transfer schedules in plan traces keep stable
/// level indexing, and survivor counts become exact cardinalities), then
/// join-order enumeration (or replay of a cached schedule), then block +
/// transfer-selection permutation when a cheaper order won. With the
/// optimizer off (per-query or chicken bit) this is a no-op that leaves
/// every decision to the pipeline's own heuristics.
CboPlan PlanCboOrder(const QueryBlock& block, const ExecOptions& options,
                     QueryGovernor* governor, int threads) {
  CboPlan plan;
  plan.block = &block;
  plan.topts.enabled = options.predicate_transfer;
  plan.topts.num_threads = threads;
  plan.topts.capture = options.transfer_capture;
  plan.topts.replay = options.transfer_replay;
  const size_t n = block.tables.size();
  if (!options.cbo || !CboEnabled() || n < 2) return plan;
  ICEBERG_COUNTER("cbo.plans")->Increment();

  // Off or inapplicable, transfer still returns the a-priori seeds.
  TransferPlanOptions topts = plan.topts;
  topts.governor = governor;
  const bool vec = options.vectorize && VectorizedExecEnabled();
  topts.use_zone_maps = topts.use_zone_maps && vec;
  TransferResultPtr xfer = BuildTransferGraph(block, topts);
  plan.topts.prebuilt_valid = true;
  plan.topts.prebuilt = xfer;

  std::vector<size_t> order;
  const JoinOrderSchedule* replay = options.join_order_replay;
  if (replay != nullptr && replay->valid && replay->order.size() == n) {
    // Cached schedule: skip statistics collection and enumeration.
    order.assign(replay->order.begin(), replay->order.end());
    plan.est_rows = replay->est_rows;
    ICEBERG_COUNTER("cbo.order_replays")->Increment();
  } else {
    // Post-transfer survivor counts are *exact* plan-time cardinalities;
    // levels transfer never touched fall back to histogram estimates.
    std::vector<double> exact(n, -1.0);
    bool any_exact = false;
    if (xfer != nullptr && xfer->Live()) {
      for (size_t i = 0; i < n; ++i) {
        if (xfer->HasSelection(i)) {
          exact[i] = static_cast<double>(xfer->KeptRows(i));
          any_exact = true;
        }
      }
    }
    CardinalityEstimator est(block);
    JoinOrderInputs inputs =
        MakeJoinOrderInputs(est, any_exact ? &exact : nullptr);
    JoinOrderPlan chosen = ChooseJoinOrder(est, inputs);
    order = std::move(chosen.order);
    plan.est_rows = std::move(chosen.est_rows);
  }

  bool identity = true;
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i] != i) identity = false;
  }
  if (options.join_order_capture != nullptr) {
    JoinOrderSchedule* cap = options.join_order_capture;
    cap->order.clear();
    cap->order.reserve(order.size());
    for (size_t t : order) cap->order.push_back(static_cast<uint32_t>(t));
    cap->est_rows = plan.est_rows;
    cap->valid = true;
  }
  if (identity) return plan;

  Result<QueryBlock> permuted = PermuteBlock(block, order);
  if (!permuted.ok()) return plan;  // stale replay; the FROM order stands
  ICEBERG_COUNTER("cbo.reorders")->Increment();
  plan.permuted = std::move(permuted).value();
  plan.block = &plan.permuted;
  plan.reordered = true;
  plan.topts.prebuilt = PermuteTransferResult(xfer, order);
  // Transfer schedules index the as-written block's levels; nothing should
  // capture or replay against the permuted layout.
  plan.topts.capture = nullptr;
  plan.topts.replay = nullptr;
  // Row-vs-vectorized advice: a scan whose total expected volume
  // (invocations × table rows) is tiny never amortizes batch setup.
  if (plan.est_rows.size() == n) {
    plan.use_hints = true;
    plan.hints.prefer_row_scan.assign(n, 0);
    for (size_t i = 0; i < n; ++i) {
      const TablePtr& table = plan.permuted.tables[i].table;
      double raw =
          table != nullptr ? static_cast<double>(table->num_rows()) : 0.0;
      double invocations =
          i == 0 ? 1.0 : std::max(0.0, plan.est_rows[i - 1]);
      if (invocations * raw < 1024.0) plan.hints.prefer_row_scan[i] = 1;
    }
  }
  return plan;
}

}  // namespace

Result<TablePtr> Executor::Execute(const QueryBlock& block,
                                   ExecStats* stats) {
  TraceSpan span("exec.execute");
  int64_t started_us = NowMicros();
  ExecStats run;
  Result<TablePtr> result = ExecuteInternal(block, &run);
  run.execute_us = NowMicros() - started_us;
  if (result.ok()) {
    PublishExecMetrics(run);
    if (stats != nullptr) stats->Accumulate(run);
  }
  return result;
}

Result<TablePtr> Executor::ExecuteInternal(const QueryBlock& original,
                                           ExecStats* stats) {
  QueryGovernor* governor = options_.governor.get();
  if (governor != nullptr) ICEBERG_RETURN_NOT_OK(governor->Check());
  const int threads = ResolveThreads(options_.num_threads);
  // Cost-based pre-planning: transfer, join-order choice, permutation.
  // Everything below executes `block` — the as-written block, or the
  // reordered one (same output schema and projection semantics, so the
  // downstream aggregation/projection paths are unaffected).
  CboPlan cbo = PlanCboOrder(original, options_, governor, threads);
  const QueryBlock& block = *cbo.block;
  ICEBERG_ASSIGN_OR_RETURN(
      JoinPipeline pipeline,
      JoinPipeline::Plan(block, options_.use_indexes, options_.vectorize,
                         governor, cbo.topts,
                         cbo.use_hints ? &cbo.hints : nullptr));
  if (!cbo.est_rows.empty()) pipeline.AnnotateEstimates(cbo.est_rows);
  // Predicate transfer happens once at plan time; its counters are charged
  // to the run here (Run-time counters accumulate per morsel).
  if (stats != nullptr && pipeline.transfer() != nullptr) {
    const TransferStats& ts = pipeline.transfer()->stats();
    stats->transfer_passes += ts.passes;
    stats->transfer_filters_built += ts.filters_built;
    stats->transfer_probes += ts.probes;
    stats->transfer_hits += ts.hits;
    stats->transfer_rows_eliminated += ts.rows_eliminated;
    stats->transfer_chunks_refuted += ts.chunks_refuted;
    stats->transfer_filter_bytes += ts.filter_bytes;
    stats->transfer_build_ns += ts.build_ns;
  }
  const size_t outer_size = pipeline.OuterSize();
  const size_t morsel = MorselFor(outer_size, threads);
  const bool parallel = threads > 1 && outer_size > morsel;

  if (Aggregator::IsAggregated(block)) {
    // Morsel-driven parallel aggregation: each worker streams joined rows
    // into a thread-local hash-aggregation state; Finalize merges them one
    // radix partition per task before HAVING/projection (Vendor A's
    // Gather/Repartition plan shape). JoinPipeline::Run is thread-safe
    // after Plan — all mutable state lives in the per-call stack.
    const int workers = parallel ? threads : 1;
    std::vector<std::unique_ptr<Aggregator>> partials;
    partials.reserve(static_cast<size_t>(workers));
    for (int t = 0; t < workers; ++t) {
      partials.push_back(std::make_unique<Aggregator>(block));
      partials.back()->SetGovernor(governor);
    }
    TaskPool pool(workers);
    if (!parallel) {
      Aggregator* agg = partials[0].get();
      ICEBERG_RETURN_NOT_OK(pipeline.Run(
          0, outer_size, [agg](const Row& row) { agg->AddRow(row); }, stats,
          governor));
    } else {
      std::vector<ExecStats> partial_stats(static_cast<size_t>(threads));
      Status status = pool.RunMorsels(
          outer_size, morsel, [&](int worker, size_t begin, size_t end) {
            Aggregator* agg = partials[static_cast<size_t>(worker)].get();
            return pipeline.Run(
                begin, end, [agg](const Row& row) { agg->AddRow(row); },
                &partial_stats[static_cast<size_t>(worker)], governor);
          });
      ICEBERG_RETURN_NOT_OK(status);
      MergeWorkerStats(partial_stats, pool, stats);
    }
    if (governor != nullptr) ICEBERG_RETURN_NOT_OK(governor->Check());
    FillGovernorStats(governor, stats);
    return Aggregator::Finalize(partials, &pool, stats);
  }

  // Non-aggregated: project each joined row directly.
  auto result = std::make_shared<Table>(block.output_schema);
  std::set<Row, RowLess> distinct_rows;
  auto emit = [&](Row out) {
    if (block.distinct && !distinct_rows.insert(out).second) return;
    if (governor != nullptr &&
        !governor->Reserve(RowBytes(out), "join-materialization").ok()) {
      return;  // poisoned; the pipeline aborts at its next check
    }
    result->AppendUnchecked(std::move(out));
  };
  // Select-list projection compiled once per query; workers evaluate with
  // thread-local stacks (CompiledExpr::Run is const and thread-safe).
  const CompiledProjection projection(block);
  auto project = [&](const Row& joined, EvalScratch* scratch) {
    Row out;
    projection.Project(joined, nullptr, scratch, &out);
    return out;
  };
  if (!parallel) {
    EvalScratch scratch;
    ICEBERG_RETURN_NOT_OK(pipeline.Run(
        0, outer_size,
        [&](const Row& joined) { emit(project(joined, &scratch)); }, stats,
        governor));
    if (governor != nullptr) ICEBERG_RETURN_NOT_OK(governor->Check());
    FillGovernorStats(governor, stats);
    return result;
  }
  // Workers project into thread-local buffers; DISTINCT dedup and the
  // materialization reservation stay single-threaded on the gathered rows.
  std::vector<std::vector<Row>> buffers(static_cast<size_t>(threads));
  std::vector<EvalScratch> scratches(static_cast<size_t>(threads));
  std::vector<ExecStats> partial_stats(static_cast<size_t>(threads));
  TaskPool pool(threads);
  Status status = pool.RunMorsels(
      outer_size, morsel, [&](int worker, size_t begin, size_t end) {
        std::vector<Row>* local = &buffers[static_cast<size_t>(worker)];
        EvalScratch* scratch = &scratches[static_cast<size_t>(worker)];
        return pipeline.Run(
            begin, end,
            [&, local, scratch](const Row& joined) {
              local->push_back(project(joined, scratch));
            },
            &partial_stats[static_cast<size_t>(worker)], governor);
      });
  ICEBERG_RETURN_NOT_OK(status);
  for (std::vector<Row>& buffer : buffers) {
    for (Row& row : buffer) emit(std::move(row));
  }
  MergeWorkerStats(partial_stats, pool, stats);
  if (governor != nullptr) ICEBERG_RETURN_NOT_OK(governor->Check());
  FillGovernorStats(governor, stats);
  result->SortRowsCanonical();
  return result;
}

std::string Executor::Explain(const QueryBlock& original) const {
  // No governor here: EXPLAIN must not charge the query's budget, and no
  // capture: EXPLAIN must not overwrite a statement's plan trace.
  ExecOptions explain_options = options_;
  explain_options.governor = nullptr;
  explain_options.transfer_capture = nullptr;
  explain_options.join_order_capture = nullptr;
  const int threads = ResolveThreads(options_.num_threads);
  CboPlan cbo =
      PlanCboOrder(original, explain_options, /*governor=*/nullptr, threads);
  const QueryBlock& block = *cbo.block;
  Result<JoinPipeline> pipeline =
      JoinPipeline::Plan(block, options_.use_indexes, options_.vectorize,
                         /*governor=*/nullptr, cbo.topts,
                         cbo.use_hints ? &cbo.hints : nullptr);
  if (!pipeline.ok()) return "<plan error: " + pipeline.status().ToString() + ">";
  if (!cbo.est_rows.empty()) pipeline->AnnotateEstimates(cbo.est_rows);

  std::string out;
  std::string indent;
  if (threads > 1) {
    out += "Gather (workers=" + std::to_string(threads) + ")\n";
    indent = "  ";
  }
  if (cbo.reordered) {
    out += indent + "JoinOrder (cbo) order=(";
    for (size_t i = 0; i < block.tables.size(); ++i) {
      if (i > 0) out += ", ";
      out += block.tables[i].alias;
    }
    out += ")\n";
  }
  if (Aggregator::IsAggregated(block)) {
    out += indent + "HashAggregate group_by=(";
    for (size_t i = 0; i < block.group_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += block.group_by[i]->ToString();
    }
    out += ")";
    if (block.having != nullptr) {
      out += " having=(" + block.having->ToString() + ")";
    }
    out += " key=" +
           CodecForExprs(block.group_by, BlockColumnTypes(block)).Summary();
    out += "\n";
    indent += "  ";
  }
  std::string plan = pipeline->Explain();
  // Indent every pipeline line.
  size_t pos = 0;
  while (pos < plan.size()) {
    size_t nl = plan.find('\n', pos);
    if (nl == std::string::npos) nl = plan.size();
    out += indent + plan.substr(pos, nl - pos) + "\n";
    pos = nl + 1;
  }
  return out;
}

}  // namespace iceberg
