#include "src/engine/analyze.h"

#include <cstdio>
#include <vector>

namespace iceberg {

namespace {

std::string Ms(int64_t us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f ms", static_cast<double>(us) / 1000.0);
  return buf;
}

std::string Pct(size_t part, size_t whole) {
  if (whole == 0) return "0.0%";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%",
                100.0 * static_cast<double>(part) /
                    static_cast<double>(whole));
  return buf;
}

void AppendList(std::string* out, const std::vector<size_t>& v) {
  *out += "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) *out += ",";
    *out += std::to_string(v[i]);
  }
  *out += "]";
}

void AppendList64(std::string* out, const std::vector<int64_t>& v) {
  *out += "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) *out += ",";
    *out += std::to_string(v[i]);
  }
  *out += "]";
}

/// Worker utilization: busy time inside morsel callbacks / slowest worker's
/// busy time, averaged — 100% means perfectly balanced morsel scheduling.
std::string Utilization(const std::vector<int64_t>& busy_us) {
  int64_t max_busy = 0;
  int64_t total = 0;
  for (int64_t b : busy_us) {
    if (b > max_busy) max_busy = b;
    total += b;
  }
  if (max_busy == 0 || busy_us.empty()) return "n/a";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%",
                100.0 * static_cast<double>(total) /
                    (static_cast<double>(max_busy) *
                     static_cast<double>(busy_us.size())));
  return buf;
}

void AppendIndented(std::string* out, const std::string& text,
                    const std::string& indent) {
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    if (nl > pos) *out += indent + text.substr(pos, nl - pos) + "\n";
    pos = nl + 1;
  }
}

}  // namespace

TablePtr AnalyzeTextTable(const std::string& text) {
  auto table = std::make_shared<Table>(
      "explain", Schema({{"QUERY PLAN", DataType::kString}}));
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    table->AppendUnchecked({Value::Str(text.substr(pos, nl - pos))});
    pos = nl + 1;
  }
  return table;
}

std::string RenderAnalyzeIceberg(const IcebergReport& report,
                                 const MetricsSnapshot& delta,
                                 size_t output_rows, int64_t total_us) {
  const NljpStats& n = report.nljp_stats;
  std::string out;
  out += "Iceberg Query  (actual time=" + Ms(total_us) +
         ", output_rows=" + std::to_string(output_rows) + ")\n";
  out += "  Optimize: infer_fds=" + Ms(report.timing.infer_us) +
         ", apriori_pick=" + Ms(report.timing.apriori_pick_us) +
         ", apriori_apply=" + Ms(report.timing.apriori_apply_us) +
         ", pick_nljp=" + Ms(report.timing.pick_nljp_us);
  if (!report.plan_provenance.empty()) {
    out += "  [plan_cache=" + report.plan_provenance + "]";
  }
  out += "\n";
  for (const std::string& step : report.steps) {
    out += "  decision: " + step + "\n";
  }
  for (const IcebergReport::Reduction& r : report.reductions) {
    out += "  -> AprioriReducer on " + r.alias + "  (rows " +
           std::to_string(r.rows_before) + " -> " +
           std::to_string(r.rows_after) + ", " +
           Pct(r.rows_before - r.rows_after, r.rows_before) + " removed)\n";
  }
  if (report.used_nljp) {
    out += "  -> NLJP  (actual time=" + Ms(report.timing.execute_us) +
           ", bindings=" + std::to_string(n.bindings_total) + ")\n";
    AppendIndented(&out, report.nljp_explain, "       ");
    if (n.answer_replays > 0) {
      out += "     answer: replayed from the registry cache (replays=" +
             std::to_string(n.answer_replays) + ")\n";
    }
    out += "     memo: hits=" + std::to_string(n.memo_hits) + " (" +
           Pct(n.memo_hits, n.bindings_total) + " of bindings)\n";
    out += "     prune: skipped=" + std::to_string(n.pruned) + " (" +
           Pct(n.pruned, n.bindings_total) + " of bindings), " +
           "subsumption_tests=" + std::to_string(n.prune_tests) + "\n";
    out += "     inner Q_R: evaluations=" +
           std::to_string(n.inner_evaluations) + " (" +
           Pct(n.inner_evaluations, n.bindings_total) + " of bindings)";
    if (n.inner_pairs_examined > 0) {
      out += ", pairs_examined=" + std::to_string(n.inner_pairs_examined);
    }
    out += "\n";
    if (n.inner_batch_rows > 0 || n.inner_chunks_skipped > 0) {
      out += "     vectorized: batch_rows=" +
             std::to_string(n.inner_batch_rows) +
             ", chunks_skipped=" + std::to_string(n.inner_chunks_skipped) +
             "\n";
    }
    if (n.transfer_probes > 0 || n.transfer_passes > 0) {
      out += "     transfer (Q_B): passes=" +
             std::to_string(n.transfer_passes) +
             ", filters=" + std::to_string(n.transfer_filters_built) +
             ", hits=" + std::to_string(n.transfer_hits) + "/" +
             std::to_string(n.transfer_probes) +
             ", eliminated=" + std::to_string(n.transfer_rows_eliminated) +
             " (build=" + Ms(n.transfer_build_ns / 1000) + ")\n";
    }
    out += "     cache: entries=" + std::to_string(n.cache_entries) +
           ", bytes=" + std::to_string(n.cache_bytes) +
           ", evictions=" + std::to_string(n.cache_evictions) +
           ", shed=" + std::to_string(n.cache_shed_entries) + "\n";
    if (n.workers > 1) {
      out += "     workers=" + std::to_string(n.workers) +
             " utilization=" + Utilization(n.busy_us_per_worker) +
             " bindings_per_worker=";
      AppendList(&out, n.bindings_per_worker);
      out += " busy_us_per_worker=";
      AppendList64(&out, n.busy_us_per_worker);
      out += "\n";
    }
    if (n.cancel_checks > 0) {
      out += "     governor: checks=" + std::to_string(n.cancel_checks) +
             ", budget_peak_bytes=" + std::to_string(n.budget_bytes_peak) +
             "\n";
    }
  } else {
    const ExecStats& e = report.exec_stats;
    out += "  -> Baseline Executor  (actual time=" +
           Ms(report.timing.execute_us) +
           ", pairs=" + std::to_string(e.join_pairs_examined) +
           ", rows_joined=" + std::to_string(e.rows_joined) +
           ", groups=" + std::to_string(e.groups_created) + " -> " +
           std::to_string(e.groups_output) + " after HAVING)\n";
    if (!e.level_rows.empty()) {
      out += "     cardinality: actual_rows_per_level=";
      AppendList(&out, e.level_rows);
      out += "\n";
    }
    if (e.batch_rows > 0 || e.chunks_skipped > 0) {
      out += "     vectorized: batch_rows=" + std::to_string(e.batch_rows) +
             ", chunks_skipped=" + std::to_string(e.chunks_skipped) + "\n";
    }
    if (e.transfer_probes > 0 || e.transfer_passes > 0) {
      out += "     transfer: passes=" + std::to_string(e.transfer_passes) +
             ", filters=" + std::to_string(e.transfer_filters_built) +
             ", hits=" + std::to_string(e.transfer_hits) + "/" +
             std::to_string(e.transfer_probes) +
             ", eliminated=" + std::to_string(e.transfer_rows_eliminated) +
             ", chunks_refuted=" +
             std::to_string(e.transfer_chunks_refuted) +
             " (build=" + Ms(e.transfer_build_ns / 1000) + ")\n";
    }
    if (e.workers > 1) {
      out += "     workers=" + std::to_string(e.workers) +
             " utilization=" + Utilization(e.busy_us_per_worker) + "\n";
    }
  }
  for (const std::string& d : report.degradations) {
    out += "  degraded: " + d + "\n";
  }
  out += "metrics: " + delta.ToJson() + "\n";
  return out;
}

std::string RenderAnalyzeBaseline(const ExecStats& stats,
                                  const std::string& plan,
                                  const MetricsSnapshot& delta,
                                  size_t output_rows, int64_t total_us) {
  std::string out;
  out += "Baseline Query  (actual time=" + Ms(total_us) +
         ", output_rows=" + std::to_string(output_rows) + ")\n";
  AppendIndented(&out, plan, "  ");
  out += "  join: pairs_examined=" + std::to_string(stats.join_pairs_examined) +
         ", rows_joined=" + std::to_string(stats.rows_joined) +
         ", index_probes=" + std::to_string(stats.index_probes) + "\n";
  if (!stats.level_rows.empty()) {
    // Actual cumulative rows surviving each pipeline level; the plan text
    // above carries the estimator's est_rows= per level for comparison.
    out += "  cardinality: actual_rows_per_level=";
    AppendList(&out, stats.level_rows);
    out += "\n";
  }
  if (stats.batch_rows > 0 || stats.chunks_skipped > 0) {
    out += "  vectorized: batch_rows=" + std::to_string(stats.batch_rows) +
           ", chunks_skipped=" + std::to_string(stats.chunks_skipped) + "\n";
  }
  if (stats.transfer_probes > 0 || stats.transfer_passes > 0) {
    out += "  transfer: passes=" + std::to_string(stats.transfer_passes) +
           ", filters=" + std::to_string(stats.transfer_filters_built) +
           ", hits=" + std::to_string(stats.transfer_hits) + "/" +
           std::to_string(stats.transfer_probes) +
           ", eliminated=" + std::to_string(stats.transfer_rows_eliminated) +
           ", chunks_refuted=" + std::to_string(stats.transfer_chunks_refuted) +
           " (build=" + Ms(stats.transfer_build_ns / 1000) + ")\n";
  }
  out += "  aggregate: groups=" + std::to_string(stats.groups_created) +
         " -> " + std::to_string(stats.groups_output) +
         " after HAVING  (finalize time=" + Ms(stats.finalize_us) + ")\n";
  if (stats.workers > 1) {
    out += "  workers=" + std::to_string(stats.workers) +
           " utilization=" + Utilization(stats.busy_us_per_worker) +
           " rows_joined_per_worker=";
    AppendList(&out, stats.rows_joined_per_worker);
    out += " busy_us_per_worker=";
    AppendList64(&out, stats.busy_us_per_worker);
    out += "\n";
  }
  if (stats.cancel_checks > 0) {
    out += "  governor: checks=" + std::to_string(stats.cancel_checks) +
           ", budget_peak_bytes=" + std::to_string(stats.budget_bytes_peak) +
           "\n";
  }
  out += "metrics: " + delta.ToJson() + "\n";
  return out;
}

}  // namespace iceberg
