#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>

namespace perfbench {
namespace {

int64_t PhasesUs(const iceberg::IcebergReport::Timing& t) {
  return t.infer_us + t.apriori_pick_us + t.apriori_apply_us + t.pick_nljp_us +
         t.execute_us;
}

template <typename T>
double D(T x) {
  return static_cast<double>(x);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Counter(const iceberg::MetricsSnapshot& delta, const char* name) {
  auto it = delta.counters.find(name);
  return it == delta.counters.end() ? 0 : D(it->second);
}

}  // namespace

void LayerTally::AddStatement(double wall_us,
                              const iceberg::IcebergReport& report) {
  ++statements_;
  ++attempts_;
  wall_us_ += wall_us;
  const iceberg::IcebergReport::Timing& t = report.timing;
  timing_.infer_us += t.infer_us;
  timing_.apriori_pick_us += t.apriori_pick_us;
  timing_.apriori_apply_us += t.apriori_apply_us;
  timing_.pick_nljp_us += t.pick_nljp_us;
  timing_.execute_us += t.execute_us;
  overhead_us_.push_back(wall_us - D(PhasesUs(t)));
  nljp_.Accumulate(report.nljp_stats);
  exec_.Accumulate(report.exec_stats);
  if (report.used_nljp) {
    workers_ = std::max(workers_, report.nljp_stats.workers);
  }
  const std::vector<int64_t>& busy = report.nljp_stats.busy_us_per_worker;
  if (!busy.empty()) {
    double total = 0, most = 0;
    for (int64_t us : busy) {
      total += D(us);
      most = std::max(most, D(us));
    }
    busy_total_us_ += total;
    busy_max_sum_us_ += most;
    busy_mean_sum_us_ += total / D(busy.size());
  }
}

void LayerTally::AddServedStatement(double wall_us,
                                    const iceberg::IcebergReport& report,
                                    int64_t queue_wait_us, int attempts) {
  AddStatement(wall_us, report);
  attempts_ += static_cast<uint64_t>(std::max(attempts, 1) - 1);
  queue_wait_total_us_ += D(queue_wait_us);
  queue_wait_us_.push_back(D(queue_wait_us));
}

double LayerTally::UnattributedUs() const {
  return wall_us_ - queue_wait_total_us_ - D(PhasesUs(timing_));
}

void AddDelta(iceberg::MetricsSnapshot* total,
              const iceberg::MetricsSnapshot& delta) {
  for (const auto& [name, value] : delta.counters) {
    total->counters[name] += value;
  }
  for (const auto& [name, hist] : delta.histograms) {
    iceberg::HistogramSnapshot& sum = total->histograms[name];
    sum.count += hist.count;
    sum.sum += hist.sum;
    for (size_t i = 0; i < iceberg::HistogramSnapshot::kBuckets; ++i) {
      sum.buckets[i] += hist.buckets[i];
    }
  }
}

const std::vector<std::pair<std::string, std::string>>& PerLayerNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"nljp.bindings", "count"},
      {"nljp.memo_hits", "count"},
      {"nljp.pruned", "count"},
      {"nljp.skip_ratio", "ratio"},
      {"nljp.inner_evaluations", "count"},
      {"nljp.inner_pairs_examined", "count"},
      {"nljp.pairs_per_inner_eval", "count"},
      {"nljp.prune_tests", "count"},
      {"nljp.inner_chunks_skipped", "count"},
      {"nljp.cache_bytes", "bytes"},
      {"nljp.workers", "count"},
      {"nljp.worker_busy_ms", "ms"},
      {"nljp.worker_imbalance", "ratio"},
      {"engine.prepare_ms", "ms"},
      {"engine.cte_ms", "ms"},
      {"exec.pairs_examined", "count"},
      {"exec.rows_joined", "count"},
      {"exec.groups_created", "count"},
      {"exec.index_probes", "count"},
      {"exec.finalize_us", "us"},
      {"exec.batch_rows", "count"},
      {"exec.chunks_skipped", "count"},
      {"exec.transfer_rows_eliminated", "count"},
      {"exec.transfer_build_us", "us"},
      {"parser.parse_us", "us"},
      {"optimizer.infer_us", "us"},
      {"optimizer.apriori_pick_us", "us"},
      {"optimizer.apriori_apply_ms", "ms"},
      {"optimizer.pick_nljp_us", "us"},
      {"optimizer.execute_ms", "ms"},
      {"optimizer.unattributed_ms", "ms"},
      {"server.statements", "count"},
      {"server.overhead_us", "us"},
      {"server.queue_wait_us_p50", "us"},
      {"server.queue_wait_us_p99", "us"},
      {"server.attempts_per_stmt", "ratio"},
      {"server.snapshot_conflicts", "count"},
      {"server.insert_wait_ms", "ms"},
      {"plan_cache.lookups", "count"},
      {"plan_cache.hit_ratio", "ratio"},
      {"plan_cache.invalidations", "count"},
      {"nljp.registry.lookups", "count"},
      {"nljp.registry.hit_ratio", "ratio"},
      {"taskpool.morsels", "count"},
      {"taskpool.claim_ns_p50", "ns"},
      {"storage.warmup_ms", "ms"},
      {"stats.builds", "count"},
      {"cbo.reorders", "count"},
      {"query_log.records", "count"},
      {"obs.trace_overhead_pct", "%"},
  };
  return names;
}

std::vector<Metric> LayerReport::Metrics(const LayerTally& t,
                                         const iceberg::MetricsSnapshot& delta,
                                         double passes,
                                         const ProbeTimes& probes,
                                         double warmup_ms,
                                         double trace_overhead_pct) {
  const double per = passes > 0 ? 1.0 / passes : 0;
  auto per_pass = [per](auto x) { return D(x) * per; };
  const iceberg::NljpStats& n = t.nljp_;
  const iceberg::ExecStats& e = t.exec_;
  const iceberg::IcebergReport::Timing& tm = t.timing_;
  const double plan_hits = Counter(delta, "plan_cache.hits");
  const double plan_lookups = plan_hits + Counter(delta, "plan_cache.misses");
  const double reg_hits = Counter(delta, "nljp.registry.hits");
  const double reg_lookups = reg_hits + Counter(delta, "nljp.registry.misses");
  double claim_ns_p50 = 0;
  auto claim = delta.histograms.find("taskpool.claim_ns");
  if (claim != delta.histograms.end()) {
    claim_ns_p50 = D(claim->second.Percentile(50));
  }
  // The server.* figures exist only where Session::Execute spans ran.
  const bool served = !t.queue_wait_us_.empty();

  std::map<std::string, double> v;
  v["nljp.bindings"] = per_pass(n.bindings_total);
  v["nljp.memo_hits"] = per_pass(n.memo_hits);
  v["nljp.pruned"] = per_pass(n.pruned);
  v["nljp.skip_ratio"] = Ratio(D(n.memo_hits + n.pruned), D(n.bindings_total));
  v["nljp.inner_evaluations"] = per_pass(n.inner_evaluations);
  v["nljp.inner_pairs_examined"] = per_pass(n.inner_pairs_examined);
  v["nljp.pairs_per_inner_eval"] =
      Ratio(D(n.inner_pairs_examined), D(n.inner_evaluations));
  v["nljp.prune_tests"] = per_pass(n.prune_tests);
  v["nljp.inner_chunks_skipped"] = per_pass(n.inner_chunks_skipped);
  v["nljp.cache_bytes"] = per_pass(n.cache_bytes);
  v["nljp.workers"] = D(t.workers_);
  v["nljp.worker_busy_ms"] = per_pass(t.busy_total_us_) / 1e3;
  v["nljp.worker_imbalance"] = Ratio(t.busy_max_sum_us_, t.busy_mean_sum_us_);
  v["engine.prepare_ms"] = probes.prepare_ms;
  v["engine.cte_ms"] = probes.cte_ms;
  v["exec.pairs_examined"] = per_pass(e.join_pairs_examined);
  v["exec.rows_joined"] = per_pass(e.rows_joined);
  v["exec.groups_created"] = per_pass(e.groups_created);
  v["exec.index_probes"] = per_pass(e.index_probes);
  v["exec.finalize_us"] = per_pass(e.finalize_us);
  v["exec.batch_rows"] = per_pass(e.batch_rows);
  v["exec.chunks_skipped"] = per_pass(e.chunks_skipped);
  v["exec.transfer_rows_eliminated"] = per_pass(e.transfer_rows_eliminated);
  v["exec.transfer_build_us"] = per_pass(e.transfer_build_ns) / 1e3;
  v["parser.parse_us"] = probes.parse_us;
  v["optimizer.infer_us"] = per_pass(tm.infer_us);
  v["optimizer.apriori_pick_us"] = per_pass(tm.apriori_pick_us);
  v["optimizer.apriori_apply_ms"] = per_pass(tm.apriori_apply_us) / 1e3;
  v["optimizer.pick_nljp_us"] = per_pass(tm.pick_nljp_us);
  v["optimizer.execute_ms"] = per_pass(tm.execute_us) / 1e3;
  v["optimizer.unattributed_ms"] = per_pass(t.UnattributedUs()) / 1e3;
  v["server.statements"] = served ? D(t.statements_) : 0;
  v["server.overhead_us"] = served ? Median(t.overhead_us_) : 0;
  v["server.queue_wait_us_p50"] = Percentile(t.queue_wait_us_, 50);
  v["server.queue_wait_us_p99"] = Percentile(t.queue_wait_us_, 99);
  v["server.attempts_per_stmt"] =
      served ? Ratio(D(t.attempts_), D(t.statements_)) : 0;
  v["server.snapshot_conflicts"] =
      per_pass(Counter(delta, "server.snapshot_conflicts"));
  v["server.insert_wait_ms"] = Median(t.insert_us_) / 1e3;
  v["plan_cache.lookups"] = per_pass(plan_lookups);
  v["plan_cache.hit_ratio"] = Ratio(plan_hits, plan_lookups);
  v["plan_cache.invalidations"] =
      per_pass(Counter(delta, "plan_cache.invalidations"));
  v["nljp.registry.lookups"] = per_pass(reg_lookups);
  v["nljp.registry.hit_ratio"] = Ratio(reg_hits, reg_lookups);
  v["taskpool.morsels"] = per_pass(Counter(delta, "taskpool.morsels"));
  v["taskpool.claim_ns_p50"] = claim_ns_p50;
  v["storage.warmup_ms"] = warmup_ms;
  v["stats.builds"] = per_pass(Counter(delta, "cbo.stats_builds"));
  v["cbo.reorders"] = per_pass(Counter(delta, "cbo.reorders"));
  v["query_log.records"] = per_pass(Counter(delta, "query_log.records"));
  v["obs.trace_overhead_pct"] = trace_overhead_pct;

  std::vector<Metric> out;
  for (const auto& [name, unit] : PerLayerNames()) {
    auto it = v.find(name);
    if (it == v.end()) {
      std::fprintf(stderr, "perfbench: per-layer metric %s not computed\n",
                   name.c_str());
      std::exit(1);
    }
    out.push_back({name, it->second, unit});
  }
  return out;
}

std::vector<std::string> LayerReport::SelfTimeTable(
    const std::string& workload, const LayerTally& t, double passes,
    const ProbeTimes& probes) {
  const double per = passes > 0 ? 1.0 / passes : 0;
  const iceberg::IcebergReport::Timing& tm = t.timing_;
  const double nljp_us = D(t.nljp_.execute_us);
  const double total_ms = t.wall_us_ / 1e3 * per;
  const std::vector<std::pair<const char*, double>> rows = {
      {"admission.queue_wait", t.queue_wait_total_us_},
      {"optimizer.infer", D(tm.infer_us)},
      {"optimizer.apriori_pick", D(tm.apriori_pick_us)},
      {"optimizer.apriori_apply", D(tm.apriori_apply_us)},
      {"optimizer.pick_nljp", D(tm.pick_nljp_us)},
      {"nljp.execute", nljp_us},
      {"exec.execute", D(tm.execute_us) - nljp_us},
      {"unattributed", t.UnattributedUs()},
  };
  std::vector<std::string> lines;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "self time per pass, workload %s (%llu statement spans, "
                "%.1f passes):",
                workload.c_str(),
                static_cast<unsigned long long>(t.statements_), passes);
  lines.push_back(buf);
  std::snprintf(buf, sizeof(buf), "  %-26s %12s %8s", "layer", "self_ms",
                "share");
  lines.push_back(buf);
  for (const auto& [name, us] : rows) {
    const double ms = us / 1e3 * per;
    std::snprintf(buf, sizeof(buf), "  %-26s %12.3f %7.1f%%", name, ms,
                  total_ms > 0 ? 100.0 * ms / total_ms : 0.0);
    lines.push_back(buf);
  }
  std::snprintf(buf, sizeof(buf), "  %-26s %12.3f %7.1f%%", "total (spans)",
                total_ms, total_ms > 0 ? 100.0 : 0.0);
  lines.push_back(buf);
  if (!t.insert_us_.empty()) {
    double insert_ms = 0;
    for (double us : t.insert_us_) insert_ms += us / 1e3;
    std::snprintf(buf, sizeof(buf), "  %-26s %12.3f  (writer thread)",
                  "server.insert", insert_ms * per);
    lines.push_back(buf);
  }
  std::snprintf(buf, sizeof(buf),
                "  probes outside the spans: parser.parse %.1f us, "
                "engine.prepare %.3f ms, engine.cte %.3f ms",
                probes.parse_us, probes.prepare_ms, probes.cte_ms);
  lines.push_back(buf);
  return lines;
}

}  // namespace perfbench
