#ifndef SMARTICEBERG_PERFBENCH_LAYERS_H_
#define SMARTICEBERG_PERFBENCH_LAYERS_H_

// Per-layer attribution of the traced run. The benchmark wraps each call
// into a public entry point (Database::QueryIceberg, Session::Execute,
// IcebergServer::Insert, and the ParseSql / Database::Prepare /
// Database::Query probes) in its own span, splits a statement span into
// the phases its IcebergReport times, and diffs the MetricsRegistry
// around the traced window. Everything the benchmark reads from the
// library's report structs is read here.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "helpers.h"
#include "src/obs/metrics.h"
#include "src/optimizer/iceberg_optimizer.h"

namespace perfbench {

/// Sums over the statement spans of a traced window. Not thread-safe:
/// concurrent sessions share one under a lock.
class LayerTally {
 public:
  /// One statement span: `wall_us` is the wrapped call's wall time and
  /// `report` the IcebergReport of the call.
  void AddStatement(double wall_us, const iceberg::IcebergReport& report);
  /// One Session::Execute span, with the final attempt's report, its
  /// admission queue wait and the attempts it took.
  void AddServedStatement(double wall_us, const iceberg::IcebergReport& report,
                          int64_t queue_wait_us, int attempts);
  /// One IcebergServer::Insert span.
  void AddInsert(double wall_us) { insert_us_.push_back(wall_us); }

  /// Span time that neither the admission queue nor a timed optimizer
  /// phase claims: parse, bind, WITH-block glue, plan-cache bookkeeping.
  double UnattributedUs() const;

 private:
  friend struct LayerReport;

  uint64_t statements_ = 0;
  uint64_t attempts_ = 0;
  double wall_us_ = 0;
  double queue_wait_total_us_ = 0;
  iceberg::IcebergReport::Timing timing_;  // phase times, summed
  iceberg::NljpStats nljp_;                // summed by Accumulate
  iceberg::ExecStats exec_;                // summed by Accumulate
  size_t workers_ = 0;                     // most NLJP workers of a span
  double busy_total_us_ = 0;
  double busy_max_sum_us_ = 0;   // per span, the busiest worker
  double busy_mean_sum_us_ = 0;  // per span, the mean worker
  std::vector<double> overhead_us_;
  std::vector<double> queue_wait_us_;
  std::vector<double> insert_us_;
};

/// Times of the probe calls, made outside the measured statements, summed
/// over one pass's statement list.
struct ProbeTimes {
  double parse_us = 0;    // ParseSql
  double prepare_ms = 0;  // Database::Prepare (binds; runs WITH bodies)
  double cte_ms = 0;      // Database::Query on each WITH body alone
};

/// Renders a traced window as the per-layer metrics (every name of
/// PerLayerNames(), normalised per pass) and the self-time table.
struct LayerReport {
  static std::vector<Metric> Metrics(const LayerTally& tally,
                                     const iceberg::MetricsSnapshot& delta,
                                     double passes, const ProbeTimes& probes,
                                     double warmup_ms,
                                     double trace_overhead_pct);
  static std::vector<std::string> SelfTimeTable(const std::string& workload,
                                                const LayerTally& tally,
                                                double passes,
                                                const ProbeTimes& probes);
};

/// Adds a registry delta (counters and histograms) into `total`.
void AddDelta(iceberg::MetricsSnapshot* total,
              const iceberg::MetricsSnapshot& delta);

/// The per-layer metric names, in output order, with their units.
const std::vector<std::pair<std::string, std::string>>& PerLayerNames();

}  // namespace perfbench

#endif  // SMARTICEBERG_PERFBENCH_LAYERS_H_
