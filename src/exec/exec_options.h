#ifndef SMARTICEBERG_EXEC_EXEC_OPTIONS_H_
#define SMARTICEBERG_EXEC_EXEC_OPTIONS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/exec/governor.h"

namespace iceberg {

/// Process-wide chicken bit for the vectorized (batch-at-a-time) scan
/// paths. Default on; seeded once from the ICEBERG_VECTORIZE environment
/// variable (set to "0..." to disable).
/// Checked at plan time, so flips affect subsequently planned queries.
bool VectorizedExecEnabled();
void SetVectorizedExecEnabled(bool enabled);

/// Process-wide chicken bit for the predicate-transfer graph (fixpoint
/// Bloom propagation across join edges; src/exec/transfer_graph.h).
/// Default on; seeded once from the ICEBERG_PREDICATE_TRANSFER environment
/// variable (set to "0..." to disable). Checked at plan time.
bool PredicateTransferEnabled();
void SetPredicateTransferEnabled(bool enabled);

/// Process-wide chicken bit for the cost-based optimizer (column
/// statistics, cardinality estimation, transfer-aware join ordering;
/// src/plan/cost/). Default on; seeded once from the ICEBERG_CBO
/// environment variable (set to "0..." to disable). When off, every plan
/// decision reverts to the pre-CBO heuristics: FROM-order joins, always-on
/// iceberg rewrites, size-threshold vectorization — byte-identical plans
/// to builds that predate the optimizer. Checked at plan time.
bool CboEnabled();
void SetCboEnabled(bool enabled);

struct TransferSchedule;   // src/exec/transfer_graph.h
struct JoinOrderSchedule;  // src/plan/cost/join_order.h

struct ExecOptions {
  /// Whether secondary indexes may be used for join probing (the paper's
  /// "BT" index-configuration axis in Fig. 4).
  bool use_indexes = true;

  /// Worker threads for the join + partial-aggregation pipeline, morsel-
  /// driven (src/exec/task_pool.h). 0 = auto (the CPUs in the thread's
  /// affinity mask); 1 = the serial join loop (no worker thread).
  /// VendorA() pins 4, matching the paper's setup ("Vendor A using all 4
  /// cores"). Grouped output is canonically sorted at every thread count,
  /// so results are byte-identical across thread counts.
  int num_threads = 0;

  /// Optional per-query resource governor (deadline, cancellation, memory
  /// budget, intermediate-row limit). Null = ungoverned. Shared so one
  /// governor can span CTE blocks and parallel workers.
  GovernorPtr governor;

  /// Per-query switch for the vectorized scan paths (column chunks, batch
  /// predicate evaluation, zone-map skipping). Effective only when both
  /// this and the process-wide VectorizedExecEnabled() chicken bit are on.
  /// Results are byte-identical either way; the row-at-a-time path remains
  /// the differential reference.
  bool vectorize = true;

  /// Per-query switch for predicate transfer: build the block's join graph
  /// at plan time and propagate Bloom filters across every equi-join edge
  /// to a fixpoint, pre-shrinking each relation to rows that can possibly
  /// contribute. ANDed with the process-wide PredicateTransferEnabled()
  /// chicken bit. Results are byte-identical either way (Bloom errors are
  /// one-sided; real join predicates still run).
  bool predicate_transfer = true;

  /// Plan-cache integration (both borrowed, may be null): `capture` is
  /// filled with the transfer-graph shape the build discovered so it can
  /// be recorded in a PlanTrace; `replay` supplies a previously captured
  /// shape, skipping the order/pass exploration (filters are always
  /// rebuilt — they depend on table data).
  TransferSchedule* transfer_capture = nullptr;
  const TransferSchedule* transfer_replay = nullptr;

  /// Per-query switch for the cost-based optimizer: collect column
  /// statistics, estimate cardinalities (exact post-transfer survivor
  /// counts when the transfer graph ran), and enumerate left-deep join
  /// orders, executing the cheapest instead of FROM order. ANDed with the
  /// process-wide CboEnabled() chicken bit. Results are byte-identical
  /// either way (the join result is order-independent; output ordering is
  /// canonicalized downstream).
  bool cbo = true;

  /// Plan-cache integration for the chosen join order (both borrowed, may
  /// be null): `capture` records the enumerator's decision; `replay`
  /// supplies a previously captured order, skipping the enumeration.
  /// Replayed orders are validated (a permutation of the block's tables)
  /// and ignored on mismatch.
  JoinOrderSchedule* join_order_capture = nullptr;
  const JoinOrderSchedule* join_order_replay = nullptr;

  /// The paper's two baselines: PostgreSQL (the defaults) and the
  /// commercial "Vendor A" (the same plan space on all 4 cores).
  static ExecOptions Postgres() { return ExecOptions{}; }
  static ExecOptions VendorA() {
    ExecOptions o;
    o.num_threads = 4;
    return o;
  }
};

/// Counters filled during execution; used by tests and the benchmark
/// harness to verify *why* a configuration is faster.
struct ExecStats {
  size_t join_pairs_examined = 0;  // (outer, inner-candidate) pairs tested
  size_t rows_joined = 0;          // tuples surviving all join predicates
  size_t groups_created = 0;
  size_t groups_output = 0;        // groups surviving HAVING
  size_t index_probes = 0;
  size_t cancel_checks = 0;      // governance checks performed
  size_t budget_bytes_peak = 0;  // peak tracked intermediate-state bytes
  size_t workers = 1;            // execution contexts used (1 = serial)
  // Vectorized-scan counters (zero when the row-at-a-time path ran):
  size_t chunks_skipped = 0;   // column chunks refuted by zone maps
  size_t batch_rows = 0;       // rows evaluated through FilterBatch
  // Predicate-transfer counters (zero when transfer was off or the block
  // had no usable join edges); see TransferStats in transfer_graph.h.
  size_t transfer_passes = 0;
  size_t transfer_filters_built = 0;
  size_t transfer_probes = 0;
  size_t transfer_hits = 0;
  size_t transfer_rows_eliminated = 0;
  size_t transfer_chunks_refuted = 0;
  size_t transfer_filter_bytes = 0;
  int64_t transfer_build_ns = 0;
  /// Rows surviving each join level's predicates (indexed by pipeline
  /// level, cumulative over the run). EXPLAIN ANALYZE pairs these actuals
  /// against the cost model's est_rows per operator.
  std::vector<size_t> level_rows;
  /// rows_joined produced by each worker (parallel runs only); the spread
  /// shows how well morsel claiming balanced the skewed outer loop.
  std::vector<size_t> rows_joined_per_worker;
  /// Microseconds each worker spent inside morsels (parallel runs only);
  /// busy/wall is per-worker utilization, the spread is scheduling skew.
  std::vector<int64_t> busy_us_per_worker;
  int64_t execute_us = 0;   // wall time of the whole Execute call
  int64_t finalize_us = 0;  // wall time of aggregate finalization (HAVING)

  /// Folds one run's counters into an accumulating stats block (benches
  /// reuse one ExecStats across repetitions). Additive counters add;
  /// per-run shape (workers, the per-worker vectors, governor cumulative
  /// values, timings) is replaced, so a reused block never keeps stale
  /// per-worker entries when the thread count changes between runs.
  void Accumulate(const ExecStats& run) {
    join_pairs_examined += run.join_pairs_examined;
    rows_joined += run.rows_joined;
    groups_created += run.groups_created;
    groups_output += run.groups_output;
    index_probes += run.index_probes;
    chunks_skipped += run.chunks_skipped;
    batch_rows += run.batch_rows;
    transfer_passes += run.transfer_passes;
    transfer_filters_built += run.transfer_filters_built;
    transfer_probes += run.transfer_probes;
    transfer_hits += run.transfer_hits;
    transfer_rows_eliminated += run.transfer_rows_eliminated;
    transfer_chunks_refuted += run.transfer_chunks_refuted;
    transfer_filter_bytes += run.transfer_filter_bytes;
    transfer_build_ns += run.transfer_build_ns;
    if (level_rows.size() < run.level_rows.size()) {
      level_rows.resize(run.level_rows.size(), 0);
    }
    for (size_t i = 0; i < run.level_rows.size(); ++i) {
      level_rows[i] += run.level_rows[i];
    }
    cancel_checks = run.cancel_checks;
    budget_bytes_peak = run.budget_bytes_peak;
    workers = run.workers;
    rows_joined_per_worker = run.rows_joined_per_worker;
    busy_us_per_worker = run.busy_us_per_worker;
    execute_us += run.execute_us;
    finalize_us += run.finalize_us;
  }

  void Reset() { *this = ExecStats(); }
  std::string ToString() const;
};

}  // namespace iceberg

#endif  // SMARTICEBERG_EXEC_EXEC_OPTIONS_H_
