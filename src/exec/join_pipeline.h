#ifndef SMARTICEBERG_EXEC_JOIN_PIPELINE_H_
#define SMARTICEBERG_EXEC_JOIN_PIPELINE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/exec/exec_options.h"
#include "src/exec/governor.h"
#include "src/exec/key_codec.h"
#include "src/exec/transfer_graph.h"
#include "src/expr/compiled.h"
#include "src/plan/query_block.h"
#include "src/storage/column_chunk.h"
#include "src/storage/table.h"

namespace iceberg {

/// How one FROM relation is attached to the left-deep join pipeline.
enum class JoinMethod {
  kSeqScan,           // level 0, or no usable predicate (block NLJ)
  kHashIndexProbe,    // existing hash index matched the equality keys
  kOrderedIndexProbe, // existing ordered (B-tree) index matched eq keys
  kHashJoin,          // hash table built on the fly for equality keys
  kOrderedIndexRange, // B-tree range probe driven by an inequality bound
};

const char* JoinMethodName(JoinMethod method);

/// Per-level physical join choice made by PlanJoins.
struct JoinLevel {
  size_t table_index = 0;
  JoinMethod method = JoinMethod::kSeqScan;

  // Equality probing (kHashIndexProbe / kOrderedIndexProbe / kHashJoin):
  // probe_exprs evaluate on the partial (outer) row, in the key order of
  // `inner_eq_columns` (table-local column ids).
  std::vector<ExprPtr> probe_exprs;
  std::vector<size_t> inner_eq_columns;
  const HashIndex* hash_index = nullptr;        // borrowed from the table
  const OrderedIndex* ordered_eq_index = nullptr;
  std::shared_ptr<HashIndex> built_hash;        // owned, for kHashJoin

  // Inequality range probing (kOrderedIndexRange): the index's first key
  // column is bounded by `bound_expr` evaluated on the partial row.
  const OrderedIndex* range_index = nullptr;
  ExprPtr bound_expr;
  bool is_lower_bound = true;  // true: inner.col >= bound, false: <=

  // Residual predicates checked after the level's row is appended.
  std::vector<ExprPtr> residual;

  // Compiled programs for the level's expressions.
  std::vector<CompiledExpr> residual_progs;
  std::vector<CompiledExpr> probe_progs;
  CompiledExpr bound_prog;

  // Columnar projection of the level's table for vectorized kSeqScan
  // levels (null = row-at-a-time). Set only when every residual program is
  // batchable; Run revalidates the snapshot version against the table and
  // falls back to rows on mismatch.
  ColumnChunkSetPtr chunks;

  // Cost-model estimate of the cumulative joined rows surviving this level
  // (-1 = not annotated). EXPLAIN renders it; EXPLAIN ANALYZE pairs it
  // with the measured ExecStats::level_rows.
  double est_rows = -1.0;
};

/// Optional per-level advice from the cost-based optimizer to Plan.
struct PipelinePlanHints {
  /// Levels (by pipeline position) whose scan should stay row-at-a-time
  /// even when a vectorized chunk projection could be attached: the
  /// estimator expects too few scan invocations × rows for the batch setup
  /// to amortize. Entries beyond the FROM list are ignored.
  std::vector<uint8_t> prefer_row_scan;
};

/// A compiled left-deep join pipeline over the block's FROM list, in FROM
/// order. Thread-safe for concurrent Run calls after Prepare (all mutable
/// state lives in the per-call stack).
class JoinPipeline {
 public:
  /// Chooses a physical join method per level. When `use_indexes` is false
  /// only kSeqScan/kHashJoin are considered (the paper's "PK only"
  /// configuration in Fig. 4). `vectorize` (ANDed with the process-wide
  /// chicken bits) enables the columnar scan paths: column-chunk
  /// projections for batchable kSeqScan filters. `transfer` configures the
  /// predicate-transfer graph (fixpoint Bloom propagation across every
  /// equi-join edge; see transfer_graph.h) whose per-relation selections
  /// the planned pipeline executes over — ANDed with the process-wide
  /// PredicateTransferEnabled() chicken bit. `governor`, when given, is
  /// charged (advisory) for chunk and filter bytes; under pressure the
  /// plan quietly degrades (row path, fewer transfer passes).
  /// `hints`, when given, carries the cost-based optimizer's per-level
  /// physical advice (currently: keep a scan row-at-a-time).
  static Result<JoinPipeline> Plan(const QueryBlock& block, bool use_indexes,
                                   bool vectorize = true,
                                   QueryGovernor* governor = nullptr,
                                   const TransferPlanOptions& transfer = {},
                                   const PipelinePlanHints* hints = nullptr);

  using RowCallback = std::function<void(const Row&)>;

  /// Streams every joined row whose level-0 row id is in
  /// [outer_begin, outer_end) to the callback. When `governor` is set, a
  /// full governance check runs per outer tuple, joined rows are counted
  /// against the intermediate-row limit, and inner loops bail out as soon
  /// as the governor is poisoned; the tripping status is returned.
  Status Run(size_t outer_begin, size_t outer_end,
             const RowCallback& callback, ExecStats* stats,
             QueryGovernor* governor = nullptr) const;

  /// Number of rows of the outer (level-0) table.
  size_t OuterSize() const;

  /// The predicate-transfer outcome of Plan (null when transfer was off or
  /// structurally inapplicable). Its plan-time stats are folded into the
  /// run's ExecStats once per Execute (the pipeline may Run many morsels);
  /// Run consults its selections only while Live() holds.
  const TransferResultPtr& transfer() const { return transfer_; }

  /// Attaches the enumerator's cumulative per-level row estimates (indexed
  /// by pipeline level) for EXPLAIN / EXPLAIN ANALYZE rendering.
  void AnnotateEstimates(const std::vector<double>& est_rows);

  std::string Explain() const;

 private:
  JoinPipeline(const QueryBlock& block, QueryGovernor* governor)
      : block_(&block), chunk_bytes_(governor) {}

  /// Per-Run mutable state (the pipeline itself stays immutable and
  /// thread-safe): one evaluation stack plus one reusable probe-key row
  /// per level, so the inner loops never allocate. `sel` is one selection
  /// vector per level (a level iterates its survivors while deeper levels
  /// run their own batches); `batch` is shared, as FilterBatch never
  /// overlaps a recursive call.
  struct RunScratch {
    EvalScratch eval;
    std::vector<Row> probe_keys;             // indexed by level
    std::vector<std::vector<uint32_t>> sel;  // indexed by level
    BatchScratch batch;
    /// Transfer selections for this Run, resolved once per call: null when
    /// transfer is off, eliminated nothing, or a participating table
    /// mutated after planning (Live() failed — all selections stand down).
    const TransferResult* transfer = nullptr;
  };

  void RunLevel(size_t level, Row* partial, const RowCallback& callback,
                ExecStats* stats, QueryGovernor* governor,
                RunScratch* scratch) const;

  const QueryBlock* block_;
  std::vector<JoinLevel> levels_;
  TransferResultPtr transfer_;
  // Governor charge for the attached column chunks, held while the
  // pipeline lives.
  GovernorReservation chunk_bytes_;
};

}  // namespace iceberg

#endif  // SMARTICEBERG_EXEC_JOIN_PIPELINE_H_
