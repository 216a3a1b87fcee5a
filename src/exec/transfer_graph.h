#ifndef SMARTICEBERG_EXEC_TRANSFER_GRAPH_H_
#define SMARTICEBERG_EXEC_TRANSFER_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/exec/governor.h"
#include "src/plan/query_block.h"
#include "src/storage/table.h"

namespace iceberg {

/// The *shape* of one block's transfer graph, recorded into PlanTrace so a
/// plan-cache hit replays the graph construction (edge set, cost-ranked
/// node order, observed fixpoint bound) instead of re-deriving it. Only
/// structure is stored — the Bloom filters themselves depend on table
/// *data* and are always rebuilt per statement.
struct TransferSchedule {
  struct Edge {
    uint32_t a_level = 0;  // lower FROM level of the joined pair
    uint32_t b_level = 0;  // higher FROM level
    std::vector<uint32_t> a_cols;  // table-local key columns, aligned with
    std::vector<uint32_t> b_cols;  // b_cols pairwise (composite edge key)
  };
  std::vector<Edge> edges;
  /// Node visit order (FROM-level indexes) used for the sweeps.
  std::vector<uint32_t> order;
  /// Sweeps the capture run needed to reach its fixpoint; replay caps at
  /// this instead of the exploratory default.
  uint32_t passes = 0;
  bool valid = false;
};

/// Knobs for BuildTransferGraph, filled by the caller (JoinPipeline::Plan)
/// from the query's ExecOptions.
struct TransferPlanOptions {
  bool enabled = true;
  /// TaskPool width for morsel-wise filter builds and probe passes over
  /// large relations (1 = inline, no pool).
  int num_threads = 1;
  /// Cap on fixpoint sweeps (one sweep = every node probed against all of
  /// its neighbors' filters, alternating forward/backward over the ranked
  /// order). Cyclic join graphs keep shaving rows each round; the cap
  /// bounds plan time. Fixpoint usually lands in 2-3 sweeps.
  int max_passes = 6;
  /// Consult column-chunk zone maps to refute whole chunks against a
  /// transferred key range before probing row-by-row (off when the
  /// vectorized paths are disabled, so no chunks are built just for this).
  bool use_zone_maps = true;
  /// Advisory governor for filter memory; a refused reservation stops
  /// further sweeps (graceful degradation to fewer passes).
  QueryGovernor* governor = nullptr;
  /// Plan-cache integration (both borrowed, may be null).
  TransferSchedule* capture = nullptr;
  const TransferSchedule* replay = nullptr;
  /// When `prebuilt_valid`, JoinPipeline::Plan adopts `prebuilt` (which may
  /// be null: transfer ran and was structurally inapplicable) instead of
  /// building the graph itself. The cost-based optimizer uses this to run
  /// transfer *before* join ordering — survivor counts feed the enumerator
  /// and the already-built selections are permuted alongside the block.
  bool prebuilt_valid = false;
  std::shared_ptr<const class TransferResult> prebuilt;
};

/// Counters of one BuildTransferGraph run, folded into ExecStats /
/// metrics by the executor.
struct TransferStats {
  size_t passes = 0;            // sweeps executed (fixpoint or cap)
  size_t filters_built = 0;     // Bloom filters constructed (incl. rebuilds)
  size_t probes = 0;            // keys tested against a transferred filter
  size_t hits = 0;              // probes that passed (maybe-present)
  size_t rows_eliminated = 0;   // rows the pipeline will skip via selections
  size_t chunks_refuted = 0;    // whole chunks refuted by zone-vs-key-range
  size_t filter_bytes = 0;      // peak bytes reserved for Bloom filters
  int64_t build_ns = 0;         // wall time of the whole graph build
  bool degraded = false;        // governor pressure cut the sweeps short
  bool replayed_schedule = false;  // graph shape came from a PlanTrace
};

class TransferResult;
using TransferResultPtr = std::shared_ptr<const TransferResult>;

/// The outcome of predicate transfer over one query block: a keep/drop
/// bitmap per FROM level (empty bitmap = nothing eliminated there, all
/// rows pass). Immutable after build and shared by every Run call of the
/// owning pipeline; thread-safe.
///
/// Soundness: a row is dropped only when its join key provably has no
/// partner on some edge (Bloom misses never lie in that direction), or a
/// key column is NULL (SQL equality can never hold), or the row fails the
/// relation's own local predicates (which the scan would drop later
/// anyway). False positives keep extra rows that the real join predicates
/// then reject — results are byte-identical with transfer on or off.
///
/// A-priori reducer selections on the block's FROM entries
/// (BoundTableRef::selection) seed the per-level bitmaps: transfer starts
/// each seeded relation from its seed and carries it across the join
/// edges, so every bitmap is a subset of its seed.
///
/// The selections are baked against a version snapshot of *every* table in
/// the block (transfer moves information across relations, so one mutated
/// table invalidates all selections). Live() re-checks the snapshot;
/// consumers must ignore the selections once it returns false. A result
/// holding seeds alone (transfer off or inapplicable) pins only the seeded
/// tables. Ignoring a selection is always exact: a transfer drop is a
/// provable non-partner and a seed drop is an optional a-priori
/// reduction (Theorem 2).
class TransferResult {
 public:
  ~TransferResult();
  TransferResult(const TransferResult&) = delete;
  TransferResult& operator=(const TransferResult&) = delete;

  /// True when some rows of `level` were eliminated (a bitmap exists).
  bool HasSelection(size_t level) const {
    return level < keep_.size() && !keep_[level].empty();
  }
  /// Whether `row` of `level` survived (true when no bitmap exists).
  bool Keep(size_t level, size_t row) const {
    if (level >= keep_.size() || keep_[level].empty()) return true;
    return keep_[level][row] != 0;
  }
  size_t KeptRows(size_t level) const { return kept_[level]; }
  size_t TotalRows(size_t level) const { return total_[level]; }

  /// True while every participating table still matches the plan-time
  /// version snapshot.
  bool Live() const;

  /// True when at least one level has a selection (transfer did work that
  /// Run should consult).
  bool AnySelection() const { return any_selection_; }

  const TransferStats& stats() const { return stats_; }

  /// One-line EXPLAIN summary, e.g.
  /// "nodes=3 edges=2 passes=2 eliminated=812/4096 (19.8%)".
  std::string Summary() const;

 private:
  friend class TransferGraphBuilder;
  friend TransferResultPtr PermuteTransferResult(
      const TransferResultPtr& result, const std::vector<size_t>& order);
  TransferResult() = default;

  std::vector<std::vector<uint8_t>> keep_;  // per level; empty = all kept
  std::vector<size_t> kept_;
  std::vector<size_t> total_;
  std::vector<std::pair<const Table*, uint64_t>> versions_;
  bool any_selection_ = false;
  TransferStats stats_;
  size_t gauge_bytes_ = 0;  // live bytes tracked in transfer.filter_bytes
};

/// Re-indexes a transfer result onto a permuted FROM order (new level p
/// holds what old level order[p] held) so selections built before join
/// reordering stay usable by the reordered pipeline. Returns null for
/// null input. The copy does not adopt the original's byte-gauge
/// accounting (the original's destructor settles the metric).
TransferResultPtr PermuteTransferResult(const TransferResultPtr& result,
                                        const std::vector<size_t>& order);

/// Builds the block's join graph (nodes = FROM relations, edges =
/// cross-relation equality conjuncts between plain columns, composite keys
/// packed with the PackedKey codecs), seeds each node's selection from its
/// own single-relation predicates, then propagates Bloom filters over the
/// edges in a cost-ranked order — forward sweep, backward sweep, iterating
/// to a fixpoint or the pass cap — so every relation is pre-shrunk to the
/// rows that can possibly contribute to the join result.
///
/// When transfer is off (per query or via PredicateTransferEnabled()) or
/// structurally inapplicable (fewer than two relations, no usable equi-join
/// edge, or only self-edges that provably cannot eliminate anything), the
/// result carries the block's a-priori seeds alone, or is null when there
/// are none. A non-null result may still carry no selections (stats only)
/// when the fixpoint eliminated nothing.
TransferResultPtr BuildTransferGraph(const QueryBlock& block,
                                     const TransferPlanOptions& options);

}  // namespace iceberg

#endif  // SMARTICEBERG_EXEC_TRANSFER_GRAPH_H_
