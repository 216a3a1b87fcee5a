#ifndef SMARTICEBERG_EXEC_AGGREGATOR_H_
#define SMARTICEBERG_EXEC_AGGREGATOR_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/exec/exec_options.h"
#include "src/exec/key_codec.h"
#include "src/expr/aggregate.h"
#include "src/expr/compiled.h"
#include "src/expr/evaluator.h"
#include "src/plan/query_block.h"
#include "src/storage/table.h"

namespace iceberg {

/// A block's HAVING and select list, compiled once per operator: the
/// finalization step shared by the aggregator, the executor's
/// non-aggregated projection and the NLJP operator's Q_P.
class CompiledProjection {
 public:
  CompiledProjection() = default;  // projects to an empty row
  explicit CompiledProjection(const QueryBlock& block);

  /// Unless HAVING rejects `row`, projects it through the select list into
  /// `out` and returns true. `agg_values` holds the group's aggregate
  /// values (null for a non-aggregated block).
  bool Project(const Row& row, const AggValueMap* agg_values,
               EvalScratch* scratch, Row* out) const;

 private:
  CompiledExpr having_;  // invalid when the block has no HAVING
  std::vector<CompiledExpr> select_;
};

/// Hash-aggregation state shared by the baseline executor and the NLJP
/// post-processing stage: groups joined rows by the block's GROUP BY keys,
/// maintains one Accumulator per aggregate subexpression of HAVING and the
/// select list, then applies HAVING and projects.
///
/// The hot path (AddRow) evaluates group keys and aggregate arguments
/// through compiled expression programs and, when every key column is
/// statically numeric, keys the group map with fixed-width PackedKeys
/// (memcmp equality, word-mix hash) instead of Rows. String keys keep the
/// Row-keyed map; the two maps are never populated for the same query.
class Aggregator {
 public:
  /// Collects the aggregate nodes of `block` (HAVING first, then select
  /// items). The block must outlive the aggregator.
  explicit Aggregator(const QueryBlock& block);
  ~Aggregator();
  Aggregator(const Aggregator&) = delete;
  Aggregator& operator=(const Aggregator&) = delete;

  /// Charges group-state growth against `governor`'s memory budget
  /// (aggregation state is mandatory: an overrun poisons the governor and
  /// AddRow stops accepting rows). Reserved bytes are released when the
  /// aggregator is destroyed.
  void SetGovernor(QueryGovernor* governor) { governor_ = governor; }

  /// True if the block needs grouping/aggregation at all.
  bool IsAggregated() const;

  /// Folds one joined row into its group.
  void AddRow(const Row& joined_row);

  /// Merges the groups of another aggregator (parallel workers).
  void MergeFrom(Aggregator&& other);

  /// Applies HAVING, projects the select list, returns the result table.
  /// `stats` (optional) receives groups_created / groups_output.
  /// Emits the grouped result (HAVING + projection). Wall time is recorded
  /// into stats->finalize_us and the agg.finalize_us histogram — HAVING-
  /// after-full-join is exactly the cost the iceberg optimizer avoids.
  Result<TablePtr> Finalize(ExecStats* stats) const;

  size_t num_groups() const { return groups_.size() + packed_groups_.size(); }

  /// EXPLAIN annotation: "packed[2 cols, 18B]" or "row".
  std::string KeySummary() const { return codec_.Summary(); }

 private:
  Result<TablePtr> FinalizeInternal(ExecStats* stats) const;

  struct GroupState {
    Row representative;  // any row of the group (group keys are constant)
    std::vector<Accumulator> accumulators;
  };

  /// Evaluates the GROUP BY keys of `joined_row` into key_scratch_.
  void EvalKeys(const Row& joined_row);

  /// Reserves one group's footprint against the governor. `key_bytes` is
  /// what RowBytes would charge for the Row-materialized key, so accounting
  /// is identical whether the map is packed- or Row-keyed.
  bool ReserveGroup(const Row& joined_row, size_t key_bytes);

  GroupState MakeState(const Row& joined_row) const;
  void Accumulate(GroupState* state, const Row& joined_row);

  const QueryBlock& block_;
  std::vector<ExprPtr> agg_nodes_;
  std::vector<CompiledExpr> group_progs_;
  // Parallel to agg_nodes_; invalid for COUNT(*), which has no argument.
  std::vector<CompiledExpr> arg_progs_;
  KeyCodec codec_;

  // Exactly one of the two maps is used per query: the packed one when
  // codec_ is usable.
  std::unordered_map<Row, GroupState, RowHash, RowEq> groups_;
  std::unordered_map<PackedKey, GroupState, PackedKeyHash, PackedKeyEq>
      packed_groups_;

  // Per-AddRow scratch, reused across calls (Aggregator is single-threaded;
  // parallel plans run one per worker and MergeFrom).
  EvalScratch scratch_;
  Row key_scratch_;
  PackedKey packed_scratch_;

  QueryGovernor* governor_ = nullptr;
  size_t reserved_bytes_ = 0;
  bool reserve_failed_ = false;
};

}  // namespace iceberg

#endif  // SMARTICEBERG_EXEC_AGGREGATOR_H_
