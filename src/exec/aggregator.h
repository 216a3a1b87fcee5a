#ifndef SMARTICEBERG_EXEC_AGGREGATOR_H_
#define SMARTICEBERG_EXEC_AGGREGATOR_H_

#include <array>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "src/common/status.h"
#include "src/exec/exec_options.h"
#include "src/exec/key_codec.h"
#include "src/exec/task_pool.h"
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

/// Hash-aggregation state of the baseline executor: groups joined rows by
/// the block's GROUP BY keys, keeps the state of every aggregate
/// subexpression of HAVING and the select list, then applies HAVING and
/// projects.
///
/// The state is flat and split into kPartitions radix partitions by the
/// top bits of the key hash. Each partition maps a key to a dense group id
/// through an open-addressing index and keeps per-group arrays indexed by
/// that id: the key (fixed-width PackedKey bytes when every key column is
/// statically numeric, a Row otherwise), the *carried* columns (the flat
/// offsets HAVING or the select list read outside aggregate calls), and
/// fixed-width aggregate state (counts, sums, extremes; COUNT DISTINCT
/// keeps a side set). A numeric-keyed group costs no heap allocation.
///
/// Parallel plans run one aggregator per worker. Finalize merges,
/// finalizes and sorts each partition as its own task, then merges the
/// sorted partitions pairwise in parallel rounds, so after the join only
/// the last merge round and the DISTINCT dedup run on one thread.
class Aggregator {
 public:
  /// Radix partitions per aggregator: enough tasks for the merge to
  /// balance across workers, few enough that tiny inputs stay cheap.
  static constexpr int kRadixBits = 6;
  static constexpr size_t kPartitions = size_t{1} << kRadixBits;

  /// Collects the aggregate nodes of `block` (HAVING first, then select
  /// items). The block must outlive the aggregator.
  explicit Aggregator(const QueryBlock& block);
  ~Aggregator();
  Aggregator(const Aggregator&) = delete;
  Aggregator& operator=(const Aggregator&) = delete;

  /// True if the block needs grouping/aggregation at all.
  static bool IsAggregated(const QueryBlock& block);

  /// Charges group-state growth against `governor`'s memory budget
  /// (aggregation state is mandatory: an overrun poisons the governor and
  /// AddRow stops accepting rows). Reserved bytes are released when the
  /// aggregator is destroyed.
  void SetGovernor(QueryGovernor* governor) { governor_ = governor; }

  /// Folds one joined row into its group.
  void AddRow(const Row& joined_row);

  /// Merges the per-worker aggregators `parts` (all over the same block)
  /// partition by partition, applies HAVING, projects the select list and
  /// returns the rows in canonical RowLess order (DISTINCT deduplicated).
  /// Runs one task per partition on `pool` and leaves `parts` empty.
  /// `stats` (optional) receives groups_created / groups_output and the
  /// wall time in finalize_us (also the agg.finalize_us histogram).
  static Result<TablePtr> Finalize(
      const std::vector<std::unique_ptr<Aggregator>>& parts, TaskPool* pool,
      ExecStats* stats);

 private:
  /// One radix partition. Every per-group array is indexed by group id;
  /// the strides come from the owning aggregator.
  struct Partition {
    std::vector<uint32_t> index;   // group id + 1 per slot, 0 = empty
    std::vector<uint32_t> hashes;  // per group: low 32 bits of the hash
    std::vector<uint8_t> packed_keys;  // packed keys, key_width_ each
    std::vector<Row> row_keys;         // Row keys (codec unusable)
    std::vector<Value> carried;        // carried_.size() each
    std::vector<int64_t> counts;       // num_numeric_ each
    std::vector<double> sums;          // num_numeric_ each
    std::vector<uint8_t> sum_is_int;   // num_numeric_ each
    std::vector<Value> extremes;       // num_extremes_ each
    std::vector<std::set<Value>> distinct;  // num_distinct_ each

    size_t size() const { return hashes.size(); }
  };

  /// A key to look up: packed bytes, or a Row when the codec is unusable.
  struct KeyRef {
    const uint8_t* packed;
    const Row* row;
  };

  /// Where one aggregate's state lives: `at` indexes the per-group array
  /// of its kind (counts/sums for COUNT, SUM and AVG; extremes for MIN and
  /// MAX; distinct for COUNT DISTINCT).
  struct AggSlot {
    AggFunc func;
    uint32_t at;
  };

  static constexpr uint32_t kNotFound = UINT32_MAX;

  KeyRef KeyAt(const Partition& part, uint32_t group) const;
  bool KeysEqual(KeyRef a, KeyRef b) const;

  /// Returns the group id of `key`, or kNotFound with `*slot` set to the
  /// empty index slot where it belongs.
  uint32_t Find(const Partition& part, uint32_t hash, KeyRef key,
                size_t* slot) const;
  /// Appends a group with empty aggregate state (the caller appends its
  /// carried values) at the empty `slot` Find returned; may grow the index.
  uint32_t Insert(Partition* part, size_t slot, uint32_t hash,
                  KeyRef key) const;
  /// Folds group `from_group` of `from` into group `group` of `part`.
  void MergeGroup(Partition* part, uint32_t group, Partition* from,
                  uint32_t from_group) const;
  /// Merges `from` into `part` and frees `from`.
  void MergePartition(Partition* part, Partition* from) const;
  /// The final value of aggregate `i` for `group`.
  Value Final(const Partition& part, uint32_t group, size_t i) const;

  /// Reserves one group's footprint against the governor.
  bool ReserveGroup(const Row& joined_row);

  const QueryBlock& block_;
  std::vector<ExprPtr> agg_nodes_;
  std::vector<AggSlot> slots_;  // parallel to agg_nodes_
  std::vector<CompiledExpr> group_progs_;
  // Parallel to agg_nodes_; invalid for COUNT(*), which has no argument.
  std::vector<CompiledExpr> arg_progs_;
  std::vector<size_t> carried_;  // flat offsets, ascending
  KeyCodec codec_;
  size_t key_width_ = 0;  // packed key bytes (codec usable)
  size_t num_numeric_ = 0;
  size_t num_extremes_ = 0;
  size_t num_distinct_ = 0;
  size_t group_bytes_ = 0;  // fixed per-group footprint

  std::array<Partition, kPartitions> partitions_;

  // Per-AddRow scratch, reused across calls (an aggregator is
  // single-threaded; parallel plans run one per worker).
  EvalScratch scratch_;
  Row key_scratch_;
  PackedKey packed_scratch_;

  QueryGovernor* governor_ = nullptr;
  size_t reserved_bytes_ = 0;
  bool reserve_failed_ = false;
};

}  // namespace iceberg

#endif  // SMARTICEBERG_EXEC_AGGREGATOR_H_
