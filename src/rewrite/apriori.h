#ifndef SMARTICEBERG_REWRITE_APRIORI_H_
#define SMARTICEBERG_REWRITE_APRIORI_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/exec/executor.h"
#include "src/rewrite/iceberg_view.h"

namespace iceberg {

/// A verified generalized-a-priori rewrite for one side of an iceberg view
/// (Section 4): the L side can be replaced by
///
///   L' = L semijoin (SELECT G_L FROM L GROUP BY G_L HAVING Phi)
///
/// Safety was established by Theorem 2's schema-based checks:
///  - monotone Phi and G_R union J_R^= a superkey of R, or
///  - anti-monotone Phi and G_L -> J_L.
struct AprioriOpportunity {
  TablePartition partition;  // the reduced side is `partition.left`
  Monotonicity monotonicity = Monotonicity::kNeither;
  std::string safety_reason;

  /// The reducer query over the L side (bound, ready for the executor);
  /// its select list is exactly the G_L columns.
  QueryBlock reducer_block;

  /// How the reducer's output filters individual tables: table
  /// `table_index` keeps only rows whose `local_key_columns` projection
  /// appears among the reducer's `reducer_positions` columns. Tables owning
  /// no G_L column are left untouched (per the paper's "subset of T_L with
  /// at least one attribute output by Q_L").
  struct TableApplication {
    size_t table_index = 0;
    std::vector<size_t> local_key_columns;
    std::vector<size_t> reducer_positions;
  };
  std::vector<TableApplication> applications;

  /// Reducer in SQL-ish text (for EXPLAIN / the paper's Q_{S1} listings).
  std::string ToString() const;
};

/// Checks whether a-priori is safe for the L side of `view` (Theorem 2) and
/// constructs the reducer. Fails with NotSupported (and a human-readable
/// reason) when any premise fails.
Result<AprioriOpportunity> CheckApriori(const IcebergView& view);

/// One table of an applied reducer: its FROM index, its row count before
/// and after, and the rows it keeps as an exact selection over the
/// original table (null when the reducer keeps every row).
struct AprioriSelection {
  size_t table_index = 0;
  size_t rows_before = 0;
  size_t rows_after = 0;
  RowSelectionPtr selection;
};

/// Executes the reducer and returns, per application, the selection of the
/// original table's rows whose key share appears among the reducer's
/// output. No table is copied. `reducer_rows_out`, when non-null, receives
/// the reducer's result cardinality.
Result<std::vector<AprioriSelection>> ApplyApriori(
    const AprioriOpportunity& opportunity, Executor* executor,
    size_t* reducer_rows_out = nullptr);

}  // namespace iceberg

#endif  // SMARTICEBERG_REWRITE_APRIORI_H_
