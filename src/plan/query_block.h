#ifndef SMARTICEBERG_PLAN_QUERY_BLOCK_H_
#define SMARTICEBERG_PLAN_QUERY_BLOCK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/catalog/fd.h"
#include "src/catalog/schema.h"
#include "src/common/status.h"
#include "src/expr/expr.h"
#include "src/storage/table.h"

namespace iceberg {

/// A relation as seen by the binder: the materialized table plus metadata
/// the optimizer reasons with (functional dependencies, declared key).
struct CatalogEntry {
  TablePtr table;
  FdSet fds;  // per-table FDs, unqualified column names
};

/// Resolves a relation name to its catalog entry (base tables, CTE results,
/// or temp tables created by rewrites).
using TableResolver =
    std::function<Result<CatalogEntry>(const std::string& name)>;

/// An exact subset of one table's rows: a keep-bitmap built against one
/// table version. Generalized a-priori (Section 4) reduces a relation to
/// the rows whose G_L key survives the reducer; the reduced FROM entry
/// keeps the original TablePtr (so its indexes, column chunks and
/// statistics are reused) and carries the survivors as a selection.
/// Every JoinPipeline over the block seeds its predicate-transfer
/// selections with it (transfer_graph.h).
struct RowSelection {
  std::vector<uint8_t> keep;  // indexed by row id; 1 = the row is kept
  size_t kept = 0;
  uint64_t version = 0;  // table version the bitmap was built against

  /// True while `table` is still the version the bitmap describes; a
  /// stale selection is ignored (applying a reducer is optional).
  bool LiveFor(const Table& table) const {
    return table.version() == version && table.num_rows() == keep.size();
  }
};
using RowSelectionPtr = std::shared_ptr<const RowSelection>;

/// One bound FROM entry. `offset` is the position of this table's first
/// column in the concatenated evaluation row used by join operators.
struct BoundTableRef {
  std::string alias;  // lower-cased, unique within the block
  TablePtr table;
  FdSet fds;       // table FDs (unqualified)
  size_t offset = 0;
  /// Rows of `table` this entry ranges over; null = every row.
  RowSelectionPtr selection;

  /// `selection` while it still describes `table`, else null.
  const RowSelection* LiveSelection() const {
    return selection != nullptr && selection->LiveFor(*table)
               ? selection.get()
               : nullptr;
  }
};

struct BoundSelectItem {
  ExprPtr expr;
  std::string alias;  // output column name (never empty after binding)
};

/// The bound form of one SELECT block: the generic iceberg query template of
/// the paper's Listing 5, generalized to N relations in FROM.
///
/// All expressions are bound: column refs carry resolved_index = flat offset
/// into the concatenation of the FROM tables' rows, in FROM order.
struct QueryBlock {
  std::vector<BoundTableRef> tables;
  std::vector<ExprPtr> where_conjuncts;  // WHERE split into conjuncts
  std::vector<ExprPtr> group_by;
  ExprPtr having;  // nullptr when absent
  std::vector<BoundSelectItem> select;
  bool distinct = false;

  /// ORDER BY resolved to output-column ordinals, applied after
  /// projection; LIMIT truncates afterwards (-1 = none).
  struct OrderSpec {
    size_t output_column = 0;
    bool ascending = true;
  };
  std::vector<OrderSpec> order_by;
  int64_t limit = -1;

  Schema output_schema;

  /// Total width of the concatenated evaluation row.
  size_t TotalWidth() const;

  /// Index of the table (into `tables`) whose column range contains the
  /// given flat offset.
  size_t TableOfOffset(size_t flat_offset) const;

  /// Qualified name "alias.column" for a flat offset.
  std::string QualifiedNameOfOffset(size_t flat_offset) const;

  /// Lifted FDs of all FROM tables (qualified with aliases) plus
  /// equivalences implied by equality predicates in WHERE. This is the FD
  /// set Theorems 2/3 and the Appendix D inference reason over.
  FdSet QueryFds() const;

  /// All qualified attribute names of the given tables (by index).
  AttrSet AttributesOf(const std::vector<size_t>& table_indexes) const;

  std::string ToString() const;
};

/// Binds a parsed SELECT against a resolver. FROM-subqueries must already
/// have been materialized and replaced by named temp tables by the caller
/// (see engine::Database).
class Binder {
 public:
  explicit Binder(TableResolver resolver) : resolver_(std::move(resolver)) {}

  Result<QueryBlock> Bind(const struct ParsedSelect& select);

 private:
  Status BindExpr(const ExprPtr& expr, const QueryBlock& block);

  TableResolver resolver_;
};

/// Infers the output type of a bound expression. Column types come from the
/// referenced table schemas (captured at bind time in `types_by_offset`).
DataType InferType(const ExprPtr& expr,
                   const std::vector<DataType>& types_by_offset);

}  // namespace iceberg

#endif  // SMARTICEBERG_PLAN_QUERY_BLOCK_H_
