#ifndef SMARTICEBERG_EXEC_EXECUTOR_H_
#define SMARTICEBERG_EXEC_EXECUTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/exec/exec_options.h"
#include "src/plan/query_block.h"
#include "src/storage/table.h"

namespace iceberg {

/// Executes bound query blocks with conventional relational plans: a
/// left-deep join pipeline (indexed nested-loop / hash / block nested-loop),
/// hash aggregation, HAVING filter, projection. This is the baseline engine
/// the Smart-Iceberg optimizer is compared against; it evaluates the full
/// join before applying the (typically highly selective) HAVING condition,
/// exactly like the PostgreSQL and Vendor A plans in the paper's Appendix E.
class Executor {
 public:
  explicit Executor(ExecOptions options = ExecOptions())
      : options_(options) {}

  const ExecOptions& options() const { return options_; }

  /// Runs the block and materializes the result. Per-run totals are
  /// accumulated into `stats` (when given) and published as exec.* metrics
  /// in the global registry; both see the same run-local numbers, so
  /// EXPLAIN ANALYZE and \metrics reconcile exactly.
  Result<TablePtr> Execute(const QueryBlock& block,
                           ExecStats* stats = nullptr);

  /// Renders the physical plan that Execute would choose, in an
  /// EXPLAIN-like indented format.
  std::string Explain(const QueryBlock& block) const;

 private:
  Result<TablePtr> ExecuteInternal(const QueryBlock& block, ExecStats* stats);

  ExecOptions options_;
};

}  // namespace iceberg

#endif  // SMARTICEBERG_EXEC_EXECUTOR_H_
