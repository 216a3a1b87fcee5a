#ifndef SMARTICEBERG_ENGINE_DATABASE_H_
#define SMARTICEBERG_ENGINE_DATABASE_H_

#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/exec/executor.h"
#include "src/optimizer/iceberg_optimizer.h"
#include "src/parser/parser.h"
#include "src/plan/query_block.h"
#include "src/storage/table.h"

namespace iceberg {

/// The public facade of the Smart-Iceberg library: a small in-memory
/// database with a SQL-subset front end, a conventional baseline executor
/// (PostgreSQL- or "Vendor A"-style), and the Smart-Iceberg optimizer that
/// applies generalized a-priori, memoization, and NLJP pruning
/// automatically.
///
/// Typical usage:
///
///   Database db;
///   db.CreateTable("object", Schema({{"id", DataType::kInt64},
///                                    {"x", DataType::kInt64},
///                                    {"y", DataType::kInt64}}));
///   db.DeclareKey("object", {"id"});
///   db.Insert("object", {Value::Int(1), Value::Int(3), Value::Int(5)});
///   auto result = db.QueryIceberg(
///       "SELECT L.id, COUNT(*) FROM object L, object R "
///       "WHERE L.x <= R.x AND L.y <= R.y AND (L.x < R.x OR L.y < R.y) "
///       "GROUP BY L.id HAVING COUNT(*) <= 50");
class Database {
 public:
  Database() = default;

  // ---- Schema management ----
  Status CreateTable(const std::string& name, Schema schema);
  /// Registers an existing table (e.g. from a workload generator).
  Status RegisterTable(TablePtr table);
  /// Declares `columns` a key: adds the FD columns -> all columns.
  Status DeclareKey(const std::string& table, const std::vector<std::string>& columns);
  /// Declares an arbitrary functional dependency lhs -> rhs.
  Status DeclareFd(const std::string& table, const std::vector<std::string>& lhs,
                   const std::vector<std::string>& rhs);
  Status Insert(const std::string& table, Row row);
  Status CreateOrderedIndex(const std::string& table, const std::vector<std::string>& columns);
  Status CreateHashIndex(const std::string& table, const std::vector<std::string>& columns);
  Result<TablePtr> GetTable(const std::string& name) const;
  Result<CatalogEntry> GetEntry(const std::string& name) const;
  /// Drops all secondary indexes of a table (Fig. 4 experiments).
  Status DropIndexes(const std::string& table);

  /// Pins a snapshot of every registered table: (lower-cased name,
  /// snapshot). The serving layer calls this under its catalog read lock
  /// when a query is submitted, and re-validates the pins when execution
  /// starts, so mutations that landed while the query was queued surface
  /// as a clean retryable conflict.
  std::vector<std::pair<std::string, TableSnapshot>> SnapshotTables() const;

  /// Order-independent fingerprint of all table versions; changes whenever
  /// any registered table mutates. Used (with the query fingerprint) to
  /// key cross-query caches so they invalidate lazily on mutation.
  uint64_t CatalogVersionHash() const;

  // ---- Query execution ----
  /// Parses and runs `sql` on the baseline executor (full join, then
  /// grouping, then HAVING). CTEs and FROM-subqueries are materialized.
  /// When `exec.governor` is set, the whole statement (including CTEs) runs
  /// under its deadline/cancellation/budget; trips surface as Cancelled or
  /// ResourceExhausted, never as a hang or abort.
  Result<TablePtr> Query(const std::string& sql,
                         ExecOptions exec = ExecOptions(),
                         ExecStats* stats = nullptr);

  /// Parses and runs `sql` through the Smart-Iceberg optimizer. Each CTE is
  /// optimized independently (the "pairs" query benefits from a-priori in
  /// its WITH block and pruning in its main block). When `options.governor`
  /// is set it governs every stage; graceful degradations (cache shedding,
  /// fallback) are recorded in `report->degradations`.
  Result<TablePtr> QueryIceberg(const std::string& sql,
                                IcebergOptions options = IcebergOptions(),
                                IcebergReport* report = nullptr);

  /// EXPLAIN for either engine.
  Result<std::string> ExplainBaseline(const std::string& sql,
                                      ExecOptions exec = ExecOptions());
  Result<std::string> ExplainIceberg(const std::string& sql,
                                     IcebergOptions options = IcebergOptions());

  /// EXPLAIN ANALYZE: executes the statement, then returns the plan tree
  /// annotated with measured wall times, row counts, cache effectiveness,
  /// and the exact metrics-registry delta of the run, as rows of a
  /// one-column "QUERY PLAN" table. `sql` may carry the EXPLAIN ANALYZE
  /// prefix or be a bare statement. Query()/QueryIceberg() route here
  /// automatically when the statement starts with EXPLAIN ANALYZE.
  Result<TablePtr> ExplainAnalyzeBaseline(const std::string& sql,
                                          ExecOptions exec = ExecOptions());
  Result<TablePtr> ExplainAnalyzeIceberg(
      const std::string& sql, IcebergOptions options = IcebergOptions());

  /// Parses and binds `sql` into a QueryBlock against the catalog
  /// (materializing CTEs/subqueries with the baseline executor). Exposed
  /// for tests and tooling.
  Result<QueryBlock> Prepare(const std::string& sql);

 private:
  /// The actual engine entry points behind Query()/QueryIceberg(). The
  /// public wrappers add flight-recorder emission for top-level direct
  /// calls (suppressed under a QueryLogScope, i.e. when the serving layer
  /// already records the attempt).
  Result<TablePtr> QueryImpl(const std::string& sql, ExecOptions exec,
                             ExecStats* stats);
  Result<TablePtr> QueryIcebergImpl(const std::string& sql,
                                    IcebergOptions options,
                                    IcebergReport* report);

  /// Applies the block's ORDER BY / LIMIT to a materialized result. Rows of
  /// a GROUP BY block are first put in canonical order, so ties break the
  /// same way on both engines and at every thread count.
  static TablePtr ApplyOrderAndLimit(const QueryBlock& block,
                                     TablePtr result);

  /// Derives the FDs of a materialized query result: GROUP BY columns that
  /// are projected form a key; DISTINCT output rows form a key of all
  /// columns.
  static FdSet DerivedFds(const QueryBlock& block, const Schema& out_schema);

  /// Materializes one parsed select with the chosen engine; recursive over
  /// FROM-subqueries. `scope` holds CTE results visible to this block.
  Result<CatalogEntry> Materialize(
      const ParsedSelect& select,
      const std::map<std::string, CatalogEntry>& scope, bool use_iceberg,
      const IcebergOptions& iceberg_options, const ExecOptions& exec,
      ExecStats* stats, IcebergReport* report);

  /// Binds a block whose FROM-subqueries were already materialized.
  Result<QueryBlock> BindSelect(
      const ParsedSelect& select,
      const std::map<std::string, CatalogEntry>& scope,
      const std::map<std::string, CatalogEntry>& inline_tables);

  std::map<std::string, CatalogEntry> tables_;  // lower-cased name -> entry
};

}  // namespace iceberg

#endif  // SMARTICEBERG_ENGINE_DATABASE_H_
