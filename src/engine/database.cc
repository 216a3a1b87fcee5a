#include "src/engine/database.h"

#include <algorithm>
#include <chrono>

#include "src/common/logging.h"
#include "src/common/shape.h"
#include "src/common/string_util.h"
#include "src/engine/analyze.h"
#include "src/engine/query_record.h"
#include "src/obs/metrics.h"
#include "src/obs/query_log.h"
#include "src/obs/trace.h"

namespace iceberg {

Status Database::CreateTable(const std::string& name, Schema schema) {
  std::string key = ToLower(name);
  if (tables_.count(key) > 0) {
    return Status::AlreadyExists("table exists: " + name);
  }
  CatalogEntry entry;
  entry.table = std::make_shared<Table>(name, std::move(schema));
  tables_.emplace(std::move(key), std::move(entry));
  return Status::OK();
}

Status Database::RegisterTable(TablePtr table) {
  std::string key = ToLower(table->name());
  if (key.empty()) return Status::InvalidArgument("table needs a name");
  if (tables_.count(key) > 0) {
    return Status::AlreadyExists("table exists: " + table->name());
  }
  CatalogEntry entry;
  entry.table = std::move(table);
  tables_.emplace(std::move(key), std::move(entry));
  return Status::OK();
}

Status Database::DeclareKey(const std::string& table,
                            const std::vector<std::string>& columns) {
  auto it = tables_.find(ToLower(table));
  if (it == tables_.end()) return Status::NotFound("no table: " + table);
  std::vector<std::string> all;
  for (const Column& c : it->second.table->schema().columns()) {
    all.push_back(c.name);
  }
  it->second.fds.Add(columns, all);
  return Status::OK();
}

Status Database::DeclareFd(const std::string& table,
                           const std::vector<std::string>& lhs,
                           const std::vector<std::string>& rhs) {
  auto it = tables_.find(ToLower(table));
  if (it == tables_.end()) return Status::NotFound("no table: " + table);
  it->second.fds.Add(lhs, rhs);
  return Status::OK();
}

Status Database::Insert(const std::string& table, Row row) {
  auto it = tables_.find(ToLower(table));
  if (it == tables_.end()) return Status::NotFound("no table: " + table);
  return it->second.table->Append(std::move(row));
}

Status Database::CreateOrderedIndex(const std::string& table,
                                    const std::vector<std::string>& columns) {
  auto it = tables_.find(ToLower(table));
  if (it == tables_.end()) return Status::NotFound("no table: " + table);
  Result<size_t> r = it->second.table->BuildOrderedIndex(columns);
  return r.ok() ? Status::OK() : r.status();
}

Status Database::CreateHashIndex(const std::string& table,
                                 const std::vector<std::string>& columns) {
  auto it = tables_.find(ToLower(table));
  if (it == tables_.end()) return Status::NotFound("no table: " + table);
  Result<size_t> r = it->second.table->BuildHashIndex(columns);
  return r.ok() ? Status::OK() : r.status();
}

Result<TablePtr> Database::GetTable(const std::string& name) const {
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) return Status::NotFound("no table: " + name);
  return it->second.table;
}

Result<CatalogEntry> Database::GetEntry(const std::string& name) const {
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) return Status::NotFound("no table: " + name);
  return it->second;
}

std::vector<std::pair<std::string, TableSnapshot>> Database::SnapshotTables()
    const {
  std::vector<std::pair<std::string, TableSnapshot>> pins;
  pins.reserve(tables_.size());
  for (const auto& [name, entry] : tables_) {
    pins.emplace_back(name, entry.table->Snapshot());
  }
  return pins;
}

uint64_t Database::CatalogVersionHash() const {
  // FNV-1a over (name, version, rows); map iteration is name-ordered so
  // the hash is deterministic for a given catalog state.
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const auto& [name, entry] : tables_) {
    for (char c : name) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    mix(entry.table->version());
    mix(entry.table->num_rows());
  }
  return h;
}

Status Database::DropIndexes(const std::string& table) {
  auto it = tables_.find(ToLower(table));
  if (it == tables_.end()) return Status::NotFound("no table: " + table);
  it->second.table->DropIndexes();
  return Status::OK();
}

FdSet Database::DerivedFds(const QueryBlock& block,
                           const Schema& out_schema) {
  FdSet fds;
  if (block.group_by.empty()) {
    if (block.distinct) {
      // DISTINCT output: all columns form a key (trivially, each row is
      // unique), which downstream reasoning can use.
      std::vector<std::string> all;
      for (const Column& c : out_schema.columns()) all.push_back(c.name);
      fds.Add(all, all);
    }
    return fds;
  }
  // If every GROUP BY column is projected, the projected names form a key.
  std::vector<std::string> key;
  for (const ExprPtr& g : block.group_by) {
    bool found = false;
    for (size_t i = 0; i < block.select.size(); ++i) {
      const ExprPtr& e = block.select[i].expr;
      if (e->kind == ExprKind::kColumnRef &&
          e->resolved_index == g->resolved_index) {
        key.push_back(out_schema.column(i).name);
        found = true;
        break;
      }
    }
    if (!found) return fds;  // a grouping column is not visible downstream
  }
  std::vector<std::string> all;
  for (const Column& c : out_schema.columns()) all.push_back(c.name);
  fds.Add(key, all);
  return fds;
}

Result<QueryBlock> Database::BindSelect(
    const ParsedSelect& select,
    const std::map<std::string, CatalogEntry>& scope,
    const std::map<std::string, CatalogEntry>& inline_tables) {
  TableResolver resolver = [this, &scope, &inline_tables](
                               const std::string& name) -> Result<CatalogEntry> {
    std::string key = ToLower(name);
    auto inl = inline_tables.find(key);
    if (inl != inline_tables.end()) return inl->second;
    auto cte = scope.find(key);
    if (cte != scope.end()) return cte->second;
    auto base = tables_.find(key);
    if (base != tables_.end()) return base->second;
    return Status::NotFound("unknown relation: " + name);
  };
  Binder binder(resolver);
  return binder.Bind(select);
}

Result<CatalogEntry> Database::Materialize(
    const ParsedSelect& select,
    const std::map<std::string, CatalogEntry>& scope, bool use_iceberg,
    const IcebergOptions& iceberg_options, const ExecOptions& exec,
    ExecStats* stats, IcebergReport* report) {
  // Materialize FROM-subqueries bottom-up, exposing them as inline tables
  // under their aliases.
  std::map<std::string, CatalogEntry> inline_tables;
  ParsedSelect rewritten = select;
  for (ParsedTableRef& ref : rewritten.from) {
    if (ref.subquery == nullptr) continue;
    ICEBERG_ASSIGN_OR_RETURN(
        CatalogEntry entry,
        Materialize(*ref.subquery, scope, use_iceberg, iceberg_options, exec,
                    stats, report));
    entry.table->SetName(ref.alias);
    std::string key = ToLower(ref.alias);
    if (inline_tables.count(key) > 0) {
      return Status::BindError("duplicate subquery alias: " + ref.alias);
    }
    inline_tables.emplace(key, std::move(entry));
    ref.subquery = nullptr;
    ref.table_name = ref.alias;
  }

  ICEBERG_ASSIGN_OR_RETURN(QueryBlock block,
                           BindSelect(rewritten, scope, inline_tables));
  TablePtr result;
  if (use_iceberg) {
    IcebergOptimizer optimizer(iceberg_options);
    ICEBERG_ASSIGN_OR_RETURN(result, optimizer.Run(block, report));
  } else {
    Executor executor(exec);
    ICEBERG_ASSIGN_OR_RETURN(result, executor.Execute(block, stats));
  }
  result = ApplyOrderAndLimit(block, std::move(result));
  CatalogEntry entry;
  entry.table = std::move(result);
  entry.fds = DerivedFds(block, entry.table->schema());
  return entry;
}

TablePtr Database::ApplyOrderAndLimit(const QueryBlock& block,
                                      TablePtr result) {
  if (block.order_by.empty() &&
      (block.limit < 0 ||
       block.limit >= static_cast<int64_t>(result->num_rows()))) {
    return result;
  }
  // Grouped output arrives in canonical order from both engines, so ORDER
  // BY ties and LIMIT cuts resolve the same way at every thread count.
  std::vector<Row> rows = result->rows();
  if (!block.order_by.empty()) {
    std::stable_sort(rows.begin(), rows.end(),
                     [&](const Row& a, const Row& b) {
                       for (const QueryBlock::OrderSpec& spec :
                            block.order_by) {
                         int c = a[spec.output_column].Compare(
                             b[spec.output_column]);
                         if (c != 0) return spec.ascending ? c < 0 : c > 0;
                       }
                       return false;
                     });
  }
  if (block.limit >= 0 &&
      rows.size() > static_cast<size_t>(block.limit)) {
    rows.resize(static_cast<size_t>(block.limit));
  }
  auto sorted = std::make_shared<Table>(result->name(), result->schema());
  for (Row& row : rows) sorted->AppendUnchecked(std::move(row));
  return sorted;
}

Result<TablePtr> Database::Query(const std::string& sql, ExecOptions exec,
                                 ExecStats* stats) {
  // Flight-recorder emission for top-level direct calls. The serving layer
  // opens a QueryLogScope around its Database call (it records the attempt
  // itself, with admission/retry context this layer cannot see), and the
  // scope also suppresses the nested Query() an EXPLAIN ANALYZE statement
  // re-enters with.
  if (!QueryLogEnabled() || QueryLogScope::Active()) {
    return QueryImpl(sql, exec, stats);
  }
  QueryLogScope scope;
  QueryShape shape = ComputeQueryShape(sql);
  ExecStats run_stats;
  int64_t start_us = TraceNowMicros();
  Result<TablePtr> result = QueryImpl(sql, exec, &run_stats);
  int64_t end_us = TraceNowMicros();
  if (stats != nullptr) stats->Accumulate(run_stats);

  QueryRecord rec;
  rec.query_id = QueryLog::NextQueryId();
  rec.iceberg = false;
  rec.shape_hash = shape.shape_hash;
  rec.shape = shape.shape;
  rec.start_us = start_us;
  rec.latency_us = static_cast<uint64_t>(end_us - start_us);
  FillRecordStatus(&rec, result.ok() ? Status::OK() : result.status());
  if (result.ok()) rec.rows_returned = (*result)->num_rows();
  FillRecordStats(&rec, run_stats);
  FillRecordGovernor(&rec, exec.governor.get());
  uint64_t slow_us = SlowQueryThresholdUs();
  if (slow_us != 0 && rec.latency_us >= slow_us && result.ok()) {
    Result<std::string> plan = ExplainBaseline(sql, exec);
    if (plan.ok()) {
      rec.slow_capture = MakeSlowCapture(
          RenderAnalyzeBaseline(run_stats, *plan, MetricsSnapshot(),
                                rec.rows_returned,
                                static_cast<int64_t>(rec.latency_us)),
          start_us, end_us);
    }
  }
  QueryLog::Global().Record(std::move(rec));
  return result;
}

Result<TablePtr> Database::QueryImpl(const std::string& sql, ExecOptions exec,
                                     ExecStats* stats) {
  // Check before parsing so an expired deadline or pre-tripped token never
  // starts work.
  if (exec.governor != nullptr) ICEBERG_RETURN_NOT_OK(exec.governor->Check());
  TraceSpan span("query.baseline", "query");
  ICEBERG_ASSIGN_OR_RETURN(ParsedQuery parsed, ParseSql(sql));
  if (parsed.explain) {
    // ToString() renders the statement without its EXPLAIN prefix.
    std::string inner = parsed.ToString();
    if (parsed.analyze) return ExplainAnalyzeBaseline(inner, exec);
    ICEBERG_ASSIGN_OR_RETURN(std::string plan, ExplainBaseline(inner, exec));
    return AnalyzeTextTable(plan);
  }
  std::map<std::string, CatalogEntry> scope;
  for (const auto& [name, cte] : parsed.ctes) {
    ICEBERG_ASSIGN_OR_RETURN(
        CatalogEntry entry,
        Materialize(*cte, scope, /*use_iceberg=*/false, IcebergOptions(),
                    exec, stats, nullptr));
    entry.table->SetName(name);
    scope.emplace(ToLower(name), std::move(entry));
  }
  ICEBERG_ASSIGN_OR_RETURN(
      CatalogEntry entry,
      Materialize(*parsed.select, scope, /*use_iceberg=*/false,
                  IcebergOptions(), exec, stats, nullptr));
  return entry.table;
}

Result<TablePtr> Database::QueryIceberg(const std::string& sql,
                                        IcebergOptions options,
                                        IcebergReport* report) {
  // See Query(): top-level direct calls emit one flight-recorder record;
  // served and nested (EXPLAIN ANALYZE) calls are scope-suppressed.
  if (!QueryLogEnabled() || QueryLogScope::Active()) {
    return QueryIcebergImpl(sql, options, report);
  }
  QueryLogScope scope;
  QueryShape shape = ComputeQueryShape(sql);
  IcebergReport run_report;
  int64_t start_us = TraceNowMicros();
  Result<TablePtr> result = QueryIcebergImpl(sql, options, &run_report);
  int64_t end_us = TraceNowMicros();

  QueryRecord rec;
  rec.query_id = QueryLog::NextQueryId();
  rec.iceberg = true;
  rec.shape_hash = shape.shape_hash;
  rec.shape = shape.shape;
  rec.start_us = start_us;
  rec.latency_us = static_cast<uint64_t>(end_us - start_us);
  FillRecordStatus(&rec, result.ok() ? Status::OK() : result.status());
  if (result.ok()) rec.rows_returned = (*result)->num_rows();
  FillRecordStats(&rec, run_report);
  FillRecordGovernor(&rec, options.governor.get());
  uint64_t slow_us = SlowQueryThresholdUs();
  if (slow_us != 0 && rec.latency_us >= slow_us && result.ok()) {
    rec.slow_capture = MakeSlowCapture(
        RenderAnalyzeIceberg(run_report, MetricsSnapshot(),
                             rec.rows_returned,
                             static_cast<int64_t>(rec.latency_us)),
        start_us, end_us);
  }
  QueryLog::Global().Record(std::move(rec));
  if (report != nullptr) *report = std::move(run_report);
  return result;
}

Result<TablePtr> Database::QueryIcebergImpl(const std::string& sql,
                                            IcebergOptions options,
                                            IcebergReport* report) {
  if (options.governor != nullptr) {
    ICEBERG_RETURN_NOT_OK(options.governor->Check());
  }
  TraceSpan span("query.iceberg", "query");
  ICEBERG_ASSIGN_OR_RETURN(ParsedQuery parsed, ParseSql(sql));
  if (parsed.explain) {
    std::string inner = parsed.ToString();
    if (parsed.analyze) return ExplainAnalyzeIceberg(inner, options);
    ICEBERG_ASSIGN_OR_RETURN(std::string plan,
                             ExplainIceberg(inner, options));
    return AnalyzeTextTable(plan);
  }
  // Plan-cache eligibility: a trace captures/replays the decisions of
  // exactly one optimized block. Statements with CTEs or FROM-subqueries
  // optimize several blocks against intermediate tables, so the cache is
  // bypassed for them (they still run, just always fully optimized).
  if (options.capture != nullptr || options.replay != nullptr) {
    bool multi_block = !parsed.ctes.empty();
    for (const ParsedTableRef& ref : parsed.select->from) {
      if (ref.subquery != nullptr) multi_block = true;
    }
    if (multi_block) {
      options.capture = nullptr;
      options.replay = nullptr;
      ICEBERG_COUNTER("plan_cache.bypasses")->Increment();
      if (report != nullptr) report->plan_provenance = "bypass";
    }
  }
  std::map<std::string, CatalogEntry> scope;
  for (const auto& [name, cte] : parsed.ctes) {
    ICEBERG_ASSIGN_OR_RETURN(
        CatalogEntry entry,
        Materialize(*cte, scope, /*use_iceberg=*/true, options,
                    options.base_exec, nullptr, report));
    entry.table->SetName(name);
    scope.emplace(ToLower(name), std::move(entry));
  }
  ICEBERG_ASSIGN_OR_RETURN(
      CatalogEntry entry,
      Materialize(*parsed.select, scope, /*use_iceberg=*/true, options,
                  options.base_exec, nullptr, report));
  return entry.table;
}

Result<TablePtr> Database::ExplainAnalyzeBaseline(const std::string& sql,
                                                  ExecOptions exec) {
  ICEBERG_ASSIGN_OR_RETURN(ParsedQuery parsed, ParseSql(sql));
  std::string inner = parsed.ToString();  // strips any EXPLAIN prefix
  MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  auto start = std::chrono::steady_clock::now();
  ExecStats stats;
  ICEBERG_ASSIGN_OR_RETURN(TablePtr result, Query(inner, exec, &stats));
  int64_t total_us = std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  MetricsSnapshot delta =
      MetricsRegistry::Global().Snapshot().DiffSince(before);
  ICEBERG_ASSIGN_OR_RETURN(std::string plan, ExplainBaseline(inner, exec));
  return AnalyzeTextTable(RenderAnalyzeBaseline(stats, plan, delta,
                                                result->num_rows(),
                                                total_us));
}

Result<TablePtr> Database::ExplainAnalyzeIceberg(const std::string& sql,
                                                 IcebergOptions options) {
  ICEBERG_ASSIGN_OR_RETURN(ParsedQuery parsed, ParseSql(sql));
  std::string inner = parsed.ToString();
  MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  auto start = std::chrono::steady_clock::now();
  IcebergReport report;
  ICEBERG_ASSIGN_OR_RETURN(TablePtr result,
                           QueryIceberg(inner, options, &report));
  int64_t total_us = std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  MetricsSnapshot delta =
      MetricsRegistry::Global().Snapshot().DiffSince(before);
  return AnalyzeTextTable(RenderAnalyzeIceberg(report, delta,
                                               result->num_rows(),
                                               total_us));
}

Result<std::string> Database::ExplainBaseline(const std::string& sql,
                                              ExecOptions exec) {
  ICEBERG_ASSIGN_OR_RETURN(QueryBlock block, Prepare(sql));
  Executor executor(exec);
  return executor.Explain(block);
}

Result<std::string> Database::ExplainIceberg(const std::string& sql,
                                             IcebergOptions options) {
  ICEBERG_ASSIGN_OR_RETURN(QueryBlock block, Prepare(sql));
  IcebergOptimizer optimizer(options);
  return optimizer.Explain(block);
}

Result<QueryBlock> Database::Prepare(const std::string& sql) {
  ICEBERG_ASSIGN_OR_RETURN(ParsedQuery parsed, ParseSql(sql));
  std::map<std::string, CatalogEntry> scope;
  for (const auto& [name, cte] : parsed.ctes) {
    ICEBERG_ASSIGN_OR_RETURN(
        CatalogEntry entry,
        Materialize(*cte, scope, /*use_iceberg=*/false, IcebergOptions(),
                    ExecOptions(), nullptr, nullptr));
    entry.table->SetName(name);
    scope.emplace(ToLower(name), std::move(entry));
  }
  // Materialize FROM-subqueries of the main block, then bind it.
  std::map<std::string, CatalogEntry> inline_tables;
  ParsedSelect rewritten = *parsed.select;
  for (ParsedTableRef& ref : rewritten.from) {
    if (ref.subquery == nullptr) continue;
    ICEBERG_ASSIGN_OR_RETURN(
        CatalogEntry entry,
        Materialize(*ref.subquery, scope, /*use_iceberg=*/false,
                    IcebergOptions(), ExecOptions(), nullptr, nullptr));
    entry.table->SetName(ref.alias);
    inline_tables.emplace(ToLower(ref.alias), std::move(entry));
    ref.subquery = nullptr;
    ref.table_name = ref.alias;
  }
  return BindSelect(rewritten, scope, inline_tables);
}

}  // namespace iceberg
