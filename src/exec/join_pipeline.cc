#include "src/exec/join_pipeline.h"

#include <algorithm>
#include <cstdio>

#include "src/common/logging.h"
#include "src/obs/trace.h"

namespace iceberg {

const char* JoinMethodName(JoinMethod method) {
  switch (method) {
    case JoinMethod::kSeqScan:
      return "SeqScan";
    case JoinMethod::kHashIndexProbe:
      return "IndexNLJoin(hash)";
    case JoinMethod::kOrderedIndexProbe:
      return "IndexNLJoin(btree)";
    case JoinMethod::kHashJoin:
      return "HashJoin";
    case JoinMethod::kOrderedIndexRange:
      return "IndexNLJoin(btree-range)";
  }
  return "?";
}

namespace {

/// Highest flat offset referenced by the expression, or -1 for none.
int MaxOffset(const ExprPtr& e) {
  std::vector<const Expr*> refs;
  CollectColumnRefs(e, &refs);
  int max_off = -1;
  for (const Expr* r : refs) max_off = std::max(max_off, r->resolved_index);
  return max_off;
}

/// Lowest flat offset referenced, or INT_MAX for none.
int MinOffset(const ExprPtr& e) {
  std::vector<const Expr*> refs;
  CollectColumnRefs(e, &refs);
  int min_off = 1 << 30;
  for (const Expr* r : refs) min_off = std::min(min_off, r->resolved_index);
  return min_off;
}

bool RefsOnlyBelow(const ExprPtr& e, size_t end_offset) {
  return MaxOffset(e) < static_cast<int>(end_offset);
}

bool RefsOnlyWithin(const ExprPtr& e, size_t begin, size_t end) {
  int lo = MinOffset(e);
  int hi = MaxOffset(e);
  if (hi < 0) return false;  // no refs at all
  return lo >= static_cast<int>(begin) && hi < static_cast<int>(end);
}

/// Tables below this size run row-at-a-time: chunk bookkeeping would cost
/// more than the batch loops save.
constexpr size_t kMinVectorRows = 64;

}  // namespace

Result<JoinPipeline> JoinPipeline::Plan(const QueryBlock& block,
                                        bool use_indexes, bool vectorize,
                                        QueryGovernor* governor,
                                        const TransferPlanOptions& transfer,
                                        const PipelinePlanHints* hints) {
  JoinPipeline pipeline(block, governor);
  const bool vec = vectorize && VectorizedExecEnabled();
  const size_t num_tables = block.tables.size();
  ICEBERG_CHECK(num_tables >= 1);

  // Assign each WHERE conjunct to the first level at which all of its
  // column references are bound.
  std::vector<std::vector<ExprPtr>> conjuncts_at(num_tables);
  for (const ExprPtr& conjunct : block.where_conjuncts) {
    int max_off = MaxOffset(conjunct);
    size_t level = 0;
    if (max_off >= 0) {
      level = block.TableOfOffset(static_cast<size_t>(max_off));
    }
    conjuncts_at[level].push_back(conjunct);
  }

  for (size_t level = 0; level < num_tables; ++level) {
    JoinLevel jl;
    jl.table_index = level;
    const BoundTableRef& tref = block.tables[level];
    const size_t begin = tref.offset;
    const size_t end = begin + tref.table->schema().num_columns();

    if (level == 0) {
      jl.method = JoinMethod::kSeqScan;
      jl.residual = conjuncts_at[0];
      pipeline.levels_.push_back(std::move(jl));
      continue;
    }

    // Find equality conjuncts usable as join keys: inner side is a plain
    // column of this table, outer side references only earlier tables.
    std::vector<ExprPtr> remaining;
    for (const ExprPtr& conjunct : conjuncts_at[level]) {
      bool used = false;
      if (conjunct->kind == ExprKind::kBinary &&
          conjunct->bop == BinaryOp::kEq) {
        const ExprPtr& l = conjunct->children[0];
        const ExprPtr& r = conjunct->children[1];
        ExprPtr inner, outer;
        if (l->kind == ExprKind::kColumnRef &&
            RefsOnlyWithin(l, begin, end) && RefsOnlyBelow(r, begin)) {
          inner = l;
          outer = r;
        } else if (r->kind == ExprKind::kColumnRef &&
                   RefsOnlyWithin(r, begin, end) && RefsOnlyBelow(l, begin)) {
          inner = r;
          outer = l;
        }
        if (inner != nullptr) {
          jl.inner_eq_columns.push_back(
              static_cast<size_t>(inner->resolved_index) - begin);
          jl.probe_exprs.push_back(outer);
          used = true;
        }
      }
      if (!used) remaining.push_back(conjunct);
    }
    jl.residual = std::move(remaining);

    if (!jl.inner_eq_columns.empty()) {
      // Prefer an existing index over building a hash table.
      if (use_indexes) {
        std::vector<size_t> key_order;
        const HashIndex* hidx =
            tref.table->FindHashIndex(jl.inner_eq_columns, &key_order);
        if (hidx != nullptr) {
          // Reorder probe exprs to the index's key order.
          std::vector<ExprPtr> probes(key_order.size());
          for (size_t k = 0; k < key_order.size(); ++k) {
            for (size_t j = 0; j < jl.inner_eq_columns.size(); ++j) {
              if (jl.inner_eq_columns[j] == key_order[k]) {
                probes[k] = jl.probe_exprs[j];
              }
            }
          }
          jl.method = JoinMethod::kHashIndexProbe;
          jl.hash_index = hidx;
          jl.inner_eq_columns = key_order;
          jl.probe_exprs = std::move(probes);
          pipeline.levels_.push_back(std::move(jl));
          continue;
        }
        const OrderedIndex* oidx =
            tref.table->FindOrderedIndex(jl.inner_eq_columns);
        if (oidx != nullptr) {
          jl.method = JoinMethod::kOrderedIndexProbe;
          jl.ordered_eq_index = oidx;
          pipeline.levels_.push_back(std::move(jl));
          continue;
        }
      }
      // Build a hash table over the equality keys. The build itself is
      // deferred until after predicate transfer runs, so rows the
      // transferred filters eliminate never enter the table.
      jl.method = JoinMethod::kHashJoin;
      pipeline.levels_.push_back(std::move(jl));
      continue;
    }

    // No equality keys: try a B-tree range probe on an inequality bound.
    if (use_indexes) {
      bool planned = false;
      for (const ExprPtr& conjunct : jl.residual) {
        if (conjunct->kind != ExprKind::kBinary ||
            !IsComparisonOp(conjunct->bop) ||
            conjunct->bop == BinaryOp::kEq || conjunct->bop == BinaryOp::kNe) {
          continue;
        }
        const ExprPtr& l = conjunct->children[0];
        const ExprPtr& r = conjunct->children[1];
        ExprPtr inner, outer;
        BinaryOp op = conjunct->bop;
        if (l->kind == ExprKind::kColumnRef && RefsOnlyWithin(l, begin, end) &&
            RefsOnlyBelow(r, begin)) {
          inner = l;
          outer = r;
        } else if (r->kind == ExprKind::kColumnRef &&
                   RefsOnlyWithin(r, begin, end) && RefsOnlyBelow(l, begin)) {
          inner = r;
          outer = l;
          op = FlipComparison(op);  // normalize to inner OP outer
        } else {
          continue;
        }
        size_t inner_col = static_cast<size_t>(inner->resolved_index) - begin;
        // Find an ordered index whose first key column is inner_col.
        const OrderedIndex* found = nullptr;
        for (size_t i = 0; i < tref.table->num_ordered_indexes(); ++i) {
          const OrderedIndex& idx = tref.table->ordered_index(i);
          if (!idx.key_columns().empty() &&
              idx.key_columns()[0] == inner_col) {
            found = &idx;
            break;
          }
        }
        if (found == nullptr) continue;
        jl.method = JoinMethod::kOrderedIndexRange;
        jl.range_index = found;
        jl.bound_expr = outer;
        // Strictness handled by keeping the conjunct in residual; the scan
        // is inclusive on the bound.
        jl.is_lower_bound = (op == BinaryOp::kGt || op == BinaryOp::kGe);
        planned = true;
        break;
      }
      if (planned) {
        pipeline.levels_.push_back(std::move(jl));
        continue;
      }
    }

    jl.method = JoinMethod::kSeqScan;  // block nested loop
    pipeline.levels_.push_back(std::move(jl));
  }

  // Compile the per-level expressions once per query.
  for (JoinLevel& jl : pipeline.levels_) {
    jl.residual_progs = CompileAll(jl.residual);
    jl.probe_progs = CompileAll(jl.probe_exprs);
    if (jl.bound_expr != nullptr) {
      jl.bound_prog = CompiledExpr::Compile(*jl.bound_expr);
    }
  }

  if (vec) {
    // Attach columnar projections to kSeqScan levels whose filters can all
    // run in batch mode. Chunk bytes are charged to the governor as an
    // advisory reservation; under pressure the level stays row-at-a-time.
    for (size_t level = 0; level < pipeline.levels_.size(); ++level) {
      JoinLevel& jl = pipeline.levels_[level];
      if (jl.method != JoinMethod::kSeqScan) continue;
      if (jl.residual.empty()) continue;
      // The optimizer expects too little scan volume here for batch setup
      // to pay off: keep the reference row path.
      if (hints != nullptr && level < hints->prefer_row_scan.size() &&
          hints->prefer_row_scan[level] != 0) {
        continue;
      }
      bool batchable = true;
      for (const CompiledExpr& p : jl.residual_progs) {
        if (!p.batchable()) batchable = false;
      }
      if (!batchable) continue;
      const Table& table = *block.tables[jl.table_index].table;
      if (table.num_rows() < kMinVectorRows) continue;
      ColumnChunkSetPtr chunks = table.GetOrBuildChunks();
      if (!pipeline.chunk_bytes_.TryReserve(chunks->approx_bytes(),
                                            "column-chunks")) {
        continue;
      }
      jl.chunks = std::move(chunks);
    }
  }

  // Predicate transfer: build the block's join graph and propagate Bloom
  // filters across every equi-join edge to a fixpoint (transfer_graph.h),
  // starting from the FROM entries' a-priori selections. The per-relation
  // selections it produces shrink every scan, index probe, and hash build
  // below. With transfer off or inapplicable the a-priori selections still
  // apply on their own.
  if (transfer.prebuilt_valid) {
    // The cost-based optimizer already ran transfer (ahead of join
    // ordering, so survivor counts could feed the enumerator); adopt its
    // result — including a null one — instead of rebuilding.
    pipeline.transfer_ = transfer.prebuilt;
  } else {
    TransferPlanOptions topts = transfer;
    topts.governor = governor;
    // Zone-map refutation needs column chunks; don't build them just for
    // transfer when the vectorized paths are off.
    topts.use_zone_maps = topts.use_zone_maps && vec;
    pipeline.transfer_ = BuildTransferGraph(block, topts);
  }

  // Deferred kHashJoin builds: rows the transfer selections dropped never
  // enter the hash table (a transfer miss means the key provably has no
  // partner somewhere in the block, so no probe can ever want the row).
  {
    const TransferResult* xfer = pipeline.transfer_.get();
    for (JoinLevel& jl : pipeline.levels_) {
      if (jl.method != JoinMethod::kHashJoin) continue;
      const Table& t = *block.tables[jl.table_index].table;
      const size_t lvl = jl.table_index;
      const bool drop = xfer != nullptr && xfer->HasSelection(lvl);
      auto built = std::make_shared<HashIndex>(jl.inner_eq_columns);
      for (size_t i = 0; i < t.num_rows(); ++i) {
        if (drop && !xfer->Keep(lvl, i)) continue;
        built->Insert(t.row(i), i);
      }
      jl.built_hash = std::move(built);
    }
  }
  return pipeline;
}

size_t JoinPipeline::OuterSize() const {
  return block_->tables[0].table->num_rows();
}

void JoinPipeline::AnnotateEstimates(const std::vector<double>& est_rows) {
  for (size_t i = 0; i < levels_.size() && i < est_rows.size(); ++i) {
    levels_[i].est_rows = est_rows[i];
  }
}

Status JoinPipeline::Run(size_t outer_begin, size_t outer_end,
                         const RowCallback& callback, ExecStats* stats,
                         QueryGovernor* governor) const {
  // One span per Run call = one span per morsel under the parallel
  // executors, so the trace shows each worker's morsel timeline.
  TraceSpan span("join.run", "join");
  const Table& outer = *block_->tables[0].table;
  outer_end = std::min(outer_end, outer.num_rows());
  const JoinLevel& l0 = levels_[0];
  RunScratch scratch;
  scratch.probe_keys.resize(levels_.size());
  scratch.sel.resize(levels_.size());
  if (stats != nullptr && stats->level_rows.size() < levels_.size()) {
    stats->level_rows.resize(levels_.size(), 0);
  }
  // Transfer selections stand down wholesale if any participating table
  // mutated after planning: the bitmaps were baked against a
  // cross-relation version snapshot (a seeds-only result pins just the
  // seeded tables, so NLJP's parameter rebinding leaves it live).
  if (transfer_ != nullptr && transfer_->AnySelection() && transfer_->Live()) {
    scratch.transfer = transfer_.get();
  }
  const bool xfer0 =
      scratch.transfer != nullptr && scratch.transfer->HasSelection(0);
  Row partial;
  partial.reserve(block_->TotalWidth());

  // Emits the partial row that survived the level-0 filter (and transfer
  // selection): the tail of the per-outer-row loop, shared by both scan
  // shapes. Returns false when the intermediate-row limit tripped and the
  // scan must stop.
  auto emit_outer = [&]() {
    if (stats != nullptr) ++stats->level_rows[0];
    if (levels_.size() == 1) {
      if (stats != nullptr) ++stats->rows_joined;
      if (governor != nullptr && !governor->CountIntermediateRows(1).ok()) {
        return false;  // row limit tripped; final Check reports it
      }
      callback(partial);
    } else {
      RunLevel(1, &partial, callback, stats, governor, &scratch);
    }
    return true;
  };

  const bool vec0 =
      l0.chunks != nullptr && l0.chunks->version() == outer.version();
  if (!vec0) {
    for (size_t i = outer_begin; i < outer_end; ++i) {
      if (governor != nullptr) {
        ICEBERG_RETURN_NOT_OK(governor->Check());
        if (stats != nullptr) ++stats->cancel_checks;
      }
      if (stats != nullptr) ++stats->join_pairs_examined;
      if (xfer0 && !scratch.transfer->Keep(0, i)) continue;
      const Row& row = outer.row(i);
      partial.assign(row.begin(), row.end());
      bool pass = true;
      for (const CompiledExpr& p : l0.residual_progs) {
        if (!p.RunPredicate(partial, &scratch.eval)) {
          pass = false;
          break;
        }
      }
      if (!pass) continue;
      if (!emit_outer()) break;
    }
    // A poisoning recorded inside an inner loop (row limit, memory
    // overrun) surfaces here even when the outer loop just ended.
    return governor != nullptr ? governor->Check() : Status::OK();
  }

  // Vectorized outer scan: per chunk, run the governance/accounting loop
  // first (same cadence as the row path), try to refute the whole chunk
  // against its zone maps, then batch-filter the survivors.
  std::vector<uint32_t>& sel = scratch.sel[0];
  for (const ColumnChunk& chunk : l0.chunks->chunks()) {
    const size_t lo = std::max(chunk.begin, outer_begin);
    const size_t hi = std::min(chunk.begin + chunk.rows, outer_end);
    if (lo >= hi) continue;
    for (size_t i = lo; i < hi; ++i) {
      if (governor != nullptr) {
        ICEBERG_RETURN_NOT_OK(governor->Check());
        if (stats != nullptr) ++stats->cancel_checks;
      }
      if (stats != nullptr) ++stats->join_pairs_examined;
    }
    bool refuted = false;
    for (const CompiledExpr& p : l0.residual_progs) {
      if (p.has_zone_checks() && p.ZoneRefutes(chunk, 0, nullptr)) {
        refuted = true;
        break;
      }
    }
    if (refuted) {
      if (stats != nullptr) ++stats->chunks_skipped;
      continue;
    }
    // Seed the selection vector with transfer survivors only, so the
    // batch filters never touch eliminated rows.
    sel.resize(chunk.rows);
    size_t n = 0;
    for (size_t i = lo; i < hi; ++i) {
      if (xfer0 && !scratch.transfer->Keep(0, i)) continue;
      sel[n++] = static_cast<uint32_t>(i - chunk.begin);
    }
    if (stats != nullptr) stats->batch_rows += n;
    for (const CompiledExpr& p : l0.residual_progs) {
      if (n == 0) break;
      n = p.FilterBatch(chunk, 0, nullptr, sel.data(), n, sel.data(),
                        &scratch.batch);
    }
    bool tripped = false;
    for (size_t k = 0; k < n && !tripped; ++k) {
      if (governor != nullptr && governor->poisoned()) break;
      const Row& row = outer.row(chunk.begin + sel[k]);
      partial.assign(row.begin(), row.end());
      tripped = !emit_outer();
    }
    if (tripped) break;
  }
  return governor != nullptr ? governor->Check() : Status::OK();
}

void JoinPipeline::RunLevel(size_t level, Row* partial,
                            const RowCallback& callback, ExecStats* stats,
                            QueryGovernor* governor,
                            RunScratch* scratch) const {
  const JoinLevel& jl = levels_[level];
  const Table& table = *block_->tables[jl.table_index].table;

  // Transfer selection for this level's relation: rows it dropped provably
  // join with nothing, so every access method skips them up front.
  const bool has_xfer = scratch->transfer != nullptr &&
                        scratch->transfer->HasSelection(jl.table_index);
  auto dropped = [&](size_t row_id) {
    return has_xfer && !scratch->transfer->Keep(jl.table_index, row_id);
  };

  auto try_row = [&](const Row& inner_row) {
    // Fast bail-out once a fatal condition is recorded anywhere; the full
    // check happens per outer tuple in Run.
    if (governor != nullptr && governor->poisoned()) return;
    if (stats != nullptr) ++stats->join_pairs_examined;
    size_t base = partial->size();
    partial->insert(partial->end(), inner_row.begin(), inner_row.end());
    bool pass = true;
    for (const CompiledExpr& p : jl.residual_progs) {
      if (!p.RunPredicate(*partial, &scratch->eval)) {
        pass = false;
        break;
      }
    }
    if (pass) {
      if (stats != nullptr) ++stats->level_rows[level];
      if (level + 1 == levels_.size()) {
        if (stats != nullptr) ++stats->rows_joined;
        if (governor == nullptr || governor->CountIntermediateRows(1).ok()) {
          callback(*partial);
        }
      } else {
        RunLevel(level + 1, partial, callback, stats, governor, scratch);
      }
    }
    partial->resize(base);
  };

  // The probe key row is reused across probes of this level (clear keeps
  // the capacity), so equality probing allocates nothing per outer row.
  auto fill_probe_key = [&]() -> Row& {
    Row& key = scratch->probe_keys[level];
    key.clear();
    for (const CompiledExpr& e : jl.probe_progs) {
      key.push_back(e.Run(*partial, &scratch->eval));
    }
    return key;
  };

  switch (jl.method) {
    case JoinMethod::kSeqScan: {
      if (jl.chunks == nullptr || jl.chunks->version() != table.version()) {
        for (size_t i = 0; i < table.num_rows(); ++i) {
          if (dropped(i)) {
            // Count the pair anyway: the vectorized loop below charges
            // whole chunks, so the counter stays identical across paths.
            if (stats != nullptr) ++stats->join_pairs_examined;
            continue;
          }
          try_row(table.row(i));
        }
        break;
      }
      // Vectorized block nested loop: zone maps are checked against the
      // current outer prefix too (`partial`), so a chunk whose bounds
      // cannot satisfy an outer-vs-inner comparison is skipped for this
      // outer row only — dynamic, per-binding skipping.
      const size_t base = partial->size();
      std::vector<uint32_t>& sel = scratch->sel[level];
      for (const ColumnChunk& chunk : jl.chunks->chunks()) {
        if (governor != nullptr && governor->poisoned()) break;
        if (stats != nullptr) stats->join_pairs_examined += chunk.rows;
        bool refuted = false;
        for (const CompiledExpr& p : jl.residual_progs) {
          if (p.has_zone_checks() && p.ZoneRefutes(chunk, base, partial)) {
            refuted = true;
            break;
          }
        }
        if (refuted) {
          if (stats != nullptr) ++stats->chunks_skipped;
          continue;
        }
        sel.resize(chunk.rows);
        size_t n = 0;
        for (size_t k = 0; k < chunk.rows; ++k) {
          if (dropped(chunk.begin + k)) continue;
          sel[n++] = static_cast<uint32_t>(k);
        }
        if (stats != nullptr) stats->batch_rows += n;
        for (const CompiledExpr& p : jl.residual_progs) {
          if (n == 0) break;
          n = p.FilterBatch(chunk, base, partial, sel.data(), n, sel.data(),
                            &scratch->batch);
        }
        for (size_t k = 0; k < n; ++k) {
          if (governor != nullptr && governor->poisoned()) break;
          if (stats != nullptr) ++stats->level_rows[level];
          const Row& inner_row = table.row(chunk.begin + sel[k]);
          partial->insert(partial->end(), inner_row.begin(), inner_row.end());
          if (level + 1 == levels_.size()) {
            if (stats != nullptr) ++stats->rows_joined;
            if (governor == nullptr ||
                governor->CountIntermediateRows(1).ok()) {
              callback(*partial);
            }
          } else {
            RunLevel(level + 1, partial, callback, stats, governor, scratch);
          }
          partial->resize(base);
        }
      }
      break;
    }
    case JoinMethod::kHashIndexProbe:
    case JoinMethod::kHashJoin: {
      const Row& key = fill_probe_key();
      const HashIndex* index =
          jl.method == JoinMethod::kHashIndexProbe ? jl.hash_index
                                                   : jl.built_hash.get();
      if (stats != nullptr) ++stats->index_probes;
      const std::vector<size_t>* ids = index->Lookup(key);
      if (ids != nullptr) {
        // kHashJoin tables are already built over transfer survivors;
        // pre-existing indexes still contain every row, so check here.
        const bool check = jl.method == JoinMethod::kHashIndexProbe;
        for (size_t id : *ids) {
          if (check && dropped(id)) continue;
          try_row(table.row(id));
        }
      }
      break;
    }
    case JoinMethod::kOrderedIndexProbe: {
      const Row& key = fill_probe_key();
      if (stats != nullptr) ++stats->index_probes;
      for (size_t id : jl.ordered_eq_index->Lookup(key)) {
        if (dropped(id)) continue;
        try_row(table.row(id));
      }
      break;
    }
    case JoinMethod::kOrderedIndexRange: {
      Row& bound = scratch->probe_keys[level];
      bound.clear();
      bound.push_back(jl.bound_prog.Run(*partial, &scratch->eval));
      if (stats != nullptr) ++stats->index_probes;
      std::vector<size_t> ids =
          jl.is_lower_bound
              ? jl.range_index->LowerBoundScan(bound, /*strict=*/false)
              : jl.range_index->UpperBoundScan(bound);
      for (size_t id : ids) {
        if (dropped(id)) continue;
        try_row(table.row(id));
      }
      break;
    }
  }
}

std::string JoinPipeline::Explain() const {
  std::string out;
  for (size_t i = levels_.size(); i-- > 0;) {
    const JoinLevel& jl = levels_[i];
    const BoundTableRef& tref = block_->tables[jl.table_index];
    std::string indent((levels_.size() - 1 - i) * 2, ' ');
    out += indent;
    if (i == 0) {
      out += "SeqScan " + tref.table->name() + " [" + tref.alias + "]";
    } else {
      out += std::string(JoinMethodName(jl.method)) + " " +
             tref.table->name() + " [" + tref.alias + "]";
      if (!jl.probe_exprs.empty()) {
        out += " key=(";
        for (size_t k = 0; k < jl.inner_eq_columns.size(); ++k) {
          if (k > 0) out += ", ";
          out += tref.table->schema().column(jl.inner_eq_columns[k]).name;
        }
        out += ")";
      }
      if (jl.method == JoinMethod::kOrderedIndexRange) {
        out += std::string(" bound=") + (jl.is_lower_bound ? ">= " : "<= ") +
               jl.bound_expr->ToString();
      }
    }
    if (!jl.residual.empty()) {
      out += " filter=(" + AndAll(jl.residual)->ToString() + ")";
    }
    if (!jl.residual_progs.empty() || !jl.probe_progs.empty()) {
      size_t ops = 0;
      for (const CompiledExpr& p : jl.residual_progs) ops += p.num_ops();
      for (const CompiledExpr& p : jl.probe_progs) ops += p.num_ops();
      if (jl.bound_prog.valid()) ops += jl.bound_prog.num_ops();
      out += " [compiled: " + std::to_string(ops) + " ops]";
    }
    if (jl.chunks != nullptr) {
      out += " [vectorized: " + std::to_string(jl.chunks->chunks().size()) +
             " chunks]";
    }
    if (jl.est_rows >= 0.0) {
      char buf[32];
      if (jl.est_rows < 1e7) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(jl.est_rows + 0.5));
      } else {
        std::snprintf(buf, sizeof(buf), "%.3g", jl.est_rows);
      }
      out += std::string(" est_rows=") + buf;
    }
    if (i == 0 && transfer_ != nullptr) {
      out += " [transfer: " + transfer_->Summary() + "]";
    }
    out += "\n";
  }
  return out;
}

}  // namespace iceberg
