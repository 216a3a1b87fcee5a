#include "src/optimizer/iceberg_optimizer.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <numeric>
#include <set>

#include "src/common/logging.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/rewrite/equality_inference.h"

namespace iceberg {

namespace {

/// Accumulates elapsed microseconds into a Timing field on destruction.
class PhaseTimer {
 public:
  explicit PhaseTimer(int64_t* slot)
      : slot_(slot), start_(std::chrono::steady_clock::now()) {}
  ~PhaseTimer() {
    *slot_ += std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - start_)
                  .count();
  }

 private:
  int64_t* slot_;
  std::chrono::steady_clock::time_point start_;
};

uint64_t GuardFnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Cost-gate thresholds for the a-priori reducer: skip a reducer only when
/// its HAVING is estimated to remove less than this fraction of groups AND
/// the largest claimed table is big enough that evaluating the reducer
/// (join + aggregate over its tables) costs more than the scan it saves.
/// Small tables always take the reducer — the gate must never flip the
/// paper's worked examples, only degenerate non-selective HAVINGs at scale.
constexpr size_t kAprioriGateMinRows = 10000;
constexpr double kAprioriGateMinRemoved = 0.02;

/// NLJP memo pays only when L-side bindings repeat. When almost every
/// binding is estimated distinct over a large L join, a memo-only operator
/// (pruning disabled) is a strict loss: every probe misses and pays the
/// cache insert on top of the component query.
constexpr double kNljpVetoMinRows = 50000.0;
constexpr double kNljpVetoRepeatFraction = 0.95;

/// Estimated fraction of reducer groups the HAVING clause keeps, or -1
/// when the shape is outside the cost model (the gate then stands down).
double EstimateReducerKeepFraction(const QueryBlock& reducer) {
  if (reducer.having == nullptr || reducer.tables.empty()) return -1.0;
  CardinalityEstimator est(reducer);
  std::vector<size_t> all(reducer.tables.size());
  std::iota(all.begin(), all.end(), 0);
  double join_rows = EstimateJoinRows(est, all);
  std::vector<size_t> group_offsets;
  for (const ExprPtr& g : reducer.group_by) {
    std::vector<const Expr*> refs;
    CollectColumnRefs(g, &refs);
    for (const Expr* r : refs) {
      if (r->resolved_index >= 0) {
        group_offsets.push_back(static_cast<size_t>(r->resolved_index));
      }
    }
  }
  double groups = EstimateDistinctValues(est, group_offsets, join_rows);
  double avg_group = join_rows / std::max(groups, 1.0);
  return EstimateHavingKeepFraction(reducer.having, avg_group);
}

/// True when the expression holds a non-NULL literal outside of any
/// aggregate subtree — i.e. a value that shape normalization would have
/// parameterized, so it varies across statements of the same shape.
bool HasParamLiteral(const Expr& e) {
  std::vector<const Expr*> literals;
  std::vector<const Expr*> aggregates;
  CollectParamNodes(e, &literals, &aggregates);
  return !literals.empty();
}

}  // namespace

uint64_t BlockShapeGuard(const QueryBlock& block) {
  std::string desc;
  desc.reserve(256);
  for (const BoundTableRef& t : block.tables) {
    desc += "T";
    desc += t.alias;
    desc += ":";
    if (t.table != nullptr) desc += t.table->name();
    desc += ";";
  }
  for (const ExprPtr& e : block.where_conjuncts) {
    desc += "W" + ParamShapeSignature(*e) + ";";
  }
  for (const ExprPtr& e : block.group_by) {
    desc += "G" + ParamShapeSignature(*e) + ";";
  }
  if (block.having != nullptr) {
    desc += "H" + ParamShapeSignature(*block.having) + ";";
  }
  for (const BoundSelectItem& s : block.select) {
    desc += "S" + s.alias + "=" + ParamShapeSignature(*s.expr) + ";";
  }
  if (block.distinct) desc += "D;";
  for (const QueryBlock::OrderSpec& o : block.order_by) {
    desc += "O" + std::to_string(o.output_column) + (o.ascending ? "a" : "d") +
            ";";
  }
  desc += "L" + std::to_string(block.limit);
  return GuardFnv1a(desc);
}

std::string IcebergReport::ToString() const {
  std::string out;
  for (const std::string& s : steps) out += "- " + s + "\n";
  for (const Reduction& r : reductions) {
    out += "- reduced " + r.alias + ": " + std::to_string(r.rows_before) +
           " -> " + std::to_string(r.rows_after) + " rows\n";
  }
  if (used_nljp) {
    out += nljp_explain;
    out += "  stats: " + nljp_stats.ToString() + "\n";
  }
  for (const std::string& d : degradations) {
    out += "- degraded: " + d + "\n";
  }
  return out;
}

/// One statement's plan, alive from Plan to the end of Execute. It is
/// heap-held and never moves: the NLJP operator points into `block`.
struct IcebergOptimizer::PlannedBlock {
  QueryBlock block;  // FD equalities appended, reducer selections attached
  GovernorReservation reservation;           // the selection bitmaps' bytes
  std::vector<AprioriOpportunity> reducers;  // applied, in pick order
  std::unique_ptr<NljpOperator> nljp;  // null: fallback_exec runs `block`
  std::string no_nljp;                 // why the search found no NLJP plan
  ExecOptions fallback_exec;
};

Result<std::vector<AprioriOpportunity>> IcebergOptimizer::PickApriori(
    const QueryBlock& block, const PlanTrace* trace, IcebergReport* report) {
  std::vector<AprioriOpportunity> picked;
  if (trace != nullptr) {
    // Re-verify each recorded reducer partition (safety depends only on
    // structure + FDs, but re-checking keeps replay trust-free), skipping
    // the scored candidate search.
    for (const TablePartition& partition : trace->apriori_partitions) {
      const std::string desc = partition.ToString(block);
      Result<IcebergView> view = AnalyzeIceberg(block, partition);
      if (!view.ok()) {
        return Status::NotSupported("recorded reducer partition " + desc +
                                    " no longer analyzable: " +
                                    view.status().message());
      }
      Result<AprioriOpportunity> opp = CheckApriori(*view);
      if (!opp.ok()) {
        return Status::NotSupported("recorded reducer partition " + desc +
                                    " no longer safe: " +
                                    opp.status().message());
      }
      report->steps.push_back("a-priori on " + desc + ": " +
                              opp->safety_reason + " (replayed)");
      picked.push_back(std::move(*opp));
    }
    return picked;
  }
  if (!options_.enable_apriori) return picked;

  // Listing 9: iterate over candidate subsets; once a reducer claims a set
  // of tables, remove them from further consideration.
  std::set<size_t> available;
  for (size_t i = 0; i < block.tables.size(); ++i) available.insert(i);
  const bool cbo_gate = options_.base_exec.cbo && CboEnabled();

  bool progress = true;
  while (progress && !available.empty()) {
    progress = false;
    // Score every available candidate and take the most constrained one:
    // more intra-L join conjuncts means a tighter (more selective, cheaper)
    // reducer. First-found ordering could otherwise pick a weakly joined
    // pair that starves a better one (e.g. {S2,T1} vs {S2,T2} in
    // Example 13 once FD inference links the categories).
    std::optional<AprioriOpportunity> best;
    std::string best_desc;
    size_t best_score = 0;
    for (size_t size = 1; size < block.tables.size() && !best.has_value();
         ++size) {
      for (const TablePartition& partition : CandidatePartitions(block)) {
        if (partition.left.size() != size) continue;
        bool all_available = true;
        for (size_t ti : partition.left) {
          if (available.count(ti) == 0) all_available = false;
        }
        if (!all_available) continue;
        Result<IcebergView> view = AnalyzeIceberg(block, partition);
        if (!view.ok()) continue;
        size_t score = 1 + view->left_only.size();
        Result<AprioriOpportunity> opp = CheckApriori(*view);
        if (!opp.ok()) continue;
        if (cbo_gate) {
          size_t claimed = 0;
          for (const auto& app : opp->applications) {
            claimed = std::max(
                claimed, block.tables[app.table_index].table->num_rows());
          }
          if (claimed > kAprioriGateMinRows) {
            double keep = EstimateReducerKeepFraction(opp->reducer_block);
            if (keep >= 0.0 && (1.0 - keep) < kAprioriGateMinRemoved) {
              ICEBERG_COUNTER("cbo.apriori_skipped")->Increment();
              report->steps.push_back(
                  "a-priori on " + partition.ToString(block) +
                  " skipped by cost model (HAVING keeps ~all groups)");
              continue;
            }
          }
        }
        if (!best.has_value() || score > best_score) {
          best = std::move(*opp);
          best_desc = partition.ToString(block);
          best_score = score;
        }
      }
    }
    if (best.has_value()) {
      // Claim only the tables the reducer actually filters (the paper's
      // "subset of T_L with at least one attribute output by Q_L").
      for (const auto& app : best->applications) {
        available.erase(app.table_index);
      }
      report->steps.push_back("a-priori on " + best_desc + ": " +
                              best->safety_reason);
      picked.push_back(std::move(*best));
      progress = true;
    }
  }
  return picked;
}

Status IcebergOptimizer::ApplyReducers(
    const std::vector<AprioriOpportunity>& opportunities, QueryBlock* block,
    IcebergReport* report, GovernorReservation* reservation) {
  ExecOptions reducer_exec = options_.base_exec;
  reducer_exec.governor = options_.governor;
  Executor executor(reducer_exec);
  for (const AprioriOpportunity& opp : opportunities) {
    ICEBERG_ASSIGN_OR_RETURN(std::vector<AprioriSelection> selections,
                             ApplyApriori(opp, &executor));
    for (AprioriSelection& s : selections) {
      BoundTableRef& tref = block->tables[s.table_index];
      if (s.selection != nullptr) {
        // The bitmap is advisory state: Theorem 2 makes the reduction
        // optional, so a refused reservation drops it, never the query.
        const size_t bytes = s.selection->keep.size();
        if (!reservation->TryReserve(bytes, "apriori-selection")) {
          report->degradations.push_back("a-priori selection on " +
                                         tref.alias +
                                         " skipped under memory pressure");
          continue;
        }
        tref.selection = std::move(s.selection);
      }
      report->reductions.push_back({tref.alias, s.rows_before, s.rows_after});
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<NljpOperator>> IcebergOptimizer::PickMemprune(
    const QueryBlock& block, const PlanTrace* trace, PlanTrace* capture,
    bool capture_artifacts, IcebergReport* report) {
  NljpOptions nljp_options;
  nljp_options.enable_memo = options_.enable_memo;
  nljp_options.enable_prune = options_.enable_prune;
  nljp_options.cache_index = options_.cache_index;
  nljp_options.use_indexes = options_.use_indexes;
  nljp_options.predicate_transfer = options_.base_exec.predicate_transfer;
  nljp_options.binding_order = options_.binding_order;
  nljp_options.max_cache_entries = options_.max_cache_entries;
  nljp_options.governor = options_.governor;
  nljp_options.num_threads = options_.base_exec.num_threads;
  nljp_options.cache_registry = options_.cache_registry;
  nljp_options.cache_key = options_.cache_key;
  nljp_options.replay_artifacts =
      trace != nullptr ? &trace->nljp_artifacts : nullptr;

  std::string failures;
  std::vector<TablePartition> candidates =
      trace != nullptr ? std::vector<TablePartition>{trace->nljp_partition}
                       : CandidatePartitions(block);
  std::vector<size_t> order(candidates.size());
  std::iota(order.begin(), order.end(), 0);
  // Under the cost-based optimizer, the search ranks candidate partitions
  // by (1) pruning capability — a partition satisfying Theorem 3's
  // structural premise (G_L -> A_L) can skip entire inner executions,
  // which dominates any memo-reuse difference — then (2) estimated
  // distinct L-side bindings (ascending): fewer distinct bindings means
  // more memo reuse per cache entry. Without CBO the emission order stands
  // (minimal L side covering GROUP BY first), and partitions are analyzed
  // lazily exactly as before.
  const bool cbo_active =
      trace == nullptr && options_.base_exec.cbo && CboEnabled();
  std::vector<Result<IcebergView>> views;  // prefilled only under CBO
  std::vector<double> est_bindings(candidates.size(), -1.0);
  std::vector<double> est_l_rows(candidates.size(), -1.0);
  if (cbo_active && !candidates.empty()) {
    CardinalityEstimator est(block);
    std::vector<char> prune_capable(candidates.size(), 0);
    views.reserve(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      views.push_back(AnalyzeIceberg(block, candidates[i]));
      if (!views[i].ok()) continue;
      prune_capable[i] =
          options_.enable_prune && views[i]->GroupDeterminesLeft();
      est_l_rows[i] = EstimateJoinRows(est, candidates[i].left);
      est_bindings[i] =
          EstimateDistinctValues(est, views[i]->jl_offsets, est_l_rows[i]);
    }
    auto rank = [&](size_t i) {
      return est_bindings[i] < 0 ? std::numeric_limits<double>::infinity()
                                 : est_bindings[i];
    };
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (prune_capable[a] != prune_capable[b]) return prune_capable[a] != 0;
      return rank(a) < rank(b);
    });
  }
  // A replayed partition that no longer plans means the trace does not
  // transfer; the search instead moves on to its next candidate.
  for (size_t idx : order) {
    const TablePartition& partition = candidates[idx];
    // CandidatePartitions emits the minimal L side covering all GROUP BY
    // attributes first — the paper's preferred starting point.
    Result<IcebergView> view = cbo_active
                                   ? std::move(views[idx])
                                   : AnalyzeIceberg(block, partition);
    if (!view.ok()) {
      if (trace != nullptr) {
        return Status::NotSupported(
            "recorded NLJP partition no longer analyzable: " +
            view.status().message());
      }
      continue;
    }
    // Memo-only veto: with pruning disabled, an NLJP whose bindings are
    // estimated to almost never repeat over a large L join pays the cache
    // insert on every probe and saves nothing.
    if (cbo_active && !options_.enable_prune && est_bindings[idx] >= 0.0 &&
        est_l_rows[idx] > kNljpVetoMinRows &&
        est_bindings[idx] > kNljpVetoRepeatFraction * est_l_rows[idx]) {
      ICEBERG_COUNTER("cbo.nljp_vetoed")->Increment();
      failures += "\n  " + partition.ToString(block) +
                  ": vetoed by cost model (bindings rarely repeat)";
      continue;
    }
    // The pruning decision embeds θ's literal values in the derived p>=
    // predicate, so it transfers across literal re-bindings only when θ
    // carries none. Checked before `view` is consumed by Create.
    bool theta_literal_free = true;
    if (capture != nullptr && capture_artifacts) {
      for (const ExprPtr& t : view->theta) {
        if (HasParamLiteral(*t)) {
          theta_literal_free = false;
          break;
        }
      }
    }
    Result<std::unique_ptr<NljpOperator>> op =
        NljpOperator::Create(std::move(*view), nljp_options);
    if (!op.ok()) {
      if (trace != nullptr) {
        return Status::NotSupported(
            "recorded NLJP partition no longer applicable: " +
            op.status().message());
      }
      failures += "\n  " + partition.ToString(block) + ": " +
                  op.status().message();
      continue;
    }
    // Require at least one technique to be active; a bare NLJP is never
    // better than the baseline join.
    if (!(*op)->memo_enabled() && !(*op)->prune_enabled()) {
      if (trace != nullptr) {
        return Status::NotSupported(
            "recorded NLJP partition: neither memoization nor pruning "
            "applicable");
      }
      failures += "\n  " + partition.ToString(block) +
                  ": neither memoization nor pruning applicable";
      continue;
    }
    report->steps.push_back("NLJP on " + partition.ToString(block) +
                            (trace != nullptr ? " (replayed)" : ""));
    if (capture != nullptr) {
      capture->used_nljp = true;
      capture->nljp_partition = partition;
      if (capture_artifacts) {
        NljpPlanArtifacts& art = capture->nljp_artifacts;
        // Monotonicity classification reads predicate structure, the
        // comparison direction and base-table data (pinned by the catalog
        // hash in the cache key) — never the threshold literal — so it is
        // injectable; it is recorded only for plans without reducers.
        art.monotonicity_valid = true;
        art.monotonicity = (*op)->monotonicity();
        if (theta_literal_free) {
          art.have_prune_decision = true;
          art.prune_enabled = (*op)->prune_enabled();
          art.prune_disabled_reason = (*op)->prune_disabled_reason();
          if ((*op)->prune_enabled()) {
            art.subsumption = (*op)->subsumption();
          }
        }
      }
    }
    return op;
  }
  return Status::NotSupported("no NLJP opportunity:" + failures);
}

Result<std::unique_ptr<IcebergOptimizer::PlannedBlock>> IcebergOptimizer::Plan(
    const QueryBlock& block, const PlanTrace* trace, PlanTrace* capture,
    IcebergReport* report) {
  if (trace != nullptr && BlockShapeGuard(block) != trace->block_guard) {
    return Status::NotSupported("block shape guard mismatch");
  }
  if (capture != nullptr) capture->block_guard = BlockShapeGuard(block);
  auto planned = std::make_unique<PlannedBlock>();
  planned->block = block;
  planned->reservation = GovernorReservation(options_.governor.get());
  {
    TraceSpan span("optimize.infer_fds", "optimize");
    PhaseTimer timer(&report->timing.infer_us);
    std::vector<ExprPtr>& conjuncts = planned->block.where_conjuncts;
    if (trace == nullptr) {
      InferDerivedEqualities(&planned->block);
    } else {
      // Clone per replay: the trace's bound trees are shared by every
      // session holding the cache entry and must not be aliased into a
      // live plan.
      for (const ExprPtr& e : trace->derived_equalities) {
        conjuncts.push_back(CloneExpr(e));
      }
    }
    const size_t derived = conjuncts.size() - block.where_conjuncts.size();
    if (derived > 0) {
      ICEBERG_COUNTER("optimizer.fd_equalities")->Add(derived);
      report->steps.push_back(
          trace == nullptr ? "inferred " + std::to_string(derived) +
                                 " equality predicate(s) from FDs"
                           : "replayed " + std::to_string(derived) +
                                 " inferred equality predicate(s)");
    }
    for (size_t i = block.where_conjuncts.size();
         capture != nullptr && i < conjuncts.size(); ++i) {
      capture->derived_equalities.push_back(CloneExpr(conjuncts[i]));
    }
  }
  {
    TraceSpan span("optimize.apriori_pick", "optimize");
    PhaseTimer timer(&report->timing.apriori_pick_us);
    ICEBERG_ASSIGN_OR_RETURN(planned->reducers,
                             PickApriori(planned->block, trace, report));
  }
  const std::vector<AprioriOpportunity>& reducers = planned->reducers;
  if (capture != nullptr) {
    for (const AprioriOpportunity& opp : reducers) {
      capture->apriori_partitions.push_back(opp.partition);
    }
  }
  // Reducer evaluation is literal-dependent and runs in both modes.
  if (!reducers.empty()) {
    TraceSpan span("optimize.apriori_apply", "optimize");
    PhaseTimer timer(&report->timing.apriori_apply_us);
    ICEBERG_COUNTER("optimizer.apriori_applied")->Add(reducers.size());
    ICEBERG_RETURN_NOT_OK(ApplyReducers(reducers, &planned->block, report,
                                        &planned->reservation));
  }
  const bool techniques = options_.enable_memo || options_.enable_prune;
  if (trace != nullptr && trace->used_nljp && !techniques) {
    return Status::NotSupported("trace used NLJP but both techniques are "
                                "disabled");
  }
  if (techniques && (trace == nullptr || trace->used_nljp)) {
    Result<std::unique_ptr<NljpOperator>> op = [&] {
      TraceSpan span("optimize.pick_memprune", "optimize");
      PhaseTimer timer(&report->timing.pick_nljp_us);
      return PickMemprune(planned->block, trace, capture,
                          /*capture_artifacts=*/reducers.empty(), report);
    }();
    if (op.ok()) {
      if (capture != nullptr) capture->captured = true;
      planned->nljp = std::move(*op);
      return planned;
    }
    if (trace != nullptr) return op.status();
    planned->no_nljp = op.status().message();
    const std::string& why = planned->no_nljp;
    ICEBERG_LOG(INFO) << "iceberg plan fell back to baseline: " << why;
    report->steps.push_back("fallback to baseline (" + why + ")");
    report->degradations.push_back("fallback to baseline plan: " + why);
  } else if (techniques) {
    // The captured plan used the baseline executor; replay that decision
    // without re-running the NLJP partition search.
    report->steps.push_back("fallback to baseline (replayed decision)");
    report->degradations.push_back(
        "fallback to baseline plan (replayed decision)");
  }
  planned->fallback_exec = options_.base_exec;
  planned->fallback_exec.governor = options_.governor;
  if (capture != nullptr) {
    // The no-NLJP decision is replayable only when no reducer ran: the
    // cost model's NLJP veto reads row estimates scaled by the reducers'
    // selections, which vary with literal values. (With the techniques
    // disabled outright the decision is trivially stable.)
    capture->captured = reducers.empty() || !techniques;
    planned->fallback_exec.transfer_capture = &capture->transfer_schedule;
    planned->fallback_exec.join_order_capture = &capture->join_order;
  }
  if (trace != nullptr && trace->transfer_schedule.valid) {
    planned->fallback_exec.transfer_replay = &trace->transfer_schedule;
  }
  if (trace != nullptr && trace->join_order.valid) {
    planned->fallback_exec.join_order_replay = &trace->join_order;
  }
  return planned;
}

Result<TablePtr> IcebergOptimizer::Execute(PlannedBlock* planned,
                                           IcebergReport* report) {
  if (planned->nljp == nullptr) {
    if (options_.enable_memo || options_.enable_prune) {
      ICEBERG_COUNTER("optimizer.fallbacks")->Increment();
    }
    Executor executor(planned->fallback_exec);
    PhaseTimer timer(&report->timing.execute_us);
    return executor.Execute(planned->block, &report->exec_stats);
  }
  NljpOperator& op = *planned->nljp;
  ICEBERG_COUNTER("optimizer.nljp_chosen")->Increment();
  report->used_nljp = true;
  report->nljp_explain = op.Explain();
  PhaseTimer timer(&report->timing.execute_us);
  Result<TablePtr> result = op.Execute(&report->nljp_stats);
  if (options_.enable_prune && !op.prune_enabled()) {
    report->degradations.push_back("pruning disabled: " +
                                   op.prune_disabled_reason());
  }
  if (report->nljp_stats.cache_shed_entries > 0) {
    report->degradations.push_back(
        "shed " + std::to_string(report->nljp_stats.cache_shed_entries) +
        " cache entries under memory pressure");
  }
  return result;
}

Result<TablePtr> IcebergOptimizer::Run(const QueryBlock& block,
                                       IcebergReport* report) {
  // Local report when the caller passed none: phase timings and rewrite
  // decisions still feed the metrics registry either way.
  IcebergReport local_report;
  if (report == nullptr) report = &local_report;
  ICEBERG_COUNTER("optimizer.queries")->Increment();
  QueryGovernor* governor = options_.governor.get();
  if (governor != nullptr) ICEBERG_RETURN_NOT_OK(governor->Check());
  if (options_.replay != nullptr && options_.replay->captured) {
    // A scratch report: a trace that does not transfer leaves no steps.
    IcebergReport replay_report;
    Result<std::unique_ptr<PlannedBlock>> replayed =
        Plan(block, options_.replay, /*capture=*/nullptr, &replay_report);
    if (replayed.ok() ||
        replayed.status().code() != StatusCode::kNotSupported) {
      // The trace transferred, or planning hit the query's real outcome
      // (governor trips stay retryable): the replayed plan stands.
      replay_report.plan_provenance = "hit";
      *report = std::move(replay_report);
      if (!replayed.ok()) return replayed.status();
      return Execute(replayed->get(), report);
    }
    ICEBERG_COUNTER("plan_cache.replay_fallbacks")->Increment();
    ICEBERG_LOG(INFO) << "plan trace did not transfer, re-optimizing: "
                      << replayed.status().message();
    report->plan_provenance = "hit-fallback";
    report->steps.push_back("plan trace did not transfer (" +
                            replayed.status().message() + ")");
  } else if (options_.capture != nullptr) {
    report->plan_provenance = "miss";
  }
  ICEBERG_ASSIGN_OR_RETURN(
      std::unique_ptr<PlannedBlock> planned,
      Plan(block, /*trace=*/nullptr, options_.capture, report));
  return Execute(planned.get(), report);
}

Result<std::string> IcebergOptimizer::Explain(const QueryBlock& block) {
  IcebergReport report;
  ICEBERG_ASSIGN_OR_RETURN(
      std::unique_ptr<PlannedBlock> planned,
      Plan(block, /*trace=*/nullptr, /*capture=*/nullptr, &report));
  std::string out;
  // Planning only appends conjuncts: the FD-derived equalities.
  const size_t derived = planned->block.where_conjuncts.size() -
                         block.where_conjuncts.size();
  if (derived > 0) {
    out += "inferred " + std::to_string(derived) +
           " equality predicate(s) from FDs\n";
  }
  for (const AprioriOpportunity& opp : planned->reducers) {
    out += opp.ToString() + "\n";
  }
  for (const IcebergReport::Reduction& r : report.reductions) {
    out += "reduced " + r.alias + ": " + std::to_string(r.rows_before) +
           " -> " + std::to_string(r.rows_after) + " rows\n";
  }
  if (planned->nljp != nullptr) return out + planned->nljp->Explain();
  if (options_.enable_memo || options_.enable_prune) {
    out += "no NLJP: " + planned->no_nljp + "\n";
  }
  Executor executor(planned->fallback_exec);
  out += executor.Explain(planned->block);
  return out;
}

}  // namespace iceberg
