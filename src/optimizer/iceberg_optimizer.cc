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

std::vector<AprioriOpportunity> IcebergOptimizer::PickApriori(
    const QueryBlock& block, IcebergReport* report) {
  std::vector<AprioriOpportunity> picked;
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
              if (report != nullptr) {
                report->steps.push_back(
                    "a-priori on " + partition.ToString(block) +
                    " skipped by cost model (HAVING keeps ~all groups)");
              }
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
      if (report != nullptr) {
        report->steps.push_back("a-priori on " + best_desc + ": " +
                                best->safety_reason);
      }
      picked.push_back(std::move(*best));
      progress = true;
    }
  }
  return picked;
}

Result<QueryBlock> IcebergOptimizer::ApplyReducers(
    const QueryBlock& block,
    const std::vector<AprioriOpportunity>& opportunities,
    IcebergReport* report, GovernorReservation* reservation) {
  QueryBlock rewritten = block;
  ExecOptions reducer_exec = options_.base_exec;
  reducer_exec.governor = options_.governor;
  Executor executor(reducer_exec);
  for (const AprioriOpportunity& opp : opportunities) {
    ICEBERG_ASSIGN_OR_RETURN(std::vector<AprioriSelection> selections,
                             ApplyApriori(opp, &executor));
    for (AprioriSelection& s : selections) {
      BoundTableRef& tref = rewritten.tables[s.table_index];
      if (s.selection != nullptr) {
        // The bitmap is advisory state: Theorem 2 makes the reduction
        // optional, so a refused reservation drops it, never the query.
        const size_t bytes = s.selection->keep.size();
        if (!reservation->TryReserve(bytes, "apriori-selection")) {
          if (report != nullptr) {
            report->degradations.push_back(
                "a-priori selection on " + tref.alias +
                " skipped under memory pressure");
          }
          continue;
        }
        tref.selection = std::move(s.selection);
      }
      if (report != nullptr) {
        IcebergReport::Reduction r;
        r.alias = tref.alias;
        r.rows_before = s.rows_before;
        r.rows_after = s.rows_after;
        report->reductions.push_back(std::move(r));
      }
    }
  }
  return rewritten;
}

Result<std::unique_ptr<NljpOperator>> IcebergOptimizer::PickMemprune(
    const QueryBlock& block, IcebergReport* report,
    const NljpPlanArtifacts* replay_artifacts,
    bool capture_artifacts_injectable) {
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
  nljp_options.replay_artifacts = replay_artifacts;

  std::string failures;
  std::vector<TablePartition> candidates = CandidatePartitions(block);
  std::vector<size_t> order(candidates.size());
  std::iota(order.begin(), order.end(), 0);
  // Under the cost-based optimizer, rank candidate partitions by (1)
  // pruning capability — a partition satisfying Theorem 3's structural
  // premise (G_L -> A_L) can skip entire inner executions, which dominates
  // any memo-reuse difference — then (2) estimated distinct L-side
  // bindings (ascending): fewer distinct bindings means more memo reuse
  // per cache entry. Without CBO the emission order stands (minimal L side
  // covering GROUP BY first), and partitions are analyzed lazily exactly
  // as before.
  const bool cbo_active = options_.base_exec.cbo && CboEnabled();
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
  for (size_t idx : order) {
    const TablePartition& partition = candidates[idx];
    // CandidatePartitions emits the minimal L side covering all GROUP BY
    // attributes first — the paper's preferred starting point.
    Result<IcebergView> view = cbo_active
                                   ? std::move(views[idx])
                                   : AnalyzeIceberg(block, partition);
    if (!view.ok()) continue;
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
    if (options_.capture != nullptr && capture_artifacts_injectable) {
      for (const ExprPtr& t : view->theta) {
        if (HasParamLiteral(*t)) {
          theta_literal_free = false;
          break;
        }
      }
    }
    Result<std::unique_ptr<NljpOperator>> op =
        NljpOperator::Create(std::move(*view), nljp_options);
    if (op.ok()) {
      // Require at least one technique to be active; a bare NLJP is never
      // better than the baseline join.
      if (!(*op)->memo_enabled() && !(*op)->prune_enabled()) {
        failures += "\n  " + partition.ToString(block) +
                    ": neither memoization nor pruning applicable";
        continue;
      }
      if (report != nullptr) {
        report->steps.push_back("NLJP on " + partition.ToString(block));
      }
      if (options_.capture != nullptr) {
        PlanTrace* cap = options_.capture;
        cap->used_nljp = true;
        cap->nljp_partition = partition;
        if (capture_artifacts_injectable) {
          NljpPlanArtifacts& art = cap->nljp_artifacts;
          // Monotonicity classification reads predicate structure, the
          // comparison direction and base-table data (pinned by the
          // catalog hash in the cache key) — never the threshold literal —
          // so it is injectable; it is recorded only for plans without
          // reducers.
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
    failures += "\n  " + partition.ToString(block) + ": " +
                op.status().message();
  }
  return Status::NotSupported("no NLJP opportunity:" + failures);
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
    // Replay into a scratch report so a non-transferring trace leaves no
    // half-recorded steps or timings behind.
    IcebergReport replay_report;
    Result<TablePtr> replayed =
        RunReplay(block, *options_.replay, &replay_report);
    if (replayed.ok() ||
        replayed.status().code() != StatusCode::kNotSupported) {
      // Success, or the query's real outcome (governor trips stay
      // retryable) — either way the replayed plan stands.
      replay_report.plan_provenance = "hit";
      *report = std::move(replay_report);
      return replayed;
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
  return RunFull(block, report);
}

Result<TablePtr> IcebergOptimizer::RunFull(const QueryBlock& block,
                                           IcebergReport* report) {
  PlanTrace* cap = options_.capture;
  if (cap != nullptr) cap->block_guard = BlockShapeGuard(block);
  QueryBlock inferred = block;
  {
    TraceSpan span("optimize.infer_fds", "optimize");
    PhaseTimer timer(&report->timing.infer_us);
    size_t derived = InferDerivedEqualities(&inferred);
    if (derived > 0) {
      ICEBERG_COUNTER("optimizer.fd_equalities")->Add(derived);
      report->steps.push_back("inferred " + std::to_string(derived) +
                              " equality predicate(s) from FDs");
      if (cap != nullptr) {
        for (size_t i = block.where_conjuncts.size();
             i < inferred.where_conjuncts.size(); ++i) {
          cap->derived_equalities.push_back(
              CloneExpr(inferred.where_conjuncts[i]));
        }
      }
    }
  }
  std::vector<AprioriOpportunity> reducers;
  {
    TraceSpan span("optimize.apriori_pick", "optimize");
    PhaseTimer timer(&report->timing.apriori_pick_us);
    reducers = PickApriori(inferred, report);
  }
  if (cap != nullptr) {
    for (const AprioriOpportunity& opp : reducers) {
      cap->apriori_partitions.push_back(opp.partition);
    }
  }
  QueryBlock rewritten = inferred;
  GovernorReservation reservation(options_.governor.get());
  if (!reducers.empty()) {
    TraceSpan span("optimize.apriori_apply", "optimize");
    PhaseTimer timer(&report->timing.apriori_apply_us);
    ICEBERG_COUNTER("optimizer.apriori_applied")->Add(reducers.size());
    ICEBERG_ASSIGN_OR_RETURN(
        rewritten, ApplyReducers(inferred, reducers, report, &reservation));
  }
  if (options_.enable_memo || options_.enable_prune) {
    Result<std::unique_ptr<NljpOperator>> op = [&] {
      TraceSpan span("optimize.pick_memprune", "optimize");
      PhaseTimer timer(&report->timing.pick_nljp_us);
      return PickMemprune(rewritten, report, /*replay_artifacts=*/nullptr,
                          /*capture_artifacts_injectable=*/reducers.empty());
    }();
    if (op.ok()) {
      if (cap != nullptr) cap->captured = true;
      ICEBERG_COUNTER("optimizer.nljp_chosen")->Increment();
      report->used_nljp = true;
      report->nljp_explain = (*op)->Explain();
      PhaseTimer timer(&report->timing.execute_us);
      Result<TablePtr> result = (*op)->Execute(&report->nljp_stats);
      if (options_.enable_prune && !(*op)->prune_enabled()) {
        report->degradations.push_back("pruning disabled: " +
                                       (*op)->prune_disabled_reason());
      }
      if (report->nljp_stats.cache_shed_entries > 0) {
        report->degradations.push_back(
            "shed " +
            std::to_string(report->nljp_stats.cache_shed_entries) +
            " cache entries under memory pressure");
      }
      return result;
    }
    ICEBERG_COUNTER("optimizer.fallbacks")->Increment();
    ICEBERG_LOG(INFO) << "iceberg plan fell back to baseline: "
                      << op.status().message();
    report->steps.push_back("fallback to baseline (" +
                            op.status().message() + ")");
    report->degradations.push_back("fallback to baseline plan: " +
                                   op.status().message());
  }
  if (cap != nullptr) {
    // The no-NLJP decision is replayable only when no reducer ran: the
    // cost model's NLJP veto reads row estimates scaled by the reducers'
    // selections, which vary with literal values. (With the techniques
    // disabled outright the decision is trivially stable.)
    cap->captured =
        reducers.empty() || !(options_.enable_memo || options_.enable_prune);
  }
  ExecOptions fallback_exec = options_.base_exec;
  fallback_exec.governor = options_.governor;
  if (cap != nullptr) {
    fallback_exec.transfer_capture = &cap->transfer_schedule;
    fallback_exec.join_order_capture = &cap->join_order;
  }
  Executor executor(fallback_exec);
  PhaseTimer timer(&report->timing.execute_us);
  return executor.Execute(rewritten, &report->exec_stats);
}

Result<TablePtr> IcebergOptimizer::RunReplay(const QueryBlock& block,
                                             const PlanTrace& trace,
                                             IcebergReport* report) {
  if (BlockShapeGuard(block) != trace.block_guard) {
    return Status::NotSupported("block shape guard mismatch");
  }
  QueryBlock inferred = block;
  {
    TraceSpan span("optimize.infer_fds", "optimize");
    PhaseTimer timer(&report->timing.infer_us);
    if (!trace.derived_equalities.empty()) {
      // Clone per replay: the trace's bound trees are shared by every
      // session holding the cache entry and must not be aliased into a
      // live plan.
      for (const ExprPtr& e : trace.derived_equalities) {
        inferred.where_conjuncts.push_back(CloneExpr(e));
      }
      ICEBERG_COUNTER("optimizer.fd_equalities")
          ->Add(trace.derived_equalities.size());
      report->steps.push_back(
          "replayed " + std::to_string(trace.derived_equalities.size()) +
          " inferred equality predicate(s)");
    }
  }
  // Re-verify each recorded reducer partition (safety depends only on
  // structure + FDs, but re-checking keeps replay trust-free), skipping
  // the scored candidate search.
  std::vector<AprioriOpportunity> reducers;
  {
    TraceSpan span("optimize.apriori_pick", "optimize");
    PhaseTimer timer(&report->timing.apriori_pick_us);
    for (const TablePartition& partition : trace.apriori_partitions) {
      Result<IcebergView> view = AnalyzeIceberg(inferred, partition);
      if (!view.ok()) {
        return Status::NotSupported("recorded reducer partition " +
                                    partition.ToString(inferred) +
                                    " no longer analyzable: " +
                                    view.status().message());
      }
      Result<AprioriOpportunity> opp = CheckApriori(*view);
      if (!opp.ok()) {
        return Status::NotSupported("recorded reducer partition " +
                                    partition.ToString(inferred) +
                                    " no longer safe: " +
                                    opp.status().message());
      }
      report->steps.push_back("a-priori on " + partition.ToString(inferred) +
                              ": " + opp->safety_reason + " (replayed)");
      reducers.push_back(std::move(*opp));
    }
  }
  // Reducer evaluation is literal-dependent and always re-runs.
  QueryBlock rewritten = inferred;
  GovernorReservation reservation(options_.governor.get());
  if (!reducers.empty()) {
    TraceSpan span("optimize.apriori_apply", "optimize");
    PhaseTimer timer(&report->timing.apriori_apply_us);
    ICEBERG_COUNTER("optimizer.apriori_applied")->Add(reducers.size());
    ICEBERG_ASSIGN_OR_RETURN(
        rewritten, ApplyReducers(inferred, reducers, report, &reservation));
  }
  if (trace.used_nljp) {
    if (!options_.enable_memo && !options_.enable_prune) {
      return Status::NotSupported("trace used NLJP but both techniques are "
                                  "disabled");
    }
    Result<std::unique_ptr<NljpOperator>> op =
        [&]() -> Result<std::unique_ptr<NljpOperator>> {
      TraceSpan span("optimize.pick_memprune", "optimize");
      PhaseTimer timer(&report->timing.pick_nljp_us);
      Result<IcebergView> view =
          AnalyzeIceberg(rewritten, trace.nljp_partition);
      if (!view.ok()) {
        return Status::NotSupported(
            "recorded NLJP partition no longer analyzable: " +
            view.status().message());
      }
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
      nljp_options.replay_artifacts = &trace.nljp_artifacts;
      Result<std::unique_ptr<NljpOperator>> created =
          NljpOperator::Create(std::move(*view), nljp_options);
      if (!created.ok()) {
        return Status::NotSupported(
            "recorded NLJP partition no longer applicable: " +
            created.status().message());
      }
      if (!(*created)->memo_enabled() && !(*created)->prune_enabled()) {
        return Status::NotSupported(
            "recorded NLJP partition: neither memoization nor pruning "
            "applicable");
      }
      return created;
    }();
    if (!op.ok()) return op.status();
    report->steps.push_back(
        "NLJP on " + trace.nljp_partition.ToString(rewritten) + " (replayed)");
    ICEBERG_COUNTER("optimizer.nljp_chosen")->Increment();
    report->used_nljp = true;
    report->nljp_explain = (*op)->Explain();
    PhaseTimer timer(&report->timing.execute_us);
    Result<TablePtr> result = (*op)->Execute(&report->nljp_stats);
    if (options_.enable_prune && !(*op)->prune_enabled()) {
      report->degradations.push_back("pruning disabled: " +
                                     (*op)->prune_disabled_reason());
    }
    if (report->nljp_stats.cache_shed_entries > 0) {
      report->degradations.push_back(
          "shed " + std::to_string(report->nljp_stats.cache_shed_entries) +
          " cache entries under memory pressure");
    }
    return result;
  }
  // The captured plan used the baseline executor; replay that decision
  // without re-running the NLJP partition search.
  if (options_.enable_memo || options_.enable_prune) {
    ICEBERG_COUNTER("optimizer.fallbacks")->Increment();
    report->steps.push_back("fallback to baseline (replayed decision)");
    report->degradations.push_back(
        "fallback to baseline plan (replayed decision)");
  }
  ExecOptions fallback_exec = options_.base_exec;
  fallback_exec.governor = options_.governor;
  if (trace.transfer_schedule.valid) {
    fallback_exec.transfer_replay = &trace.transfer_schedule;
  }
  if (trace.join_order.valid) {
    fallback_exec.join_order_replay = &trace.join_order;
  }
  Executor executor(fallback_exec);
  PhaseTimer timer(&report->timing.execute_us);
  return executor.Execute(rewritten, &report->exec_stats);
}

Result<std::string> IcebergOptimizer::Explain(const QueryBlock& block) {
  IcebergReport report;
  QueryBlock inferred = block;
  size_t derived = InferDerivedEqualities(&inferred);
  std::string out;
  if (derived > 0) {
    out += "inferred " + std::to_string(derived) +
           " equality predicate(s) from FDs\n";
  }
  std::vector<AprioriOpportunity> reducers = PickApriori(inferred, &report);
  for (const AprioriOpportunity& opp : reducers) {
    out += opp.ToString() + "\n";
  }
  QueryBlock rewritten = inferred;
  GovernorReservation reservation(options_.governor.get());
  if (!reducers.empty()) {
    ICEBERG_ASSIGN_OR_RETURN(
        rewritten, ApplyReducers(inferred, reducers, &report, &reservation));
    for (const IcebergReport::Reduction& r : report.reductions) {
      out += "reduced " + r.alias + ": " + std::to_string(r.rows_before) +
             " -> " + std::to_string(r.rows_after) + " rows\n";
    }
  }
  if (options_.enable_memo || options_.enable_prune) {
    Result<std::unique_ptr<NljpOperator>> op =
        PickMemprune(rewritten, &report);
    if (op.ok()) {
      out += (*op)->Explain();
      return out;
    }
    out += "no NLJP: " + op.status().message() + "\n";
  }
  Executor executor(options_.base_exec);
  out += executor.Explain(rewritten);
  return out;
}

}  // namespace iceberg
