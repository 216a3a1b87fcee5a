#ifndef SMARTICEBERG_OPTIMIZER_ICEBERG_OPTIMIZER_H_
#define SMARTICEBERG_OPTIMIZER_ICEBERG_OPTIMIZER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/exec/executor.h"
#include "src/exec/transfer_graph.h"
#include "src/nljp/nljp.h"
#include "src/plan/cost/join_order.h"
#include "src/rewrite/apriori.h"

namespace iceberg {

/// The optimizer decisions captured for one statement shape, stored in the
/// serving layer's PlanCache and replayed for later statements with the
/// same shape over the same catalog version. A trace never stores
/// literal-dependent *data* (reducer selections, memo entries) — those are
/// recomputed per statement — only the *decisions* whose search is the
/// expensive part of planning. Given a trace, each phase of the one
/// planning pass takes and re-verifies the recorded decision:
///
///  - which table partitions got a-priori reducers (re-checked, skipping
///    the scored candidate search),
///  - whether NLJP was chosen and on which partition,
///  - NLJP derivation artifacts (monotonicity class, pruning decision and
///    derived p>=) when they were literal-value-independent at capture.
///
/// Soundness: the cache key pins the catalog version (mutation rotates
/// the hash, so a stale trace misses), and `block_guard` pins the bound
/// block's parameter-insensitive structure, catching the rare lexical
/// shape collision (sign absorption, IN-list collapse). A guard mismatch
/// or failed re-check replays nothing: the statement is planned by search.
struct PlanTrace {
  uint64_t block_guard = 0;
  /// FD-derived equality conjuncts (literal-free, bound to the block's
  /// flat offsets). Replay appends clones instead of re-running the
  /// fixpoint inference.
  std::vector<ExprPtr> derived_equalities;
  std::vector<TablePartition> apriori_partitions;
  bool used_nljp = false;
  TablePartition nljp_partition;
  NljpPlanArtifacts nljp_artifacts;
  /// Predicate-transfer graph shape of the fallback-executor plan (edge
  /// set, node order, observed fixpoint passes). Replay hands it to the
  /// executor so a plan-cache hit skips the order/pass exploration; the
  /// Bloom filters themselves are data-dependent and always rebuilt.
  /// (NLJP plans re-derive the Q_B graph instead — it is per-binding-block
  /// and cheap relative to the operator's own setup.)
  TransferSchedule transfer_schedule;
  /// Join order the cost-based enumerator chose for the fallback-executor
  /// plan, with its per-level row estimates. Replay skips statistics
  /// collection and enumeration; the executor re-validates the order as a
  /// permutation of the block's FROM list and ignores it on mismatch.
  JoinOrderSchedule join_order;
  /// Set once the capture side has fully populated the trace (only
  /// successful plans are inserted into the cache).
  bool captured = false;
};

/// Parameter-insensitive structural hash of a bound block: tables
/// (aliases, in order), conjunct/group/having/select shapes via
/// ParamShapeSignature, distinct/order/limit. Two statements with equal
/// guards make the optimizer walk the same decision tree wherever its
/// choices do not depend on literal values.
uint64_t BlockShapeGuard(const QueryBlock& block);

/// Toggles for the three Smart-Iceberg techniques plus physical knobs.
/// Disabling all three reduces Run() to the baseline executor.
struct IcebergOptions {
  bool enable_apriori = true;
  bool enable_memo = true;
  bool enable_prune = true;

  /// Cache index (Fig. 4 "CI"): hash lookup vs. linear scan for memo hits.
  bool cache_index = true;
  /// Secondary-index use in component queries (Fig. 4 "BT").
  bool use_indexes = true;
  BindingOrder binding_order = BindingOrder::kNatural;
  /// Bound on NLJP cache entries (0 = unbounded); see NljpOptions.
  size_t max_cache_entries = 0;

  /// Executor used for reducers and the fallback plan.
  ExecOptions base_exec;

  /// Optional per-query resource governor, shared by every stage (reducers,
  /// NLJP, fallback executor). Deadline/cancellation trips surface as
  /// Cancelled; mandatory-state overruns as ResourceExhausted. Advisory
  /// degradations (cache shedding) are recorded in
  /// IcebergReport::degradations instead of failing the query.
  GovernorPtr governor;

  /// Cross-query NLJP cache promotion (set by the serving layer): when
  /// both are set, the NLJP operator fetches its memo/prune cache from the
  /// registry under `cache_key` (statement fingerprint + catalog version)
  /// so repeated iceberg statements reuse pruning witnesses across
  /// sessions. See NljpOptions::cache_registry.
  NljpCacheRegistry* cache_registry = nullptr;
  uint64_t cache_key = 0;

  /// Plan-cache integration (set by the serving layer; both borrowed and
  /// must outlive Run). `capture` non-null makes Run's searching plan
  /// record its decisions into the trace (Explain never does). `replay`
  /// non-null makes Run plan from a previously captured trace, each phase
  /// re-verifying its recorded decision instead of searching; when the
  /// trace does not transfer (guard mismatch, a re-check fails), Run plans
  /// the same statement again with the search. At most one is set.
  PlanTrace* capture = nullptr;
  const PlanTrace* replay = nullptr;

  static IcebergOptions All() { return IcebergOptions{}; }
  static IcebergOptions None() {
    IcebergOptions o;
    o.enable_apriori = o.enable_memo = o.enable_prune = false;
    return o;
  }
  static IcebergOptions Only(bool apriori, bool memo, bool prune) {
    IcebergOptions o;
    o.enable_apriori = apriori;
    o.enable_memo = memo;
    o.enable_prune = prune;
    return o;
  }
};

/// What the optimizer did for one query: applied reducers, chosen NLJP
/// partition, derived predicate, runtime counters.
struct IcebergReport {
  std::vector<std::string> steps;  // human-readable decisions
  bool used_nljp = false;
  std::string nljp_explain;
  NljpStats nljp_stats;
  /// Stats of the baseline executor when the plan fell back (or when all
  /// techniques were disabled); empty otherwise.
  ExecStats exec_stats;
  /// Wall time per optimization/execution phase, microseconds. The same
  /// phases are emitted as trace spans when tracing is enabled.
  struct Timing {
    int64_t infer_us = 0;          // FD-based equality inference
    int64_t apriori_pick_us = 0;   // reducer search (Listing 9 phase 1)
    int64_t apriori_apply_us = 0;  // reducer evaluation + table rewrite
    int64_t pick_nljp_us = 0;      // NLJP partition search + Create
    int64_t execute_us = 0;        // main plan execution (NLJP or fallback)
  };
  Timing timing;
  /// (table alias, rows before, rows after) per a-priori reduction.
  struct Reduction {
    std::string alias;
    size_t rows_before = 0;
    size_t rows_after = 0;
  };
  std::vector<Reduction> reductions;
  /// Graceful degradations taken under resource pressure (cache entries
  /// shed, pruning disabled, fallback to the baseline plan). A query that
  /// completes with degradations is still exact; this records what was
  /// given up to get there.
  std::vector<std::string> degradations;

  /// Plan-cache provenance of this execution: "" (cache not consulted),
  /// "bypass" (statement not cacheable: CTEs/subqueries), "miss",
  /// "hit" (trace replayed), or "hit-fallback" (trace did not transfer;
  /// full optimization ran). Rendered by EXPLAIN ANALYZE.
  std::string plan_provenance;

  std::string ToString() const;
};

/// The optimization procedure of Section 7 / Appendix D (Listing 9):
/// iteratively find safe generalized-a-priori reducers over relation
/// subsets, then attach memoization/pruning via one NLJP operator whose
/// L side covers the GROUP BY attributes.
class IcebergOptimizer {
 public:
  explicit IcebergOptimizer(IcebergOptions options = IcebergOptions())
      : options_(options) {}

  const IcebergOptions& options() const { return options_; }

  /// Plans the block (replaying `options().replay` when it holds a captured
  /// trace, else searching and recording into `options().capture`), then
  /// executes it.
  Result<TablePtr> Run(const QueryBlock& block,
                       IcebergReport* report = nullptr);

  /// Describes the plan Run's search would choose, without executing the
  /// main query (reducers are still evaluated, since their output shapes
  /// the plan). Never records into a plan trace.
  Result<std::string> Explain(const QueryBlock& block);

 private:
  struct PlannedBlock;

  /// Listing 9, written once: FD inference, a-priori pick and apply, NLJP
  /// pick. With `trace` null every phase searches, and `capture` (may be
  /// null) records the decisions. With `trace` set every phase takes the
  /// recorded decision and re-verifies it; NotSupported then means "the
  /// trace does not transfer", any other error is the query's real
  /// outcome (governor trips stay retryable).
  Result<std::unique_ptr<PlannedBlock>> Plan(
      const QueryBlock& block, const PlanTrace* trace, PlanTrace* capture,
      IcebergReport* report);

  /// Runs a planned block: the NLJP operator, or the fallback executor.
  Result<TablePtr> Execute(PlannedBlock* planned, IcebergReport* report);

  /// Phase 1 of Listing 9: greedily pick disjoint a-priori reducers, or
  /// re-check the reducers `trace` recorded (may be null).
  Result<std::vector<AprioriOpportunity>> PickApriori(
      const QueryBlock& block, const PlanTrace* trace, IcebergReport* report);

  /// Applies reducers in place: each reduced FROM entry of `block` carries
  /// its reducer's row selection over the original table. Each bitmap is
  /// charged to `reservation` (the query's governor), which the caller
  /// keeps alive as long as the plan holding the selections; a refused
  /// charge drops that selection and records a degradation.
  Status ApplyReducers(const std::vector<AprioriOpportunity>& opportunities,
                       QueryBlock* block, IcebergReport* report,
                       GovernorReservation* reservation);

  /// Phase 2: attach an NLJP operator (memo and/or pruning), searching the
  /// candidate partitions or, with `trace`, only the recorded one. A pick
  /// is recorded into `capture` (may be null), with its derivation
  /// artifacts when `capture_artifacts` (no reducer ran).
  Result<std::unique_ptr<NljpOperator>> PickMemprune(
      const QueryBlock& block, const PlanTrace* trace, PlanTrace* capture,
      bool capture_artifacts, IcebergReport* report);

  IcebergOptions options_;
};

}  // namespace iceberg

#endif  // SMARTICEBERG_OPTIMIZER_ICEBERG_OPTIMIZER_H_
