#ifndef SMARTICEBERG_NLJP_NLJP_H_
#define SMARTICEBERG_NLJP_NLJP_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/exec/aggregator.h"
#include "src/exec/exec_options.h"
#include "src/exec/join_pipeline.h"
#include "src/exec/key_codec.h"
#include "src/expr/aggregate.h"
#include "src/expr/compiled.h"
#include "src/fme/subsumption.h"
#include "src/nljp/shared_cache.h"
#include "src/rewrite/iceberg_view.h"
#include "src/storage/table.h"

namespace iceberg {

/// Exploration order of the binding query Q_B (the paper leaves this
/// unspecified and flags it as future work; we expose it for ablation).
enum class BindingOrder {
  kNatural,     // whatever order the L-side pipeline produces
  kSortedAsc,   // bindings ascending (lexicographic)
  kSortedDesc,
};

/// Derivation results of a prior NljpOperator::Create for the same query
/// shape, injected on plan-cache replay so Create can skip the monotonicity
/// scan and the Fourier–Motzkin subsumption derivation. The capture side
/// (IcebergOptimizer) only marks a field valid when its inputs were
/// literal-value-independent and catalog-pinned (see PlanTrace); invalid
/// fields are simply re-derived, so injection is a pure optimization.
struct NljpPlanArtifacts {
  bool monotonicity_valid = false;
  Monotonicity monotonicity = Monotonicity::kNeither;
  /// When true the whole pruning decision is injected: the Theorem-3
  /// gating outcome plus the derived p>= (absent when pruning was
  /// disabled, with the reason preserved).
  bool have_prune_decision = false;
  bool prune_enabled = false;
  std::string prune_disabled_reason;
  std::optional<fme::SubsumptionTest> subsumption;
};

struct NljpOptions {
  bool enable_memo = true;
  bool enable_prune = true;
  /// "CI" of Fig. 4: a hash index on the cache keyed by binding. Without
  /// it, memo lookups fall back to a linear scan of the cache's live
  /// entries (at any thread count).
  bool cache_index = true;
  /// Use secondary indexes inside the inner query Q_R(b).
  bool use_indexes = true;
  /// Predicate transfer over the *binding* query Q_B: the transferred
  /// reduction shrinks the L-tuple stream before memoization/pruning ever
  /// sees a binding. Q_R(b) never propagates transfer filters (its
  /// parameter table mutates on every rebinding, so a cross-relation
  /// selection would stand down immediately), but it keeps the R-side
  /// tables' a-priori selections as seeds: a seeds-only result pins just
  /// the seeded tables, so rebinding leaves it live. This flag does not
  /// affect those seeds.
  bool predicate_transfer = true;
  /// Apply memoization even when J_L -> A_L makes bindings unique
  /// (normally skipped as non-beneficial; Section 6).
  bool force_memo = false;
  /// Bounds the cache to this many entries with FIFO replacement
  /// (0 = unbounded). The paper flags cache replacement policies as future
  /// work ("we can outfit the cache C with a replacement policy ... to
  /// bound its size"); eviction is always safe — the cache is advisory —
  /// but evicted bindings are re-evaluated on reuse and lose their
  /// pruning-witness role.
  size_t max_cache_entries = 0;
  BindingOrder binding_order = BindingOrder::kNatural;
  /// Worker threads draining the binding stream (morsel-driven); 0 = auto
  /// (the CPUs the thread may run on). The optimizer wires
  /// ExecOptions::num_threads through. Every width runs the same main loop
  /// over one striped memo/prune cache — safe because the cache is
  /// advisory (Theorem 3's one-sided guarantee: a racy miss costs a
  /// redundant inner evaluation, never a wrong result). At 1 the loop runs
  /// inline on the caller over a single-stripe cache, so the work counters
  /// are deterministic. Output rows are canonically sorted at any width.
  int num_threads = 1;
  /// Optional per-query resource governor. Cache growth is charged as
  /// advisory state: under memory pressure entries are shed (FIFO) before
  /// the query is failed. Mandatory state (bindings, LR-groups) is charged
  /// as hard reservations.
  GovernorPtr governor;
  /// Cross-query cache promotion: when `cache_registry` is non-null and
  /// `cache_key` nonzero, the memo/prune cache is fetched from the
  /// registry (the serving layer keys it by statement fingerprint +
  /// catalog version) instead of being built per query, so repeated
  /// iceberg queries from any session reuse memo entries and pruning
  /// witnesses. Registry caches are entry-bounded, striped at any thread
  /// count, and never governor-charged (they outlive the query's
  /// governor).
  NljpCacheRegistry* cache_registry = nullptr;
  uint64_t cache_key = 0;
  /// Plan-cache replay: inject previously derived artifacts instead of
  /// re-deriving them (borrowed; must outlive Create). Null = derive.
  const NljpPlanArtifacts* replay_artifacts = nullptr;
};

struct NljpStats {
  size_t bindings_total = 0;   // L-tuples streamed by Q_B
  size_t memo_hits = 0;        // bindings answered from the cache
  size_t pruned = 0;           // bindings skipped via Q_C
  size_t inner_evaluations = 0;  // Q_R(b) executions
  size_t prune_tests = 0;        // subsumption comparisons
  size_t inner_pairs_examined = 0;
  // Vectorized-scan counters of the inner Q_R(b) pipelines (zero when the
  // row-at-a-time path ran). Chunk skips here are dynamic: a chunk is
  // refuted against the *current binding's* values, per binding.
  size_t inner_chunks_skipped = 0;
  size_t inner_batch_rows = 0;
  // Predicate-transfer counters of the binding pipeline Q_B (zero when
  // transfer was off or Q_B had no usable join edges).
  size_t transfer_passes = 0;
  size_t transfer_filters_built = 0;
  size_t transfer_probes = 0;
  size_t transfer_hits = 0;
  size_t transfer_rows_eliminated = 0;
  size_t transfer_filter_bytes = 0;
  int64_t transfer_build_ns = 0;
  size_t cache_entries = 0;
  size_t cache_bytes = 0;
  size_t cache_evictions = 0;      // FIFO evictions from max_cache_entries
  size_t cache_shed_entries = 0;   // entries shed under memory pressure
  size_t cancel_checks = 0;        // governance checks performed
  size_t budget_bytes_peak = 0;    // peak tracked bytes (governed runs)
  size_t workers = 1;              // worker threads of the run
  std::vector<size_t> bindings_per_worker;  // morsel balance (workers > 1)
  std::vector<int64_t> busy_us_per_worker;  // time inside morsel callbacks
  int64_t execute_us = 0;          // wall time of the whole Execute call

  /// Folds one run's stats into an accumulating block: counters add up,
  /// per-run shape (workers, per-worker vectors, governance readings) is
  /// replaced, so a reused block stays consistent when the thread count
  /// changes between runs.
  void Accumulate(const NljpStats& run);

  std::string ToString() const;
};

/// The NLJP (Nested-Loop Join with Pruning) operator of Section 7.
///
/// Conceptually evaluates the iceberg block of `view` as:
///   for each L-tuple from the binding query Q_B:
///     b = its J_L values
///     if memo: cached result for b?        -> reuse
///     if prune: Q_C(b) finds a subsuming unpromising cached binding
///                                          -> skip
///     else: evaluate inner query Q_R(b), cache by b
///   post-process (Q_P): merge contributions per LR-group, apply HAVING,
///   project.
///
/// Safety of pruning follows Theorem 3; the subsumption test p>= is derived
/// from Theta by quantifier elimination (Section 5.2). Memoization follows
/// Section 6 / Appendix C, storing algebraic partial aggregates when an
/// LR-group can combine multiple bindings.
class NljpOperator {
 public:
  /// Builds the operator for the given analyzed view. Fails with
  /// NotSupported when the applicability conditions do not hold (the
  /// optimizer then falls back to the baseline plan). Pruning is silently
  /// disabled (memoization retained) when Theorem 3's premises fail or the
  /// derived p>= is unusable.
  static Result<std::unique_ptr<NljpOperator>> Create(IcebergView view,
                                                      NljpOptions options);

  /// Runs the operator. Per-run totals are accumulated into `stats` (when
  /// given) and published as nljp.* metrics in the global registry, so
  /// EXPLAIN ANALYZE and \metrics reconcile exactly.
  Result<TablePtr> Execute(NljpStats* stats = nullptr);

  /// Renders the component queries Q_B, Q_R(b), Q_C(b'), Q_P in the style
  /// of the paper's Listing 7.
  std::string Explain() const;

  bool memo_enabled() const { return memo_enabled_; }
  bool prune_enabled() const { return prune_enabled_; }
  /// Why pruning was disabled (empty when prune_enabled()); surfaced as a
  /// degradation in IcebergReport.
  const std::string& prune_disabled_reason() const {
    return prune_disabled_reason_;
  }
  /// The derived pruning predicate (valid only when prune_enabled()).
  const fme::SubsumptionTest& subsumption() const { return *subsumption_; }
  Monotonicity monotonicity() const { return monotonicity_; }

 private:
  NljpOperator() = default;

  /// Body of Execute: Q_B, the main loop, then Q_P. `stats` is always the
  /// caller's run-local block.
  Result<TablePtr> ExecuteImpl(NljpStats* stats);

  // Cache payload types of SharedNljpCache.
  using PartitionPayload = NljpPartitionPayload;
  using CacheEntry = NljpCacheEntry;

  /// Q_B charges the governor once per this many bindings.
  static constexpr size_t kChargeRows = 1024;
  /// Bindings Q_B reserves room for up front (at most).
  static constexpr size_t kReserveRows = 4096;

  /// One LR-group's accumulation state during Q_P.
  struct GroupState {
    Row synthetic;  // full-width row with the Q_P-read columns filled
    std::vector<Accumulator> accumulators;  // per slot, algebraic mode
    std::vector<Value> finals;              // per slot, non-algebraic mode
    bool has_contribution = false;
  };
  using GroupMap = std::unordered_map<Row, GroupState, RowHash, RowEq>;

  /// Q_B's output, one entry per L-tuple: only the L columns the main loop
  /// and Q_P read, column by column, and each binding's cache keys,
  /// encoded once. No per-binding Row is built.
  struct BindingBatch {
    size_t size = 0;
    /// One vector per batch_columns_ entry; columns [0, |J_L|) hold the
    /// binding.
    std::vector<std::vector<Value>> columns;
    /// PackedKey bytes, memo_key_bytes()/eq_key_bytes() per binding (empty
    /// when the codec is unusable: those keys fall back to Rows).
    std::vector<uint8_t> memo_keys;
    std::vector<uint8_t> eq_keys;
    /// Pruning only: the compiled p>='s decoded values (its width() per
    /// binding) and Decode bits.
    std::vector<double> decoded;
    std::vector<uint8_t> decoded_bits;
    /// Visit order under a sorted BindingOrder (empty = natural).
    std::vector<uint32_t> order;
  };

  /// Per-worker scratch of the main loop, reused across bindings.
  struct LoopScratch {
    PackedKey memo_key;
    PackedKey eq_key;
    Row binding;    // Row-keyed fallbacks only
    Row synthetic;  // ContributeTo's full-width row
    Row group_key;
    EvalScratch eval;
  };

  size_t memo_key_bytes() const {
    return binding_codec_.usable()
               ? binding_codec_.num_columns() * PackedKey::kBytesPerColumn
               : 0;
  }
  size_t eq_key_bytes() const {
    return prune_enabled_ && eq_codec_.usable()
               ? eq_codec_.num_columns() * PackedKey::kBytesPerColumn
               : 0;
  }

  /// Copies binding `i` of the batch into `out`.
  void BindingRow(const BindingBatch& batch, size_t i, Row* out) const;

  /// The cache's view of binding `i`: its encoded keys, loaded into
  /// `scratch`, and its binding Row only where a key falls back to Rows.
  NljpBindingProbe ProbeOf(const BindingBatch& batch, size_t i,
                           LoopScratch* scratch) const;

  /// Runs Q_R(binding) through the given pipeline and its parameter table
  /// (each worker owns a private pair, since the parameter row is rebound
  /// per binding). Inner-scan counters (pairs, chunk skips, batch rows)
  /// accumulate into `stats` (may be null). Fails when the governor trips
  /// mid-evaluation.
  Result<CacheEntry> RunInnerQuery(const JoinPipeline& pipeline, Table* param,
                                   Row binding, NljpStats* stats) const;

  /// Folds binding `i`'s cached partitions into the LR-group map. Group
  /// creation takes a hard reservation into `group_bytes`; a failed
  /// reservation poisons the governor and the caller aborts at its next
  /// check.
  void ContributeTo(GroupMap* groups, const BindingBatch& batch, size_t i,
                    const CacheEntry& entry, GovernorReservation* group_bytes,
                    LoopScratch* scratch) const;

  /// Q_P finalization: HAVING + projection per LR-group.
  Result<TablePtr> FinalizeGroups(const GroupMap& groups,
                                  QueryGovernor* governor) const;

  /// Q_B: streams the L-side tuples into a binding batch (sorted when
  /// BindingOrder asks), charging it to `binding_bytes` as mandatory
  /// state once per kChargeRows bindings.
  Result<BindingBatch> RunBindingQuery(NljpStats* stats,
                                       GovernorReservation* binding_bytes);

  /// The NLJP main loop (memo -> Q_C -> Q_R(b) -> LR-group accumulation)
  /// over the memo/prune cache C: morsel-driven workers drain `batch`,
  /// publishing memo entries and pruning witnesses through one
  /// SharedNljpCache, and their LR-group maps are merged. The groups'
  /// hard reservations move into `group_bytes`, which must outlive the
  /// returned map.
  Result<GroupMap> RunMainLoop(const BindingBatch& batch, NljpStats* stats,
                               GovernorReservation* group_bytes);

  const QueryBlock* block_ = nullptr;
  IcebergView view_;
  NljpOptions options_;
  Monotonicity monotonicity_ = Monotonicity::kNeither;
  bool group_determines_left_ = false;
  bool algebraic_mode_ = true;
  bool memo_enabled_ = false;
  bool prune_enabled_ = false;
  std::string prune_disabled_reason_;

  // Q_B: the L-side sub-join.
  QueryBlock binding_block_;
  std::map<size_t, size_t> left_offset_map_;   // orig offset -> L-row pos
  std::vector<size_t> binding_positions_;      // J_L positions in L row
  // The L-row positions Q_B keeps: J_L first, then the other L columns Q_P
  // (GROUP BY, HAVING, select list) reads.
  std::vector<size_t> batch_columns_;
  // (flat offset, batch column) of every L column Q_P reads.
  std::vector<std::pair<size_t, size_t>> qp_columns_;

  // Q_R(b): [param table, R tables...] with Theta + R-local filters.
  // The pipeline is planned once (PostgreSQL "prepares these statements in
  // advance"); only the parameter row changes between bindings. Worker 0
  // runs this copy; the main loop plans one more per extra worker.
  QueryBlock inner_block_;
  std::optional<JoinPipeline> inner_pipeline_;
  TablePtr param_table_;
  std::map<size_t, size_t> right_offset_map_;  // orig offset -> inner pos
  std::vector<ExprPtr> inner_gr_exprs_;        // G_R in inner layout
  ExprPtr inner_phi_;                          // HAVING in inner layout
  std::vector<ExprPtr> inner_phi_aggs_;        // its aggregate nodes
  std::vector<ExprPtr> agg_nodes_;             // original aggregates
  // Structurally identical aggregates (e.g. COUNT(*) in both HAVING and the
  // select list) share one accumulator slot.
  std::vector<size_t> agg_slot_;               // agg_nodes_[i] -> slot
  std::vector<AggFunc> slot_funcs_;
  std::vector<ExprPtr> slot_args_;             // inner layout; null = COUNT(*)

  // Pruning accelerator: positions of the binding on which p>= requires
  // equality; unpromising entries are bucketed by these values.
  std::vector<size_t> prune_eq_positions_;

  // Compiled programs for the per-binding hot path and Q_P.
  std::vector<CompiledExpr> gr_progs_;        // inner_gr_exprs_
  std::vector<CompiledExpr> slot_arg_progs_;  // slot_args_ (invalid = COUNT(*))
  CompiledExpr phi_prog_;                     // inner_phi_
  std::vector<CompiledExpr> group_progs_;     // block.group_by over synthetic
  CompiledProjection projection_;             // HAVING + select over synthetic

  // Packed-key codecs for the memo / prune / partition hash tables; each
  // falls back to Row keys independently when a key column is a string.
  KeyCodec binding_codec_;  // J_L binding keys (memo table)
  KeyCodec eq_codec_;       // prune_eq_positions_ of the binding (witnesses)
  KeyCodec gr_codec_;       // G_R partition keys inside Q_R(b)

  // Q_C: derived subsumption predicate.
  std::optional<fme::SubsumptionTest> subsumption_;
};

}  // namespace iceberg

#endif  // SMARTICEBERG_NLJP_NLJP_H_
