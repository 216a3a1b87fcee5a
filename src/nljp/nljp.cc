#include "src/nljp/nljp.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>

#include "src/common/logging.h"
#include "src/exec/join_pipeline.h"
#include "src/exec/task_pool.h"
#include "src/expr/aggregate.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace iceberg {

void NljpStats::Accumulate(const NljpStats& run) {
  bindings_total += run.bindings_total;
  memo_hits += run.memo_hits;
  pruned += run.pruned;
  inner_evaluations += run.inner_evaluations;
  prune_tests += run.prune_tests;
  answer_replays += run.answer_replays;
  inner_pairs_examined += run.inner_pairs_examined;
  inner_chunks_skipped += run.inner_chunks_skipped;
  inner_batch_rows += run.inner_batch_rows;
  transfer_passes += run.transfer_passes;
  transfer_filters_built += run.transfer_filters_built;
  transfer_probes += run.transfer_probes;
  transfer_hits += run.transfer_hits;
  transfer_rows_eliminated += run.transfer_rows_eliminated;
  transfer_filter_bytes += run.transfer_filter_bytes;
  transfer_build_ns += run.transfer_build_ns;
  cache_entries += run.cache_entries;
  cache_bytes += run.cache_bytes;
  cache_evictions += run.cache_evictions;
  cache_shed_entries += run.cache_shed_entries;
  cancel_checks = run.cancel_checks;
  budget_bytes_peak = run.budget_bytes_peak;
  workers = run.workers;
  bindings_per_worker = run.bindings_per_worker;
  busy_us_per_worker = run.busy_us_per_worker;
  execute_us += run.execute_us;
}

std::string NljpStats::ToString() const {
  std::string out = "bindings=" + std::to_string(bindings_total) +
                    " memo_hits=" + std::to_string(memo_hits) +
                    " pruned=" + std::to_string(pruned) +
                    " inner_evals=" + std::to_string(inner_evaluations) +
                    " prune_tests=" + std::to_string(prune_tests) +
                    " cache_entries=" + std::to_string(cache_entries) +
                    " cache_kb=" + std::to_string(cache_bytes / 1024);
  if (answer_replays > 0) {
    out += " answer_replays=" + std::to_string(answer_replays);
  }
  if (inner_batch_rows > 0 || inner_chunks_skipped > 0) {
    out += " inner_batch_rows=" + std::to_string(inner_batch_rows) +
           " inner_chunks_skipped=" + std::to_string(inner_chunks_skipped);
  }
  if (transfer_probes > 0 || transfer_passes > 0) {
    out += " transfer_passes=" + std::to_string(transfer_passes) +
           " transfer=" + std::to_string(transfer_hits) + "/" +
           std::to_string(transfer_probes) +
           " transfer_eliminated=" + std::to_string(transfer_rows_eliminated);
  }
  if (cache_evictions > 0) {
    out += " evictions=" + std::to_string(cache_evictions);
  }
  if (cache_shed_entries > 0) {
    out += " shed=" + std::to_string(cache_shed_entries);
  }
  if (cancel_checks > 0) {
    out += " checks=" + std::to_string(cancel_checks);
  }
  if (budget_bytes_peak > 0) {
    out += " peak_kb=" + std::to_string(budget_bytes_peak / 1024);
  }
  if (workers > 1) {
    out += " workers=" + std::to_string(workers) + " bindings_per_worker=[";
    for (size_t i = 0; i < bindings_per_worker.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(bindings_per_worker[i]);
    }
    out += "]";
    if (!busy_us_per_worker.empty()) {
      out += " busy_us_per_worker=[";
      for (size_t i = 0; i < busy_us_per_worker.size(); ++i) {
        if (i > 0) out += ",";
        out += std::to_string(busy_us_per_worker[i]);
      }
      out += "]";
    }
  }
  if (execute_us > 0) out += " execute_us=" + std::to_string(execute_us);
  return out;
}

namespace {

/// The one-row parameter table of Q_R(b), rebound per binding.
TablePtr NewParamTable(const Schema& schema) {
  auto param = std::make_shared<Table>("_binding", schema);
  param->AppendUnchecked(Row(schema.num_columns(), Value::Null()));
  return param;
}

/// Plans Q_R(b) over `inner_block`. The one-row parameter table stays
/// below every vectorization threshold, so chunks attach only to the
/// static R-side levels. Predicate transfer is off: the parameter table is
/// rebound (mutated) per binding, so any cross-relation selection would be
/// invalidated before the first Run. A-priori selections on R-side tables
/// still apply: they pin only their own table's version.
Result<JoinPipeline> PlanInnerPipeline(const QueryBlock& inner_block,
                                       const NljpOptions& options) {
  TransferPlanOptions no_transfer;
  no_transfer.enabled = false;
  return JoinPipeline::Plan(inner_block, options.use_indexes,
                            /*vectorize=*/true, options.governor.get(),
                            no_transfer);
}

}  // namespace

Result<std::unique_ptr<NljpOperator>> NljpOperator::Create(
    IcebergView view, NljpOptions options) {
  const QueryBlock& block = *view.block;
  if (block.having == nullptr) {
    return Status::NotSupported("NLJP requires a HAVING condition");
  }
  if (view.theta.empty() || view.jl_offsets.empty()) {
    return Status::NotSupported("NLJP requires a join condition with "
                                "binding attributes");
  }
  if (!view.ApplicableTo(block.having, /*left_side=*/false)) {
    return Status::NotSupported("HAVING not applicable to the inner side");
  }

  auto op = std::unique_ptr<NljpOperator>(new NljpOperator());
  op->view_ = std::move(view);
  op->block_ = op->view_.block;
  op->options_ = options;
  const NljpPlanArtifacts* replay = options.replay_artifacts;
  op->monotonicity_ = (replay != nullptr && replay->monotonicity_valid)
                          ? replay->monotonicity
                          : op->view_.HavingMonotonicity();
  op->group_determines_left_ = op->view_.GroupDeterminesLeft();

  // Collect aggregates (HAVING first, then select items) and verify their
  // arguments live on the inner side.
  CollectAggregates(block.having, &op->agg_nodes_);
  const size_t num_phi_aggs = op->agg_nodes_.size();
  for (const BoundSelectItem& item : block.select) {
    CollectAggregates(item.expr, &op->agg_nodes_);
  }
  bool all_algebraic = true;
  for (const ExprPtr& agg : op->agg_nodes_) {
    if (!agg->children.empty() &&
        !op->view_.ApplicableTo(agg->children[0], /*left_side=*/false)) {
      return Status::NotSupported(
          "aggregate over outer-side attributes: " + agg->ToString());
    }
    if (!IsAlgebraic(agg->agg)) all_algebraic = false;
  }
  // Appendix C: non-algebraic aggregates are only safe when every LR-group
  // receives a single contribution (G_L -> A_L).
  op->algebraic_mode_ = all_algebraic;
  if (!all_algebraic && !op->group_determines_left_) {
    return Status::NotSupported(
        "holistic aggregate without G_L -> A_L; partial results cannot be "
        "combined");
  }

  // ---- Q_B: the L-side sub-join ----
  ICEBERG_ASSIGN_OR_RETURN(
      op->binding_block_,
      MakeSubBlock(block, op->view_.partition.left, op->view_.left_only,
                   &op->left_offset_map_));
  for (size_t off : op->view_.jl_offsets) {
    op->binding_positions_.push_back(op->left_offset_map_.at(off));
  }
  // Q_B keeps the binding plus the L columns Q_P reads. Q_R(b) hands Q_P
  // only the G_R values of an R-side group, so an R-side column the binder
  // admitted as determined by G_R (rather than listed in it) is refused.
  op->batch_columns_ = op->binding_positions_;
  std::vector<const Expr*> qp_refs;
  for (const ExprPtr& g : block.group_by) CollectColumnRefs(g, &qp_refs);
  for (const BoundSelectItem& item : block.select) {
    CollectGroupLevelRefs(item.expr, &qp_refs);
  }
  CollectGroupLevelRefs(block.having, &qp_refs);
  std::set<size_t> qp_offsets;
  for (const Expr* ref : qp_refs) {
    qp_offsets.insert(static_cast<size_t>(ref->resolved_index));
  }
  const std::vector<size_t>& gr = op->view_.gr_offsets;
  for (size_t off : qp_offsets) {
    auto pos = op->left_offset_map_.find(off);
    if (pos == op->left_offset_map_.end()) {
      if (std::find(gr.begin(), gr.end(), off) == gr.end()) {
        return Status::NotSupported("Q_P reads an R-side column outside G_R: " +
                                    block.QualifiedNameOfOffset(off));
      }
      continue;
    }
    auto& cols = op->batch_columns_;
    auto col = std::find(cols.begin(), cols.end(), pos->second);
    if (col == cols.end()) col = cols.insert(cols.end(), pos->second);
    op->qp_columns_.emplace_back(off, static_cast<size_t>(col - cols.begin()));
  }

  // ---- Q_R(b): parameter table + R-side tables ----
  Schema param_schema;
  std::vector<DataType> types_by_offset;
  for (const BoundTableRef& t : block.tables) {
    for (const Column& c : t.table->schema().columns()) {
      types_by_offset.push_back(c.type);
    }
  }
  for (size_t i = 0; i < op->view_.jl_offsets.size(); ++i) {
    ICEBERG_RETURN_NOT_OK(param_schema.AddColumn(
        {"b" + std::to_string(i), types_by_offset[op->view_.jl_offsets[i]]}));
  }
  op->param_table_ = NewParamTable(param_schema);

  BoundTableRef param_ref;
  param_ref.alias = "_b";
  param_ref.table = op->param_table_;
  param_ref.offset = 0;
  op->inner_block_.tables.push_back(param_ref);
  size_t inner_offset = param_schema.num_columns();
  std::map<size_t, size_t> inner_map;
  for (size_t i = 0; i < op->view_.jl_offsets.size(); ++i) {
    inner_map[op->view_.jl_offsets[i]] = i;  // J_L -> param columns
  }
  for (size_t ti : op->view_.partition.right) {
    BoundTableRef ref = block.tables[ti];
    for (size_t c = 0; c < ref.table->schema().num_columns(); ++c) {
      inner_map[ref.offset + c] = inner_offset + c;
      op->right_offset_map_[ref.offset + c] = inner_offset + c;
    }
    ref.offset = inner_offset;
    inner_offset += ref.table->schema().num_columns();
    op->inner_block_.tables.push_back(std::move(ref));
  }
  for (const ExprPtr& conjunct : op->view_.theta) {
    ICEBERG_ASSIGN_OR_RETURN(ExprPtr remapped,
                             RemapExpr(conjunct, inner_map));
    op->inner_block_.where_conjuncts.push_back(std::move(remapped));
  }
  for (const ExprPtr& conjunct : op->view_.right_only) {
    ICEBERG_ASSIGN_OR_RETURN(ExprPtr remapped,
                             RemapExpr(conjunct, inner_map));
    op->inner_block_.where_conjuncts.push_back(std::move(remapped));
  }
  for (size_t gr : op->view_.gr_offsets) {
    ExprPtr ref = Col(block.QualifiedNameOfOffset(gr));
    ref->resolved_index = static_cast<int>(op->right_offset_map_.at(gr));
    op->inner_gr_exprs_.push_back(std::move(ref));
  }
  ICEBERG_ASSIGN_OR_RETURN(op->inner_phi_,
                           RemapExpr(block.having, inner_map));
  CollectAggregates(op->inner_phi_, &op->inner_phi_aggs_);
  ICEBERG_CHECK(op->inner_phi_aggs_.size() == num_phi_aggs);
  // Deduplicate structurally identical aggregates into shared slots.
  std::map<std::string, size_t> slot_of_signature;
  for (const ExprPtr& agg : op->agg_nodes_) {
    ExprPtr arg;
    if (!agg->children.empty()) {
      ICEBERG_ASSIGN_OR_RETURN(arg, RemapExpr(agg->children[0], inner_map));
    }
    std::string signature = std::to_string(static_cast<int>(agg->agg)) +
                            ":" + (arg == nullptr ? "*" : ExprSignature(*arg));
    auto it = slot_of_signature.find(signature);
    if (it == slot_of_signature.end()) {
      it = slot_of_signature.emplace(signature, op->slot_funcs_.size()).first;
      op->slot_funcs_.push_back(agg->agg);
      op->slot_args_.push_back(std::move(arg));
    }
    op->agg_slot_.push_back(it->second);
  }

  // Plan Q_R once; only the parameter row changes across bindings.
  ICEBERG_ASSIGN_OR_RETURN(JoinPipeline inner_pipeline,
                           PlanInnerPipeline(op->inner_block_, options));
  op->inner_pipeline_.emplace(std::move(inner_pipeline));

  // ---- Memoization applicability (Section 6) ----
  op->memo_enabled_ = options.enable_memo;
  if (op->memo_enabled_ && !options.force_memo &&
      op->view_.JoinDeterminesLeft()) {
    // Bindings are unique across L-tuples; caching adds cost, no reuse.
    op->memo_enabled_ = false;
  }

  // ---- Pruning applicability (Theorem 3) ----
  // Plan-cache replay: when the capture side recorded a full pruning
  // decision (gating outcome + derived p>=), inject it and skip both the
  // gating scan and the Fourier–Motzkin derivation below.
  const bool prune_injected =
      replay != nullptr && replay->have_prune_decision &&
      (!replay->prune_enabled || replay->subsumption.has_value());
  if (prune_injected) {
    op->prune_enabled_ = options.enable_prune && replay->prune_enabled;
    op->prune_disabled_reason_ = replay->prune_disabled_reason;
    if (op->prune_enabled_) {
      op->subsumption_ = replay->subsumption;
      op->prune_eq_positions_ = op->subsumption_->EqualityPositions();
    }
  } else {
    op->prune_enabled_ = options.enable_prune;
  }
  if (!prune_injected && op->prune_enabled_) {
    if (op->monotonicity_ == Monotonicity::kMonotone) {
      if (!op->group_determines_left_) {
        op->prune_enabled_ = false;
        op->prune_disabled_reason_ = "G_L is not a superkey of L";
      }
    } else if (op->monotonicity_ == Monotonicity::kAntiMonotone) {
      if (!op->group_determines_left_) {
        op->prune_enabled_ = false;
        op->prune_disabled_reason_ = "G_L is not a superkey of L";
      } else if (!op->view_.gr_offsets.empty()) {
        op->prune_enabled_ = false;
        op->prune_disabled_reason_ =
            "anti-monotone pruning requires empty G_R";
      }
    } else {
      op->prune_enabled_ = false;
      op->prune_disabled_reason_ = "HAVING is neither monotone nor "
                                   "anti-monotone";
    }
  }
  if (!prune_injected && op->prune_enabled_) {
    fme::SubsumptionSpec spec;
    spec.theta = op->view_.theta;
    spec.binding_offsets = op->view_.jl_offsets;
    const IcebergView* view_ptr = &op->view_;
    spec.is_left_offset = [view_ptr](size_t off) {
      return view_ptr->IsLeftOffset(off);
    };
    spec.types_by_offset = types_by_offset;
    Result<fme::SubsumptionTest> derived = fme::DeriveSubsumption(spec);
    if (!derived.ok()) {
      op->prune_enabled_ = false;
      op->prune_disabled_reason_ =
          "p>= derivation failed: " + derived.status().ToString();
    } else if (derived->IsNeverTrue()) {
      op->prune_enabled_ = false;
      op->prune_disabled_reason_ = "derived p>= is unsatisfiable";
    } else {
      op->subsumption_ = std::move(*derived);
      op->prune_eq_positions_ = op->subsumption_->EqualityPositions();
    }
  }

  // ---- Compiled programs + packed key codecs (per-binding hot path) ----
  op->gr_progs_ = CompileAll(op->inner_gr_exprs_);
  op->slot_arg_progs_.reserve(op->slot_args_.size());
  for (const ExprPtr& arg : op->slot_args_) {
    if (arg == nullptr) {
      op->slot_arg_progs_.emplace_back();  // COUNT(*)
    } else {
      op->slot_arg_progs_.push_back(CompiledExpr::Compile(*arg));
    }
  }
  op->phi_prog_ = CompiledExpr::Compile(*op->inner_phi_);
  op->group_progs_ = CompileAll(block.group_by);
  op->projection_ = CompiledProjection(block);

  std::vector<DataType> binding_types;
  binding_types.reserve(op->view_.jl_offsets.size());
  for (size_t off : op->view_.jl_offsets) {
    binding_types.push_back(types_by_offset[off]);
  }
  op->binding_codec_ = KeyCodec::ForTypes(binding_types);
  if (op->prune_enabled_) {
    std::vector<DataType> eq_types;
    eq_types.reserve(op->prune_eq_positions_.size());
    for (size_t pos : op->prune_eq_positions_) {
      eq_types.push_back(binding_types[pos]);
    }
    op->eq_codec_ = KeyCodec::ForTypes(std::move(eq_types));
  }
  std::vector<DataType> inner_types;
  for (const BoundTableRef& t : op->inner_block_.tables) {
    for (const Column& c : t.table->schema().columns()) {
      inner_types.push_back(c.type);
    }
  }
  op->gr_codec_ = CodecForExprs(op->inner_gr_exprs_, inner_types);

  op->explain_ = op->RenderExplain();
  // The caller's key names the statement, its tables' versions and this
  // block's position in the statement (Database::Materialize). One block
  // can still be planned differently from run to run (a replayed or a
  // fresh plan may pick another partition), and each plan has its own
  // codecs and payload layout, so the key is refined by the plan text.
  uint64_t& key = op->options_.cache_key;
  if (key != 0) {
    key ^= std::hash<std::string>()(op->explain_) + 0x9e3779b97f4a7c15ull +
           (key << 6) + (key >> 2);
    if (key == 0) key = 1;
  }
  return op;
}

Result<NljpOperator::CacheEntry> NljpOperator::RunInnerQuery(
    const JoinPipeline& pipeline, Table* param, Row binding,
    NljpStats* stats) const {
  // Per-binding inner-join cost: the distribution (not just the total) is
  // what shows whether memo/prune removed the expensive evaluations.
  TraceSpan span("nljp.inner_eval", "nljp");
  struct EvalTimer {
    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();
    ~EvalTimer() {
      ICEBERG_HISTOGRAM("nljp.inner_eval_us")
          ->Record(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count()));
    }
  } eval_timer;
  param->UpdateRow(0, binding);

  // Partition joining R-tuples by G_R, accumulating every aggregate. With
  // all-numeric G_R the map is keyed by fixed-width PackedKeys (memcmp
  // equality, word-mix hash); the materialized Row key moves into the state
  // because the cache payload needs it.
  struct PartitionState {
    Row gr_key;
    Row representative;
    std::vector<Accumulator> accumulators;  // one per slot
  };
  std::unordered_map<Row, PartitionState, RowHash, RowEq> partitions;
  std::unordered_map<PackedKey, PartitionState, PackedKeyHash, PackedKeyEq>
      packed_partitions;
  const bool packed = gr_codec_.usable();
  // Per-call scratch: RunInnerQuery runs concurrently (one call per
  // worker), so the evaluation stack and reusable key row live here.
  EvalScratch eval;
  Row key_scratch;
  key_scratch.reserve(inner_gr_exprs_.size());
  PackedKey packed_scratch;
  ExecStats inner_stats;
  auto make_state = [&](const Row& joined) {
    PartitionState state;
    state.gr_key = key_scratch;
    state.representative = joined;
    state.accumulators.reserve(slot_funcs_.size());
    for (AggFunc func : slot_funcs_) {
      state.accumulators.emplace_back(func);
    }
    return state;
  };
  Status run_status = pipeline.Run(
      0, 1,
      [&](const Row& joined) {
        key_scratch.clear();
        for (const CompiledExpr& p : gr_progs_) {
          key_scratch.push_back(p.Run(joined, &eval));
        }
        PartitionState* state;
        if (packed) {
          gr_codec_.Encode(key_scratch.data(), key_scratch.size(),
                           &packed_scratch);
          auto it = packed_partitions.find(packed_scratch);
          if (it == packed_partitions.end()) {
            it = packed_partitions.emplace(packed_scratch, make_state(joined))
                     .first;
          }
          state = &it->second;
        } else {
          auto it = partitions.find(key_scratch);
          if (it == partitions.end()) {
            it = partitions.emplace(key_scratch, make_state(joined)).first;
          }
          state = &it->second;
        }
        for (size_t i = 0; i < slot_funcs_.size(); ++i) {
          if (slot_args_[i] == nullptr) {
            state->accumulators[i].Add(Value::Null());  // COUNT(*)
          } else {
            state->accumulators[i].Add(
                slot_arg_progs_[i].Run(joined, &eval));
          }
        }
      },
      &inner_stats, options_.governor.get());
  if (stats != nullptr) {
    stats->inner_pairs_examined += inner_stats.join_pairs_examined;
    stats->inner_chunks_skipped += inner_stats.chunks_skipped;
    stats->inner_batch_rows += inner_stats.batch_rows;
  }
  ICEBERG_RETURN_NOT_OK(run_status);

  CacheEntry entry;
  entry.binding = std::move(binding);
  entry.unpromising = true;
  if (partitions.empty() && packed_partitions.empty()) {
    // No joining R-tuple: the binding contributes no candidate LR-group.
    // Whether it may serve as a PRUNING witness depends on the direction:
    //  - monotone Phi: any binding subsumed by this one (R|x<l subset of
    //    the empty set) also joins nothing, so pruning via it is sound —
    //    and Definition 5 marks it unpromising vacuously.
    //  - anti-monotone Phi: unsound in general. Monotonicity per Table 2
    //    holds on NON-EMPTY inputs, but e.g. MIN(A) >= c has Phi(empty) =
    //    false (NULL comparison) while a superset can satisfy Phi — the
    //    T-superset-of-empty implication breaks. (For COUNT(*) <= c,
    //    Phi(empty) is true and the binding is promising anyway.)
    entry.unpromising = monotonicity_ == Monotonicity::kMonotone;
    return entry;
  }
  auto flush = [&](PartitionState& state) {
    PartitionPayload payload;
    payload.gr_key = std::move(state.gr_key);
    AggValueMap phi_values;
    for (size_t i = 0; i < inner_phi_aggs_.size(); ++i) {
      phi_values[inner_phi_aggs_[i].get()] =
          state.accumulators[agg_slot_[i]].Final();
    }
    payload.phi_pass =
        phi_prog_.RunPredicate(state.representative, &eval, &phi_values);
    if (payload.phi_pass) entry.unpromising = false;
    if (algebraic_mode_) {
      for (const Accumulator& acc : state.accumulators) {
        payload.partials.push_back(acc.PartialState());
      }
    } else {
      for (const Accumulator& acc : state.accumulators) {
        payload.finals.push_back(acc.Final());
      }
    }
    entry.partitions.push_back(std::move(payload));
  };
  for (auto& [key, state] : partitions) flush(state);
  for (auto& [key, state] : packed_partitions) flush(state);
  return entry;
}

void NljpOperator::BindingRow(const BindingBatch& batch, size_t i,
                              Row* out) const {
  out->resize(binding_positions_.size());
  for (size_t c = 0; c < out->size(); ++c) (*out)[c] = batch.columns[c][i];
}

NljpBindingProbe NljpOperator::ProbeOf(const BindingBatch& batch, size_t i,
                                       LoopScratch* scratch) const {
  NljpBindingProbe probe;
  bool needs_row = false;
  auto load = [i](const std::vector<uint8_t>& keys, size_t bytes,
                  PackedKey* key) {
    if (bytes > 0) {
      std::memcpy(key->data.data(), keys.data() + i * bytes, bytes);
    }
    key->len = static_cast<uint8_t>(bytes);
  };
  if (binding_codec_.usable()) {
    load(batch.memo_keys, memo_key_bytes(), &scratch->memo_key);
    probe.memo_key = &scratch->memo_key;
  } else {
    needs_row = true;
  }
  if (prune_enabled_) {
    if (eq_codec_.usable()) {
      load(batch.eq_keys, eq_key_bytes(), &scratch->eq_key);
      probe.eq_key = &scratch->eq_key;
    } else {
      needs_row = true;
    }
    probe.decoded = batch.decoded.data() + i * subsumption_->compiled().width();
    probe.decoded_bits = batch.decoded_bits[i];
  }
  if (needs_row) {
    BindingRow(batch, i, &scratch->binding);
    probe.binding = &scratch->binding;
  }
  return probe;
}

void NljpOperator::ContributeTo(GroupMap* groups, const BindingBatch& batch,
                                size_t i, const CacheEntry& entry,
                                GovernorReservation* group_bytes,
                                LoopScratch* scratch) const {
  // The synthetic full-width row for group-key evaluation: every partition
  // writes the same Q_P-read L columns and G_R offsets, so the scratch row
  // is overwritten in place.
  Row& synthetic = scratch->synthetic;
  synthetic.resize(block_->TotalWidth());
  for (const auto& [orig, col] : qp_columns_) {
    synthetic[orig] = batch.columns[col][i];
  }
  for (const PartitionPayload& payload : entry.partitions) {
    for (size_t g = 0; g < view_.gr_offsets.size(); ++g) {
      synthetic[view_.gr_offsets[g]] = payload.gr_key[g];
    }
    Row& group_key = scratch->group_key;
    group_key.clear();
    for (const CompiledExpr& p : group_progs_) {
      group_key.push_back(p.Run(synthetic, &scratch->eval));
    }
    auto it = groups->find(group_key);
    if (it == groups->end()) {
      if (group_bytes->governor() != nullptr) {
        // Group state is mandatory: under pressure the cache sheds first;
        // a remaining deficit poisons and the main loop aborts at its
        // next check.
        size_t bytes = RowBytes(group_key) + RowBytes(synthetic) +
                       slot_funcs_.size() * sizeof(Accumulator) + 64;
        if (!group_bytes->Reserve(bytes, "nljp-groups").ok()) return;
      }
      GroupState state;
      state.synthetic = synthetic;
      if (algebraic_mode_) {
        for (AggFunc func : slot_funcs_) {
          state.accumulators.emplace_back(func);
        }
      }
      it = groups->emplace(group_key, std::move(state)).first;
    }
    GroupState& state = it->second;
    if (algebraic_mode_) {
      for (size_t s = 0; s < slot_funcs_.size(); ++s) {
        state.accumulators[s].MergePartial(payload.partials[s]);
      }
    } else if (!state.has_contribution) {
      // G_L -> A_L guarantees a single contributing binding; duplicate
      // L-rows contribute identical values, so keeping the first is
      // exact for holistic aggregates like COUNT(DISTINCT).
      state.finals = payload.finals;
    }
    state.has_contribution = true;
  }
}

Result<TablePtr> NljpOperator::FinalizeGroups(const GroupMap& groups,
                                              QueryGovernor* governor) const {
  TraceSpan span("nljp.q_p", "nljp");
  const QueryBlock& block = *block_;
  if (governor != nullptr) ICEBERG_RETURN_NOT_OK(governor->Check());
  std::vector<Row> rows;
  EvalScratch scratch;
  AggValueMap agg_values;
  size_t qp_processed = 0;
  for (const auto& [key, state] : groups) {
    if (governor != nullptr && (qp_processed++ & 255) == 0) {
      ICEBERG_RETURN_NOT_OK(governor->Check());
    }
    for (size_t i = 0; i < agg_nodes_.size(); ++i) {
      size_t slot = agg_slot_[i];
      agg_values[agg_nodes_[i].get()] = algebraic_mode_
                                            ? state.accumulators[slot].Final()
                                            : state.finals[slot];
    }
    Row out;
    if (!projection_.Project(state.synthetic, &agg_values, &scratch, &out)) {
      continue;
    }
    rows.push_back(std::move(out));
  }
  // Group-map iteration order depends on the schedule and the thread
  // count; canonical order makes every run's output identical.
  std::sort(rows.begin(), rows.end(), RowLess());
  if (block.distinct) {
    rows.erase(std::unique(rows.begin(), rows.end(), RowEq()), rows.end());
  }
  auto result = std::make_shared<Table>(block.output_schema);
  for (Row& out : rows) result->AppendUnchecked(std::move(out));
  return result;
}

namespace {

int64_t NljpNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void PublishNljpMetrics(const NljpStats& run) {
  ICEBERG_COUNTER("nljp.executions")->Increment();
  ICEBERG_COUNTER("nljp.bindings")->Add(run.bindings_total);
  ICEBERG_COUNTER("nljp.memo_hits")->Add(run.memo_hits);
  ICEBERG_COUNTER("nljp.pruned")->Add(run.pruned);
  ICEBERG_COUNTER("nljp.inner_evaluations")->Add(run.inner_evaluations);
  ICEBERG_COUNTER("nljp.prune_tests")->Add(run.prune_tests);
  ICEBERG_COUNTER("nljp.answer_replays")->Add(run.answer_replays);
  ICEBERG_COUNTER("nljp.inner_pairs_examined")->Add(run.inner_pairs_examined);
  ICEBERG_COUNTER("nljp.inner_chunks_skipped")->Add(run.inner_chunks_skipped);
  ICEBERG_COUNTER("nljp.inner_batch_rows")->Add(run.inner_batch_rows);
  ICEBERG_COUNTER("nljp.transfer_passes")->Add(run.transfer_passes);
  ICEBERG_COUNTER("nljp.transfer_probes")->Add(run.transfer_probes);
  ICEBERG_COUNTER("nljp.transfer_hits")->Add(run.transfer_hits);
  ICEBERG_COUNTER("nljp.transfer_rows_eliminated")
      ->Add(run.transfer_rows_eliminated);
  ICEBERG_COUNTER("nljp.cache_evictions")->Add(run.cache_evictions);
  ICEBERG_COUNTER("nljp.cache_shed_entries")->Add(run.cache_shed_entries);
  ICEBERG_GAUGE("nljp.cache_entries")
      ->Set(static_cast<int64_t>(run.cache_entries));
  ICEBERG_GAUGE("nljp.cache_bytes")
      ->Set(static_cast<int64_t>(run.cache_bytes));
  ICEBERG_HISTOGRAM("nljp.execute_us")
      ->Record(static_cast<uint64_t>(run.execute_us));
}

}  // namespace

Result<TablePtr> NljpOperator::Execute(NljpStats* stats) {
  TraceSpan span("nljp.execute", "nljp");
  int64_t started_us = NljpNowMicros();
  NljpStats run;
  Result<TablePtr> result = ExecuteImpl(&run);
  run.execute_us = NljpNowMicros() - started_us;
  if (result.ok()) {
    PublishNljpMetrics(run);
    if (stats != nullptr) stats->Accumulate(run);
  }
  return result;
}

SharedNljpCache::Options NljpOperator::CacheOptions(int threads,
                                                    bool cross_query) const {
  SharedNljpCache::Options cache_opts;
  // One stripe at one thread: the FIFO is then one global oldest-first
  // order, so a one-thread run is deterministic. Registry caches are
  // shared by concurrent statements and stay striped at any width.
  cache_opts.stripes =
      threads == 1 && !cross_query
          ? 1
          : std::max<size_t>(8, static_cast<size_t>(threads) * 4);
  cache_opts.max_entries = options_.max_cache_entries;
  cache_opts.memo_index = memo_enabled_;
  cache_opts.scan_lookup = !options_.cache_index;
  cache_opts.witness_index = prune_enabled_;
  cache_opts.eq_positions = prune_eq_positions_;
  cache_opts.binding_codec = binding_codec_;
  cache_opts.eq_codec = eq_codec_;
  cache_opts.decoded_width =
      prune_enabled_ ? subsumption_->compiled().width() : 0;
  cache_opts.governor = options_.governor.get();
  return cache_opts;
}

Result<TablePtr> NljpOperator::ExecuteImpl(NljpStats* stats) {
  QueryGovernor* governor = options_.governor.get();
  if (governor != nullptr) ICEBERG_RETURN_NOT_OK(governor->Check());
  const int threads = ResolveThreads(options_.num_threads);

  // ---- The memo/prune cache C ----
  // Per-query by default (charged to the governor as advisory state,
  // reclaimer-shed under pressure), or fetched once from the cross-query
  // registry so repeated statements reuse memo entries and pruning
  // witnesses across sessions. Registry caches are entry-bounded, never
  // governor-charged, and invalidate lazily — a table mutation rotates the
  // key, so a stale cache is simply never fetched again.
  const bool cross_query =
      options_.cache_registry != nullptr && options_.cache_key != 0;
  SharedNljpCachePtr cache;
  if (cross_query) {
    cache = options_.cache_registry->GetOrCreate(
        options_.cache_key, [&] { return CacheOptions(threads, true); });
    // A recorded answer is this statement's exact output: Q_B, the loop
    // and Q_P are skipped.
    if (NljpAnswerPtr answer = cache->answer()) {
      ++stats->answer_replays;
      stats->cache_entries += cache->live_entries();
      stats->cache_bytes += cache->live_bytes();
      auto result = std::make_shared<Table>(block_->output_schema);
      for (const Row& row : *answer) result->AppendUnchecked(row);
      return result;
    }
  }

  // Hard reservations for transient state (bindings, LR-groups); released
  // when execution leaves this scope so later blocks of the same query see
  // an accurate in-use figure.
  GovernorReservation mandatory(governor);
  ICEBERG_ASSIGN_OR_RETURN(BindingBatch batch,
                           RunBindingQuery(stats, &mandatory));
  if (!cross_query) {
    cache = std::make_shared<SharedNljpCache>(CacheOptions(threads, false));
  }
  ICEBERG_ASSIGN_OR_RETURN(
      GroupMap groups,
      RunMainLoop(batch, *cache, cross_query, threads, stats, &mandatory));
  // ---- Q_P: final HAVING + projection per LR-group ----
  ICEBERG_ASSIGN_OR_RETURN(TablePtr result, FinalizeGroups(groups, governor));
  // Second-use admission: a run that evaluated no inner query answered
  // every binding from exact memo entries and witnesses, so its output is
  // exact. A statement's first run fills the cache and its second records
  // the answer; a one-shot statement never stores one.
  if (cross_query && stats->inner_evaluations == 0) {
    cache->RecordAnswer(result->rows());
  }
  return result;
}

Result<NljpOperator::BindingBatch> NljpOperator::RunBindingQuery(
    NljpStats* stats, GovernorReservation* binding_bytes) {
  // Predicate transfer shrinks the binding stream before memoization or
  // pruning ever sees an L-tuple: bindings whose join keys provably match
  // nothing die at the scan instead of costing an inner evaluation.
  TraceSpan span("nljp.q_b", "nljp");
  QueryGovernor* governor = options_.governor.get();
  TransferPlanOptions qb_transfer;
  qb_transfer.enabled = options_.predicate_transfer;
  qb_transfer.num_threads = ResolveThreads(options_.num_threads);
  ICEBERG_ASSIGN_OR_RETURN(
      JoinPipeline binding_pipeline,
      JoinPipeline::Plan(binding_block_, options_.use_indexes,
                         /*vectorize=*/true, governor, qb_transfer));
  if (binding_pipeline.transfer() != nullptr) {
    const TransferStats& ts = binding_pipeline.transfer()->stats();
    stats->transfer_passes += ts.passes;
    stats->transfer_filters_built += ts.filters_built;
    stats->transfer_probes += ts.probes;
    stats->transfer_hits += ts.hits;
    stats->transfer_rows_eliminated += ts.rows_eliminated;
    stats->transfer_filter_bytes += ts.filter_bytes;
    stats->transfer_build_ns += ts.build_ns;
  }
  // Each L-tuple is narrowed to batch_columns_ and its keys are encoded
  // here, once; the governor is charged per kChargeRows bindings (its
  // budget lock is not taken per tuple).
  BindingBatch batch;
  batch.columns.resize(batch_columns_.size());
  const size_t memo_bytes = memo_key_bytes();
  const size_t eq_bytes = eq_key_bytes();
  const fme::CompiledSubsumption* p_ge =
      prune_enabled_ ? &subsumption_->compiled() : nullptr;
  const size_t width = p_ge != nullptr ? p_ge->width() : 0;
  // Room for one binding per outer row, up to a cap: a small L never
  // regrows its columns, a large or filtered one grows as it fills.
  const size_t expected =
      std::min<size_t>(binding_pipeline.OuterSize(), kReserveRows);
  for (std::vector<Value>& column : batch.columns) column.reserve(expected);
  batch.memo_keys.reserve(expected * memo_bytes);
  batch.eq_keys.reserve(expected * eq_bytes);
  batch.decoded.reserve(expected * width);
  batch.decoded_bits.reserve(p_ge != nullptr ? expected : 0);
  std::vector<size_t> eq_row_positions;
  if (eq_bytes > 0) {
    for (size_t pos : prune_eq_positions_) {
      eq_row_positions.push_back(binding_positions_[pos]);
    }
  }
  const size_t fixed_bytes = batch_columns_.size() * sizeof(Value) +
                             memo_bytes + eq_bytes +
                             width * sizeof(double) + (width > 0 ? 1 : 0);
  size_t uncharged = 0;
  PackedKey key;
  ICEBERG_RETURN_NOT_OK(binding_pipeline.Run(
      0, binding_pipeline.OuterSize(),
      [&](const Row& row) {
        for (size_t c = 0; c < batch_columns_.size(); ++c) {
          const Value& v = row[batch_columns_[c]];
          if (v.is_string()) uncharged += v.AsString().size();
          batch.columns[c].push_back(v);
        }
        if (memo_bytes > 0) {
          binding_codec_.EncodeAt(row, binding_positions_, &key);
          batch.memo_keys.insert(batch.memo_keys.end(), key.data.data(),
                                 key.data.data() + memo_bytes);
        }
        if (eq_bytes > 0) {
          eq_codec_.EncodeAt(row, eq_row_positions, &key);
          batch.eq_keys.insert(batch.eq_keys.end(), key.data.data(),
                               key.data.data() + eq_bytes);
        }
        if (p_ge != nullptr) {
          batch.decoded.resize(batch.decoded.size() + width);
          batch.decoded_bits.push_back(p_ge->Decode(
              row, binding_positions_,
              batch.decoded.data() + batch.decoded.size() - width));
        }
        uncharged += fixed_bytes;
        if (++batch.size % kChargeRows == 0 && governor != nullptr) {
          // A failure poisons the governor; the pipeline aborts at its
          // next per-outer-tuple check.
          (void)binding_bytes->Reserve(std::exchange(uncharged, 0),
                                       "nljp-bindings");
        }
      },
      nullptr, governor));
  if (governor != nullptr && uncharged > 0) {
    ICEBERG_RETURN_NOT_OK(binding_bytes->Reserve(uncharged, "nljp-bindings"));
  }
  if (options_.binding_order != BindingOrder::kNatural) {
    const bool asc = options_.binding_order == BindingOrder::kSortedAsc;
    batch.order.resize(batch.size);
    for (size_t i = 0; i < batch.size; ++i) {
      batch.order[i] = static_cast<uint32_t>(i);
    }
    // Lexicographic over the binding columns, as CompareRows over J_L.
    std::sort(batch.order.begin(), batch.order.end(),
              [&](uint32_t a, uint32_t b) {
                for (size_t c = 0; c < binding_positions_.size(); ++c) {
                  int cmp = batch.columns[c][a].Compare(batch.columns[c][b]);
                  if (cmp != 0) return asc ? cmp < 0 : cmp > 0;
                }
                return false;
              });
  }
  return batch;
}

Result<NljpOperator::GroupMap> NljpOperator::RunMainLoop(
    const BindingBatch& batch, SharedNljpCache& cache, bool cross_query,
    int threads, NljpStats* stats, GovernorReservation* group_bytes) {
  QueryGovernor* governor = options_.governor.get();

  // Per-worker state. Q_R's parameter row is rebound per binding, so each
  // worker runs its own Q_R(b): worker 0 the operator's (planned in
  // Create), workers 1..n-1 a copy of the inner block (sharing the
  // immutable R tables and expression trees) over a fresh parameter table.
  struct WorkerCtx {
    const JoinPipeline* pipeline = nullptr;
    Table* param = nullptr;
    GroupMap groups;
    NljpStats partial;
    LoopScratch scratch;
    GovernorReservation group_bytes;
    QueryBlock own_block;  // workers 1..n-1 only
    std::optional<JoinPipeline> own_pipeline;
  };
  std::vector<std::unique_ptr<WorkerCtx>> ctxs;
  ctxs.reserve(threads);
  for (int w = 0; w < threads; ++w) {
    auto ctx = std::make_unique<WorkerCtx>();
    ctx->group_bytes = GovernorReservation(governor);
    if (w == 0) {
      ctx->pipeline = &*inner_pipeline_;
      ctx->param = param_table_.get();
    } else {
      ctx->own_block = inner_block_;
      TablePtr param = NewParamTable(param_table_->schema());
      ctx->param = param.get();
      ctx->own_block.tables[0].table = std::move(param);
      ICEBERG_ASSIGN_OR_RETURN(JoinPipeline pipeline,
                               PlanInnerPipeline(ctx->own_block, options_));
      ctx->pipeline = &ctx->own_pipeline.emplace(std::move(pipeline));
    }
    ctxs.push_back(std::move(ctx));
  }

  // Under memory pressure, hard reservations (bindings, groups, the
  // baseline aggregator) shed cache entries before the query is failed.
  // Only the per-query cache is wired: its entries are charged to this
  // governor, so shedding them repays the budget. A registry cache's
  // entries are not charged here; shedding them could not settle a deficit
  // (chaos storms hit it via NljpCacheRegistry::ShedAll).
  struct ReclaimerGuard {
    QueryGovernor* governor;
    ~ReclaimerGuard() {
      if (governor != nullptr) governor->UnregisterReclaimer();
    }
  } reclaimer_guard{cross_query ? nullptr : governor};
  if (governor != nullptr && !cross_query) {
    governor->RegisterReclaimer(
        [&cache](size_t bytes_needed) { return cache.Shed(bytes_needed); });
  }

  // ---- Q_B -> memo -> Q_C -> Q_R(b) -> Q_P, per binding ----
  // Each binding is a batch position: its keys were encoded by Q_B, a memo
  // hit borrows the cached entry, and Q_C runs the compiled p>= over
  // decoded values. Only an inner evaluation materializes the binding.
  const bool monotone = monotonicity_ == Monotonicity::kMonotone;
  const fme::CompiledSubsumption* p_ge =
      prune_enabled_ ? &subsumption_->compiled() : nullptr;
  auto run_one = [&](WorkerCtx& ctx, size_t i) -> Status {
    if (governor != nullptr) ICEBERG_RETURN_NOT_OK(governor->Check());
    ++ctx.partial.bindings_total;
    const NljpBindingProbe probe = ProbeOf(batch, i, &ctx.scratch);
    if (memo_enabled_) {
      if (NljpCacheEntryPtr hit = cache.Lookup(probe)) {
        ++ctx.partial.memo_hits;
        ContributeTo(&ctx.groups, batch, i, *hit, &ctx.group_bytes,
                     &ctx.scratch);
        return Status::OK();
      }
    }
    if (p_ge != nullptr) {
      // Theorem 3: a cached unpromising w' prunes b when p>=(w', b)
      // (monotone HAVING) or p>=(b, w') (anti-monotone).
      size_t tests = 0;
      const double* b = probe.decoded;
      const uint8_t b_bits = probe.decoded_bits;
      bool pruned = cache.AnyWitness(
          probe, [&](const double* w, uint8_t w_bits) {
            ++tests;
            return monotone ? p_ge->Test(w, w_bits, b, b_bits)
                            : p_ge->Test(b, b_bits, w, w_bits);
          });
      ctx.partial.prune_tests += tests;
      if (pruned) {
        ++ctx.partial.pruned;
        return Status::OK();
      }
    }
    ++ctx.partial.inner_evaluations;
    Row binding;
    BindingRow(batch, i, &binding);
    ICEBERG_ASSIGN_OR_RETURN(
        CacheEntry evaluated,
        RunInnerQuery(*ctx.pipeline, ctx.param, std::move(binding),
                      &ctx.partial));
    auto entry = std::make_shared<const CacheEntry>(std::move(evaluated));
    ContributeTo(&ctx.groups, batch, i, *entry, &ctx.group_bytes,
                 &ctx.scratch);
    // Cache the entry when memoization or pruning can use it.
    if (memo_enabled_ || (prune_enabled_ && entry->unpromising)) {
      cache.Insert(std::move(entry), probe);
    }
    return Status::OK();
  };

  // Bindings vary wildly in cost (pruned in microseconds vs a full inner
  // join), so morsels are small; the atomic claim counter load-balances.
  // At one thread the pool runs every morsel inline, in binding order.
  TraceSpan loop_span("nljp.main_loop", "nljp");
  TaskPool pool(threads);
  const size_t morsel = std::max<size_t>(
      1, std::min<size_t>(32, batch.size / (threads * 4)));
  Status pool_status = pool.RunMorsels(
      batch.size, morsel,
      [&](int worker, size_t begin, size_t end) -> Status {
        WorkerCtx& ctx = *ctxs[worker];
        for (size_t k = begin; k < end; ++k) {
          ICEBERG_RETURN_NOT_OK(
              run_one(ctx, batch.order.empty() ? k : batch.order[k]));
        }
        return Status::OK();
      });
  loop_span.End();
  // The workers' group reservations outlive them: the merged groups stay
  // charged until the caller has finalized them (also when the pool failed
  // partway through).
  for (const auto& ctx : ctxs) group_bytes->Absorb(std::move(ctx->group_bytes));
  ICEBERG_RETURN_NOT_OK(pool_status);

  // Merge per-worker LR-group maps. MergeFrom combines full accumulators
  // (partials of partials), which is exactly f^o for algebraic slots; in
  // non-algebraic mode G_L -> A_L guarantees all contributions to one
  // group carry identical finals, so first-wins is exact.
  GroupMap merged = std::move(ctxs[0]->groups);
  for (int w = 1; w < threads; ++w) {
    for (auto& [key, state] : ctxs[w]->groups) {
      auto it = merged.find(key);
      if (it == merged.end()) {
        merged.emplace(key, std::move(state));
        continue;
      }
      GroupState& into = it->second;
      if (algebraic_mode_) {
        for (size_t i = 0; i < into.accumulators.size(); ++i) {
          into.accumulators[i].MergeFrom(state.accumulators[i]);
        }
      } else if (!into.has_contribution) {
        into.finals = std::move(state.finals);
      }
      into.has_contribution |= state.has_contribution;
    }
  }

  stats->workers = static_cast<size_t>(threads);
  stats->busy_us_per_worker = pool.last_busy_micros();
  stats->bindings_per_worker.clear();
  for (const auto& ctx : ctxs) {
    const NljpStats& p = ctx->partial;
    stats->bindings_total += p.bindings_total;
    stats->memo_hits += p.memo_hits;
    stats->pruned += p.pruned;
    stats->inner_evaluations += p.inner_evaluations;
    stats->prune_tests += p.prune_tests;
    stats->inner_pairs_examined += p.inner_pairs_examined;
    stats->inner_chunks_skipped += p.inner_chunks_skipped;
    stats->inner_batch_rows += p.inner_batch_rows;
    stats->bindings_per_worker.push_back(p.bindings_total);
  }
  stats->cache_entries += cache.live_entries();
  stats->cache_bytes += cache.live_bytes();
  stats->cache_evictions += cache.evictions();
  stats->cache_shed_entries += cache.shed_entries();
  if (governor != nullptr) {
    stats->cancel_checks = governor->checks_performed();
    stats->budget_bytes_peak = governor->bytes_peak();
  }
  return merged;
}

std::string NljpOperator::RenderExplain() const {
  std::string out = "NLJP operator\n";
  out += "  Q_B (binding query): " + binding_block_.ToString() + "\n";
  out += "  binding = J_L = (";
  for (size_t i = 0; i < view_.jl_offsets.size(); ++i) {
    if (i > 0) out += ", ";
    out += block_->QualifiedNameOfOffset(view_.jl_offsets[i]);
  }
  out += ")\n";
  out += "  Q_R(b) (inner query): " + inner_block_.ToString() + "\n";
  out += "  aggregates: ";
  for (size_t i = 0; i < agg_nodes_.size(); ++i) {
    if (i > 0) out += ", ";
    out += agg_nodes_[i]->ToString();
  }
  out += "\n";
  if (prune_enabled_) {
    out += "  Q_C(b') (pruning): cached unpromising w' with ";
    out += monotonicity_ == Monotonicity::kMonotone ? "b <= w' where p>=: "
                                                    : "b >= w' where p>=: ";
    out += subsumption_->ToString() + "\n";
  } else {
    out += "  pruning: disabled (" + prune_disabled_reason_ + ")\n";
  }
  out += std::string("  memoization: ") +
         (memo_enabled_ ? "enabled (cache keyed by J_L" +
                              std::string(view_.gr_offsets.empty()
                                              ? ")"
                                              : ", payload per G_R)")
                        : "disabled") +
         "\n";
  out += "  Q_P (post-processing): GROUP BY <G_L, G_R> HAVING " +
         block_->having->ToString() + "\n";
  out += "  keys: binding=" + binding_codec_.Summary() +
         " gr=" + gr_codec_.Summary();
  out += "; phi compiled (" + phi_prog_.Summary() + ")\n";
  return out;
}

}  // namespace iceberg
