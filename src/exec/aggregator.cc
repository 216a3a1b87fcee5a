#include "src/exec/aggregator.h"

#include <chrono>
#include <set>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace iceberg {

namespace {
// Initial bucket count for the group maps: covers the common small-groups
// case without rehashing, cheap enough for per-worker instances.
constexpr size_t kInitialBuckets = 256;
}  // namespace

CompiledProjection::CompiledProjection(const QueryBlock& block) {
  if (block.having != nullptr) having_ = CompiledExpr::Compile(*block.having);
  select_.reserve(block.select.size());
  for (const BoundSelectItem& item : block.select) {
    select_.push_back(CompiledExpr::Compile(*item.expr));
  }
}

bool CompiledProjection::Project(const Row& row, const AggValueMap* agg_values,
                                 EvalScratch* scratch, Row* out) const {
  if (having_.valid() && !having_.RunPredicate(row, scratch, agg_values)) {
    return false;
  }
  out->clear();
  out->reserve(select_.size());
  for (const CompiledExpr& p : select_) {
    out->push_back(p.Run(row, scratch, agg_values));
  }
  return true;
}

Aggregator::Aggregator(const QueryBlock& block)
    : block_(block),
      group_progs_(CompileAll(block.group_by)),
      codec_(CodecForExprs(block.group_by, BlockColumnTypes(block))) {
  CollectAggregates(block.having, &agg_nodes_);
  for (const BoundSelectItem& item : block.select) {
    CollectAggregates(item.expr, &agg_nodes_);
  }
  arg_progs_.reserve(agg_nodes_.size());
  for (const ExprPtr& agg : agg_nodes_) {
    if (agg->agg == AggFunc::kCountStar) {
      arg_progs_.emplace_back();  // no argument to evaluate
    } else {
      arg_progs_.push_back(CompiledExpr::Compile(*agg->children[0]));
    }
  }
  if (codec_.usable()) {
    packed_groups_.reserve(kInitialBuckets);
  } else {
    groups_.reserve(kInitialBuckets);
  }
  key_scratch_.reserve(block.group_by.size());
}

Aggregator::~Aggregator() {
  if (governor_ != nullptr && reserved_bytes_ > 0) {
    governor_->Release(reserved_bytes_);
  }
}

bool Aggregator::IsAggregated() const {
  return !block_.group_by.empty() || block_.having != nullptr ||
         !agg_nodes_.empty();
}

void Aggregator::EvalKeys(const Row& joined_row) {
  key_scratch_.clear();
  for (const CompiledExpr& p : group_progs_) {
    key_scratch_.push_back(p.Run(joined_row, &scratch_));
  }
}

bool Aggregator::ReserveGroup(const Row& joined_row, size_t key_bytes) {
  if (governor_ == nullptr) return true;
  // Approximate per-group footprint: key + representative row +
  // accumulator array + hash-map node overhead.
  size_t bytes = key_bytes + RowBytes(joined_row) +
                 agg_nodes_.size() * sizeof(Accumulator) + 64;
  if (!governor_->Reserve(bytes, "hash-aggregation").ok()) {
    // The governor is poisoned; the executor aborts at its next check.
    reserve_failed_ = true;
    return false;
  }
  reserved_bytes_ += bytes;
  return true;
}

Aggregator::GroupState Aggregator::MakeState(const Row& joined_row) const {
  GroupState state;
  state.representative = joined_row;
  state.accumulators.reserve(agg_nodes_.size());
  for (const ExprPtr& agg : agg_nodes_) {
    state.accumulators.emplace_back(agg->agg);
  }
  return state;
}

void Aggregator::Accumulate(GroupState* state, const Row& joined_row) {
  for (size_t i = 0; i < agg_nodes_.size(); ++i) {
    if (agg_nodes_[i]->agg == AggFunc::kCountStar) {
      state->accumulators[i].Add(Value::Null());
    } else {
      state->accumulators[i].Add(arg_progs_[i].Run(joined_row, &scratch_));
    }
  }
}

void Aggregator::AddRow(const Row& joined_row) {
  if (reserve_failed_) return;  // budget overrun already poisoned the query
  EvalKeys(joined_row);
  GroupState* state;
  if (codec_.usable()) {
    codec_.Encode(key_scratch_.data(), key_scratch_.size(), &packed_scratch_);
    auto it = packed_groups_.find(packed_scratch_);
    if (it == packed_groups_.end()) {
      // A numeric Row key has no out-of-line storage, so RowBytes(key)
      // is exactly key.size()*sizeof(Value): charge the same bytes the
      // Row-keyed map would, keeping governor accounting unchanged.
      if (!ReserveGroup(joined_row, key_scratch_.size() * sizeof(Value))) {
        return;
      }
      it = packed_groups_.emplace(packed_scratch_, MakeState(joined_row))
               .first;
    }
    state = &it->second;
  } else {
    // key_scratch_ doubles as the lookup key; it is only copied when the
    // group is new.
    auto it = groups_.find(key_scratch_);
    if (it == groups_.end()) {
      if (!ReserveGroup(joined_row, RowBytes(key_scratch_))) return;
      it = groups_.emplace(key_scratch_, MakeState(joined_row)).first;
    }
    state = &it->second;
  }
  Accumulate(state, joined_row);
}

void Aggregator::MergeFrom(Aggregator&& other) {
  // Take over the other side's reservation; merged-away duplicates keep the
  // accounting conservative (an over- rather than under-estimate).
  reserved_bytes_ += other.reserved_bytes_;
  other.reserved_bytes_ = 0;
  if (governor_ == nullptr) {
    governor_ = other.governor_;
  } else if (other.governor_ == governor_) {
    other.governor_ = nullptr;
  }
  for (auto& [key, other_state] : other.groups_) {
    auto it = groups_.find(key);
    if (it == groups_.end()) {
      groups_.emplace(key, std::move(other_state));
      continue;
    }
    GroupState& state = it->second;
    for (size_t i = 0; i < state.accumulators.size(); ++i) {
      state.accumulators[i].MergeFrom(other_state.accumulators[i]);
    }
  }
  for (auto& [key, other_state] : other.packed_groups_) {
    auto it = packed_groups_.find(key);
    if (it == packed_groups_.end()) {
      packed_groups_.emplace(key, std::move(other_state));
      continue;
    }
    GroupState& state = it->second;
    for (size_t i = 0; i < state.accumulators.size(); ++i) {
      state.accumulators[i].MergeFrom(other_state.accumulators[i]);
    }
  }
}

Result<TablePtr> Aggregator::Finalize(ExecStats* stats) const {
  TraceSpan span("agg.finalize");
  auto start = std::chrono::steady_clock::now();
  Result<TablePtr> result = FinalizeInternal(stats);
  int64_t took_us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  if (stats != nullptr) stats->finalize_us += took_us;
  ICEBERG_HISTOGRAM("agg.finalize_us")->Record(static_cast<uint64_t>(took_us));
  return result;
}

Result<TablePtr> Aggregator::FinalizeInternal(ExecStats* stats) const {
  auto result = std::make_shared<Table>(block_.output_schema);
  if (stats != nullptr) stats->groups_created += num_groups();
  const CompiledProjection projection(block_);
  EvalScratch scratch;
  AggValueMap agg_values;

  // SQL scalar-aggregate semantics: with no GROUP BY, an aggregated query
  // over empty input still yields one group.
  if (num_groups() == 0 && block_.group_by.empty() && !agg_nodes_.empty()) {
    for (const ExprPtr& agg : agg_nodes_) {
      agg_values[agg.get()] = Accumulator(agg->agg).Final();
    }
    Row dummy(block_.TotalWidth(), Value::Null());
    Row out;
    if (projection.Project(dummy, &agg_values, &scratch, &out)) {
      result->AppendUnchecked(std::move(out));
      if (stats != nullptr) stats->groups_output += 1;
    }
    return result;
  }

  std::set<Row, RowLess> distinct_rows;
  auto emit_group = [&](const GroupState& state) {
    for (size_t i = 0; i < agg_nodes_.size(); ++i) {
      agg_values[agg_nodes_[i].get()] = state.accumulators[i].Final();
    }
    Row out;
    if (!projection.Project(state.representative, &agg_values, &scratch,
                            &out)) {
      return;
    }
    if (block_.distinct) {
      if (!distinct_rows.insert(out).second) return;
    }
    result->AppendUnchecked(std::move(out));
    if (stats != nullptr) stats->groups_output += 1;
  };
  for (const auto& [key, state] : groups_) emit_group(state);
  for (const auto& [key, state] : packed_groups_) emit_group(state);
  return result;
}

}  // namespace iceberg
