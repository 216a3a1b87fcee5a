#include "src/exec/aggregator.h"

#include <algorithm>
#include <chrono>
#include <iterator>

#include "src/common/logging.h"
#include "src/expr/aggregate.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace iceberg {

namespace {

/// splitmix64 finalizer: Row hashes of small integers are the integers
/// themselves, and both the radix partition (top bits) and the index slot
/// (low bits) need every input bit mixed in.
inline uint64_t MixHash(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Index slots of a partition's first group.
constexpr size_t kInitialIndexSlots = 16;

/// Appends the flat offsets `e` reads outside aggregate calls.
void CollectCarried(const ExprPtr& e, std::vector<size_t>* out) {
  if (e == nullptr || e->kind == ExprKind::kAggregate) return;
  if (e->kind == ExprKind::kColumnRef) {
    out->push_back(static_cast<size_t>(e->resolved_index));
  }
  for (const ExprPtr& child : e->children) CollectCarried(child, out);
}

/// Out-of-line string bytes of `v` (the inline part is in the fixed
/// per-group footprint).
size_t StringBytes(const Value& v) {
  return v.is_string() ? v.AsString().size() : 0;
}

/// True when `v` replaces `extreme` as the MIN or MAX so far.
bool Improves(AggFunc func, const Value& v, const Value& extreme) {
  if (v.is_null()) return false;
  if (extreme.is_null()) return true;
  const int c = v.Compare(extreme);
  return func == AggFunc::kMin ? c < 0 : c > 0;
}

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
  CollectCarried(block.having, &carried_);
  for (const BoundSelectItem& item : block.select) {
    CollectAggregates(item.expr, &agg_nodes_);
    CollectCarried(item.expr, &carried_);
  }
  std::sort(carried_.begin(), carried_.end());
  carried_.erase(std::unique(carried_.begin(), carried_.end()),
                 carried_.end());

  arg_progs_.reserve(agg_nodes_.size());
  slots_.reserve(agg_nodes_.size());
  for (const ExprPtr& agg : agg_nodes_) {
    if (agg->agg == AggFunc::kCountStar) {
      arg_progs_.emplace_back();  // no argument to evaluate
    } else {
      arg_progs_.push_back(CompiledExpr::Compile(*agg->children[0]));
    }
    size_t* count;
    switch (agg->agg) {
      case AggFunc::kMin:
      case AggFunc::kMax:
        count = &num_extremes_;
        break;
      case AggFunc::kCountDistinct:
        count = &num_distinct_;
        break;
      default:
        count = &num_numeric_;
    }
    slots_.push_back({agg->agg, static_cast<uint32_t>((*count)++)});
  }

  key_width_ = codec_.usable()
                   ? codec_.num_columns() * PackedKey::kBytesPerColumn
                   : 0;
  // Hash + ~2 index slots (the index stays at most half full) + key +
  // carried values + aggregate state.
  group_bytes_ = 3 * sizeof(uint32_t) +
                 (codec_.usable()
                      ? key_width_
                      : sizeof(Row) + block.group_by.size() * sizeof(Value)) +
                 carried_.size() * sizeof(Value) +
                 num_numeric_ * (sizeof(int64_t) + sizeof(double) + 1) +
                 num_extremes_ * sizeof(Value) +
                 num_distinct_ * sizeof(std::set<Value>);
  key_scratch_.reserve(block.group_by.size());
}

Aggregator::~Aggregator() {
  if (governor_ != nullptr && reserved_bytes_ > 0) {
    governor_->Release(reserved_bytes_);
  }
}

bool Aggregator::IsAggregated(const QueryBlock& block) {
  if (!block.group_by.empty() || block.having != nullptr) return true;
  for (const BoundSelectItem& item : block.select) {
    if (ContainsAggregate(item.expr)) return true;
  }
  return false;
}

Aggregator::KeyRef Aggregator::KeyAt(const Partition& part,
                                     uint32_t group) const {
  if (codec_.usable()) {
    return {part.packed_keys.data() + size_t{group} * key_width_, nullptr};
  }
  return {nullptr, &part.row_keys[group]};
}

bool Aggregator::KeysEqual(KeyRef a, KeyRef b) const {
  if (codec_.usable()) {
    return std::equal(a.packed, a.packed + key_width_, b.packed);
  }
  return RowEq()(*a.row, *b.row);
}

uint32_t Aggregator::Find(const Partition& part, uint32_t hash, KeyRef key,
                          size_t* slot) const {
  const size_t mask = part.index.size() - 1;
  for (size_t s = hash & mask;; s = (s + 1) & mask) {
    uint32_t id = part.index[s];
    if (id == 0) {
      *slot = s;
      return kNotFound;
    }
    --id;
    if (part.hashes[id] == hash && KeysEqual(KeyAt(part, id), key)) {
      return id;
    }
  }
}

uint32_t Aggregator::Insert(Partition* part, size_t slot, uint32_t hash,
                            KeyRef key) const {
  const uint32_t id = static_cast<uint32_t>(part->size());
  part->index[slot] = id + 1;
  part->hashes.push_back(hash);
  if (codec_.usable()) {
    part->packed_keys.insert(part->packed_keys.end(), key.packed,
                             key.packed + key_width_);
  } else {
    part->row_keys.push_back(*key.row);
  }
  part->counts.resize(part->counts.size() + num_numeric_, 0);
  part->sums.resize(part->sums.size() + num_numeric_, 0.0);
  part->sum_is_int.resize(part->sum_is_int.size() + num_numeric_, 1);
  part->extremes.resize(part->extremes.size() + num_extremes_);
  part->distinct.resize(part->distinct.size() + num_distinct_);
  // Keep the index at most half full: linear probes stay short.
  if (2 * part->size() > part->index.size()) {
    std::vector<uint32_t> index(2 * part->index.size(), 0);
    const size_t mask = index.size() - 1;
    for (uint32_t g = 0; g < part->size(); ++g) {
      size_t s = part->hashes[g] & mask;
      while (index[s] != 0) s = (s + 1) & mask;
      index[s] = g + 1;
    }
    part->index = std::move(index);
  }
  return id;
}

bool Aggregator::ReserveGroup(const Row& joined_row) {
  if (governor_ == nullptr) return true;
  size_t bytes = group_bytes_;
  if (!codec_.usable()) {
    for (const Value& v : key_scratch_) bytes += StringBytes(v);
  }
  for (size_t off : carried_) bytes += StringBytes(joined_row[off]);
  if (!governor_->Reserve(bytes, "hash-aggregation").ok()) {
    // The governor is poisoned; the executor aborts at its next check.
    reserve_failed_ = true;
    return false;
  }
  reserved_bytes_ += bytes;
  return true;
}

void Aggregator::AddRow(const Row& joined_row) {
  if (reserve_failed_) return;  // budget overrun already poisoned the query
  key_scratch_.clear();
  for (const CompiledExpr& p : group_progs_) {
    key_scratch_.push_back(p.Run(joined_row, &scratch_));
  }
  uint64_t hash;
  KeyRef key{nullptr, &key_scratch_};
  if (codec_.usable()) {
    codec_.Encode(key_scratch_.data(), key_scratch_.size(), &packed_scratch_);
    key.packed = packed_scratch_.data.data();
    hash = MixHash(packed_scratch_.hash());
  } else {
    hash = MixHash(RowHash()(key_scratch_));
  }
  Partition& part = partitions_[hash >> (64 - kRadixBits)];
  if (part.index.empty()) part.index.assign(kInitialIndexSlots, 0);
  size_t slot;
  uint32_t group = Find(part, static_cast<uint32_t>(hash), key, &slot);
  if (group == kNotFound) {
    if (!ReserveGroup(joined_row)) return;
    group = Insert(&part, slot, static_cast<uint32_t>(hash), key);
    for (size_t off : carried_) part.carried.push_back(joined_row[off]);
  }

  for (size_t i = 0; i < slots_.size(); ++i) {
    const AggSlot& agg = slots_[i];
    if (agg.func == AggFunc::kCountStar) {
      ++part.counts[group * num_numeric_ + agg.at];
      continue;
    }
    Value v = arg_progs_[i].Run(joined_row, &scratch_);
    if (v.is_null()) continue;
    switch (agg.func) {
      case AggFunc::kCount:
        ++part.counts[group * num_numeric_ + agg.at];
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg: {
        const size_t n = group * num_numeric_ + agg.at;
        ++part.counts[n];
        part.sums[n] += v.AsDouble();
        if (!v.is_int()) part.sum_is_int[n] = 0;
        break;
      }
      case AggFunc::kMin:
      case AggFunc::kMax: {
        Value& extreme = part.extremes[group * num_extremes_ + agg.at];
        if (Improves(agg.func, v, extreme)) extreme = std::move(v);
        break;
      }
      case AggFunc::kCountDistinct:
        part.distinct[group * num_distinct_ + agg.at].insert(std::move(v));
        break;
      case AggFunc::kCountStar:
        break;
    }
  }
}

void Aggregator::MergeGroup(Partition* part, uint32_t group, Partition* from,
                            uint32_t from_group) const {
  for (size_t n = 0; n < num_numeric_; ++n) {
    const size_t to = group * num_numeric_ + n;
    const size_t src = from_group * num_numeric_ + n;
    part->counts[to] += from->counts[src];
    part->sums[to] += from->sums[src];
    part->sum_is_int[to] &= from->sum_is_int[src];
  }
  for (const AggSlot& agg : slots_) {
    if (agg.func == AggFunc::kMin || agg.func == AggFunc::kMax) {
      Value& extreme = part->extremes[group * num_extremes_ + agg.at];
      Value& other = from->extremes[from_group * num_extremes_ + agg.at];
      if (Improves(agg.func, other, extreme)) extreme = std::move(other);
    } else if (agg.func == AggFunc::kCountDistinct) {
      std::set<Value>& set = part->distinct[group * num_distinct_ + agg.at];
      std::set<Value>& other =
          from->distinct[from_group * num_distinct_ + agg.at];
      if (set.empty()) {
        set.swap(other);
      } else {
        set.insert(other.begin(), other.end());
      }
    }
  }
}

void Aggregator::MergePartition(Partition* part, Partition* from) const {
  if (part->size() == 0) {
    std::swap(*part, *from);
    *from = Partition();
    return;
  }
  const size_t nc = carried_.size();
  for (uint32_t g = 0; g < from->size(); ++g) {
    const uint32_t hash = from->hashes[g];
    KeyRef key = KeyAt(*from, g);
    size_t slot;
    uint32_t group = Find(*part, hash, key, &slot);
    if (group == kNotFound) {
      // The first worker to see a group supplies its carried values.
      group = Insert(part, slot, hash, key);
      auto first = from->carried.begin() + static_cast<ptrdiff_t>(g * nc);
      part->carried.insert(part->carried.end(), std::make_move_iterator(first),
                           std::make_move_iterator(first + nc));
    }
    MergeGroup(part, group, from, g);
  }
  *from = Partition();
}

Value Aggregator::Final(const Partition& part, uint32_t group,
                        size_t i) const {
  const AggSlot& agg = slots_[i];
  switch (agg.func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return Value::Int(part.counts[group * num_numeric_ + agg.at]);
    case AggFunc::kSum:
    case AggFunc::kAvg: {
      const size_t n = group * num_numeric_ + agg.at;
      if (part.counts[n] == 0) return Value::Null();
      if (agg.func == AggFunc::kAvg) {
        return Value::Double(part.sums[n] /
                             static_cast<double>(part.counts[n]));
      }
      if (part.sum_is_int[n]) {
        return Value::Int(static_cast<int64_t>(part.sums[n]));
      }
      return Value::Double(part.sums[n]);
    }
    case AggFunc::kMin:
    case AggFunc::kMax:
      return part.extremes[group * num_extremes_ + agg.at];
    case AggFunc::kCountDistinct:
      return Value::Int(static_cast<int64_t>(
          part.distinct[group * num_distinct_ + agg.at].size()));
  }
  return Value::Null();
}

Result<TablePtr> Aggregator::Finalize(
    const std::vector<std::unique_ptr<Aggregator>>& parts, TaskPool* pool,
    ExecStats* stats) {
  TraceSpan span("agg.finalize");
  const auto start = std::chrono::steady_clock::now();
  Aggregator& first = *parts[0];
  const QueryBlock& block = first.block_;
  const size_t num_aggs = first.agg_nodes_.size();
  const CompiledProjection projection(block);

  // One task per partition: merge it across workers, apply HAVING,
  // project and sort its rows, then free it.
  std::array<std::vector<Row>, kPartitions> outputs;
  std::array<size_t, kPartitions> groups{};
  Status status = pool->RunMorsels(
      kPartitions, 1, [&](int, size_t begin, size_t end) {
        EvalScratch scratch;
        AggValueMap agg_values;
        std::vector<Value*> agg_value_of;
        for (const ExprPtr& agg : first.agg_nodes_) {
          agg_value_of.push_back(&agg_values[agg.get()]);
        }
        Row row(block.TotalWidth(), Value::Null());
        const size_t nc = first.carried_.size();
        for (size_t p = begin; p < end; ++p) {
          Partition part = std::move(first.partitions_[p]);
          for (size_t w = 1; w < parts.size(); ++w) {
            first.MergePartition(&part, &parts[w]->partitions_[p]);
          }
          groups[p] = part.size();
          for (uint32_t g = 0; g < part.size(); ++g) {
            for (size_t i = 0; i < num_aggs; ++i) {
              *agg_value_of[i] = first.Final(part, g, i);
            }
            for (size_t c = 0; c < nc; ++c) {
              row[first.carried_[c]] = part.carried[g * nc + c];
            }
            Row out;
            if (projection.Project(row, &agg_values, &scratch, &out)) {
              outputs[p].push_back(std::move(out));
            }
          }
          std::sort(outputs[p].begin(), outputs[p].end(), RowLess());
        }
        return Status::OK();
      });
  ICEBERG_RETURN_NOT_OK(status);
  size_t num_groups = 0;
  for (size_t n : groups) num_groups += n;

  // Merge the sorted outputs pairwise into outputs[0]; each round's merges
  // run as parallel tasks.
  for (size_t width = 1; width < kPartitions; width *= 2) {
    ICEBERG_RETURN_NOT_OK(pool->RunMorsels(
        kPartitions / (2 * width), 1, [&](int, size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            std::vector<Row>& left = outputs[2 * i * width];
            std::vector<Row>& right = outputs[(2 * i + 1) * width];
            std::vector<Row> merged;
            merged.reserve(left.size() + right.size());
            std::merge(std::make_move_iterator(left.begin()),
                       std::make_move_iterator(left.end()),
                       std::make_move_iterator(right.begin()),
                       std::make_move_iterator(right.end()),
                       std::back_inserter(merged), RowLess());
            left = std::move(merged);
            right = std::vector<Row>();
          }
          return Status::OK();
        }));
  }
  std::vector<Row>& rows = outputs[0];
  // SQL scalar-aggregate semantics: with no GROUP BY, an aggregated query
  // over empty input still yields one group.
  if (num_groups == 0 && block.group_by.empty() && num_aggs > 0) {
    AggValueMap agg_values;
    for (const ExprPtr& agg : first.agg_nodes_) {
      agg_values[agg.get()] = Accumulator(agg->agg).Final();
    }
    Row dummy(block.TotalWidth(), Value::Null());
    Row out;
    EvalScratch scratch;
    if (projection.Project(dummy, &agg_values, &scratch, &out)) {
      rows.push_back(std::move(out));
    }
  }
  if (block.distinct) {
    rows.erase(std::unique(rows.begin(), rows.end(), RowEq()), rows.end());
  }
  auto result = std::make_shared<Table>(block.output_schema);
  for (Row& out : rows) result->AppendUnchecked(std::move(out));

  const int64_t took_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  if (stats != nullptr) {
    stats->groups_created += num_groups;
    stats->groups_output += result->num_rows();
    stats->finalize_us += took_us;
  }
  ICEBERG_HISTOGRAM("agg.finalize_us")->Record(static_cast<uint64_t>(took_us));
  return result;
}

}  // namespace iceberg
