#include "src/exec/transfer_graph.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "src/common/logging.h"
#include "src/exec/bloom.h"
#include "src/exec/exec_options.h"
#include "src/exec/key_codec.h"
#include "src/exec/task_pool.h"
#include "src/expr/compiled.h"
#include "src/obs/metrics.h"

namespace iceberg {

namespace {

int64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

int MaxOffset(const ExprPtr& e) {
  std::vector<const Expr*> refs;
  CollectColumnRefs(e, &refs);
  int max_off = -1;
  for (const Expr* r : refs) max_off = std::max(max_off, r->resolved_index);
  return max_off;
}

int MinOffset(const ExprPtr& e) {
  std::vector<const Expr*> refs;
  CollectColumnRefs(e, &refs);
  int min_off = 1 << 30;
  for (const Expr* r : refs) min_off = std::min(min_off, r->resolved_index);
  return min_off;
}

/// Rows below this run the serial build/probe loops; above it (and with a
/// pool) filter builds and probe passes go morsel-wise over the TaskPool.
constexpr size_t kParallelRows = 8192;

/// One relation of the join graph.
struct Node {
  size_t level = 0;          // FROM position
  const Table* table = nullptr;
  size_t begin = 0;          // flat offset of the relation's first column
  size_t rows = 0;
  const RowSelection* seed = nullptr;    // live a-priori selection, if any
  std::vector<ExprPtr> local;            // single-relation conjuncts
  std::vector<CompiledExpr> local_progs;
  std::vector<uint32_t> edges;           // incident edge indexes
  std::vector<uint8_t> keep;             // 1 = still alive
  size_t kept = 0;
  uint64_t gen = 0;  // bumped on elimination; filters cache against it
};

/// One (composite) equi-join edge between two relations. `a` is the lower
/// FROM level. Column lists are pairwise aligned; the codecs canonicalize
/// int/double so byte equality coincides with SQL equality across the
/// sides.
struct GraphEdge {
  size_t a_level = 0, b_level = 0;
  std::vector<size_t> a_cols, b_cols;
  KeyCodec a_codec, b_codec;
  /// Single numeric key column on both sides: the filter also carries the
  /// source key range, enabling exact range elimination and whole-chunk
  /// zone refutation on the target.
  bool rangeable = false;
};

/// A built filter for one direction of one edge, cached against the source
/// node's generation so an unchanged source never rebuilds.
struct FilterSlot {
  std::unique_ptr<BloomFilter> bloom;
  uint64_t built_gen = ~uint64_t{0};
  bool range_valid = false;
  double min_d = 0.0, max_d = 0.0;
};

bool NumericType(DataType t) {
  return t == DataType::kInt64 || t == DataType::kDouble;
}

}  // namespace

TransferResult::~TransferResult() {
  if (gauge_bytes_ > 0) {
    ICEBERG_GAUGE("transfer.filter_bytes")
        ->Add(-static_cast<int64_t>(gauge_bytes_));
  }
}

bool TransferResult::Live() const {
  for (const auto& [table, version] : versions_) {
    if (table->version() != version) return false;
  }
  return true;
}

std::string TransferResult::Summary() const {
  size_t total = 0, kept = 0;
  size_t nodes = 0;
  for (size_t l = 0; l < keep_.size(); ++l) {
    if (keep_[l].empty()) continue;
    ++nodes;
    total += total_[l];
    kept += kept_[l];
  }
  char pct[32];
  std::snprintf(pct, sizeof(pct), "%.1f%%",
                total == 0 ? 0.0
                           : 100.0 * static_cast<double>(total - kept) /
                                 static_cast<double>(total));
  return "passes=" + std::to_string(stats_.passes) +
         " filters=" + std::to_string(stats_.filters_built) + " eliminated=" +
         std::to_string(total - kept) + "/" + std::to_string(total) + " (" +
         pct + ") over " + std::to_string(nodes) + " relations" +
         (stats_.degraded ? " [degraded]" : "") +
         (stats_.replayed_schedule ? " [schedule replayed]" : "");
}

TransferResultPtr PermuteTransferResult(const TransferResultPtr& result,
                                        const std::vector<size_t>& order) {
  if (result == nullptr) return nullptr;
  auto permuted = std::shared_ptr<TransferResult>(new TransferResult());
  const size_t n = order.size();
  permuted->keep_.resize(n);
  permuted->kept_.resize(n, 0);
  permuted->total_.resize(n, 0);
  for (size_t p = 0; p < n; ++p) {
    const size_t old_level = order[p];
    if (old_level >= result->keep_.size()) continue;
    permuted->keep_[p] = result->keep_[old_level];
    permuted->kept_[p] = result->kept_[old_level];
    permuted->total_[p] = result->total_[old_level];
  }
  // versions_ guard table identity, not level order: copy as-is.
  permuted->versions_ = result->versions_;
  permuted->any_selection_ = result->any_selection_;
  permuted->stats_ = result->stats_;
  // gauge_bytes_ stays 0: the original owns the metric accounting and its
  // destructor must be the only one subtracting from the gauge.
  return permuted;
}

/// Builder for one BuildTransferGraph call; groups the passes' shared
/// state so the sweep loops stay readable.
class TransferGraphBuilder {
 public:
  TransferGraphBuilder(const QueryBlock& block,
                       const TransferPlanOptions& options)
      : block_(block),
        options_(options),
        filter_reservation_(options.governor) {}

  TransferResultPtr Build();

  /// The block's a-priori seeds alone, for blocks where transfer is off
  /// or structurally inapplicable: each seeded level keeps exactly its
  /// seed's rows. A seed carries no information across relations, so the
  /// result pins only the seeded tables' versions — e.g. NLJP's
  /// per-binding parameter-table rebinding never invalidates it. Null when
  /// no FROM entry carries a live seed.
  static TransferResultPtr SeedsOnly(const QueryBlock& block);

 private:
  bool CollectGraph();
  void SeedLocalSelections();
  void RankOrder();
  bool TryReplaySchedule();
  void CaptureSchedule();
  /// Probes `node` against the filter transferred over `edge` from the
  /// other side. Returns false when the governor refused filter memory
  /// (degrade: stop sweeping).
  bool ProbeAcross(Node* node, size_t edge_index);
  const FilterSlot* GetFilter(const GraphEdge& edge, Node* source,
                              const std::vector<size_t>& cols,
                              const KeyCodec& codec);
  void ProbeRows(Node* node, const GraphEdge& edge,
                 const std::vector<size_t>& cols, const KeyCodec& codec,
                 const FilterSlot& slot);
  TaskPool* Pool();

  const QueryBlock& block_;
  const TransferPlanOptions& options_;
  std::vector<Node> nodes_;
  std::vector<GraphEdge> edges_;
  std::vector<FilterSlot> slots_;  // 2 per edge: [2*e] from a, [2*e+1] from b
  std::vector<uint32_t> order_;    // participating levels, cost-ranked
  size_t filter_bytes_ = 0;        // reserved filter memory (peak, build)
  // The governor charge for the Bloom filters, which die with the builder.
  GovernorReservation filter_reservation_;
  int max_passes_ = 0;
  TransferStats stats_;
  std::unique_ptr<TaskPool> pool_;
};

TaskPool* TransferGraphBuilder::Pool() {
  if (pool_ == nullptr && options_.num_threads > 1) {
    pool_ = std::make_unique<TaskPool>(options_.num_threads);
  }
  return pool_.get();
}

bool TransferGraphBuilder::CollectGraph() {
  const size_t num_tables = block_.tables.size();
  nodes_.resize(num_tables);
  for (size_t l = 0; l < num_tables; ++l) {
    Node& n = nodes_[l];
    n.level = l;
    n.table = block_.tables[l].table.get();
    n.begin = block_.tables[l].offset;
    n.rows = n.table->num_rows();
    n.seed = block_.tables[l].LiveSelection();
  }

  // Classify conjuncts: cross-relation equalities between plain columns
  // become (composite) edges; single-relation conjuncts seed that
  // relation's initial selection.
  struct PendingEdge {
    std::vector<size_t> a_cols, b_cols;
  };
  std::vector<std::pair<std::pair<size_t, size_t>, PendingEdge>> pending;
  for (const ExprPtr& conjunct : block_.where_conjuncts) {
    const int lo = MinOffset(conjunct);
    const int hi = MaxOffset(conjunct);
    if (hi < 0) continue;  // no column refs
    const size_t lo_t = block_.TableOfOffset(static_cast<size_t>(lo));
    const size_t hi_t = block_.TableOfOffset(static_cast<size_t>(hi));
    if (lo_t == hi_t) {
      nodes_[lo_t].local.push_back(conjunct);
      continue;
    }
    if (conjunct->kind != ExprKind::kBinary ||
        conjunct->bop != BinaryOp::kEq) {
      continue;
    }
    const ExprPtr& l = conjunct->children[0];
    const ExprPtr& r = conjunct->children[1];
    if (l->kind != ExprKind::kColumnRef || r->kind != ExprKind::kColumnRef) {
      continue;
    }
    size_t la = block_.TableOfOffset(static_cast<size_t>(l->resolved_index));
    size_t lb = block_.TableOfOffset(static_cast<size_t>(r->resolved_index));
    size_t ca = static_cast<size_t>(l->resolved_index) - nodes_[la].begin;
    size_t cb = static_cast<size_t>(r->resolved_index) - nodes_[lb].begin;
    if (la > lb) {
      std::swap(la, lb);
      std::swap(ca, cb);
    }
    // Only codec-friendly (numeric) key columns participate.
    if (!NumericType(nodes_[la].table->schema().column(ca).type) ||
        !NumericType(nodes_[lb].table->schema().column(cb).type)) {
      continue;
    }
    PendingEdge* found = nullptr;
    for (auto& [pair, pe] : pending) {
      if (pair.first == la && pair.second == lb) {
        found = &pe;
        break;
      }
    }
    if (found == nullptr) {
      pending.push_back({{la, lb}, PendingEdge{}});
      found = &pending.back().second;
    }
    found->a_cols.push_back(ca);
    found->b_cols.push_back(cb);
  }

  for (auto& [pair, pe] : pending) {
    GraphEdge e;
    e.a_level = pair.first;
    e.b_level = pair.second;
    e.a_cols = pe.a_cols;
    e.b_cols = pe.b_cols;
    if (e.a_cols.size() > PackedKey::kMaxColumns) continue;
    std::vector<DataType> a_types, b_types;
    for (size_t c : e.a_cols) {
      a_types.push_back(nodes_[e.a_level].table->schema().column(c).type);
    }
    for (size_t c : e.b_cols) {
      b_types.push_back(nodes_[e.b_level].table->schema().column(c).type);
    }
    e.a_codec = KeyCodec::ForTypes(std::move(a_types));
    e.b_codec = KeyCodec::ForTypes(std::move(b_types));
    if (!e.a_codec.usable() || !e.b_codec.usable()) continue;
    e.rangeable = e.a_cols.size() == 1;
    edges_.push_back(std::move(e));
  }

  // A self-join edge over the *same* columns of the *same* table can never
  // eliminate anything unless one side is already reduced (every key
  // trivially has a partner: itself). Such edges stay in the graph — they
  // become useful the moment local predicates, a-priori seeds or other
  // edges shrink one side — but a graph consisting *only* of them over
  // unfiltered nodes is a provable no-op, and the stock self-join
  // workloads hit exactly that.
  auto filtered = [&](const Node& n) {
    return !n.local.empty() || n.seed != nullptr;
  };
  bool any_useful = false;
  for (const GraphEdge& e : edges_) {
    const bool self_noop =
        nodes_[e.a_level].table == nodes_[e.b_level].table &&
        e.a_cols == e.b_cols;
    if (!self_noop || filtered(nodes_[e.a_level]) ||
        filtered(nodes_[e.b_level])) {
      any_useful = true;
    }
  }
  if (edges_.empty() || !any_useful) return false;

  for (size_t i = 0; i < edges_.size(); ++i) {
    nodes_[edges_[i].a_level].edges.push_back(static_cast<uint32_t>(i));
    nodes_[edges_[i].b_level].edges.push_back(static_cast<uint32_t>(i));
  }
  slots_.resize(edges_.size() * 2);
  return true;
}

void TransferGraphBuilder::SeedLocalSelections() {
  for (Node& n : nodes_) {
    // An a-priori seed is the node's starting selection even off the
    // graph (an edgeless seeded node still reports it to the pipeline).
    if (n.seed != nullptr) {
      n.keep = n.seed->keep;
      n.kept = n.seed->kept;
    } else if (!n.edges.empty()) {
      n.keep.assign(n.rows, 1);
      n.kept = n.rows;
    }
    if (n.edges.empty() || n.local.empty()) continue;
    n.local_progs = CompileAll(n.local);
    // The conjuncts are bound to the block's flat offsets; pad a scratch
    // row up to the relation's slice (the padding is never read).
    auto filter_range = [&](size_t begin, size_t end, size_t* eliminated) {
      Row scratch(n.begin);
      EvalScratch eval;
      for (size_t i = begin; i < end; ++i) {
        if (n.keep[i] == 0) continue;
        const Row& row = n.table->row(i);
        scratch.resize(n.begin);
        scratch.insert(scratch.end(), row.begin(), row.end());
        bool pass = true;
        for (const CompiledExpr& p : n.local_progs) {
          if (!p.RunPredicate(scratch, &eval)) {
            pass = false;
            break;
          }
        }
        if (!pass) {
          n.keep[i] = 0;
          ++*eliminated;
        }
      }
    };
    size_t eliminated = 0;
    TaskPool* pool = n.rows >= kParallelRows ? Pool() : nullptr;
    if (pool != nullptr) {
      std::vector<size_t> partial(pool->num_threads(), 0);
      pool->RunMorsels(n.rows, MorselFor(n.rows, pool->num_threads()),
                       [&](int worker, size_t begin, size_t end) {
                         filter_range(begin, end, &partial[worker]);
                         return Status::OK();
                       });
      for (size_t p : partial) eliminated += p;
    } else {
      filter_range(0, n.rows, &eliminated);
    }
    if (eliminated > 0) {
      n.kept -= eliminated;
      ++n.gen;
    }
  }
}

void TransferGraphBuilder::RankOrder() {
  order_.clear();
  for (const Node& n : nodes_) {
    if (!n.edges.empty()) order_.push_back(static_cast<uint32_t>(n.level));
  }
  // Cost-ranked spanning order: most selective (fewest surviving rows)
  // first, so the strongest filters propagate before the expensive nodes
  // are probed. Stable on level for determinism.
  std::stable_sort(order_.begin(), order_.end(),
                   [&](uint32_t a, uint32_t b) {
                     return nodes_[a].kept < nodes_[b].kept;
                   });
}

bool TransferGraphBuilder::TryReplaySchedule() {
  const TransferSchedule* s = options_.replay;
  if (s == nullptr || !s->valid) return false;
  // The schedule is advisory: verify it matches the freshly derived graph
  // structure (same edge set, an order covering the same nodes) and fall
  // back to the ranked order on any mismatch.
  if (s->edges.size() != edges_.size()) return false;
  if (s->order.size() != order_.size()) return false;
  for (size_t i = 0; i < edges_.size(); ++i) {
    const TransferSchedule::Edge& se = s->edges[i];
    const GraphEdge& ge = edges_[i];
    if (se.a_level != ge.a_level || se.b_level != ge.b_level) return false;
    if (se.a_cols.size() != ge.a_cols.size()) return false;
    for (size_t k = 0; k < se.a_cols.size(); ++k) {
      if (se.a_cols[k] != ge.a_cols[k] || se.b_cols[k] != ge.b_cols[k]) {
        return false;
      }
    }
  }
  std::vector<uint32_t> sorted_ours = order_;
  std::vector<uint32_t> sorted_theirs(s->order.begin(), s->order.end());
  std::sort(sorted_ours.begin(), sorted_ours.end());
  std::sort(sorted_theirs.begin(), sorted_theirs.end());
  if (sorted_ours != sorted_theirs) return false;
  order_.assign(s->order.begin(), s->order.end());
  // The capture run's fixpoint bound: one extra sweep confirms the
  // fixpoint on this statement's data without the exploratory tail.
  max_passes_ = std::min(max_passes_, static_cast<int>(s->passes) + 1);
  if (max_passes_ < 1) max_passes_ = 1;
  stats_.replayed_schedule = true;
  return true;
}

void TransferGraphBuilder::CaptureSchedule() {
  TransferSchedule* s = options_.capture;
  if (s == nullptr) return;
  s->edges.clear();
  for (const GraphEdge& e : edges_) {
    TransferSchedule::Edge se;
    se.a_level = static_cast<uint32_t>(e.a_level);
    se.b_level = static_cast<uint32_t>(e.b_level);
    for (size_t c : e.a_cols) se.a_cols.push_back(static_cast<uint32_t>(c));
    for (size_t c : e.b_cols) se.b_cols.push_back(static_cast<uint32_t>(c));
    s->edges.push_back(std::move(se));
  }
  s->order = order_;
  s->passes = static_cast<uint32_t>(stats_.passes);
  s->valid = true;
}

const FilterSlot* TransferGraphBuilder::GetFilter(
    const GraphEdge& edge, Node* source, const std::vector<size_t>& cols,
    const KeyCodec& codec) {
  const size_t edge_index = static_cast<size_t>(&edge - edges_.data());
  FilterSlot& slot =
      slots_[edge_index * 2 + (source->level == edge.b_level ? 1 : 0)];
  if (slot.bloom != nullptr && slot.built_gen == source->gen) return &slot;

  auto bloom = std::make_unique<BloomFilter>(source->kept);
  const size_t bytes = bloom->ApproxBytes();
  if (!filter_reservation_.TryReserve(bytes, "transfer-filter")) {
    return nullptr;  // pressure: degrade to the passes done so far
  }
  filter_bytes_ += bytes;
  ICEBERG_GAUGE("transfer.filter_bytes")->Add(static_cast<int64_t>(bytes));
  ICEBERG_GAUGE("transfer.filter_bytes_peak")
      ->SetMax(static_cast<int64_t>(filter_bytes_));

  const bool track_range = edge.rangeable;
  auto build_range = [&](BloomFilter* out, bool* range_valid, double* min_d,
                         double* max_d, size_t begin, size_t end) {
    PackedKey pk;
    for (size_t i = begin; i < end; ++i) {
      if (source->keep[i] == 0) continue;
      const Row& row = source->table->row(i);
      bool null_key = false;
      for (size_t c : cols) {
        if (row[c].is_null()) {
          null_key = true;
          break;
        }
      }
      // A NULL key on the source side can never match the other side's
      // equality, so it contributes nothing to the transferred set.
      if (null_key) continue;
      codec.EncodeAt(row, cols, &pk);
      out->Insert(pk.hash());
      if (track_range) {
        const double v = row[cols[0]].AsDouble();
        if (!*range_valid || v < *min_d) *min_d = v;
        if (!*range_valid || v > *max_d) *max_d = v;
        *range_valid = true;
      }
    }
  };

  slot.range_valid = false;
  slot.min_d = std::numeric_limits<double>::infinity();
  slot.max_d = -std::numeric_limits<double>::infinity();
  TaskPool* pool = source->kept >= kParallelRows ? Pool() : nullptr;
  if (pool != nullptr) {
    const int workers = pool->num_threads();
    std::vector<BloomFilter> parts(static_cast<size_t>(workers),
                                   BloomFilter(source->kept));
    std::vector<uint8_t> valids(static_cast<size_t>(workers), 0);
    std::vector<double> mins(static_cast<size_t>(workers), 0.0);
    std::vector<double> maxs(static_cast<size_t>(workers), 0.0);
    pool->RunMorsels(
        source->rows, MorselFor(source->rows, workers),
        [&](int worker, size_t begin, size_t end) {
          bool valid = valids[worker] != 0;
          build_range(&parts[worker], &valid, &mins[worker], &maxs[worker],
                      begin, end);
          valids[worker] = valid ? 1 : 0;
          return Status::OK();
        });
    for (int w = 0; w < workers; ++w) {
      bloom->MergeFrom(parts[w]);
      if (valids[w] != 0) {
        if (!slot.range_valid || mins[w] < slot.min_d) slot.min_d = mins[w];
        if (!slot.range_valid || maxs[w] > slot.max_d) slot.max_d = maxs[w];
        slot.range_valid = true;
      }
    }
  } else {
    build_range(bloom.get(), &slot.range_valid, &slot.min_d, &slot.max_d, 0,
                source->rows);
  }
  slot.bloom = std::move(bloom);
  slot.built_gen = source->gen;
  ++stats_.filters_built;
  return &slot;
}

void TransferGraphBuilder::ProbeRows(Node* node, const GraphEdge& edge,
                                     const std::vector<size_t>& cols,
                                     const KeyCodec& codec,
                                     const FilterSlot& slot) {
  const BloomFilter& bloom = *slot.bloom;
  const bool use_range = edge.rangeable && slot.range_valid;

  // Whole-chunk zone refutation first: when the (single) key column's zone
  // over a chunk cannot intersect the transferred key range, every live
  // row of the chunk dies without a per-row probe.
  std::vector<uint8_t> chunk_dead;
  if (use_range && options_.use_zone_maps &&
      node->rows >= ColumnChunkSet::kChunkRows) {
    ColumnChunkSetPtr chunks = node->table->GetOrBuildChunks();
    if (chunks != nullptr && chunks->version() == node->table->version()) {
      const std::vector<ColumnChunk>& cs = chunks->chunks();
      chunk_dead.assign(cs.size(), 0);
      for (size_t ci = 0; ci < cs.size(); ++ci) {
        const ChunkColumn& col = cs[ci].cols[cols[0]];
        if (!col.zone_valid) continue;
        if (col.max_d < slot.min_d || col.min_d > slot.max_d) {
          chunk_dead[ci] = 1;
          ++stats_.chunks_refuted;
        }
      }
    }
  }

  struct Partial {
    size_t eliminated = 0, probes = 0, hits = 0;
  };
  auto probe_range = [&](size_t begin, size_t end, Partial* out) {
    PackedKey pk;
    for (size_t i = begin; i < end; ++i) {
      if (node->keep[i] == 0) continue;
      if (!chunk_dead.empty() &&
          chunk_dead[i / ColumnChunkSet::kChunkRows] != 0) {
        node->keep[i] = 0;
        ++out->eliminated;
        continue;
      }
      const Row& row = node->table->row(i);
      bool drop = false;
      for (size_t c : cols) {
        // A NULL key column can never satisfy the join equality.
        if (row[c].is_null()) {
          drop = true;
          break;
        }
      }
      if (!drop && use_range) {
        const double v = row[cols[0]].AsDouble();
        if (v < slot.min_d || v > slot.max_d) drop = true;
      }
      if (!drop) {
        codec.EncodeAt(row, cols, &pk);
        ++out->probes;
        if (bloom.MayContain(pk.hash())) {
          ++out->hits;
        } else {
          drop = true;
        }
      }
      if (drop) {
        node->keep[i] = 0;
        ++out->eliminated;
      }
    }
  };

  Partial total;
  TaskPool* pool = node->kept >= kParallelRows ? Pool() : nullptr;
  if (pool != nullptr) {
    std::vector<Partial> partials(
        static_cast<size_t>(pool->num_threads()));
    pool->RunMorsels(node->rows, MorselFor(node->rows, pool->num_threads()),
                     [&](int worker, size_t begin, size_t end) {
                       probe_range(begin, end, &partials[worker]);
                       return Status::OK();
                     });
    for (const Partial& p : partials) {
      total.eliminated += p.eliminated;
      total.probes += p.probes;
      total.hits += p.hits;
    }
  } else {
    probe_range(0, node->rows, &total);
  }
  stats_.probes += total.probes;
  stats_.hits += total.hits;
  if (total.eliminated > 0) {
    node->kept -= total.eliminated;
    ++node->gen;
  }
}

bool TransferGraphBuilder::ProbeAcross(Node* node, size_t edge_index) {
  const GraphEdge& edge = edges_[edge_index];
  const bool node_is_a = node->level == edge.a_level;
  Node* source = &nodes_[node_is_a ? edge.b_level : edge.a_level];
  // Self-edge over identical columns with both sides fully live: every key
  // has itself as a partner, nothing can be eliminated — skip the build.
  if (source->table == node->table && edge.a_cols == edge.b_cols &&
      source->kept == source->rows && node->kept == node->rows) {
    return true;
  }
  const std::vector<size_t>& src_cols =
      node_is_a ? edge.b_cols : edge.a_cols;
  const KeyCodec& src_codec = node_is_a ? edge.b_codec : edge.a_codec;
  const std::vector<size_t>& dst_cols =
      node_is_a ? edge.a_cols : edge.b_cols;
  const KeyCodec& dst_codec = node_is_a ? edge.a_codec : edge.b_codec;
  const FilterSlot* slot = GetFilter(edge, source, src_cols, src_codec);
  if (slot == nullptr) return false;
  ProbeRows(node, edge, dst_cols, dst_codec, *slot);
  return true;
}

TransferResultPtr TransferGraphBuilder::SeedsOnly(const QueryBlock& block) {
  const auto t0 = std::chrono::steady_clock::now();
  std::shared_ptr<TransferResult> result;
  const size_t n = block.tables.size();
  for (size_t l = 0; l < n; ++l) {
    const BoundTableRef& tref = block.tables[l];
    const RowSelection* seed = tref.LiveSelection();
    if (seed == nullptr) continue;
    if (result == nullptr) {
      result = std::shared_ptr<TransferResult>(new TransferResult());
      result->keep_.resize(n);
      result->kept_.resize(n, 0);
      result->total_.resize(n, 0);
      for (size_t k = 0; k < n; ++k) {
        result->total_[k] = block.tables[k].table->num_rows();
        result->kept_[k] = result->total_[k];
      }
    }
    result->keep_[l] = seed->keep;
    result->kept_[l] = seed->kept;
    result->versions_.emplace_back(tref.table.get(), seed->version);
    result->stats_.rows_eliminated += seed->keep.size() - seed->kept;
    result->any_selection_ = true;
  }
  if (result != nullptr) result->stats_.build_ns = ElapsedNs(t0);
  return result;
}

TransferResultPtr TransferGraphBuilder::Build() {
  const auto t0 = std::chrono::steady_clock::now();
  if (block_.tables.size() < 2 || !CollectGraph()) return SeedsOnly(block_);

  max_passes_ = std::max(1, options_.max_passes);
  SeedLocalSelections();
  RankOrder();
  // A stale or foreign schedule is simply ignored; the freshly ranked
  // order stands in.
  TryReplaySchedule();

  // Alternating sweeps to a fixpoint: a forward sweep probes each node
  // (most selective first) against all of its neighbors' filters, the
  // backward sweep returns the refined selections the other way. The
  // elimination is monotone, so cyclic graphs converge; the cap bounds
  // the tail.
  bool degraded = false;
  for (int pass = 0; pass < max_passes_ && !degraded; ++pass) {
    if (options_.governor != nullptr && options_.governor->poisoned()) break;
    bool changed = false;
    const bool forward = (pass % 2) == 0;
    for (size_t idx = 0; idx < order_.size() && !degraded; ++idx) {
      Node* node =
          &nodes_[order_[forward ? idx : order_.size() - 1 - idx]];
      for (uint32_t e : node->edges) {
        const uint64_t before = node->gen;
        if (!ProbeAcross(node, e)) {
          degraded = true;  // governor refused filter memory
          break;
        }
        if (node->gen != before) changed = true;
      }
    }
    ++stats_.passes;
    if (!changed) break;  // fixpoint
  }
  stats_.degraded = degraded;

  // Materialize the result: drop no-op bitmaps, snapshot every table's
  // version (transfer moves information across relations — one mutation
  // invalidates all selections).
  auto result = std::shared_ptr<TransferResult>(new TransferResult());
  result->keep_.resize(nodes_.size());
  result->kept_.resize(nodes_.size(), 0);
  result->total_.resize(nodes_.size(), 0);
  size_t bitmap_bytes = 0;
  for (Node& n : nodes_) {
    result->total_[n.level] = n.rows;
    result->kept_[n.level] = n.keep.empty() ? n.rows : n.kept;
    if (!n.keep.empty() && n.kept < n.rows) {
      stats_.rows_eliminated += n.rows - n.kept;
      bitmap_bytes += n.keep.size();
      result->keep_[n.level] = std::move(n.keep);
      result->any_selection_ = true;
    }
  }
  for (const auto& tref : block_.tables) {
    result->versions_.emplace_back(tref.table.get(), tref.table->version());
  }

  CaptureSchedule();

  // The Bloom filters die with the builder; only the bitmaps stay live.
  if (filter_bytes_ > 0) {
    ICEBERG_GAUGE("transfer.filter_bytes")
        ->Add(-static_cast<int64_t>(filter_bytes_));
  }
  if (bitmap_bytes > 0) {
    ICEBERG_GAUGE("transfer.filter_bytes")
        ->Add(static_cast<int64_t>(bitmap_bytes));
    result->gauge_bytes_ = bitmap_bytes;
  }

  stats_.filter_bytes = filter_bytes_;
  stats_.build_ns = ElapsedNs(t0);
  result->stats_ = stats_;
  return result;
}

TransferResultPtr BuildTransferGraph(const QueryBlock& block,
                                     const TransferPlanOptions& options) {
  if (!options.enabled || !PredicateTransferEnabled()) {
    return TransferGraphBuilder::SeedsOnly(block);
  }
  TransferGraphBuilder builder(block, options);
  return builder.Build();
}

}  // namespace iceberg
