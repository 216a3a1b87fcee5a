#include "src/plan/cost/cardinality.h"

#include <algorithm>
#include <cmath>

#include "src/expr/evaluator.h"

namespace iceberg {

namespace {

// System-R defaults for predicate shapes the statistics cannot resolve.
constexpr double kDefaultEqSel = 0.01;
constexpr double kDefaultRangeSel = 1.0 / 3.0;
constexpr double kDefaultNeSel = 0.9;

bool IsPlainColumn(const ExprPtr& e) {
  return e != nullptr && e->kind == ExprKind::kColumnRef &&
         e->resolved_index >= 0;
}

// Constant-foldable: no column refs, no aggregates.
bool IsLiteralOnly(const ExprPtr& e) {
  if (e == nullptr || ContainsAggregate(e)) return false;
  std::vector<const Expr*> refs;
  CollectColumnRefs(e, &refs);
  return refs.empty();
}

double Clamp01(double s) { return std::min(1.0, std::max(0.0, s)); }

}  // namespace

uint64_t TableMask(const QueryBlock& block, const ExprPtr& e) {
  std::vector<const Expr*> refs;
  CollectColumnRefs(e, &refs);
  uint64_t mask = 0;
  for (const Expr* ref : refs) {
    if (ref->resolved_index < 0) continue;
    size_t t = block.TableOfOffset(static_cast<size_t>(ref->resolved_index));
    if (t < 64) mask |= uint64_t{1} << t;
  }
  return mask;
}

CardinalityEstimator::CardinalityEstimator(const QueryBlock& block)
    : block_(&block) {
  stats_.reserve(block.tables.size());
  for (const BoundTableRef& tref : block.tables) {
    stats_.push_back(tref.table != nullptr ? GetOrBuildTableStats(*tref.table)
                                           : nullptr);
  }
  local_sel_.assign(block.tables.size(), 1.0);
  for (const ExprPtr& conjunct : block.where_conjuncts) {
    uint64_t mask = TableMask(block, conjunct);
    if (mask == 0 || (mask & (mask - 1)) != 0) continue;  // not single-table
    size_t t = 0;
    while (((mask >> t) & 1) == 0) ++t;
    local_sel_[t] *= SelectivityOf(conjunct);
  }
}

double CardinalityEstimator::RawRows(size_t t) const {
  if (t >= stats_.size()) return 1.0;
  const BoundTableRef& tref = block_->tables[t];
  // An a-priori selection counts exactly the rows the entry ranges over.
  if (tref.table != nullptr && tref.LiveSelection() != nullptr) {
    return static_cast<double>(tref.selection->kept);
  }
  if (stats_[t] != nullptr) {
    return static_cast<double>(stats_[t]->row_count());
  }
  return tref.table != nullptr ? static_cast<double>(tref.table->num_rows())
                               : 1.0;
}

double CardinalityEstimator::LocalRows(size_t t) const {
  return RawRows(t) * LocalSelectivity(t);
}

double CardinalityEstimator::SelectivityOf(const ExprPtr& e) const {
  if (e == nullptr) return 1.0;
  return Clamp01(PredicateSelectivity(*e));
}

double CardinalityEstimator::NdvOfOffset(size_t flat_offset) const {
  const ColumnStats* cs = StatsOfOffset(flat_offset);
  if (cs != nullptr && cs->ndv >= 1.0) return cs->ndv;
  size_t t = block_->TableOfOffset(flat_offset);
  return std::max(1.0, RawRows(t));
}

const ColumnStats* CardinalityEstimator::StatsOfOffset(
    size_t flat_offset) const {
  size_t t = block_->TableOfOffset(flat_offset);
  if (t >= stats_.size() || stats_[t] == nullptr) return nullptr;
  size_t local = flat_offset - block_->tables[t].offset;
  if (local >= stats_[t]->num_columns()) return nullptr;
  return &stats_[t]->column(local);
}

double CardinalityEstimator::ComparisonSelectivity(BinaryOp op,
                                                   const ExprPtr& l,
                                                   const ExprPtr& r) const {
  // col OP constant: answer from the column's histogram / NDV.
  if (IsPlainColumn(l) && IsLiteralOnly(r)) {
    const ColumnStats* cs =
        StatsOfOffset(static_cast<size_t>(l->resolved_index));
    if (cs != nullptr) {
      Value v = Evaluate(*r, Row{});
      if (!v.is_null()) {
        switch (op) {
          case BinaryOp::kEq:
            return cs->EqSelectivity(v);
          case BinaryOp::kNe:
            return 1.0 - cs->EqSelectivity(v);
          default:
            return cs->RangeSelectivity(op, v);
        }
      }
    }
    switch (op) {
      case BinaryOp::kEq:
        return kDefaultEqSel;
      case BinaryOp::kNe:
        return kDefaultNeSel;
      default:
        return kDefaultRangeSel;
    }
  }
  if (IsPlainColumn(r) && IsLiteralOnly(l) && IsComparisonOp(op)) {
    return ComparisonSelectivity(FlipComparison(op), r, l);
  }
  // col OP col (same- or cross-table): eq distributes 1/max NDV, the
  // containment assumption of System R.
  if (IsPlainColumn(l) && IsPlainColumn(r)) {
    if (op == BinaryOp::kEq) {
      double ndv =
          std::max(NdvOfOffset(static_cast<size_t>(l->resolved_index)),
                   NdvOfOffset(static_cast<size_t>(r->resolved_index)));
      return 1.0 / std::max(1.0, ndv);
    }
    return op == BinaryOp::kNe ? kDefaultNeSel : kDefaultRangeSel;
  }
  // col = <expr over other columns>: one distinct match expected per value.
  if (op == BinaryOp::kEq) {
    if (IsPlainColumn(l)) {
      return 1.0 /
             std::max(1.0, NdvOfOffset(static_cast<size_t>(l->resolved_index)));
    }
    if (IsPlainColumn(r)) {
      return 1.0 /
             std::max(1.0, NdvOfOffset(static_cast<size_t>(r->resolved_index)));
    }
    return kDefaultEqSel;
  }
  return op == BinaryOp::kNe ? kDefaultNeSel : kDefaultRangeSel;
}

double CardinalityEstimator::PredicateSelectivity(const Expr& e) const {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return e.literal.AsBool() ? 1.0 : 0.0;
    case ExprKind::kColumnRef:
      return 0.5;  // boolean column used directly as a predicate
    case ExprKind::kUnary:
      if (e.uop == UnaryOp::kNot && !e.children.empty()) {
        return 1.0 - Clamp01(PredicateSelectivity(*e.children[0]));
      }
      return 0.5;
    case ExprKind::kBinary: {
      if (e.children.size() != 2) return kDefaultRangeSel;
      double sl = 0.0;
      double sr = 0.0;
      switch (e.bop) {
        case BinaryOp::kAnd:
          sl = Clamp01(PredicateSelectivity(*e.children[0]));
          sr = Clamp01(PredicateSelectivity(*e.children[1]));
          return sl * sr;
        case BinaryOp::kOr:
          sl = Clamp01(PredicateSelectivity(*e.children[0]));
          sr = Clamp01(PredicateSelectivity(*e.children[1]));
          return sl + sr - sl * sr;
        default:
          break;
      }
      if (IsComparisonOp(e.bop)) {
        return ComparisonSelectivity(e.bop, e.children[0], e.children[1]);
      }
      return kDefaultRangeSel;  // arithmetic used as a predicate
    }
    case ExprKind::kAggregate:
      return kDefaultRangeSel;
  }
  return kDefaultRangeSel;
}

double EstimateJoinRows(const CardinalityEstimator& est,
                        const std::vector<size_t>& tables) {
  const QueryBlock& block = est.block();
  uint64_t set = 0;
  double rows = 1.0;
  for (size_t t : tables) {
    if (t < 64) set |= uint64_t{1} << t;
    rows *= std::max(0.0, est.LocalRows(t));
  }
  for (const ExprPtr& conjunct : block.where_conjuncts) {
    uint64_t mask = TableMask(block, conjunct);
    if (mask == 0 || (mask & (mask - 1)) == 0) continue;  // local / constant
    if ((mask & set) != mask) continue;                   // not fully inside
    rows *= est.SelectivityOf(conjunct);
  }
  return rows;
}

double EstimateDistinctValues(const CardinalityEstimator& est,
                              const std::vector<size_t>& offsets,
                              double join_rows) {
  if (offsets.empty() || join_rows <= 0.0) return join_rows <= 0.0 ? 0.0 : 1.0;
  double domain = 1.0;
  for (size_t offset : offsets) {
    domain *= std::max(1.0, est.NdvOfOffset(offset));
    if (domain > 1e15) break;  // saturates; min() below decides anyway
  }
  // Balls-into-bins: r rows over n slots fill n(1 - (1 - 1/n)^r) of them.
  if (domain <= 1.0) return 1.0;
  double filled = domain * (1.0 - std::exp(join_rows *
                                           std::log1p(-1.0 / domain)));
  return std::max(1.0, std::min(filled, std::min(domain, join_rows)));
}

namespace {

// Matches `having` against comparisons of COUNT against a constant and
// returns the keep fraction, or -1 when not understood.
double HavingKeepFraction(const ExprPtr& having, double mean) {
  if (having == nullptr || having->kind != ExprKind::kBinary) return -1.0;
  if (having->children.size() != 2) return -1.0;
  if (having->bop == BinaryOp::kAnd) {
    double l = HavingKeepFraction(having->children[0], mean);
    double r = HavingKeepFraction(having->children[1], mean);
    if (l < 0.0 || r < 0.0) return -1.0;
    return l * r;
  }
  if (!IsComparisonOp(having->bop)) return -1.0;
  ExprPtr agg = having->children[0];
  ExprPtr lit = having->children[1];
  BinaryOp op = having->bop;
  if (agg->kind != ExprKind::kAggregate) {
    std::swap(agg, lit);
    op = FlipComparison(op);
  }
  if (agg->kind != ExprKind::kAggregate ||
      (agg->agg != AggFunc::kCountStar && agg->agg != AggFunc::kCount)) {
    return -1.0;
  }
  if (!IsLiteralOnly(lit)) return -1.0;
  Value v = Evaluate(*lit, Row{});
  if (v.is_null() || (!v.is_int() && !v.is_double())) return -1.0;
  double c = v.is_int() ? static_cast<double>(v.AsInt()) : v.AsDouble();
  double m = std::max(1.0, mean);
  // Group sizes X >= 1 modeled as 1 + Exp(mean - 1): P(X >= c) decays
  // exponentially past 1.
  auto tail_ge = [&](double bound) {
    double excess = std::max(0.0, bound - 1.0);
    double spread = std::max(1e-9, m - 1.0);
    return std::exp(-excess / spread);
  };
  switch (op) {
    case BinaryOp::kGe:
      return Clamp01(tail_ge(c));
    case BinaryOp::kGt:
      return Clamp01(tail_ge(c + 1.0));
    case BinaryOp::kLe:
      return Clamp01(1.0 - tail_ge(c + 1.0));
    case BinaryOp::kLt:
      return Clamp01(1.0 - tail_ge(c));
    default:
      return -1.0;  // = / <> on a count: too spiky to model
  }
}

}  // namespace

double EstimateHavingKeepFraction(const ExprPtr& having,
                                  double avg_group_rows) {
  return HavingKeepFraction(having, avg_group_rows);
}

}  // namespace iceberg
