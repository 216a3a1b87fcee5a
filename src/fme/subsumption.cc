#include "src/fme/subsumption.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "src/common/logging.h"

namespace iceberg {
namespace fme {

namespace {

/// Translates a scalar expression into a LinearExpr (fails on anything
/// non-linear).
Status TranslateLinear(const ExprPtr& e, VarPool* pool,
                       const std::function<int(int)>& var_of,
                       LinearExpr* out) {
  switch (e->kind) {
    case ExprKind::kLiteral: {
      if (!e->literal.is_numeric()) {
        return Status::NotSupported("non-numeric literal in linear context: " +
                                    e->ToString());
      }
      *out = LinearExpr(e->literal.AsDouble());
      return Status::OK();
    }
    case ExprKind::kColumnRef: {
      int var = var_of(e->resolved_index);
      if (var < 0) {
        return Status::NotSupported("column not mappable to a variable: " +
                                    e->ToString());
      }
      *out = LinearExpr::Var(var);
      return Status::OK();
    }
    case ExprKind::kUnary: {
      if (e->uop != UnaryOp::kNeg) {
        return Status::NotSupported("NOT in scalar context");
      }
      LinearExpr inner;
      ICEBERG_RETURN_NOT_OK(
          TranslateLinear(e->children[0], pool, var_of, &inner));
      inner.Scale(-1.0);
      *out = std::move(inner);
      return Status::OK();
    }
    case ExprKind::kBinary: {
      LinearExpr l, r;
      switch (e->bop) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
          ICEBERG_RETURN_NOT_OK(
              TranslateLinear(e->children[0], pool, var_of, &l));
          ICEBERG_RETURN_NOT_OK(
              TranslateLinear(e->children[1], pool, var_of, &r));
          l.Add(r, e->bop == BinaryOp::kAdd ? 1.0 : -1.0);
          *out = std::move(l);
          return Status::OK();
        case BinaryOp::kMul:
          ICEBERG_RETURN_NOT_OK(
              TranslateLinear(e->children[0], pool, var_of, &l));
          ICEBERG_RETURN_NOT_OK(
              TranslateLinear(e->children[1], pool, var_of, &r));
          if (r.IsConstant()) {
            l.Scale(r.constant());
            *out = std::move(l);
            return Status::OK();
          }
          if (l.IsConstant()) {
            r.Scale(l.constant());
            *out = std::move(r);
            return Status::OK();
          }
          return Status::NotSupported("non-linear multiplication: " +
                                      e->ToString());
        case BinaryOp::kDiv:
          ICEBERG_RETURN_NOT_OK(
              TranslateLinear(e->children[0], pool, var_of, &l));
          ICEBERG_RETURN_NOT_OK(
              TranslateLinear(e->children[1], pool, var_of, &r));
          if (r.IsConstant() && r.constant() != 0.0) {
            l.Scale(1.0 / r.constant());
            *out = std::move(l);
            return Status::OK();
          }
          return Status::NotSupported("non-constant divisor: " +
                                      e->ToString());
        default:
          return Status::NotSupported("predicate in scalar context: " +
                                      e->ToString());
      }
    }
    default:
      return Status::NotSupported("aggregate in join condition: " +
                                  e->ToString());
  }
}

}  // namespace

Result<FormulaPtr> TranslatePredicate(
    const ExprPtr& e, VarPool* pool,
    const std::function<int(int)>& var_of) {
  switch (e->kind) {
    case ExprKind::kLiteral:
      return e->literal.AsBool() ? MakeTrue() : MakeFalse();
    case ExprKind::kUnary: {
      if (e->uop != UnaryOp::kNeg) {
        ICEBERG_ASSIGN_OR_RETURN(
            FormulaPtr inner, TranslatePredicate(e->children[0], pool, var_of));
        return MakeNot(std::move(inner));
      }
      return Status::NotSupported("negation as predicate: " + e->ToString());
    }
    case ExprKind::kBinary: {
      if (e->bop == BinaryOp::kAnd || e->bop == BinaryOp::kOr) {
        ICEBERG_ASSIGN_OR_RETURN(
            FormulaPtr l, TranslatePredicate(e->children[0], pool, var_of));
        ICEBERG_ASSIGN_OR_RETURN(
            FormulaPtr r, TranslatePredicate(e->children[1], pool, var_of));
        return e->bop == BinaryOp::kAnd ? MakeAnd({std::move(l), std::move(r)})
                                        : MakeOr({std::move(l), std::move(r)});
      }
      if (!IsComparisonOp(e->bop)) {
        return Status::NotSupported("arithmetic result as predicate: " +
                                    e->ToString());
      }
      LinearExpr l, r;
      ICEBERG_RETURN_NOT_OK(TranslateLinear(e->children[0], pool, var_of, &l));
      ICEBERG_RETURN_NOT_OK(TranslateLinear(e->children[1], pool, var_of, &r));
      switch (e->bop) {
        case BinaryOp::kLe:
          return AtomLe(std::move(l), std::move(r));
        case BinaryOp::kLt:
          return AtomLt(std::move(l), std::move(r));
        case BinaryOp::kGe:
          return AtomLe(std::move(r), std::move(l));
        case BinaryOp::kGt:
          return AtomLt(std::move(r), std::move(l));
        case BinaryOp::kEq:
          return AtomEq(std::move(l), std::move(r));
        case BinaryOp::kNe:
          return MakeNot(AtomEq(std::move(l), std::move(r)));
        default:
          break;
      }
      return Status::Internal("unreachable comparison");
    }
    default:
      return Status::NotSupported("unsupported predicate node: " +
                                  e->ToString());
  }
}

bool SubsumptionTest::Subsumes(const Row& w, const Row& w_prime) const {
  ICEBERG_DCHECK(w.size() == w_var_of_position_.size());
  ICEBERG_DCHECK(w_prime.size() == w_var_of_position_.size());
  for (size_t pos : equal_positions_) {
    if (w[pos].Compare(w_prime[pos]) != 0) return false;
  }
  if (formula_ == nullptr) return true;
  if (formula_->kind == FormulaKind::kTrue) return true;
  if (formula_->kind == FormulaKind::kFalse) return false;
  std::vector<double> assignment(static_cast<size_t>(pool_.size()), 0.0);
  for (size_t pos = 0; pos < w.size(); ++pos) {
    int wv = w_var_of_position_[pos];
    if (wv >= 0) {
      if (!w[pos].is_numeric()) return false;
      assignment[static_cast<size_t>(wv)] = w[pos].AsDouble();
    }
    int wpv = w_prime_var_of_position_[pos];
    if (wpv >= 0) {
      if (!w_prime[pos].is_numeric()) return false;
      assignment[static_cast<size_t>(wpv)] = w_prime[pos].AsDouble();
    }
  }
  return EvalFormula(*formula_, assignment);
}

uint8_t CompiledSubsumption::Decode(const Row& row,
                                    const std::vector<size_t>& positions,
                                    double* out) const {
  uint8_t bits = kNumericAsW | kNumericAsWPrime;
  for (size_t i = 0; i < width_; ++i) {
    const Value& v = row[positions[i]];
    switch (v.tag()) {
      case 1:
        out[i] = static_cast<double>(v.int_unchecked());
        break;
      case 2:
        out[i] = v.double_unchecked();
        break;
      default:
        out[i] = 0.0;
        bits &= static_cast<uint8_t>(~reads_[i]);
    }
  }
  return bits;
}

bool CompiledSubsumption::TestDnf(const double* w,
                                  const double* w_prime) const {
  uint32_t atom = 0;
  uint32_t term = 0;
  for (uint32_t end : disjuncts_end_) {
    bool holds = true;
    for (; atom < end; ++atom) {
      const Atom& a = atoms_[atom];
      // LinearExpr::Eval's sum: the constant, then the terms in var order.
      double v = a.constant;
      for (; term < a.terms_end; ++term) {
        const Term& t = terms_[term];
        v += t.coeff * (t.prime ? w_prime : w)[t.pos];
      }
      bool ok = a.op == AtomOp::kLe   ? v <= kLinearEpsilon
                : a.op == AtomOp::kLt ? v < -kLinearEpsilon
                                      : std::fabs(v) <= kLinearEpsilon;
      if (!ok) {
        holds = false;
        break;
      }
    }
    if (holds) return true;
    atom = end;
    term = end > 0 ? atoms_[end - 1].terms_end : 0;
  }
  return false;
}

Status SubsumptionTest::Compile() {
  CompiledSubsumption& c = compiled_;
  c = CompiledSubsumption();
  c.width_ = w_var_of_position_.size();
  c.reads_.assign(c.width_, 0);
  std::map<int, std::pair<uint32_t, bool>> slot_of_var;  // var -> (pos, w')
  for (size_t pos = 0; pos < c.width_; ++pos) {
    if (w_var_of_position_[pos] >= 0) {
      c.reads_[pos] |= CompiledSubsumption::kNumericAsW;
      slot_of_var[w_var_of_position_[pos]] = {static_cast<uint32_t>(pos),
                                               false};
    }
    if (w_prime_var_of_position_[pos] >= 0) {
      c.reads_[pos] |= CompiledSubsumption::kNumericAsWPrime;
      slot_of_var[w_prime_var_of_position_[pos]] = {
          static_cast<uint32_t>(pos), true};
    }
  }
  using Kind = CompiledSubsumption::Kind;
  if (formula_ == nullptr || formula_->kind == FormulaKind::kTrue) {
    c.kind_ = Kind::kTrue;
    return Status::OK();
  }
  if (formula_->kind == FormulaKind::kFalse) {
    c.kind_ = Kind::kFalse;
    return Status::OK();
  }
  // The derived formula is already DNF; ToDnf just lists its disjuncts.
  ICEBERG_ASSIGN_OR_RETURN(std::vector<Conjunction> dnf,
                           ToDnf(ToNnf(formula_)));

  c.kind_ = Kind::kDnf;
  for (const Conjunction& conjunction : dnf) {
    for (const LinAtom& atom : conjunction) {
      for (const auto& [var, coeff] : atom.expr.coeffs()) {
        auto slot = slot_of_var.find(var);
        // Every R-side variable was eliminated; any other variable reads
        // 0 in Subsumes' assignment and adds nothing.
        if (slot == slot_of_var.end()) continue;
        c.terms_.push_back({coeff, slot->second.first, slot->second.second});
      }
      c.atoms_.push_back({atom.expr.constant(),
                          static_cast<uint32_t>(c.terms_.size()), atom.op});
    }
    c.disjuncts_end_.push_back(static_cast<uint32_t>(c.atoms_.size()));
  }
  return Status::OK();
}

std::string SubsumptionTest::ToString() const {
  std::string out;
  for (size_t pos : equal_positions_) {
    if (!out.empty()) out += " AND ";
    out += "w[" + std::to_string(pos) + "] = w'[" + std::to_string(pos) + "]";
  }
  if (formula_ != nullptr && formula_->kind != FormulaKind::kTrue) {
    if (!out.empty()) out += " AND ";
    out += formula_->ToString(pool_);
  }
  return out.empty() ? "TRUE" : out;
}

bool SubsumptionTest::IsNeverTrue() const {
  return formula_ != nullptr && formula_->kind == FormulaKind::kFalse;
}

bool SubsumptionTest::IsEqualityOnly() const {
  if (formula_ == nullptr || formula_->kind == FormulaKind::kTrue) {
    return true;  // only equality residue (or nothing) constrains w vs w'
  }
  // Equality-only means every atom of the (conjunctive) formula is one half
  // of a w_i = w'_i constraint — i.e. its position is in EqualityPositions.
  std::vector<const Formula*> atoms;
  if (formula_->kind == FormulaKind::kAtom) {
    atoms.push_back(formula_.get());
  } else if (formula_->kind == FormulaKind::kAnd) {
    for (const FormulaPtr& c : formula_->children) {
      if (c->kind != FormulaKind::kAtom) return false;
      atoms.push_back(c.get());
    }
  } else {
    return false;
  }
  std::vector<size_t> eq_positions = EqualityPositions();
  for (const Formula* atom : atoms) {
    const LinearExpr& e = atom->atom.expr;
    if (e.coeffs().size() != 2 || e.constant() != 0.0) return false;
    bool covered = false;
    for (size_t pos : eq_positions) {
      int wv = w_var_of_position_[pos];
      int wpv = w_prime_var_of_position_[pos];
      if (wv >= 0 && wpv >= 0 && e.Coeff(wv) != 0.0 &&
          e.Coeff(wv) == -e.Coeff(wpv)) {
        covered = true;
        break;
      }
    }
    if (!covered) return false;
  }
  return true;
}

std::vector<size_t> SubsumptionTest::EqualityPositions() const {
  std::set<size_t> out(equal_positions_.begin(), equal_positions_.end());
  // Only a pure conjunction guarantees its atoms globally.
  std::vector<const Formula*> atoms;
  if (formula_ != nullptr) {
    if (formula_->kind == FormulaKind::kAtom) {
      atoms.push_back(formula_.get());
    } else if (formula_->kind == FormulaKind::kAnd) {
      for (const FormulaPtr& c : formula_->children) {
        if (c->kind == FormulaKind::kAtom) atoms.push_back(c.get());
      }
    }
  }
  std::map<size_t, int> bound_kinds;  // position -> bit 1: <=, bit 2: >=
  for (const Formula* atom : atoms) {
    const LinearExpr& e = atom->atom.expr;
    if (e.coeffs().size() != 2 || e.constant() != 0.0) continue;
    for (size_t pos = 0; pos < w_var_of_position_.size(); ++pos) {
      int wv = w_var_of_position_[pos];
      int wpv = w_prime_var_of_position_[pos];
      if (wv < 0 || wpv < 0) continue;
      double a = e.Coeff(wv);
      double b = e.Coeff(wpv);
      if (a == 0.0 || b == 0.0 || a != -b) continue;
      if (atom->atom.op == AtomOp::kEq) {
        bound_kinds[pos] |= 3;
      } else if (a > 0) {  // w - w' <= 0
        bound_kinds[pos] |= 1;
      } else {  // w' - w <= 0
        bound_kinds[pos] |= 2;
      }
    }
  }
  for (const auto& [pos, kinds] : bound_kinds) {
    if (kinds == 3) out.insert(pos);
  }
  return std::vector<size_t>(out.begin(), out.end());
}

Result<SubsumptionTest> DeriveSubsumption(const SubsumptionSpec& spec) {
  SubsumptionTest test;
  VarPool& pool = test.pool_;

  // Position of each binding offset in the binding row.
  auto position_of = [&](size_t offset) -> int {
    for (size_t i = 0; i < spec.binding_offsets.size(); ++i) {
      if (spec.binding_offsets[i] == offset) return static_cast<int>(i);
    }
    return -1;
  };

  // Route string-typed equality conjuncts L.a = R.b to the equality
  // residue; everything else must be numeric-linear.
  std::vector<ExprPtr> numeric_theta;
  std::set<size_t> equal_pos_set;
  for (const ExprPtr& conjunct : spec.theta) {
    bool routed = false;
    if (conjunct->kind == ExprKind::kBinary &&
        conjunct->bop == BinaryOp::kEq &&
        conjunct->children[0]->kind == ExprKind::kColumnRef &&
        conjunct->children[1]->kind == ExprKind::kColumnRef) {
      const Expr& a = *conjunct->children[0];
      const Expr& b = *conjunct->children[1];
      size_t ao = static_cast<size_t>(a.resolved_index);
      size_t bo = static_cast<size_t>(b.resolved_index);
      bool a_left = spec.is_left_offset(ao);
      bool b_left = spec.is_left_offset(bo);
      bool is_string =
          (ao < spec.types_by_offset.size() &&
           spec.types_by_offset[ao] == DataType::kString) ||
          (bo < spec.types_by_offset.size() &&
           spec.types_by_offset[bo] == DataType::kString);
      if (is_string && a_left != b_left) {
        size_t left_offset = a_left ? ao : bo;
        int pos = position_of(left_offset);
        if (pos < 0) {
          return Status::Internal(
              "join attribute missing from binding layout");
        }
        equal_pos_set.insert(static_cast<size_t>(pos));
        routed = true;
      }
    }
    if (!routed) numeric_theta.push_back(conjunct);
  }

  // Allocate w / w' variables for binding positions and wr variables for
  // R-side columns.
  test.w_var_of_position_.assign(spec.binding_offsets.size(), -1);
  test.w_prime_var_of_position_.assign(spec.binding_offsets.size(), -1);
  std::map<size_t, int> wr_var_of_offset;

  auto var_for = [&](int flat_offset, bool prime) -> int {
    size_t offset = static_cast<size_t>(flat_offset);
    if (spec.is_left_offset(offset)) {
      int pos = position_of(offset);
      if (pos < 0) return -1;
      std::vector<int>& slot =
          prime ? test.w_prime_var_of_position_ : test.w_var_of_position_;
      if (slot[static_cast<size_t>(pos)] < 0) {
        std::string name = (prime ? "w'." : "w.") + std::to_string(pos);
        slot[static_cast<size_t>(pos)] = pool.Intern(name);
      }
      return slot[static_cast<size_t>(pos)];
    }
    auto it = wr_var_of_offset.find(offset);
    if (it != wr_var_of_offset.end()) return it->second;
    int var = pool.Intern("wr." + std::to_string(offset));
    wr_var_of_offset.emplace(offset, var);
    return var;
  };

  // Theta(w, wr) and Theta(w', wr).
  std::vector<FormulaPtr> theta_w_parts, theta_wp_parts;
  for (const ExprPtr& conjunct : numeric_theta) {
    ICEBERG_ASSIGN_OR_RETURN(
        FormulaPtr fw,
        TranslatePredicate(conjunct, &pool,
                           [&](int off) { return var_for(off, false); }));
    ICEBERG_ASSIGN_OR_RETURN(
        FormulaPtr fwp,
        TranslatePredicate(conjunct, &pool,
                           [&](int off) { return var_for(off, true); }));
    theta_w_parts.push_back(std::move(fw));
    theta_wp_parts.push_back(std::move(fwp));
  }
  FormulaPtr theta_w = MakeAnd(std::move(theta_w_parts));
  FormulaPtr theta_wp = MakeAnd(std::move(theta_wp_parts));

  // forall wr: Theta(w', wr) => Theta(w, wr).
  FormulaPtr body = MakeOr({MakeNot(std::move(theta_wp)), std::move(theta_w)});
  FormulaPtr quantified = std::move(body);
  for (const auto& [offset, var] : wr_var_of_offset) {
    (void)offset;
    quantified = MakeForall(var, std::move(quantified));
  }

  ICEBERG_ASSIGN_OR_RETURN(FormulaPtr eliminated,
                           EliminateQuantifiers(quantified));
  ICEBERG_ASSIGN_OR_RETURN(test.formula_, SimplifyToDnf(eliminated));
  test.equal_positions_.assign(equal_pos_set.begin(), equal_pos_set.end());
  ICEBERG_RETURN_NOT_OK(test.Compile());
  return test;
}

}  // namespace fme
}  // namespace iceberg
