#include "src/expr/expr.h"

#include "src/common/logging.h"
#include "src/common/string_util.h"

namespace iceberg {

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
  }
  return "?";
}

const char* AggFuncName(AggFunc func) {
  switch (func) {
    case AggFunc::kCountStar:
      return "COUNT";
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kCountDistinct:
      return "COUNT DISTINCT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
    case AggFunc::kAvg:
      return "AVG";
  }
  return "?";
}

bool IsComparisonOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

BinaryOp FlipComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kLe:
      return BinaryOp::kGe;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kGe:
      return BinaryOp::kLe;
    default:
      return op;  // = and <> are symmetric
  }
}

BinaryOp NegateComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return BinaryOp::kNe;
    case BinaryOp::kNe:
      return BinaryOp::kEq;
    case BinaryOp::kLt:
      return BinaryOp::kGe;
    case BinaryOp::kLe:
      return BinaryOp::kGt;
    case BinaryOp::kGt:
      return BinaryOp::kLe;
    case BinaryOp::kGe:
      return BinaryOp::kLt;
    default:
      ICEBERG_CHECK(false);
      return op;
  }
}

std::string Expr::QualifiedName() const {
  ICEBERG_DCHECK(kind == ExprKind::kColumnRef);
  if (qualifier.empty()) return ToLower(column);
  return ToLower(qualifier) + "." + ToLower(column);
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kLiteral:
      return literal.ToString();
    case ExprKind::kColumnRef:
      return qualifier.empty() ? column : qualifier + "." + column;
    case ExprKind::kBinary: {
      std::string l = children[0]->ToString();
      std::string r = children[1]->ToString();
      bool parens = (bop == BinaryOp::kOr || bop == BinaryOp::kAnd);
      std::string out = l + " " + BinaryOpName(bop) + " " + r;
      return parens ? "(" + out + ")" : out;
    }
    case ExprKind::kUnary:
      if (uop == UnaryOp::kNot) return "NOT (" + children[0]->ToString() + ")";
      return "-(" + children[0]->ToString() + ")";
    case ExprKind::kAggregate: {
      if (agg == AggFunc::kCountStar) return "COUNT(*)";
      std::string arg = children.empty() ? "*" : children[0]->ToString();
      if (agg == AggFunc::kCountDistinct) {
        return "COUNT(DISTINCT " + arg + ")";
      }
      return std::string(AggFuncName(agg)) + "(" + arg + ")";
    }
  }
  return "?";
}

ExprPtr Lit(Value v) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr LitInt(int64_t v) { return Lit(Value::Int(v)); }
ExprPtr LitDouble(double v) { return Lit(Value::Double(v)); }

ExprPtr Col(std::string qualifier, std::string column) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->qualifier = std::move(qualifier);
  e->column = std::move(column);
  return e;
}

ExprPtr Col(std::string column) { return Col("", std::move(column)); }

ExprPtr Bin(BinaryOp op, ExprPtr left, ExprPtr right) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kBinary;
  e->bop = op;
  e->children = {std::move(left), std::move(right)};
  return e;
}

ExprPtr Not(ExprPtr child) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kUnary;
  e->uop = UnaryOp::kNot;
  e->children = {std::move(child)};
  return e;
}

ExprPtr Neg(ExprPtr child) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kUnary;
  e->uop = UnaryOp::kNeg;
  e->children = {std::move(child)};
  return e;
}

ExprPtr Agg(AggFunc func, ExprPtr arg) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kAggregate;
  e->agg = func;
  if (arg != nullptr) e->children = {std::move(arg)};
  return e;
}

ExprPtr AndAll(const std::vector<ExprPtr>& conjuncts) {
  if (conjuncts.empty()) return Lit(Value::Bool(true));
  ExprPtr out = conjuncts[0];
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    out = Bin(BinaryOp::kAnd, out, conjuncts[i]);
  }
  return out;
}

ExprPtr CloneExpr(const ExprPtr& e) {
  if (e == nullptr) return nullptr;
  auto out = std::make_shared<Expr>(*e);
  out->children.clear();
  for (const ExprPtr& c : e->children) out->children.push_back(CloneExpr(c));
  return out;
}

void CollectAggregates(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kAggregate) {
    out->push_back(e);
    return;  // aggregates do not nest
  }
  for (const ExprPtr& c : e->children) CollectAggregates(c, out);
}

void CollectColumnRefs(const ExprPtr& e, std::vector<Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kColumnRef) {
    out->push_back(e.get());
    return;
  }
  for (const ExprPtr& c : e->children) CollectColumnRefs(c, out);
}

void CollectColumnRefs(const ExprPtr& e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kColumnRef) {
    out->push_back(e.get());
    return;
  }
  for (const ExprPtr& c : e->children) CollectColumnRefs(c, out);
}

void CollectGroupLevelRefs(const ExprPtr& e, std::vector<const Expr*>* out) {
  if (e == nullptr || e->kind == ExprKind::kAggregate) return;
  if (e->kind == ExprKind::kColumnRef) {
    out->push_back(e.get());
    return;
  }
  for (const ExprPtr& c : e->children) CollectGroupLevelRefs(c, out);
}

void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kBinary && e->bop == BinaryOp::kAnd) {
    SplitConjuncts(e->children[0], out);
    SplitConjuncts(e->children[1], out);
    return;
  }
  out->push_back(e);
}

std::string ExprSignature(const Expr& e) {
  std::string out;
  switch (e.kind) {
    case ExprKind::kLiteral:
      out = "L" + e.literal.ToString();
      break;
    case ExprKind::kColumnRef:
      out = "C" + std::to_string(e.resolved_index);
      break;
    case ExprKind::kBinary:
      out = std::string("B") + BinaryOpName(e.bop);
      break;
    case ExprKind::kUnary:
      out = e.uop == UnaryOp::kNot ? "!" : "-";
      break;
    case ExprKind::kAggregate:
      out = std::string("A") + std::to_string(static_cast<int>(e.agg));
      break;
  }
  for (const ExprPtr& c : e.children) {
    out += "(" + ExprSignature(*c) + ")";
  }
  return out;
}

std::string ParamShapeSignature(const Expr& e) {
  std::string out;
  switch (e.kind) {
    case ExprKind::kLiteral:
      if (e.literal.is_null()) {
        out = "LN";
      } else if (e.literal.is_int()) {
        out = "?i";
      } else if (e.literal.is_double()) {
        out = "?d";
      } else {
        out = "?s";
      }
      break;
    case ExprKind::kColumnRef:
      out = "C" + std::to_string(e.resolved_index);
      break;
    case ExprKind::kBinary:
      out = std::string("B") + BinaryOpName(e.bop);
      break;
    case ExprKind::kUnary:
      out = e.uop == UnaryOp::kNot ? "!" : "-";
      break;
    case ExprKind::kAggregate:
      // Aggregate arguments are value-exact (see header).
      return ExprSignature(e);
  }
  for (const ExprPtr& c : e.children) {
    out += "(" + ParamShapeSignature(*c) + ")";
  }
  return out;
}

void CollectParamNodes(const Expr& e, std::vector<const Expr*>* literals,
                       std::vector<const Expr*>* aggregates) {
  if (e.kind == ExprKind::kAggregate) {
    // Stop here: literals inside aggregate arguments are not parameters
    // (ParamShapeSignature keeps them verbatim).
    if (aggregates != nullptr) aggregates->push_back(&e);
    return;
  }
  if (e.kind == ExprKind::kLiteral) {
    if (!e.literal.is_null() && literals != nullptr) literals->push_back(&e);
    return;
  }
  for (const ExprPtr& c : e.children) {
    if (c != nullptr) CollectParamNodes(*c, literals, aggregates);
  }
}

bool ContainsAggregate(const ExprPtr& e) {
  if (e == nullptr) return false;
  if (e->kind == ExprKind::kAggregate) return true;
  for (const ExprPtr& c : e->children) {
    if (ContainsAggregate(c)) return true;
  }
  return false;
}

}  // namespace iceberg
