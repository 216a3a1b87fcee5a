#ifndef SMARTICEBERG_EXPR_EXPR_H_
#define SMARTICEBERG_EXPR_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/value.h"

namespace iceberg {

enum class ExprKind {
  kLiteral,
  kColumnRef,
  kBinary,
  kUnary,
  kAggregate,
};

enum class BinaryOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kAnd,
  kOr,
};

enum class UnaryOp {
  kNot,
  kNeg,
};

enum class AggFunc {
  kCountStar,
  kCount,
  kCountDistinct,
  kSum,
  kMin,
  kMax,
  kAvg,
};

const char* BinaryOpName(BinaryOp op);
const char* AggFuncName(AggFunc func);

/// True for comparison operators (=, <>, <, <=, >, >=).
bool IsComparisonOp(BinaryOp op);
/// Returns the comparison with operand sides swapped (e.g. < becomes >).
BinaryOp FlipComparison(BinaryOp op);
/// Returns the logical negation of a comparison (e.g. < becomes >=).
BinaryOp NegateComparison(BinaryOp op);

struct Expr;
using ExprPtr = std::shared_ptr<Expr>;

/// A scalar or aggregate expression node.
///
/// Column references carry a (qualifier, column) pair from the parser; the
/// binder resolves them to a flat index into the row layout of the operator
/// evaluating the expression. Because the same syntactic expression may be
/// evaluated against different row layouts (e.g. a HAVING condition pushed
/// into a reducer), binding always operates on a deep copy (see Clone).
struct Expr {
  ExprKind kind = ExprKind::kLiteral;

  // kLiteral
  Value literal;

  // kColumnRef
  std::string qualifier;  // table alias, may be empty
  std::string column;
  int resolved_index = -1;  // flat offset into the evaluation row, -1 unbound

  // kBinary / kUnary
  BinaryOp bop = BinaryOp::kEq;
  UnaryOp uop = UnaryOp::kNot;

  // kAggregate
  AggFunc agg = AggFunc::kCountStar;

  // Children: binary has 2, unary has 1, aggregate has 0 (COUNT(*)) or 1.
  std::vector<ExprPtr> children;

  /// Renders SQL-ish text, e.g. "s1.pid = s2.pid AND COUNT(*) >= 3".
  std::string ToString() const;

  /// Fully qualified name "qualifier.column" (lower-cased) for kColumnRef.
  std::string QualifiedName() const;
};

// ----- Factory helpers ------------------------------------------------------

ExprPtr Lit(Value v);
ExprPtr LitInt(int64_t v);
ExprPtr LitDouble(double v);
ExprPtr Col(std::string qualifier, std::string column);
ExprPtr Col(std::string column);
ExprPtr Bin(BinaryOp op, ExprPtr left, ExprPtr right);
ExprPtr Not(ExprPtr e);
ExprPtr Neg(ExprPtr e);
ExprPtr Agg(AggFunc func, ExprPtr arg);  // arg may be nullptr for COUNT(*)
/// Builds a balanced AND over conjuncts; returns literal TRUE when empty.
ExprPtr AndAll(const std::vector<ExprPtr>& conjuncts);

// ----- Traversal ------------------------------------------------------------

/// Deep copy.
ExprPtr CloneExpr(const ExprPtr& e);

/// Appends every aggregate node (in evaluation order) to `out`.
void CollectAggregates(const ExprPtr& e, std::vector<ExprPtr>* out);

/// Appends every column-ref node to `out`.
void CollectColumnRefs(const ExprPtr& e, std::vector<Expr*>* out);
void CollectColumnRefs(const ExprPtr& e, std::vector<const Expr*>* out);

/// Appends the column-ref nodes outside aggregate calls: the columns a
/// grouped block reads once per group.
void CollectGroupLevelRefs(const ExprPtr& e, std::vector<const Expr*>* out);

/// Splits an expression into its top-level AND conjuncts.
void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out);

/// True if the expression contains any aggregate node.
bool ContainsAggregate(const ExprPtr& e);

/// Structural signature including resolved column offsets; two bound
/// expressions with equal signatures evaluate identically on every row.
std::string ExprSignature(const Expr& e);

/// Literal-abstracted structural signature for the plan/program cache:
/// like ExprSignature, but non-NULL literals become type tags (?i ?d ?s)
/// so two bound expressions differing only in literal values share one
/// signature. Inside aggregate arguments literals stay verbatim (aggregate
/// values arrive pre-computed through the AggValueMap, so they are never
/// re-bound; keeping them exact keeps SUM(x+5) and SUM(x+7) distinct).
std::string ParamShapeSignature(const Expr& e);

/// Collects the parameterizable literal nodes (non-NULL literals outside
/// aggregate arguments) and the aggregate nodes of `e`, in canonical
/// pre-order. This order defines parameter-slot identity: two expressions
/// with equal ParamShapeSignature enumerate corresponding slots in the
/// same sequence, which is what makes literal re-binding of a cached
/// program template sound. Either output vector may be null.
void CollectParamNodes(const Expr& e, std::vector<const Expr*>* literals,
                       std::vector<const Expr*>* aggregates);

}  // namespace iceberg

#endif  // SMARTICEBERG_EXPR_EXPR_H_
