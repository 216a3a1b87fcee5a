#ifndef SMARTICEBERG_FME_LINEAR_H_
#define SMARTICEBERG_FME_LINEAR_H_

#include <map>
#include <string>
#include <vector>

namespace iceberg {
namespace fme {

/// Tolerance of every float comparison over linear expressions (atom
/// evaluation, zero coefficients).
inline constexpr double kLinearEpsilon = 1e-9;

/// Variables are interned integers; VarPool maps them to names for
/// diagnostics.
class VarPool {
 public:
  /// Returns the id for `name`, creating it if needed.
  int Intern(const std::string& name);
  const std::string& Name(int var) const;
  int size() const { return static_cast<int>(names_.size()); }

 private:
  std::vector<std::string> names_;
  std::map<std::string, int> ids_;
};

/// A linear expression sum(coeff_i * var_i) + constant over the reals.
class LinearExpr {
 public:
  LinearExpr() = default;
  explicit LinearExpr(double constant) : constant_(constant) {}

  static LinearExpr Var(int var) {
    LinearExpr e;
    e.coeffs_[var] = 1.0;
    return e;
  }

  double constant() const { return constant_; }
  const std::map<int, double>& coeffs() const { return coeffs_; }

  /// Coefficient of `var` (0 if absent).
  double Coeff(int var) const;
  bool HasVar(int var) const { return Coeff(var) != 0.0; }
  bool IsConstant() const { return coeffs_.empty(); }

  void Add(const LinearExpr& other, double scale = 1.0);
  void AddConstant(double c) { constant_ += c; }
  void Scale(double s);

  /// Removes zero coefficients (called after arithmetic).
  void Normalize();

  /// Evaluates with the given assignment (indexed by var id).
  double Eval(const std::vector<double>& assignment) const;

  std::string ToString(const VarPool& pool) const;

 private:
  std::map<int, double> coeffs_;
  double constant_ = 0.0;
};

/// Comparison operator of a normalized atom `expr OP 0`.
enum class AtomOp {
  kLe,  // expr <= 0
  kLt,  // expr <  0
  kEq,  // expr  = 0
};

/// A linear constraint in normalized form `expr OP 0`.
struct LinAtom {
  LinearExpr expr;
  AtomOp op = AtomOp::kLe;

  bool Eval(const std::vector<double>& assignment) const;

  /// Canonical key for deduplication: scales so the leading coefficient is
  /// +-1 and rounds to limit float noise.
  std::string CanonicalKey() const;

  std::string ToString(const VarPool& pool) const;
};

}  // namespace fme
}  // namespace iceberg

#endif  // SMARTICEBERG_FME_LINEAR_H_
