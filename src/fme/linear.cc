#include "src/fme/linear.h"

#include <cmath>
#include <cstdio>

#include "src/common/logging.h"

namespace iceberg {
namespace fme {

int VarPool::Intern(const std::string& name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  int id = static_cast<int>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  return id;
}

const std::string& VarPool::Name(int var) const {
  ICEBERG_CHECK(var >= 0 && var < static_cast<int>(names_.size()));
  return names_[static_cast<size_t>(var)];
}

double LinearExpr::Coeff(int var) const {
  auto it = coeffs_.find(var);
  return it == coeffs_.end() ? 0.0 : it->second;
}

void LinearExpr::Add(const LinearExpr& other, double scale) {
  for (const auto& [var, coeff] : other.coeffs_) {
    coeffs_[var] += coeff * scale;
  }
  constant_ += other.constant_ * scale;
  Normalize();
}

void LinearExpr::Scale(double s) {
  for (auto& [var, coeff] : coeffs_) coeff *= s;
  constant_ *= s;
  Normalize();
}

void LinearExpr::Normalize() {
  for (auto it = coeffs_.begin(); it != coeffs_.end();) {
    if (std::fabs(it->second) < kLinearEpsilon) {
      it = coeffs_.erase(it);
    } else {
      ++it;
    }
  }
}

double LinearExpr::Eval(const std::vector<double>& assignment) const {
  double v = constant_;
  for (const auto& [var, coeff] : coeffs_) {
    ICEBERG_CHECK(var >= 0 && var < static_cast<int>(assignment.size()));
    v += coeff * assignment[static_cast<size_t>(var)];
  }
  return v;
}

std::string LinearExpr::ToString(const VarPool& pool) const {
  std::string out;
  bool first = true;
  for (const auto& [var, coeff] : coeffs_) {
    if (!first) out += coeff >= 0 ? " + " : " - ";
    double mag = first ? coeff : std::fabs(coeff);
    first = false;
    if (std::fabs(std::fabs(mag) - 1.0) > kLinearEpsilon) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g*", mag);
      out += buf;
    } else if (mag < 0) {
      out += "-";
    }
    out += pool.Name(var);
  }
  if (first || std::fabs(constant_) > kLinearEpsilon) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", constant_);
    if (!first) out += constant_ >= 0 ? " + " : " - ";
    if (!first && constant_ < 0) {
      std::snprintf(buf, sizeof(buf), "%g", -constant_);
    }
    out += buf;
  }
  return out.empty() ? "0" : out;
}

bool LinAtom::Eval(const std::vector<double>& assignment) const {
  double v = expr.Eval(assignment);
  switch (op) {
    case AtomOp::kLe:
      return v <= kLinearEpsilon;
    case AtomOp::kLt:
      return v < -kLinearEpsilon;
    case AtomOp::kEq:
      return std::fabs(v) <= kLinearEpsilon;
  }
  return false;
}

std::string LinAtom::CanonicalKey() const {
  // Scale so the first (smallest-id) coefficient has magnitude 1 and is
  // positive; equalities always scale positive-leading.
  LinearExpr scaled = expr;
  double lead = 0.0;
  if (!expr.coeffs().empty()) {
    lead = expr.coeffs().begin()->second;
  } else {
    lead = expr.constant() != 0.0 ? std::fabs(expr.constant()) : 1.0;
  }
  AtomOp key_op = op;
  if (lead != 0.0) {
    double s = 1.0 / std::fabs(lead);
    if (op == AtomOp::kEq && lead < 0) s = -s;
    scaled.Scale(s);
  }
  char buf[64];
  std::string out;
  switch (key_op) {
    case AtomOp::kLe:
      out = "<=|";
      break;
    case AtomOp::kLt:
      out = "<|";
      break;
    case AtomOp::kEq:
      out = "=|";
      break;
  }
  for (const auto& [var, coeff] : scaled.coeffs()) {
    std::snprintf(buf, sizeof(buf), "%d:%.6f;", var, coeff);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "c:%.6f", scaled.constant());
  out += buf;
  return out;
}

std::string LinAtom::ToString(const VarPool& pool) const {
  std::string rel;
  switch (op) {
    case AtomOp::kLe:
      rel = " <= 0";
      break;
    case AtomOp::kLt:
      rel = " < 0";
      break;
    case AtomOp::kEq:
      rel = " = 0";
      break;
  }
  return expr.ToString(pool) + rel;
}

}  // namespace fme
}  // namespace iceberg
