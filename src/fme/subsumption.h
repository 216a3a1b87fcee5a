#ifndef SMARTICEBERG_FME_SUBSUMPTION_H_
#define SMARTICEBERG_FME_SUBSUMPTION_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/value.h"
#include "src/expr/expr.h"
#include "src/fme/fme.h"

namespace iceberg {
namespace fme {

/// Translates a bound SQL predicate into a linear-arithmetic formula.
/// `var_of` maps a column reference (by its resolved flat offset) to a
/// variable id; returning -1 marks the column unsupported and fails the
/// translation. Supported: comparisons of linear scalar expressions,
/// AND/OR/NOT, numeric literals, + and -, multiplication/division by
/// constants.
Result<FormulaPtr> TranslatePredicate(
    const ExprPtr& e, VarPool* pool,
    const std::function<int(int flat_offset)>& var_of);

/// Inputs describing the join condition Theta of an NLJP candidate.
struct SubsumptionSpec {
  /// Join conjuncts (bound; column refs carry flat offsets).
  std::vector<ExprPtr> theta;
  /// The binding attributes J_L in binding-row layout order (flat offsets).
  std::vector<size_t> binding_offsets;
  /// Distinguishes outer (L) column offsets from inner (R) offsets.
  std::function<bool(size_t flat_offset)> is_left_offset;
  /// Column type per flat offset (for routing string equalities).
  std::vector<DataType> types_by_offset;
};

/// p>= compiled to a flat, allocation-free program over decoded bindings,
/// for the NLJP prune path (Q_C). A binding is decoded once (Decode: one
/// double per binding position); Test then evaluates the derived formula
/// with exactly the arithmetic of SubsumptionTest::Subsumes -- the same
/// terms summed in the same order, the same epsilon -- so the two agree bit
/// for bit. The formula runs as its DNF disjuncts of linear atoms; the
/// orthant test of Section 5.2's skyband examples is one disjunct of unit
/// differences `w.i - w'.i <= 0`. The one part of Subsumes that Test leaves to the caller is the
/// string-equality residue (EqualityPositions' string part): NLJP buckets
/// its witnesses by those positions, so bucket mates already agree there.
class CompiledSubsumption {
 public:
  /// Decode's result bits: the binding is numeric at every position p>=
  /// reads in the w role / in the w' role. Subsumes is false for a binding
  /// that is not, whatever the formula (unless p>= is TRUE).
  static constexpr uint8_t kNumericAsW = 1;
  static constexpr uint8_t kNumericAsWPrime = 2;

  /// Doubles per decoded binding (the binding width).
  size_t width() const { return width_; }

  /// Decodes the binding whose position i holds row[positions[i]] into
  /// `out` (width() doubles; non-numeric positions read 0) and returns its
  /// kNumeric* bits.
  uint8_t Decode(const Row& row, const std::vector<size_t>& positions,
                 double* out) const;

  /// p>=(w, w') over decoded bindings and their Decode bits, string
  /// residue excepted.
  bool Test(const double* w, uint8_t w_bits, const double* w_prime,
            uint8_t w_prime_bits) const {
    if (kind_ == Kind::kTrue) return true;
    if (kind_ == Kind::kFalse) return false;
    if ((w_bits & kNumericAsW) == 0 ||
        (w_prime_bits & kNumericAsWPrime) == 0) {
      return false;
    }
    return TestDnf(w, w_prime);
  }

 private:
  friend class SubsumptionTest;

  enum class Kind : uint8_t { kTrue, kFalse, kDnf };
  struct Term {
    double coeff;
    uint32_t pos;
    bool prime;  // reads w'.pos instead of w.pos
  };
  struct Atom {
    double constant;
    uint32_t terms_end;  // terms_[previous atom's end, terms_end)
    AtomOp op;
  };

  bool TestDnf(const double* w, const double* w_prime) const;

  Kind kind_ = Kind::kTrue;
  size_t width_ = 0;
  std::vector<uint8_t> reads_;  // per position: kNumeric* roles read
  std::vector<Term> terms_;  // kDnf, in each atom's var-id order
  std::vector<Atom> atoms_;
  std::vector<uint32_t> disjuncts_end_;  // atoms_[previous end, end)
};

/// The compiled instance-oblivious subsumption test p>=(w, w') of
/// Definition 4 / Section 5.2: Subsumes(w, w') is true only if every
/// R-tuple joining with binding w' also joins with binding w, on every
/// database instance.
class SubsumptionTest {
 public:
  /// Tests w >= w' (w subsumes w'). Rows use the binding layout of
  /// SubsumptionSpec::binding_offsets.
  bool Subsumes(const Row& w, const Row& w_prime) const;

  /// Human-readable derived predicate, e.g.
  /// "w.x <= w'.x AND w.y <= w'.y".
  std::string ToString() const;

  /// True if the derived predicate is the trivially-false formula, i.e. no
  /// binding ever subsumes another (pruning would be useless).
  bool IsNeverTrue() const;

  /// True if the predicate degenerates to requiring w = w' on all binding
  /// attributes (pruning adds nothing beyond memoization).
  bool IsEqualityOnly() const;

  /// Binding positions on which p>= *requires* w[i] = w'[i] (the string
  /// residue plus formula components of the form w_i <= w'_i AND
  /// w_i >= w'_i). Callers may bucket cached bindings by these positions:
  /// entries differing there can never subsume each other, so the bucket
  /// lookup is a lossless accelerator for the pruning query Q_C.
  std::vector<size_t> EqualityPositions() const;

  /// The same test compiled for the prune loop (see CompiledSubsumption).
  const CompiledSubsumption& compiled() const { return compiled_; }

 private:
  friend Result<SubsumptionTest> DeriveSubsumption(
      const SubsumptionSpec& spec);

  /// Builds compiled_ from the derived formula.
  Status Compile();

  FormulaPtr formula_;  // over w / w' vars; nullptr means TRUE
  VarPool pool_;
  // Per binding-row position: var ids (-1 when the position does not appear
  // in the numeric part).
  std::vector<int> w_var_of_position_;
  std::vector<int> w_prime_var_of_position_;
  // Positions that must satisfy w[i] == w'[i] (string-equality residue).
  std::vector<size_t> equal_positions_;
  CompiledSubsumption compiled_;
};

/// Derives p>= by the paper's Section 5.2 procedure:
///
///   p>=(w,w') = forall wr: Theta(w', wr) => Theta(w, wr)
///
/// expanded per attribute, put in NNF, with universal quantifiers dualized
/// (UE), existentials distributed over disjunctions (DE), and variables
/// eliminated by Fourier-Motzkin (EE). String-typed equality conjuncts
/// L.a = R.b contribute the (sound) residue w.a = w'.a instead of entering
/// the linear system.
///
/// Fails with NotSupported when Theta is not linear over the reals (beyond
/// the string-equality case) — callers then simply skip pruning.
Result<SubsumptionTest> DeriveSubsumption(const SubsumptionSpec& spec);

}  // namespace fme
}  // namespace iceberg

#endif  // SMARTICEBERG_FME_SUBSUMPTION_H_
