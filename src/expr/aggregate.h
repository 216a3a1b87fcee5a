#ifndef SMARTICEBERG_EXPR_AGGREGATE_H_
#define SMARTICEBERG_EXPR_AGGREGATE_H_

#include <set>
#include <vector>

#include "src/common/value.h"
#include "src/expr/expr.h"

namespace iceberg {

/// True for aggregates that are *algebraic* in the Gray et al. data-cube
/// sense: a bound-size partial state exists such that partials over a
/// partition of the input can be combined into the full result. COUNT, SUM,
/// MIN, MAX, AVG are algebraic; COUNT(DISTINCT ...) is holistic. The
/// memoization rewrite (paper Appendix C) requires algebraic aggregates
/// whenever an LR-group can combine contributions from multiple bindings.
bool IsAlgebraic(AggFunc func);

/// Number of values in the partial state (f^i output) of an aggregate:
/// 1 for COUNT/SUM/MIN/MAX, 2 for AVG (sum, count).
size_t PartialArity(AggFunc func);

/// Incremental accumulator for one aggregate over one group.
///
/// Besides the usual Add/Final interface it exposes the algebraic
/// decomposition used by memoization: PartialState() returns the f^i
/// output as a fixed-arity Row, and MergePartial() applies f^o, folding
/// another partial state into this accumulator.
class Accumulator {
 public:
  explicit Accumulator(AggFunc func) : func_(func) {}

  AggFunc func() const { return func_; }

  /// Folds one input value in. For COUNT(*) the value is ignored; for all
  /// other aggregates SQL NULL inputs are skipped.
  void Add(const Value& v);

  /// The aggregate result. Empty-input semantics: COUNT variants yield 0;
  /// SUM/MIN/MAX/AVG yield NULL.
  Value Final() const;

  /// The algebraic partial state (size PartialArity(func)); only valid for
  /// algebraic aggregates.
  Row PartialState() const;

  /// Combines another partial state into this accumulator (f^o).
  void MergePartial(const Row& state);

  /// Restores an accumulator from a partial state.
  static Accumulator FromPartial(AggFunc func, const Row& state);

  /// Merges a full accumulator (including holistic COUNT DISTINCT state)
  /// field by field, allocating nothing for algebraic aggregates. Used by
  /// parallel NLJP when combining per-worker LR-group states.
  void MergeFrom(const Accumulator& other);

 private:
  AggFunc func_;
  int64_t count_ = 0;          // rows contributing (non-NULL for arg aggs)
  double sum_ = 0.0;           // running sum for SUM/AVG
  bool sum_is_int_ = true;     // SUM of all-int inputs stays integer
  Value min_, max_;            // extremes (NULL until first input)
  std::set<Row, RowLess> distinct_;  // COUNT DISTINCT state
};

}  // namespace iceberg

#endif  // SMARTICEBERG_EXPR_AGGREGATE_H_
