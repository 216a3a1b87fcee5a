// Unit tests for src/expr: AST helpers, three-valued evaluation, and the
// algebraic accumulator decomposition (f^i / f^o) used by memoization.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/expr/aggregate.h"
#include "src/expr/evaluator.h"
#include "src/expr/expr.h"

namespace iceberg {
namespace {

ExprPtr BoundCol(int index) {
  ExprPtr c = Col("t", "c" + std::to_string(index));
  c->resolved_index = index;
  return c;
}

TEST(Expr, ToStringRendersSql) {
  ExprPtr e = Bin(BinaryOp::kAnd,
                  Bin(BinaryOp::kGe, Agg(AggFunc::kCountStar, nullptr),
                      LitInt(3)),
                  Bin(BinaryOp::kLt, Col("t", "x"), LitInt(5)));
  EXPECT_EQ(e->ToString(), "(COUNT(*) >= 3 AND t.x < 5)");
}

TEST(Expr, FlipAndNegateComparisons) {
  EXPECT_EQ(FlipComparison(BinaryOp::kLt), BinaryOp::kGt);
  EXPECT_EQ(FlipComparison(BinaryOp::kGe), BinaryOp::kLe);
  EXPECT_EQ(FlipComparison(BinaryOp::kEq), BinaryOp::kEq);
  EXPECT_EQ(NegateComparison(BinaryOp::kLt), BinaryOp::kGe);
  EXPECT_EQ(NegateComparison(BinaryOp::kEq), BinaryOp::kNe);
}

TEST(Expr, SplitConjuncts) {
  ExprPtr e = AndAll({Col("a"), Col("b"), Col("c")});
  std::vector<ExprPtr> parts;
  SplitConjuncts(e, &parts);
  EXPECT_EQ(parts.size(), 3u);
}

TEST(Expr, AndAllEmptyIsTrue) {
  ExprPtr e = AndAll({});
  EXPECT_EQ(e->kind, ExprKind::kLiteral);
  EXPECT_TRUE(e->literal.AsBool());
}

TEST(Expr, CloneIsDeep) {
  ExprPtr original = Bin(BinaryOp::kAdd, BoundCol(0), LitInt(1));
  ExprPtr clone = CloneExpr(original);
  clone->children[0]->resolved_index = 7;
  EXPECT_EQ(original->children[0]->resolved_index, 0);
}

TEST(Expr, CollectAggregatesInOrder) {
  ExprPtr e = Bin(BinaryOp::kAnd,
                  Bin(BinaryOp::kGe, Agg(AggFunc::kCountStar, nullptr),
                      LitInt(1)),
                  Bin(BinaryOp::kLe, Agg(AggFunc::kSum, Col("x")),
                      LitInt(9)));
  std::vector<ExprPtr> aggs;
  CollectAggregates(e, &aggs);
  ASSERT_EQ(aggs.size(), 2u);
  EXPECT_EQ(aggs[0]->agg, AggFunc::kCountStar);
  EXPECT_EQ(aggs[1]->agg, AggFunc::kSum);
}

TEST(Expr, SignatureDistinguishesOffsets) {
  EXPECT_EQ(ExprSignature(*BoundCol(1)), ExprSignature(*BoundCol(1)));
  EXPECT_NE(ExprSignature(*BoundCol(1)), ExprSignature(*BoundCol(2)));
  EXPECT_NE(ExprSignature(*Agg(AggFunc::kSum, BoundCol(1))),
            ExprSignature(*Agg(AggFunc::kMin, BoundCol(1))));
}

// ----- Evaluator -----------------------------------------------------------

TEST(Evaluator, ArithmeticIntPreserving) {
  Row row{Value::Int(6), Value::Int(4)};
  ExprPtr e = Bin(BinaryOp::kMul, BoundCol(0), BoundCol(1));
  Value v = Evaluate(*e, row);
  EXPECT_TRUE(v.is_int());
  EXPECT_EQ(v.AsInt(), 24);
}

TEST(Evaluator, DivisionYieldsDouble) {
  Row row{Value::Int(7), Value::Int(2)};
  Value v = Evaluate(*Bin(BinaryOp::kDiv, BoundCol(0), BoundCol(1)), row);
  EXPECT_TRUE(v.is_double());
  EXPECT_DOUBLE_EQ(v.AsDouble(), 3.5);
}

TEST(Evaluator, DivisionByZeroIsNull) {
  Row row{Value::Int(7), Value::Int(0)};
  EXPECT_TRUE(
      Evaluate(*Bin(BinaryOp::kDiv, BoundCol(0), BoundCol(1)), row).is_null());
}

TEST(Evaluator, NullPropagatesThroughComparison) {
  Row row{Value::Null(), Value::Int(1)};
  Value v = Evaluate(*Bin(BinaryOp::kLt, BoundCol(0), BoundCol(1)), row);
  EXPECT_TRUE(v.is_null());
  EXPECT_FALSE(
      EvaluatePredicate(*Bin(BinaryOp::kLt, BoundCol(0), BoundCol(1)), row));
}

TEST(Evaluator, ThreeValuedAnd) {
  Row row{Value::Null(), Value::Int(0), Value::Int(1)};
  // NULL AND FALSE = FALSE
  EXPECT_FALSE(Evaluate(*Bin(BinaryOp::kAnd, BoundCol(0), BoundCol(1)), row)
                   .is_null());
  EXPECT_FALSE(
      Evaluate(*Bin(BinaryOp::kAnd, BoundCol(0), BoundCol(1)), row).AsBool());
  // NULL AND TRUE = NULL
  EXPECT_TRUE(Evaluate(*Bin(BinaryOp::kAnd, BoundCol(0), BoundCol(2)), row)
                  .is_null());
}

TEST(Evaluator, ThreeValuedOr) {
  Row row{Value::Null(), Value::Int(0), Value::Int(1)};
  // NULL OR TRUE = TRUE
  EXPECT_TRUE(
      Evaluate(*Bin(BinaryOp::kOr, BoundCol(0), BoundCol(2)), row).AsBool());
  // NULL OR FALSE = NULL
  EXPECT_TRUE(Evaluate(*Bin(BinaryOp::kOr, BoundCol(0), BoundCol(1)), row)
                  .is_null());
}

TEST(Evaluator, NotOfNullIsNull) {
  Row row{Value::Null()};
  EXPECT_TRUE(Evaluate(*Not(BoundCol(0)), row).is_null());
}

TEST(Evaluator, AggregateValueLookup) {
  ExprPtr agg = Agg(AggFunc::kCountStar, nullptr);
  ExprPtr having = Bin(BinaryOp::kGe, agg, LitInt(10));
  AggValueMap values;
  values[agg.get()] = Value::Int(12);
  Row row;
  EXPECT_TRUE(EvaluatePredicate(*having, row, &values));
  values[agg.get()] = Value::Int(9);
  EXPECT_FALSE(EvaluatePredicate(*having, row, &values));
}

// ----- Accumulators --------------------------------------------------------

TEST(Accumulator, CountStarCountsNulls) {
  Accumulator acc(AggFunc::kCountStar);
  acc.Add(Value::Null());
  acc.Add(Value::Int(1));
  EXPECT_EQ(acc.Final().AsInt(), 2);
}

TEST(Accumulator, CountSkipsNulls) {
  Accumulator acc(AggFunc::kCount);
  acc.Add(Value::Null());
  acc.Add(Value::Int(1));
  EXPECT_EQ(acc.Final().AsInt(), 1);
}

TEST(Accumulator, SumIntStaysInt) {
  Accumulator acc(AggFunc::kSum);
  acc.Add(Value::Int(2));
  acc.Add(Value::Int(3));
  Value v = acc.Final();
  EXPECT_TRUE(v.is_int());
  EXPECT_EQ(v.AsInt(), 5);
}

TEST(Accumulator, SumEmptyIsNull) {
  Accumulator acc(AggFunc::kSum);
  EXPECT_TRUE(acc.Final().is_null());
  acc.Add(Value::Null());
  EXPECT_TRUE(acc.Final().is_null());
}

TEST(Accumulator, AvgMixedTypes) {
  Accumulator acc(AggFunc::kAvg);
  acc.Add(Value::Int(1));
  acc.Add(Value::Double(2.0));
  EXPECT_DOUBLE_EQ(acc.Final().AsDouble(), 1.5);
}

TEST(Accumulator, MinMax) {
  Accumulator mn(AggFunc::kMin), mx(AggFunc::kMax);
  for (int v : {5, 3, 9}) {
    mn.Add(Value::Int(v));
    mx.Add(Value::Int(v));
  }
  EXPECT_EQ(mn.Final().AsInt(), 3);
  EXPECT_EQ(mx.Final().AsInt(), 9);
}

TEST(Accumulator, CountDistinct) {
  Accumulator acc(AggFunc::kCountDistinct);
  acc.Add(Value::Int(1));
  acc.Add(Value::Int(1));
  acc.Add(Value::Int(2));
  acc.Add(Value::Null());  // NULLs excluded
  EXPECT_EQ(acc.Final().AsInt(), 2);
}

TEST(Accumulator, AlgebraicClassification) {
  EXPECT_TRUE(IsAlgebraic(AggFunc::kCountStar));
  EXPECT_TRUE(IsAlgebraic(AggFunc::kSum));
  EXPECT_TRUE(IsAlgebraic(AggFunc::kAvg));
  EXPECT_TRUE(IsAlgebraic(AggFunc::kMin));
  EXPECT_FALSE(IsAlgebraic(AggFunc::kCountDistinct));
}

TEST(Accumulator, PartialArity) {
  EXPECT_EQ(PartialArity(AggFunc::kAvg), 2u);
  EXPECT_EQ(PartialArity(AggFunc::kSum), 1u);
  EXPECT_EQ(PartialArity(AggFunc::kCountStar), 1u);
}

/// Property: for every algebraic aggregate, splitting the input into two
/// partitions, taking partial states, and merging must equal the direct
/// computation (the defining property of Gray et al. algebraic functions).
class AlgebraicSplitTest : public ::testing::TestWithParam<AggFunc> {};

TEST_P(AlgebraicSplitTest, PartialMergeEqualsDirect) {
  AggFunc func = GetParam();
  std::vector<int> values = {4, -2, 7, 7, 0, 13, -5, 9};
  for (size_t split = 0; split <= values.size(); ++split) {
    Accumulator direct(func), left(func), right(func);
    for (size_t i = 0; i < values.size(); ++i) {
      direct.Add(Value::Int(values[i]));
      (i < split ? left : right).Add(Value::Int(values[i]));
    }
    Accumulator merged(func);
    merged.MergePartial(left.PartialState());
    merged.MergePartial(right.PartialState());
    EXPECT_EQ(merged.Final().Compare(direct.Final()), 0)
        << AggFuncName(func) << " split=" << split;
  }
}

// Names each case after its aggregate (COUNT_STAR, COUNT, SUM, ...).
std::string AggFuncParamName(const ::testing::TestParamInfo<AggFunc>& info) {
  if (info.param == AggFunc::kCountStar) return "COUNT_STAR";
  std::string name = AggFuncName(info.param);
  std::replace(name.begin(), name.end(), ' ', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllAlgebraic, AlgebraicSplitTest,
                         ::testing::Values(AggFunc::kCountStar,
                                           AggFunc::kCount, AggFunc::kSum,
                                           AggFunc::kMin, AggFunc::kMax,
                                           AggFunc::kAvg),
                         AggFuncParamName);

TEST(Accumulator, MergeFromHandlesDistinct) {
  Accumulator a(AggFunc::kCountDistinct), b(AggFunc::kCountDistinct);
  a.Add(Value::Int(1));
  a.Add(Value::Int(2));
  b.Add(Value::Int(2));
  b.Add(Value::Int(3));
  a.MergeFrom(b);
  EXPECT_EQ(a.Final().AsInt(), 3);
}

TEST(Accumulator, MergePartialEmptyMinIsNoop) {
  Accumulator empty(AggFunc::kMin), acc(AggFunc::kMin);
  acc.Add(Value::Int(4));
  acc.MergePartial(empty.PartialState());
  EXPECT_EQ(acc.Final().AsInt(), 4);
}

}  // namespace
}  // namespace iceberg
