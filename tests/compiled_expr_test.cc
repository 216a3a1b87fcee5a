// Differential tests for the compiled expression engine and the packed key
// codecs: every compiled program must agree with the reference interpreter
// `Evaluate` on every row — including NULL three-valued logic, int<->double
// coercion, short-circuit AND/OR and aggregate references resolved through
// an AggValueMap — and PackedKey equality/hashing must coincide exactly with
// RowEq/Value::Hash on numeric keys. A final suite replays the full workload
// on both executors and demands identical result sets.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bench/workload_queries.h"
#include "src/engine/database.h"
#include "src/exec/key_codec.h"
#include "src/expr/aggregate.h"
#include "src/expr/compiled.h"
#include "src/expr/evaluator.h"
#include "src/expr/expr.h"
#include "src/obs/metrics.h"

namespace iceberg {
namespace {

// Strict identity: same type alternative, same payload. (Value::operator==
// coerces 1 == 1.0; the compiled engine must preserve the exact alternative
// the interpreter produces, since group keys hash on it.)
void ExpectIdentical(const Value& a, const Value& b, const std::string& ctx) {
  ASSERT_EQ(a.type(), b.type())
      << ctx << ": " << a.ToString() << " vs " << b.ToString();
  if (a.is_null()) return;
  if (a.is_int()) {
    ASSERT_EQ(a.AsInt(), b.AsInt()) << ctx;
  } else if (a.is_double()) {
    ASSERT_EQ(a.AsDouble(), b.AsDouble()) << ctx;
  } else {
    ASSERT_EQ(a.AsString(), b.AsString()) << ctx;
  }
}

void ExpectSameOnRow(const Expr& e, const Row& row) {
  CompiledExpr prog = CompiledExpr::Compile(e);
  ASSERT_TRUE(prog.valid()) << e.ToString();
  EvalScratch scratch;
  Value compiled = prog.Run(row, &scratch);
  Value interpreted = Evaluate(e, row);
  ExpectIdentical(compiled, interpreted,
                  e.ToString() + " on " + RowToString(row));
  EXPECT_EQ(prog.RunPredicate(row, &scratch), interpreted.AsBool())
      << e.ToString() << " on " << RowToString(row);
}

// Bound column ref into the test row layout.
ExprPtr ColAt(int index) {
  ExprPtr c = Col("c" + std::to_string(index));
  c->resolved_index = index;
  return c;
}

// ---------------------------------------------------------------------------
// Generated expressions, compiled vs interpreted on every row
// ---------------------------------------------------------------------------

// Row layout of the generator: c0..c2 int64, c3..c4 double, c5 string.
constexpr int kNumIntCols = 3;
constexpr int kNumDoubleCols = 2;
constexpr int kStringCol = 5;
constexpr int kNumCols = 6;

class ExprGen {
 public:
  explicit ExprGen(uint32_t seed) : rng_(seed) {}

  // `allow_string`: whether this node may produce a string value. The
  // interpreter throws on arithmetic/negation over strings (the compiled
  // engine's one documented carve-out), so arithmetic operands are always
  // generated string-free; comparisons, AND/OR, and NOT accept anything.
  ExprPtr Make(int depth, bool allow_string) {
    if (depth <= 0 || Pick(4) == 0) return Leaf(allow_string);
    switch (Pick(6)) {
      case 0: {  // comparison
        static const BinaryOp kCmp[] = {BinaryOp::kEq, BinaryOp::kNe,
                                        BinaryOp::kLt, BinaryOp::kLe,
                                        BinaryOp::kGt, BinaryOp::kGe};
        return Bin(kCmp[Pick(6)], Make(depth - 1, true),
                   Make(depth - 1, true));
      }
      case 1: {  // arithmetic (numeric operands only)
        static const BinaryOp kArith[] = {BinaryOp::kAdd, BinaryOp::kSub,
                                          BinaryOp::kMul, BinaryOp::kDiv};
        return Bin(kArith[Pick(4)], Make(depth - 1, false),
                   Make(depth - 1, false));
      }
      case 2:
        return Bin(BinaryOp::kAnd, Make(depth - 1, true),
                   Make(depth - 1, true));
      case 3:
        return Bin(BinaryOp::kOr, Make(depth - 1, true),
                   Make(depth - 1, true));
      case 4:
        return Not(Make(depth - 1, true));
      default:
        return Neg(Make(depth - 1, false));
    }
  }

  Row MakeRow() {
    Row row;
    row.reserve(kNumCols);
    for (int i = 0; i < kNumIntCols; ++i) {
      row.push_back(Pick(5) == 0 ? Value::Null()
                                 : Value::Int(Pick(7) - 3));
    }
    for (int i = 0; i < kNumDoubleCols; ++i) {
      row.push_back(Pick(5) == 0
                        ? Value::Null()
                        : Value::Double((Pick(9) - 4) * 0.5));
    }
    switch (Pick(4)) {
      case 0: row.push_back(Value::Null()); break;
      case 1: row.push_back(Value::Str("")); break;
      case 2: row.push_back(Value::Str("abc")); break;
      default: row.push_back(Value::Str("zz")); break;
    }
    return row;
  }

 private:
  int Pick(int n) { return static_cast<int>(rng_() % n); }

  ExprPtr Leaf(bool allow_string) {
    switch (Pick(allow_string ? 6 : 5)) {
      case 0: return LitInt(Pick(7) - 3);
      case 1: return LitDouble((Pick(9) - 4) * 0.5);
      case 2: return Lit(Value::Null());
      case 3: return ColAt(Pick(kNumIntCols));
      case 4: return ColAt(kNumIntCols + Pick(kNumDoubleCols));
      default: return ColAt(kStringCol);
    }
  }

  std::mt19937 rng_;
};

TEST(CompiledDifferentialTest, GeneratedExpressionsMatchInterpreter) {
  ExprGen gen(20240807);
  std::vector<Row> rows;
  for (int i = 0; i < 32; ++i) rows.push_back(gen.MakeRow());
  rows.push_back(Row(kNumCols, Value::Null()));  // all-NULL row
  Row zeros;
  for (int i = 0; i < kNumIntCols; ++i) zeros.push_back(Value::Int(0));
  for (int i = 0; i < kNumDoubleCols; ++i) zeros.push_back(Value::Double(0));
  zeros.push_back(Value::Str(""));
  rows.push_back(zeros);

  for (int i = 0; i < 400; ++i) {
    ExprPtr e = gen.Make(4, true);
    for (const Row& row : rows) {
      ExpectSameOnRow(*e, row);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------------
// Three-valued logic, coercion, short-circuiting, fused paths
// ---------------------------------------------------------------------------

TEST(CompiledDifferentialTest, KleeneTruthTables) {
  // TRUE = 1, FALSE = 0, NULL via the row so constant folding cannot
  // pre-evaluate the connective.
  const Value cases[] = {Value::Bool(true), Value::Bool(false), Value::Null()};
  for (const Value& l : cases) {
    for (const Value& r : cases) {
      Row row = {l, r};
      ExpectSameOnRow(*Bin(BinaryOp::kAnd, ColAt(0), ColAt(1)), row);
      ExpectSameOnRow(*Bin(BinaryOp::kOr, ColAt(0), ColAt(1)), row);
      ExpectSameOnRow(*Not(ColAt(0)), row);
    }
  }
  // Spot-check the SQL-defining corners directly.
  EvalScratch scratch;
  CompiledExpr and_prog =
      CompiledExpr::Compile(*Bin(BinaryOp::kAnd, ColAt(0), ColAt(1)));
  CompiledExpr or_prog =
      CompiledExpr::Compile(*Bin(BinaryOp::kOr, ColAt(0), ColAt(1)));
  // FALSE AND NULL = FALSE (not NULL).
  Value v = and_prog.Run({Value::Bool(false), Value::Null()}, &scratch);
  ASSERT_TRUE(v.is_int());
  EXPECT_EQ(v.AsInt(), 0);
  // TRUE AND NULL = NULL.
  EXPECT_TRUE(and_prog.Run({Value::Bool(true), Value::Null()}, &scratch)
                  .is_null());
  // TRUE OR NULL = TRUE.
  v = or_prog.Run({Value::Null(), Value::Bool(true)}, &scratch);
  ASSERT_TRUE(v.is_int());
  EXPECT_EQ(v.AsInt(), 1);
  // FALSE OR NULL = NULL.
  EXPECT_TRUE(or_prog.Run({Value::Bool(false), Value::Null()}, &scratch)
                  .is_null());
}

TEST(CompiledDifferentialTest, NumericCoercionAndDivision) {
  const Row row = {Value::Int(7), Value::Int(0), Value::Int(-2),
                   Value::Double(7.0), Value::Double(0.5), Value::Str("x")};
  std::vector<ExprPtr> exprs;
  exprs.push_back(Bin(BinaryOp::kEq, ColAt(0), ColAt(3)));  // 7 == 7.0
  exprs.push_back(Bin(BinaryOp::kLt, ColAt(2), ColAt(4)));
  exprs.push_back(Bin(BinaryOp::kAdd, ColAt(0), ColAt(2)));  // int-preserving
  exprs.push_back(Bin(BinaryOp::kAdd, ColAt(0), ColAt(4)));  // promotes
  exprs.push_back(Bin(BinaryOp::kDiv, ColAt(0), ColAt(2)));  // -> double
  exprs.push_back(Bin(BinaryOp::kDiv, ColAt(0), ColAt(1)));  // /0 -> NULL
  exprs.push_back(Bin(BinaryOp::kDiv, ColAt(3), ColAt(1)));
  exprs.push_back(Neg(ColAt(2)));
  exprs.push_back(Neg(ColAt(4)));
  exprs.push_back(Not(ColAt(1)));
  exprs.push_back(Not(ColAt(5)));  // string truthiness
  for (const ExprPtr& e : exprs) ExpectSameOnRow(*e, row);
}

TEST(CompiledDifferentialTest, ShortCircuitSkipsRightHandSide) {
  // (c0 < 0) AND (c1 / c2 > 1): when c0 >= 0 the conjunction is definite
  // false whatever the division yields; compiled and interpreted agree on
  // every combination including the NULL-producing division by zero.
  ExprPtr e = Bin(BinaryOp::kAnd, Bin(BinaryOp::kLt, ColAt(0), LitInt(0)),
                  Bin(BinaryOp::kGt,
                      Bin(BinaryOp::kDiv, ColAt(1), ColAt(2)), LitInt(1)));
  for (int64_t c0 : {-1, 0, 1}) {
    for (int64_t c2 : {0, 1, 2}) {
      Row row = {Value::Int(c0), Value::Int(4), Value::Int(c2)};
      ExpectSameOnRow(*e, row);
    }
  }
  ExprPtr o = Bin(BinaryOp::kOr, Bin(BinaryOp::kGe, ColAt(0), LitInt(0)),
                  Bin(BinaryOp::kGt,
                      Bin(BinaryOp::kDiv, ColAt(1), ColAt(2)), LitInt(1)));
  for (int64_t c0 : {-1, 0, 1}) {
    for (int64_t c2 : {0, 1, 2}) {
      Row row = {Value::Int(c0), Value::Int(4), Value::Int(c2)};
      ExpectSameOnRow(*o, row);
    }
  }
}

TEST(CompiledDifferentialTest, FusedComparisonsMatchGeneralPath) {
  // col-vs-int-constant (both orders, all operators) and col-vs-col fuse
  // into single instructions; semantics must not change.
  static const BinaryOp kCmp[] = {BinaryOp::kEq, BinaryOp::kNe,
                                  BinaryOp::kLt, BinaryOp::kLe,
                                  BinaryOp::kGt, BinaryOp::kGe};
  std::vector<Row> rows = {
      {Value::Int(2), Value::Int(5)},      {Value::Int(5), Value::Int(5)},
      {Value::Int(9), Value::Int(-1)},     {Value::Null(), Value::Int(5)},
      {Value::Double(5.0), Value::Int(5)}, {Value::Double(4.5), Value::Null()},
  };
  for (BinaryOp op : kCmp) {
    ExprPtr fused = Bin(op, ColAt(0), LitInt(5));
    ExprPtr flipped = Bin(op, LitInt(5), ColAt(0));
    ExprPtr colcol = Bin(op, ColAt(0), ColAt(1));
    CompiledExpr prog = CompiledExpr::Compile(*fused);
    EXPECT_EQ(prog.num_ops(), 1u) << fused->ToString();  // really fused
    for (const Row& row : rows) {
      ExpectSameOnRow(*fused, row);
      ExpectSameOnRow(*flipped, row);
      ExpectSameOnRow(*colcol, row);
    }
  }
}

TEST(CompiledDifferentialTest, ConstantFolding) {
  ExprPtr e = Bin(BinaryOp::kMul, Bin(BinaryOp::kAdd, LitInt(2), LitInt(3)),
                  LitInt(4));
  CompiledExpr prog = CompiledExpr::Compile(*e);
  ASSERT_TRUE(prog.valid());
  EXPECT_EQ(prog.num_ops(), 1u);  // folded to one kPushConst
  EvalScratch scratch;
  Value v = prog.Run({}, &scratch);
  ASSERT_TRUE(v.is_int());
  EXPECT_EQ(v.AsInt(), 20);
  // Folding must not change column-dependent subtrees.
  ExprPtr mixed = Bin(BinaryOp::kAdd, e, ColAt(0));
  ExpectSameOnRow(*mixed, {Value::Int(1)});
}

// ---------------------------------------------------------------------------
// Aggregate references (kPushAgg): HAVING and select-list shapes evaluated
// against a group's final aggregate values, as Aggregator and NLJP's Q_P
// finalize them
// ---------------------------------------------------------------------------

/// Forces the plan cache (and with it the program-template path of
/// CompiledExpr::Compile) on or off, restoring the previous state and cold
/// templates on exit.
struct ScopedPlanCache {
  explicit ScopedPlanCache(bool enabled) : prev(PlanCacheEnabled()) {
    SetPlanCacheEnabled(enabled);
    ClearProgramTemplateCache();
  }
  ~ScopedPlanCache() {
    SetPlanCacheEnabled(prev);
    ClearProgramTemplateCache();
  }
  bool prev;
};

/// The group's final aggregate values for every aggregate node of `e`,
/// accumulated over `group` the way the aggregation operators do.
AggValueMap FinalsOver(const ExprPtr& e, const std::vector<Row>& group) {
  std::vector<ExprPtr> aggs;
  CollectAggregates(e, &aggs);
  AggValueMap finals;
  for (const ExprPtr& agg : aggs) {
    Accumulator acc(agg->agg);
    for (const Row& row : group) {
      acc.Add(agg->agg == AggFunc::kCountStar
                  ? Value::Null()
                  : Evaluate(*agg->children[0], row));
    }
    finals[agg.get()] = acc.Final();
  }
  return finals;
}

/// HAVING / select-list shapes over c0 (int) and c1 (double); `k` and `x`
/// are the literals the template cache re-binds.
std::vector<ExprPtr> AggShapes(int64_t k, double x) {
  auto count_star = [] { return Agg(AggFunc::kCountStar, nullptr); };
  auto avg_c0 = [] {
    return Bin(BinaryOp::kDiv, Agg(AggFunc::kSum, ColAt(0)),
               Agg(AggFunc::kCount, ColAt(0)));
  };
  std::vector<ExprPtr> shapes;
  // COUNT(*) >= k AND SUM(c0) / COUNT(c0) > x
  shapes.push_back(Bin(BinaryOp::kAnd,
                       Bin(BinaryOp::kGe, count_star(), LitInt(k)),
                       Bin(BinaryOp::kGt, avg_c0(), LitDouble(x))));
  // COUNT(*) <= k OR MAX(c1) < x
  shapes.push_back(Bin(BinaryOp::kOr,
                       Bin(BinaryOp::kLe, count_star(), LitInt(k)),
                       Bin(BinaryOp::kLt, Agg(AggFunc::kMax, ColAt(1)),
                           LitDouble(x))));
  // NOT (MIN(c0) = k) AND AVG(c1) >= x
  shapes.push_back(Bin(BinaryOp::kAnd,
                       Not(Bin(BinaryOp::kEq, Agg(AggFunc::kMin, ColAt(0)),
                               LitInt(k))),
                       Bin(BinaryOp::kGe, Agg(AggFunc::kAvg, ColAt(1)),
                           LitDouble(x))));
  // Select items: arithmetic over aggregates, a group column mixed with
  // an aggregate, and a negated aggregate.
  shapes.push_back(Bin(BinaryOp::kAdd, avg_c0(), LitInt(k)));
  shapes.push_back(Bin(BinaryOp::kMul, Agg(AggFunc::kSum, ColAt(1)),
                       LitDouble(x)));
  shapes.push_back(Bin(BinaryOp::kAdd, ColAt(0), count_star()));
  shapes.push_back(Neg(Agg(AggFunc::kCountDistinct, ColAt(0))));
  return shapes;
}

/// Groups over (c0 int, c1 double): mixed values, NULL-only inputs, a
/// single row, and the empty group of a scalar aggregate over no rows.
std::vector<std::vector<Row>> AggGroups() {
  std::vector<std::vector<Row>> groups;
  groups.push_back({{Value::Int(3), Value::Double(1.5)},
                    {Value::Int(5), Value::Double(-2.0)},
                    {Value::Int(3), Value::Null()},
                    {Value::Null(), Value::Double(4.0)}});
  groups.push_back({{Value::Null(), Value::Null()},
                    {Value::Null(), Value::Null()}});
  groups.push_back({{Value::Int(-4), Value::Double(0.5)}});
  std::vector<Row> many;
  for (int i = 0; i < 25; ++i) {
    many.push_back({Value::Int(i % 7), Value::Double(i * 0.25)});
  }
  groups.push_back(std::move(many));
  groups.push_back({});
  return groups;
}

/// Runs `prog` against every group's finals for `e` and compares it with
/// the interpreter; the representative row is the group's first row, or
/// all-NULL for the empty group.
void ExpectSameOnGroups(const ExprPtr& e, const CompiledExpr& prog,
                        const std::string& path) {
  ASSERT_TRUE(prog.valid()) << e->ToString();
  EXPECT_FALSE(prog.batchable()) << e->ToString();
  EvalScratch scratch;
  for (const std::vector<Row>& group : AggGroups()) {
    const AggValueMap finals = FinalsOver(e, group);
    const Row rep = group.empty() ? Row(2, Value::Null()) : group.front();
    const std::string ctx = path + " " + e->ToString() + " over " +
                            std::to_string(group.size()) + " rows";
    Value interpreted = Evaluate(*e, rep, &finals);
    ExpectIdentical(prog.Run(rep, &scratch, &finals), interpreted, ctx);
    EXPECT_EQ(prog.RunPredicate(rep, &scratch, &finals), interpreted.AsBool())
        << ctx;
  }
}

TEST(CompiledDifferentialTest, AggregateReferencesMatchInterpreter) {
  {
    ScopedPlanCache plain(false);
    for (const ExprPtr& e : AggShapes(2, 1.0)) {
      ExpectSameOnGroups(e, CompiledExpr::Compile(*e), "plain");
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  // With the plan cache on, the first compile of each shape builds a
  // template and re-binds it; the same shapes with other literals then hit
  // the cached template, whose aggregate references must re-point at the
  // new tree's nodes.
  ScopedPlanCache cached(true);
  for (const ExprPtr& e : AggShapes(2, 1.0)) {
    ExpectSameOnGroups(e, CompiledExpr::Compile(*e), "template");
    if (::testing::Test::HasFatalFailure()) return;
  }
  Counter* hits = ICEBERG_COUNTER("plan_cache.program_hits");
  const uint64_t hits_before = hits->value();
  const std::vector<ExprPtr> rebound = AggShapes(4, 2.5);
  for (const ExprPtr& e : rebound) {
    ExpectSameOnGroups(e, CompiledExpr::Compile(*e), "rebind");
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The last two shapes carry no literal and always compile plainly.
  EXPECT_EQ(hits->value() - hits_before, rebound.size() - 2);
}

// ---------------------------------------------------------------------------
// PackedKey / KeyCodec
// ---------------------------------------------------------------------------

TEST(KeyCodecTest, UsabilityGating) {
  EXPECT_TRUE(KeyCodec::ForTypes({DataType::kInt64}).usable());
  EXPECT_TRUE(
      KeyCodec::ForTypes({DataType::kInt64, DataType::kDouble}).usable());
  EXPECT_TRUE(KeyCodec::ForTypes({}).usable());
  EXPECT_FALSE(
      KeyCodec::ForTypes({DataType::kInt64, DataType::kString}).usable());
  std::vector<DataType> nine(9, DataType::kInt64);
  EXPECT_FALSE(KeyCodec::ForTypes(nine).usable());
  EXPECT_FALSE(KeyCodec().usable());
}

TEST(KeyCodecTest, EqualityMatchesRowEqOnNumericKeys) {
  KeyCodec codec =
      KeyCodec::ForTypes({DataType::kInt64, DataType::kDouble});
  ASSERT_TRUE(codec.usable());
  std::vector<Row> keys = {
      {Value::Int(1), Value::Double(2.5)},
      {Value::Int(1), Value::Double(2.5)},
      {Value::Double(1.0), Value::Double(2.5)},  // 1.0 == 1 canonically
      {Value::Int(1), Value::Int(2)},
      {Value::Null(), Value::Double(2.5)},
      {Value::Int(0), Value::Double(2.5)},  // NULL != 0
      {Value::Int(-1), Value::Double(-2.5)},
      {Value::Int(1), Value::Double(2.5000001)},
  };
  RowEq row_eq;
  for (const Row& a : keys) {
    for (const Row& b : keys) {
      PackedKey pa, pb;
      codec.EncodeRow(a, &pa);
      codec.EncodeRow(b, &pb);
      EXPECT_EQ(pa == pb, row_eq(a, b))
          << RowToString(a) << " vs " << RowToString(b);
      if (pa == pb) EXPECT_EQ(pa.hash(), pb.hash());
    }
  }
}

TEST(KeyCodecTest, EncodeAtGathersPositions) {
  KeyCodec codec =
      KeyCodec::ForTypes({DataType::kInt64, DataType::kInt64});
  Row row = {Value::Str("skip"), Value::Int(7), Value::Double(1.0),
             Value::Int(9)};
  PackedKey gathered, direct;
  codec.EncodeAt(row, {1, 3}, &gathered);
  codec.Encode((Row{Value::Int(7), Value::Int(9)}).data(), 2, &direct);
  EXPECT_EQ(gathered, direct);
}

TEST(KeyCodecTest, RandomRowsAgreeWithRowSemantics) {
  std::mt19937 rng(7);
  KeyCodec codec = KeyCodec::ForTypes(
      {DataType::kInt64, DataType::kDouble, DataType::kInt64});
  RowEq row_eq;
  RowHash row_hash;
  std::vector<Row> rows;
  for (int i = 0; i < 200; ++i) {
    Row r;
    int v0 = static_cast<int>(rng() % 4);
    r.push_back(v0 == 0 ? Value::Null() : Value::Int(v0));
    int v1 = static_cast<int>(rng() % 4);
    r.push_back(v1 == 0 ? Value::Null() : Value::Double(v1 * 0.5));
    // Mix int and integral-double representations of the same number.
    int v2 = static_cast<int>(rng() % 3);
    r.push_back(rng() % 2 == 0 ? Value::Int(v2)
                               : Value::Double(static_cast<double>(v2)));
    rows.push_back(std::move(r));
  }
  for (const Row& a : rows) {
    for (const Row& b : rows) {
      PackedKey pa, pb;
      codec.EncodeRow(a, &pa);
      codec.EncodeRow(b, &pb);
      ASSERT_EQ(pa == pb, row_eq(a, b))
          << RowToString(a) << " vs " << RowToString(b);
      if (row_eq(a, b)) {
        // Mirrors the RowHash contract (integral doubles canonicalized).
        ASSERT_EQ(row_hash(a), row_hash(b));
        ASSERT_EQ(pa.hash(), pb.hash());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Whole-workload differential: the baseline executor and Smart-Iceberg run
// the same compiled programs and packed key codecs through different plans,
// and must return the same rows at any thread count.
// ---------------------------------------------------------------------------

void ExpectSameRows(const TablePtr& a, const TablePtr& b,
                    const std::string& ctx) {
  ASSERT_EQ(a->num_rows(), b->num_rows()) << ctx;
  std::vector<Row> ra = a->rows(), rb = b->rows();
  std::sort(ra.begin(), ra.end(), RowLess());
  std::sort(rb.begin(), rb.end(), RowLess());
  for (size_t i = 0; i < ra.size(); ++i) {
    ASSERT_EQ(CompareRows(ra[i], rb[i]), 0) << ctx << " row " << i;
  }
}

TEST(CompiledWorkloadTest, BaselineAndIcebergIdenticalResults) {
  std::unique_ptr<Database> db = bench::MakeScoreDb(480);
  for (const bench::NamedQuery& q : bench::Figure1Queries()) {
    for (int threads : {1, 4}) {
      ExecOptions exec;
      exec.num_threads = threads;
      Result<TablePtr> base = db->Query(q.sql, exec);
      IcebergOptions iceberg;
      iceberg.base_exec.num_threads = threads;
      Result<TablePtr> smart = db->QueryIceberg(q.sql, iceberg);
      ASSERT_TRUE(base.ok()) << q.name << ": " << base.status().ToString();
      ASSERT_TRUE(smart.ok()) << q.name << ": " << smart.status().ToString();
      ExpectSameRows(*base, *smart,
                     q.name + " engines t=" + std::to_string(threads));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(CompiledWorkloadTest, ExplainShowsCompiledPrograms) {
  std::unique_ptr<Database> db = bench::MakeScoreDb(120);
  Result<std::string> plan =
      db->ExplainBaseline(bench::SkybandSql("hits", "hruns", 10));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("[compiled:"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("key=packed["), std::string::npos) << *plan;
}

}  // namespace
}  // namespace iceberg
