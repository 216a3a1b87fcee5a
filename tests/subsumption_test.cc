// Tests for the automatic subsumption-test generation of Section 5.2:
// derived p>= predicates are compared against the instance-oblivious
// ground truth (forall wr in a grid: Theta(w',wr) => Theta(w,wr)).

#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <string>
#include <vector>

#include "src/common/string_util.h"
#include "src/expr/evaluator.h"
#include "src/fme/subsumption.h"
#include "src/parser/parser.h"

namespace iceberg {
namespace {

using fme::DeriveSubsumption;
using fme::SubsumptionSpec;
using fme::SubsumptionTest;

/// Builds a spec for a two-relation layout: L columns at offsets
/// [0, l_names), R columns after them. Theta is parsed from SQL and bound
/// by name ("l.<name>" / "r.<name>").
SubsumptionSpec MakeSpec(const std::vector<std::string>& l_names,
                         const std::vector<std::string>& r_names,
                         const std::string& theta_sql,
                         std::vector<DataType> types = {}) {
  SubsumptionSpec spec;
  ExprPtr theta = *ParseExpression(theta_sql);
  std::vector<Expr*> refs;
  CollectColumnRefs(theta, &refs);
  for (Expr* ref : refs) {
    bool left = EqualsIgnoreCase(ref->qualifier, "l");
    const auto& names = left ? l_names : r_names;
    for (size_t i = 0; i < names.size(); ++i) {
      if (EqualsIgnoreCase(names[i], ref->column)) {
        ref->resolved_index =
            static_cast<int>(left ? i : l_names.size() + i);
      }
    }
  }
  SplitConjuncts(theta, &spec.theta);
  for (size_t i = 0; i < l_names.size(); ++i) spec.binding_offsets.push_back(i);
  size_t l_count = l_names.size();
  spec.is_left_offset = [l_count](size_t off) { return off < l_count; };
  if (types.empty()) {
    types.assign(l_names.size() + r_names.size(), DataType::kInt64);
  }
  spec.types_by_offset = std::move(types);
  return spec;
}

/// Ground truth: does w subsume w' for EVERY R-instance? Equivalent to
/// forall wr: Theta(w', wr) => Theta(w, wr); checked over an integer grid.
bool GroundTruth(const SubsumptionSpec& spec, const Row& w, const Row& wp,
                 int range) {
  size_t r_width = spec.types_by_offset.size() - spec.binding_offsets.size();
  std::vector<int> wr(r_width, -range);
  auto theta_holds = [&](const Row& binding) {
    Row full = binding;
    for (int v : wr) full.push_back(Value::Int(v));
    for (const ExprPtr& conjunct : spec.theta) {
      if (!EvaluatePredicate(*conjunct, full)) return false;
    }
    return true;
  };
  while (true) {
    if (theta_holds(wp) && !theta_holds(w)) return false;
    size_t i = 0;
    for (; i < wr.size(); ++i) {
      if (wr[i] < range) {
        ++wr[i];
        break;
      }
      wr[i] = -range;
    }
    if (i == wr.size()) return true;
  }
}

/// Exhaustively compares the derived predicate against ground truth for
/// all w, w' in [0, domain)^k.
void CheckAgainstGroundTruth(const SubsumptionSpec& spec, int domain,
                             int wr_range) {
  Result<SubsumptionTest> test = DeriveSubsumption(spec);
  ASSERT_TRUE(test.ok()) << test.status().ToString();
  size_t k = spec.binding_offsets.size();
  std::vector<int> wv(k, 0), wpv(k, 0);
  std::function<void(size_t, std::vector<int>*, const std::function<void()>&)>
      sweep = [&](size_t i, std::vector<int>* out,
                  const std::function<void()>& then) {
        if (i == k) {
          then();
          return;
        }
        for (int v = 0; v < domain; ++v) {
          (*out)[i] = v;
          sweep(i + 1, out, then);
        }
      };
  size_t checked = 0;
  sweep(0, &wv, [&] {
    sweep(0, &wpv, [&] {
      Row w, wp;
      for (int v : wv) w.push_back(Value::Int(v));
      for (int v : wpv) wp.push_back(Value::Int(v));
      bool derived = test->Subsumes(w, wp);
      bool truth = GroundTruth(spec, w, wp, wr_range);
      ASSERT_EQ(derived, truth)
          << "w=" << RowToString(w) << " w'=" << RowToString(wp)
          << " derived p>=: " << test->ToString();
      ++checked;
    });
  });
  ASSERT_GT(checked, 0u);
}

TEST(Subsumption, SkybandSimplifiedJoin) {
  // Example 11: L.x < R.x AND L.y < R.y  ->  x <= x' and y <= y'.
  SubsumptionSpec spec =
      MakeSpec({"x", "y"}, {"x", "y"}, "l.x < r.x AND l.y < r.y");
  CheckAgainstGroundTruth(spec, 4, 5);
}

TEST(Subsumption, SkybandFullJoin) {
  // Example 12: the full strict-dominance condition with the OR clause.
  SubsumptionSpec spec = MakeSpec(
      {"x", "y"}, {"x", "y"},
      "l.x <= r.x AND l.y <= r.y AND (l.x < r.x OR l.y < r.y)");
  CheckAgainstGroundTruth(spec, 4, 5);
}

TEST(Subsumption, SkybandFullJoinMatchesPaperFormula) {
  SubsumptionSpec spec = MakeSpec(
      {"x", "y"}, {"x", "y"},
      "l.x <= r.x AND l.y <= r.y AND (l.x < r.x OR l.y < r.y)");
  Result<SubsumptionTest> test = DeriveSubsumption(spec);
  ASSERT_TRUE(test.ok());
  // Appendix B derives exactly x <= x' and y <= y'.
  Row w{Value::Int(1), Value::Int(2)};
  Row wp{Value::Int(1), Value::Int(2)};
  EXPECT_TRUE(test->Subsumes(w, wp));
  EXPECT_TRUE(test->Subsumes({Value::Int(0), Value::Int(2)}, wp));
  EXPECT_FALSE(test->Subsumes({Value::Int(2), Value::Int(2)}, wp));
  EXPECT_FALSE(test->IsNeverTrue());
  EXPECT_FALSE(test->IsEqualityOnly());
}

TEST(Subsumption, EqualityJoinDegeneratesToEquality) {
  SubsumptionSpec spec = MakeSpec({"k"}, {"k"}, "l.k = r.k");
  Result<SubsumptionTest> test = DeriveSubsumption(spec);
  ASSERT_TRUE(test.ok());
  EXPECT_TRUE(test->IsEqualityOnly());
  EXPECT_TRUE(test->Subsumes({Value::Int(3)}, {Value::Int(3)}));
  EXPECT_FALSE(test->Subsumes({Value::Int(3)}, {Value::Int(4)}));
  CheckAgainstGroundTruth(spec, 4, 5);
}

TEST(Subsumption, WeakDominanceFourDims) {
  // The pairs query (Listing 4): >= on all four dims plus one strict.
  SubsumptionSpec spec = MakeSpec(
      {"a", "b", "c", "d"}, {"a", "b", "c", "d"},
      "r.a >= l.a AND r.b >= l.b AND r.c >= l.c AND r.d >= l.d AND "
      "(r.a > l.a OR r.b > l.b OR r.c > l.c OR r.d > l.d)");
  Result<SubsumptionTest> test = DeriveSubsumption(spec);
  ASSERT_TRUE(test.ok()) << test.status().ToString();
  // Componentwise w <= w'.
  Row lo{Value::Int(1), Value::Int(1), Value::Int(1), Value::Int(1)};
  Row hi{Value::Int(2), Value::Int(1), Value::Int(3), Value::Int(1)};
  EXPECT_TRUE(test->Subsumes(lo, hi));
  EXPECT_FALSE(test->Subsumes(hi, lo));
  EXPECT_TRUE(test->Subsumes(lo, lo));
}

TEST(Subsumption, MixedDirections) {
  // L.x <= R.x AND L.y >= R.y: subsumption needs x <= x' and y >= y'.
  SubsumptionSpec spec =
      MakeSpec({"x", "y"}, {"x", "y"}, "l.x <= r.x AND l.y >= r.y");
  CheckAgainstGroundTruth(spec, 4, 5);
}

TEST(Subsumption, BandJoin) {
  // |L.x - R.x| <= 2 expressed linearly.
  SubsumptionSpec spec = MakeSpec(
      {"x"}, {"x"}, "l.x - r.x <= 2 AND r.x - l.x <= 2");
  CheckAgainstGroundTruth(spec, 5, 8);
}

TEST(Subsumption, ScaledComparison) {
  SubsumptionSpec spec = MakeSpec({"x"}, {"x"}, "2 * l.x < r.x");
  CheckAgainstGroundTruth(spec, 4, 10);
}

TEST(Subsumption, StringEqualityRouting) {
  // The complex query's T1.attr = S1.attr with string attr: handled as an
  // equality residue; the numeric part still derives.
  std::vector<DataType> types = {DataType::kString, DataType::kInt64,
                                 DataType::kString, DataType::kInt64};
  SubsumptionSpec spec = MakeSpec({"attr", "val"}, {"attr", "val"},
                                  "r.attr = l.attr AND r.val > l.val", types);
  Result<SubsumptionTest> test = DeriveSubsumption(spec);
  ASSERT_TRUE(test.ok()) << test.status().ToString();
  Row w{Value::Str("hits"), Value::Int(5)};
  Row wp_same{Value::Str("hits"), Value::Int(7)};
  Row wp_diff{Value::Str("sb"), Value::Int(7)};
  EXPECT_TRUE(test->Subsumes(w, wp_same));    // same attr, smaller val
  EXPECT_FALSE(test->Subsumes(wp_same, w));   // larger val
  EXPECT_FALSE(test->Subsumes(w, wp_diff));   // different attr
  std::vector<size_t> eq = test->EqualityPositions();
  EXPECT_EQ(eq, std::vector<size_t>{0});
}

TEST(Subsumption, NonLinearFailsGracefully) {
  SubsumptionSpec spec = MakeSpec({"x"}, {"x"}, "l.x * r.x > 4");
  Result<SubsumptionTest> test = DeriveSubsumption(spec);
  EXPECT_FALSE(test.ok());
  EXPECT_EQ(test.status().code(), StatusCode::kNotSupported);
}

TEST(Subsumption, EqualityPositionsFromFormula) {
  // Numeric equality is expressed inside the formula (not the residue) but
  // EqualityPositions must still find it.
  SubsumptionSpec spec = MakeSpec({"c", "v"}, {"c", "v"},
                                  "l.c = r.c AND r.v > l.v");
  Result<SubsumptionTest> test = DeriveSubsumption(spec);
  ASSERT_TRUE(test.ok()) << test.status().ToString();
  std::vector<size_t> eq = test->EqualityPositions();
  EXPECT_EQ(eq, std::vector<size_t>{0});
  CheckAgainstGroundTruth(spec, 3, 5);
}

TEST(Subsumption, RsideLocalPredicateIgnoredCorrectly) {
  // A predicate touching only R restricts both sides identically and must
  // not break the derivation.
  SubsumptionSpec spec =
      MakeSpec({"x"}, {"x", "z"}, "l.x < r.x AND r.z > 0");
  CheckAgainstGroundTruth(spec, 4, 4);
}

TEST(Subsumption, ArithmeticInTheta) {
  SubsumptionSpec spec =
      MakeSpec({"x", "y"}, {"x"}, "l.x + l.y < r.x");
  CheckAgainstGroundTruth(spec, 3, 8);
}

// ---------------------------------------------------------------------------
// The compiled p>= (CompiledSubsumption) against Subsumes
// ---------------------------------------------------------------------------

/// NLJP's witness buckets: bindings meet only when they agree (RowEq, the
/// residue's own Compare) on every equality position.
bool SameBucket(const SubsumptionTest& test, const Row& a, const Row& b) {
  for (size_t pos : test.EqualityPositions()) {
    if (a[pos].Compare(b[pos]) != 0) return false;
  }
  return true;
}

/// A random binding value: mostly small ints and halves (integral doubles
/// included, so 1 meets 1.0), with NULLs and strings mixed in. String
/// positions draw mostly strings.
Value RandomValue(std::mt19937_64* rng, DataType type) {
  std::uniform_int_distribution<int> pick(0, 9);
  std::uniform_int_distribution<int> small(-3, 3);
  int p = pick(*rng);
  if (p == 0) return Value::Null();
  if (type == DataType::kString ? p <= 6 : p == 1) {
    return Value::Str(small(*rng) < 0 ? "hits" : "sb");
  }
  if (p <= 5) return Value::Int(small(*rng));
  return Value::Double(small(*rng) * 0.5 + (p == 9 ? 0.25 : 0.0));
}

void CheckCompiledAgainstSubsumes(const SubsumptionSpec& spec,
                                  uint64_t seed) {
  Result<SubsumptionTest> test = DeriveSubsumption(spec);
  ASSERT_TRUE(test.ok()) << test.status().ToString();
  const fme::CompiledSubsumption& compiled = test->compiled();
  const size_t width = spec.binding_offsets.size();
  ASSERT_EQ(compiled.width(), width);
  std::vector<size_t> identity(width);
  for (size_t i = 0; i < width; ++i) identity[i] = i;
  std::mt19937_64 rng(seed);
  std::vector<double> dw(width), dwp(width);
  size_t subsumed = 0;
  for (int pair = 0; pair < 10000; ++pair) {
    Row w, wp;
    for (size_t i = 0; i < width; ++i) {
      DataType type = spec.types_by_offset[spec.binding_offsets[i]];
      w.push_back(RandomValue(&rng, type));
      wp.push_back(RandomValue(&rng, type));
    }
    uint8_t bw = compiled.Decode(w, identity, dw.data());
    uint8_t bwp = compiled.Decode(wp, identity, dwp.data());
    bool bucket = SameBucket(*test, w, wp);
    for (bool swap : {false, true}) {
      const Row& a = swap ? wp : w;
      const Row& b = swap ? w : wp;
      bool expected = test->Subsumes(a, b);
      bool actual = bucket && (swap ? compiled.Test(dwp.data(), bwp,
                                                    dw.data(), bw)
                                    : compiled.Test(dw.data(), bw,
                                                    dwp.data(), bwp));
      ASSERT_EQ(actual, expected)
          << "w=" << RowToString(a) << " w'=" << RowToString(b)
          << " p>=: " << test->ToString();
      subsumed += expected ? 1 : 0;
    }
  }
  // Both outcomes occur, so the comparison covers each branch.
  EXPECT_GT(subsumed, 0u) << test->ToString();
  EXPECT_LT(subsumed, 20000u) << test->ToString();
}

TEST(CompiledSubsumption, MatchesSubsumesOnEveryDerivedShape) {
  const std::vector<DataType> strings = {DataType::kString, DataType::kInt64,
                                         DataType::kString, DataType::kInt64};
  const SubsumptionSpec specs[] = {
      MakeSpec({"x", "y"}, {"x", "y"}, "l.x < r.x AND l.y < r.y"),
      MakeSpec({"x", "y"}, {"x", "y"},
               "l.x <= r.x AND l.y <= r.y AND (l.x < r.x OR l.y < r.y)"),
      MakeSpec({"a", "b", "c", "d"}, {"a", "b", "c", "d"},
               "r.a >= l.a AND r.b >= l.b AND r.c >= l.c AND r.d >= l.d AND "
               "(r.a > l.a OR r.b > l.b OR r.c > l.c OR r.d > l.d)"),
      MakeSpec({"x", "y"}, {"x", "y"}, "l.x <= r.x AND l.y >= r.y"),
      MakeSpec({"x"}, {"x"}, "l.x - r.x <= 2 AND r.x - l.x <= 2"),
      MakeSpec({"x"}, {"x"}, "2 * l.x < r.x"),
      MakeSpec({"x", "y"}, {"x"}, "l.x + l.y < r.x"),
      MakeSpec({"attr", "val"}, {"attr", "val"},
               "r.attr = l.attr AND r.val > l.val", strings),
      MakeSpec({"c", "v"}, {"c", "v"}, "l.c = r.c AND r.v > l.v"),
      MakeSpec({"k"}, {"k"}, "l.k = r.k"),
  };
  uint64_t seed = 1;
  for (const SubsumptionSpec& spec : specs) {
    SCOPED_TRACE("spec " + std::to_string(seed));
    CheckCompiledAgainstSubsumes(spec, seed++);
  }
}

}  // namespace
}  // namespace iceberg
