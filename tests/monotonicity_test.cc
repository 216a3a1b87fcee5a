// Tests for the HAVING-condition classifier: the paper's Table 2 plus
// composition rules, corrected for MIN per Definition 1 (adding tuples can
// only lower a MIN, so MIN <= c is the monotone direction).

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <ostream>
#include <string>
#include <utility>

#include "src/parser/parser.h"
#include "src/rewrite/monotonicity.h"

namespace iceberg {
namespace {

Monotonicity Classify(const std::string& text, bool nonneg = false) {
  ExprPtr e = *ParseExpression(text);
  NonNegativeHint hint = [nonneg](const ExprPtr&) { return nonneg; };
  return ClassifyHaving(e, hint);
}

struct Table2Case {
  const char* condition;
  bool nonneg;
  Monotonicity expected;
};

class Table2Test : public ::testing::TestWithParam<Table2Case> {};

/// Prints a case by its content: comparison operators become words and
/// other punctuation an underscore, e.g. "COUNT(*) >= 20" -> "COUNT_ge_20";
/// "_nonneg" marks the non-negative domain hint. The test discovery names
/// each ctest case after this value, so it must not depend on the build
/// (gtest's default byte dump includes the condition's address).
void PrintTo(const Table2Case& c, std::ostream* os) {
  static const std::pair<const char*, const char*> kOps[] = {
      {"<>", "ne"}, {">=", "ge"}, {"<=", "le"},
      {">", "gt"},  {"<", "lt"},  {"=", "eq"}};
  std::string name;
  auto separate = [&name] {
    if (!name.empty() && name.back() != '_') name += '_';
  };
  const std::string cond = c.condition;
  for (size_t i = 0; i < cond.size();) {
    if (std::isalnum(static_cast<unsigned char>(cond[i]))) {
      name += cond[i++];
      continue;
    }
    bool matched = false;
    for (const auto& [op, word] : kOps) {
      if (cond.compare(i, std::strlen(op), op) == 0) {
        separate();
        name += std::string(word) + "_";
        i += std::strlen(op);
        matched = true;
        break;
      }
    }
    if (!matched) {
      separate();
      ++i;
    }
  }
  if (!name.empty() && name.back() == '_') name.pop_back();
  *os << name << (c.nonneg ? "_nonneg" : "");
}

TEST_P(Table2Test, Classification) {
  const Table2Case& c = GetParam();
  EXPECT_EQ(Classify(c.condition, c.nonneg), c.expected)
      << c.condition;
}

INSTANTIATE_TEST_SUITE_P(
    PaperTable2, Table2Test,
    ::testing::Values(
        // Monotone column of Table 2.
        Table2Case{"COUNT(*) >= 20", false, Monotonicity::kMonotone},
        Table2Case{"COUNT(a) >= 5", false, Monotonicity::kMonotone},
        Table2Case{"SUM(a) >= 100", true, Monotonicity::kMonotone},
        Table2Case{"MAX(a) >= 7", false, Monotonicity::kMonotone},
        Table2Case{"COUNT(DISTINCT a) >= 3", false, Monotonicity::kMonotone},
        // Anti-monotone column.
        Table2Case{"COUNT(*) <= 20", false, Monotonicity::kAntiMonotone},
        Table2Case{"COUNT(a) <= 5", false, Monotonicity::kAntiMonotone},
        Table2Case{"SUM(a) <= 100", true, Monotonicity::kAntiMonotone},
        Table2Case{"MAX(a) <= 7", false, Monotonicity::kAntiMonotone},
        Table2Case{"COUNT(DISTINCT a) <= 3", false,
                   Monotonicity::kAntiMonotone},
        // MIN per Definition 1 (see header comment).
        Table2Case{"MIN(a) <= 7", false, Monotonicity::kMonotone},
        Table2Case{"MIN(a) >= 7", false, Monotonicity::kAntiMonotone},
        // Strict comparisons behave like their weak counterparts.
        Table2Case{"COUNT(*) > 20", false, Monotonicity::kMonotone},
        Table2Case{"COUNT(*) < 20", false, Monotonicity::kAntiMonotone},
        // SUM without the non-negative domain guarantee is unknown.
        Table2Case{"SUM(a) >= 100", false, Monotonicity::kNeither},
        Table2Case{"SUM(a) <= 100", false, Monotonicity::kNeither},
        // AVG and equality are never monotone.
        Table2Case{"AVG(a) >= 3", false, Monotonicity::kNeither},
        Table2Case{"COUNT(*) = 20", false, Monotonicity::kNeither},
        Table2Case{"COUNT(*) <> 20", false, Monotonicity::kNeither}));

TEST(Monotonicity, ConstantOnLeftFlips) {
  EXPECT_EQ(Classify("20 <= COUNT(*)"), Monotonicity::kMonotone);
  EXPECT_EQ(Classify("20 >= COUNT(*)"), Monotonicity::kAntiMonotone);
}

TEST(Monotonicity, ConjunctionComposition) {
  EXPECT_EQ(Classify("COUNT(*) >= 2 AND MAX(a) >= 5"),
            Monotonicity::kMonotone);
  EXPECT_EQ(Classify("COUNT(*) <= 2 AND MAX(a) <= 5"),
            Monotonicity::kAntiMonotone);
  EXPECT_EQ(Classify("COUNT(*) >= 2 AND COUNT(*) <= 5"),
            Monotonicity::kNeither);
}

TEST(Monotonicity, DisjunctionComposition) {
  EXPECT_EQ(Classify("COUNT(*) >= 2 OR MAX(a) >= 5"),
            Monotonicity::kMonotone);
  EXPECT_EQ(Classify("COUNT(*) <= 2 OR COUNT(*) >= 9"),
            Monotonicity::kNeither);
}

TEST(Monotonicity, NotFlips) {
  EXPECT_EQ(Classify("NOT COUNT(*) >= 20"), Monotonicity::kAntiMonotone);
  EXPECT_EQ(Classify("NOT COUNT(*) <= 20"), Monotonicity::kMonotone);
  EXPECT_EQ(Classify("NOT (NOT COUNT(*) >= 20)"), Monotonicity::kMonotone);
}

TEST(Monotonicity, NonAggregateConditions) {
  EXPECT_EQ(Classify("a >= 3"), Monotonicity::kNeither);
  EXPECT_EQ(Classify("COUNT(*) >= a"), Monotonicity::kNeither);  // non-const
  EXPECT_EQ(ClassifyHaving(nullptr), Monotonicity::kNeither);
}

TEST(Monotonicity, SumOfExpression) {
  // SUM(numSales * price) >= 1e6 from the paper's intro: monotone when the
  // hint confirms non-negativity of the product expression.
  EXPECT_EQ(Classify("SUM(numSales * price) >= 1000000", true),
            Monotonicity::kMonotone);
}

TEST(Monotonicity, Names) {
  EXPECT_STREQ(MonotonicityName(Monotonicity::kMonotone), "monotone");
  EXPECT_STREQ(MonotonicityName(Monotonicity::kAntiMonotone),
               "anti-monotone");
  EXPECT_STREQ(MonotonicityName(Monotonicity::kNeither), "neither");
}

}  // namespace
}  // namespace iceberg
