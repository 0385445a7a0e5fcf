#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "expr/expr.h"
#include "tests/test_util.h"
#include "types/date.h"

namespace qprog {
namespace {

using testutil::B;
using testutil::D;
using testutil::I;
using testutil::N;
using testutil::S;

Row EmptyRow() { return {}; }

TEST(ExprTest, ColumnRefAndLiteral) {
  Row row = {I(7), S("x")};
  EXPECT_EQ(eb::Col(0)->Eval(row).int64_value(), 7);
  EXPECT_EQ(eb::Col(1)->Eval(row).string_value(), "x");
  EXPECT_EQ(eb::Int(3)->Eval(row).int64_value(), 3);
  EXPECT_EQ(eb::Dbl(1.5)->Eval(row).double_value(), 1.5);
  EXPECT_EQ(eb::Str("q")->Eval(row).string_value(), "q");
}

TEST(ExprTest, Comparisons) {
  Row row = {I(5)};
  EXPECT_TRUE(eb::Eq(eb::Col(0), eb::Int(5))->Eval(row).bool_value());
  EXPECT_FALSE(eb::Ne(eb::Col(0), eb::Int(5))->Eval(row).bool_value());
  EXPECT_TRUE(eb::Lt(eb::Col(0), eb::Int(6))->Eval(row).bool_value());
  EXPECT_TRUE(eb::Le(eb::Col(0), eb::Int(5))->Eval(row).bool_value());
  EXPECT_TRUE(eb::Gt(eb::Col(0), eb::Int(4))->Eval(row).bool_value());
  EXPECT_TRUE(eb::Ge(eb::Col(0), eb::Int(5))->Eval(row).bool_value());
}

TEST(ExprTest, ComparisonWithNullIsNull) {
  Row row = {N()};
  EXPECT_TRUE(eb::Eq(eb::Col(0), eb::Int(5))->Eval(row).is_null());
  EXPECT_TRUE(eb::Lt(eb::Int(1), eb::Col(0))->Eval(row).is_null());
}

TEST(ExprTest, Arithmetic) {
  Row row = {I(10), I(3)};
  EXPECT_EQ(eb::Add(eb::Col(0), eb::Col(1))->Eval(row).int64_value(), 13);
  EXPECT_EQ(eb::Sub(eb::Col(0), eb::Col(1))->Eval(row).int64_value(), 7);
  EXPECT_EQ(eb::Mul(eb::Col(0), eb::Col(1))->Eval(row).int64_value(), 30);
  // Division always yields double.
  EXPECT_NEAR(eb::Div(eb::Col(0), eb::Col(1))->Eval(row).double_value(),
              10.0 / 3.0, 1e-12);
}

TEST(ExprTest, MixedArithmeticIsDouble) {
  Row row = {I(2), D(0.5)};
  Value v = eb::Mul(eb::Col(0), eb::Col(1))->Eval(row);
  EXPECT_EQ(v.type(), TypeId::kDouble);
  EXPECT_EQ(v.double_value(), 1.0);
}

TEST(ExprTest, DivisionByZeroIsNull) {
  Row row = {I(1), I(0)};
  EXPECT_TRUE(eb::Div(eb::Col(0), eb::Col(1))->Eval(row).is_null());
}

TEST(ExprTest, ArithmeticWithNullIsNull) {
  Row row = {N(), I(2)};
  EXPECT_TRUE(eb::Add(eb::Col(0), eb::Col(1))->Eval(row).is_null());
}

TEST(ExprTest, KleeneAnd) {
  Row t = {B(true)}, f = {B(false)}, n = {N()};
  auto and_tc = [](Row r1v, Value c2) {
    std::vector<ExprPtr> ch;
    ch.push_back(eb::Col(0));
    ch.push_back(eb::Lit(c2));
    return AndExpr(std::move(ch)).Eval(r1v);
  };
  EXPECT_TRUE(and_tc(t, Value::Bool(true)).bool_value());
  EXPECT_FALSE(and_tc(t, Value::Bool(false)).bool_value());
  EXPECT_TRUE(and_tc(t, Value::Null()).is_null());
  EXPECT_FALSE(and_tc(f, Value::Null()).bool_value());  // false AND null = false
  EXPECT_TRUE(and_tc(n, Value::Bool(true)).is_null());
  EXPECT_FALSE(and_tc(n, Value::Bool(false)).bool_value());
}

TEST(ExprTest, KleeneOr) {
  Row f = {B(false)}, n = {N()};
  auto or_tc = [](Row r1v, Value c2) {
    std::vector<ExprPtr> ch;
    ch.push_back(eb::Col(0));
    ch.push_back(eb::Lit(c2));
    return OrExpr(std::move(ch)).Eval(r1v);
  };
  EXPECT_TRUE(or_tc(f, Value::Bool(true)).bool_value());
  EXPECT_FALSE(or_tc(f, Value::Bool(false)).bool_value());
  EXPECT_TRUE(or_tc(f, Value::Null()).is_null());
  EXPECT_TRUE(or_tc(n, Value::Bool(true)).bool_value());  // null OR true = true
  EXPECT_TRUE(or_tc(n, Value::Bool(false)).is_null());
}

TEST(ExprTest, NotExpr) {
  EXPECT_FALSE(eb::Not(eb::Lit(Value::Bool(true)))->Eval(EmptyRow()).bool_value());
  EXPECT_TRUE(eb::Not(eb::Lit(Value::Bool(false)))->Eval(EmptyRow()).bool_value());
  EXPECT_TRUE(eb::Not(eb::Lit(Value::Null()))->Eval(EmptyRow()).is_null());
}

TEST(ExprTest, LikeMatcher) {
  EXPECT_TRUE(LikeExpr::Matches("hello", "hello"));
  EXPECT_TRUE(LikeExpr::Matches("hello", "h%"));
  EXPECT_TRUE(LikeExpr::Matches("hello", "%llo"));
  EXPECT_TRUE(LikeExpr::Matches("hello", "%ell%"));
  EXPECT_TRUE(LikeExpr::Matches("hello", "h_llo"));
  EXPECT_FALSE(LikeExpr::Matches("hello", "h_y%"));
  EXPECT_TRUE(LikeExpr::Matches("", "%"));
  EXPECT_FALSE(LikeExpr::Matches("", "_"));
  EXPECT_TRUE(LikeExpr::Matches("abcabc", "%abc"));
  EXPECT_TRUE(LikeExpr::Matches("green metallic", "%green%"));
  EXPECT_FALSE(LikeExpr::Matches("gree", "%green%"));
  EXPECT_TRUE(LikeExpr::Matches("xxyxx", "%x_x%"));
  EXPECT_TRUE(LikeExpr::Matches("a", "%%%a%%"));
}

// Every string of length 0..max_len over `alphabet`, shortest first.
std::vector<std::string> AllStrings(std::string_view alphabet, size_t max_len) {
  std::vector<std::string> out = {""};
  for (size_t begin = 0; begin < out.size(); ++begin) {
    if (out[begin].size() == max_len) continue;
    for (char c : alphabet) out.push_back(out[begin] + c);
  }
  return out;
}

TEST(ExprTest, CompiledLikePatternAgreesWithTheReferenceMatcher) {
  // Exhaustive over small alphabets: overlapping anchors ('a%a' on "a"),
  // repeated segments and runs of '%' all meet here.
  const std::vector<std::string> patterns = AllStrings("ab%_", 4);
  const std::vector<std::string> texts = AllStrings("ab", 5);
  for (const std::string& pattern : patterns) {
    const LikePattern compiled(pattern);
    for (const std::string& text : texts) {
      ASSERT_EQ(compiled.Matches(text), LikeExpr::Matches(text, pattern))
          << "'" << text << "' LIKE '" << pattern << "'";
    }
  }
  EXPECT_EQ(patterns.size(), 341u);
  EXPECT_EQ(texts.size(), 63u);
}

TEST(ExprTest, LikeAndNotLike) {
  Row row = {S("PROMO BRUSHED")};
  EXPECT_TRUE(eb::Like(eb::Col(0), "PROMO%")->Eval(row).bool_value());
  EXPECT_FALSE(eb::NotLike(eb::Col(0), "PROMO%")->Eval(row).bool_value());
  Row null_row = {N()};
  EXPECT_TRUE(eb::Like(eb::Col(0), "x%")->Eval(null_row).is_null());
}

TEST(ExprTest, InList) {
  Row row = {S("FRANCE")};
  std::vector<Value> list = {S("FRANCE"), S("GERMANY")};
  EXPECT_TRUE(eb::In(eb::Col(0), list)->Eval(row).bool_value());
  EXPECT_FALSE(eb::NotIn(eb::Col(0), list)->Eval(row).bool_value());
  Row miss = {S("KENYA")};
  EXPECT_FALSE(eb::In(eb::Col(0), list)->Eval(miss).bool_value());
  Row null_row = {N()};
  EXPECT_TRUE(eb::In(eb::Col(0), list)->Eval(null_row).is_null());
}

TEST(ExprTest, InListWithNullItemIsUnknownWithoutAMatch) {
  // SQL three-valued logic: `2 NOT IN (1, NULL)` is NULL, not TRUE, because
  // the NULL item might be 2; `2 IN (1, NULL)` is NULL, not FALSE.
  const std::vector<Value> list = {I(1), N()};
  const Row two = {I(2)};
  EXPECT_TRUE(eb::NotIn(eb::Col(0), list)->Eval(two).is_null());
  EXPECT_TRUE(eb::In(eb::Col(0), list)->Eval(two).is_null());
  // A match decides regardless of the NULL item.
  const Row one = {I(1)};
  EXPECT_TRUE(eb::In(eb::Col(0), list)->Eval(one).bool_value());
  EXPECT_FALSE(eb::NotIn(eb::Col(0), list)->Eval(one).bool_value());
  // A list of NULLs only matches nothing and is always unknown.
  EXPECT_TRUE(eb::NotIn(eb::Col(0), {N()})->Eval(two).is_null());
  // Without a NULL item the answers stay two-valued.
  EXPECT_TRUE(eb::NotIn(eb::Col(0), {I(1)})->Eval(two).bool_value());
  EXPECT_FALSE(eb::In(eb::Col(0), {I(1)})->Eval(two).bool_value());
}

TEST(ExprTest, IsNull) {
  Row row = {N(), I(1)};
  EXPECT_TRUE(eb::IsNull(eb::Col(0))->Eval(row).bool_value());
  EXPECT_FALSE(eb::IsNull(eb::Col(1))->Eval(row).bool_value());
  EXPECT_FALSE(eb::IsNotNull(eb::Col(0))->Eval(row).bool_value());
  EXPECT_TRUE(eb::IsNotNull(eb::Col(1))->Eval(row).bool_value());
}

TEST(ExprTest, Between) {
  Row row = {I(5)};
  EXPECT_TRUE(eb::Between(eb::Col(0), eb::Int(5), eb::Int(10))
                  ->Eval(row)
                  .bool_value());
  EXPECT_TRUE(eb::Between(eb::Col(0), eb::Int(1), eb::Int(5))
                  ->Eval(row)
                  .bool_value());
  EXPECT_FALSE(eb::Between(eb::Col(0), eb::Int(6), eb::Int(10))
                   ->Eval(row)
                   .bool_value());
}

TEST(ExprTest, CaseExpr) {
  std::vector<CaseExpr::Branch> branches;
  branches.push_back({eb::Gt(eb::Col(0), eb::Int(10)), eb::Str("big")});
  branches.push_back({eb::Gt(eb::Col(0), eb::Int(5)), eb::Str("mid")});
  CaseExpr c(std::move(branches), eb::Str("small"));
  EXPECT_EQ(c.Eval({I(20)}).string_value(), "big");
  EXPECT_EQ(c.Eval({I(7)}).string_value(), "mid");
  EXPECT_EQ(c.Eval({I(1)}).string_value(), "small");
}

TEST(ExprTest, CaseWithoutElseIsNull) {
  std::vector<CaseExpr::Branch> branches;
  branches.push_back({eb::Gt(eb::Col(0), eb::Int(10)), eb::Str("big")});
  CaseExpr c(std::move(branches), nullptr);
  EXPECT_TRUE(c.Eval({I(1)}).is_null());
}

TEST(ExprTest, ExtractYear) {
  Row row = {testutil::Dt("1995-03-15")};
  EXPECT_EQ(eb::Year(eb::Col(0))->Eval(row).int64_value(), 1995);
  EXPECT_TRUE(eb::Year(eb::Col(0))->Eval({N()}).is_null());
}

TEST(ExprTest, Substring) {
  Row row = {S("13-555-7890")};
  EXPECT_EQ(eb::Substr(eb::Col(0), 1, 2)->Eval(row).string_value(), "13");
  EXPECT_EQ(eb::Substr(eb::Col(0), 4, 3)->Eval(row).string_value(), "555");
  EXPECT_EQ(eb::Substr(eb::Col(0), 100, 2)->Eval(row).string_value(), "");
}

TEST(ExprTest, DateLiteralAndComparison) {
  Row row = {testutil::Dt("1994-01-01")};
  EXPECT_TRUE(
      eb::Lt(eb::Col(0), eb::DateLit("1995-01-01"))->Eval(row).bool_value());
  EXPECT_FALSE(
      eb::Lt(eb::Col(0), eb::DateLit("1993-06-01"))->Eval(row).bool_value());
}

TEST(ExprTest, CloneIsDeep) {
  ExprPtr e = eb::And(eb::Gt(eb::Col(0), eb::Int(1)),
                      eb::Like(eb::Col(1), "x%"));
  ExprPtr c = e->Clone();
  Row row = {I(2), S("xyz")};
  EXPECT_TRUE(c->Eval(row).bool_value());
  EXPECT_EQ(e->ToString(), c->ToString());
}

TEST(ExprTest, ToStringRenders) {
  ExprPtr e = eb::Ge(eb::Col(0, "l_quantity"), eb::Int(24));
  EXPECT_EQ(e->ToString(), "(l_quantity >= 24)");
  EXPECT_EQ(eb::Str("x")->ToString(), "'x'");
  EXPECT_EQ(eb::DateLit("1995-01-01")->ToString(), "DATE '1995-01-01'");
  EXPECT_EQ(eb::Col(3)->ToString(), "$3");
}

TEST(ExprTest, ReferencedColumnsCoversEveryKind) {
  std::vector<CaseExpr::Branch> branches;
  branches.push_back({eb::Gt(eb::Col(1), eb::Int(10)), eb::Col(4)});
  struct Case {
    ExprPtr expr;
    std::vector<size_t> columns;
  };
  std::vector<Case> cases;
  cases.push_back({eb::Col(3), {3}});
  cases.push_back({eb::Int(7), {}});
  cases.push_back({eb::Lt(eb::Col(2), eb::Col(0)), {0, 2}});
  cases.push_back({eb::Mul(eb::Col(5), eb::Sub(eb::Int(1), eb::Col(6))),
                   {5, 6}});
  std::vector<ExprPtr> conjuncts;
  conjuncts.push_back(eb::Gt(eb::Col(1), eb::Int(0)));
  conjuncts.push_back(eb::Lt(eb::Col(1), eb::Int(9)));
  conjuncts.push_back(eb::Eq(eb::Col(8), eb::Int(2)));
  cases.push_back({eb::And(std::move(conjuncts)), {1, 8}});
  cases.push_back(
      {eb::Or(eb::IsNull(eb::Col(4)), eb::Eq(eb::Col(2), eb::Int(1))), {2, 4}});
  cases.push_back({eb::Not(eb::Gt(eb::Col(9), eb::Int(0))), {9}});
  cases.push_back({eb::Like(eb::Col(7), "x%"), {7}});
  cases.push_back({eb::In(eb::Col(3), {I(1), I(2)}), {3}});
  cases.push_back({eb::IsNotNull(eb::Col(0)), {0}});
  cases.push_back({std::make_unique<CaseExpr>(std::move(branches), eb::Col(0)),
                   {0, 1, 4}});
  cases.push_back({eb::Year(eb::Col(10)), {10}});
  cases.push_back({eb::Substr(eb::Col(11), 1, 2), {11}});
  std::set<ExprKind> kinds;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.expr->ToString());
    kinds.insert(c.expr->kind());
    EXPECT_EQ(ReferencedColumns(*c.expr), c.columns);
  }
  // One case per ExprKind, kColumnRef through kSubstring.
  EXPECT_EQ(kinds.size(), static_cast<size_t>(ExprKind::kSubstring) + 1);
}

TEST(ExprTest, ForEachColumnRefVisitsInPreOrder) {
  ExprPtr e = eb::And(eb::Gt(eb::Col(4, "b"), eb::Col(1, "a")),
                      eb::Eq(eb::Col(4, "b"), eb::Int(3)));
  std::vector<std::string> seen;
  ForEachColumnRef(*e, [&](const ColumnRefExpr& ref) {
    seen.push_back(ref.ToString());
  });
  EXPECT_EQ(seen, (std::vector<std::string>{"b", "a", "b"}));
}

}  // namespace
}  // namespace qprog
