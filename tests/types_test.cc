#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "storage/spill_file.h"
#include "types/compare_op.h"
#include "types/date.h"
#include "types/schema.h"
#include "types/string_arena.h"
#include "types/value.h"

namespace qprog {
namespace {

TEST(ValueTest, NullByDefault) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), TypeId::kNull);
  EXPECT_EQ(v.ToString(), "NULL");
}

TEST(ValueTest, TypedAccessors) {
  EXPECT_EQ(Value::Int64(7).int64_value(), 7);
  EXPECT_EQ(Value::Double(1.5).double_value(), 1.5);
  EXPECT_EQ(Value::Bool(true).bool_value(), true);
  EXPECT_EQ(Value::String("x").string_value(), "x");
  EXPECT_EQ(Value::Date(100).date_value(), 100);
}

TEST(ValueTest, AsDoubleCoercions) {
  EXPECT_EQ(Value::Int64(3).AsDouble(), 3.0);
  EXPECT_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::Date(10).AsDouble(), 10.0);
  EXPECT_EQ(Value::Bool(true).AsDouble(), 1.0);
}

TEST(ValueTest, NumericCrossTypeCompare) {
  EXPECT_EQ(Value::Int64(1).Compare(Value::Double(1.0)), 0);
  EXPECT_LT(Value::Int64(1).Compare(Value::Double(1.5)), 0);
  EXPECT_GT(Value::Double(2.5).Compare(Value::Int64(2)), 0);
}

TEST(ValueTest, StringCompare) {
  EXPECT_LT(Value::String("abc").Compare(Value::String("abd")), 0);
  EXPECT_EQ(Value::String("x").Compare(Value::String("x")), 0);
}

TEST(ValueTest, LargeInt64ComparedExactly) {
  // Beyond double's 53-bit mantissa; int64 path must stay exact.
  int64_t big = (int64_t{1} << 60) + 1;
  EXPECT_GT(Value::Int64(big).Compare(Value::Int64(big - 1)), 0);
  EXPECT_EQ(Value::Int64(big).Compare(Value::Int64(big)), 0);
}

TEST(ValueTest, GroupingEqualityTreatsNullEqual) {
  EXPECT_TRUE(Value::Null().EqualsForGrouping(Value::Null()));
  EXPECT_FALSE(Value::Null().EqualsForGrouping(Value::Int64(0)));
  EXPECT_TRUE(Value::Int64(1).EqualsForGrouping(Value::Double(1.0)));
  EXPECT_FALSE(Value::String("1").EqualsForGrouping(Value::Int64(1)));
}

TEST(ValueTest, HashConsistentWithGroupingEquality) {
  EXPECT_EQ(Value::Int64(5).Hash(), Value::Double(5.0).Hash());
  EXPECT_EQ(Value::Null().Hash(), Value::Null().Hash());
  EXPECT_EQ(Value::String("q").Hash(), Value::String("q").Hash());
}

TEST(ValueTest, ToStringFormats) {
  EXPECT_EQ(Value::Int64(-3).ToString(), "-3");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
  EXPECT_EQ(Value::Date(0).ToString(), "1970-01-01");
}

// ---------------------------------------------------------------------------
// The 16-byte cell and string ownership (DESIGN.md §2, "String ownership")

/// One value of every TypeId, with VARCHARs for the empty string and for a
/// string with an embedded NUL. `strings` owns the VARCHAR bytes.
std::vector<Value> OneOfEachType(StringArena* strings) {
  const std::string with_nul("a\0b", 3);
  return {Value::Null(),
          Value::Bool(true),
          Value::Int64(-7),
          Value::Double(2.5),
          Value::Date(9000),
          Value::String(strings->Copy("")),
          Value::String(strings->Copy(with_nul))};
}

TEST(ValueTest, EveryTypeSurvivesAByteCopy) {
  StringArena strings;
  std::vector<Value> values = OneOfEachType(&strings);
  std::set<TypeId> types;
  for (const Value& v : values) {
    SCOPED_TRACE(TypeIdToString(v.type()));
    types.insert(v.type());
    Value copy;
    std::memcpy(static_cast<void*>(&copy), &v, sizeof(Value));
    EXPECT_EQ(copy.type(), v.type());
    EXPECT_TRUE(copy.EqualsForGrouping(v));
    EXPECT_EQ(copy.Hash(), v.Hash());
    EXPECT_EQ(copy.ToString(), v.ToString());
  }
  EXPECT_EQ(types.size(), 6u) << "not every TypeId is covered";
}

TEST(ValueTest, VarcharHashesAndComparesItsBytes) {
  // Hashing a view equals hashing the same bytes as a std::string, so hash
  // tables and Grace routing order rows exactly as before views.
  const std::string with_nul("a\0b", 3);
  for (const std::string& s : {std::string(), with_nul, std::string("q")}) {
    Value v = Value::String(s);
    EXPECT_EQ(v.string_value().size(), s.size());
    EXPECT_EQ(v.Hash(), std::hash<std::string>()(s));
    EXPECT_EQ(v.ToString(), s);
  }
  Value nul = Value::String(with_nul);
  EXPECT_GT(nul.Compare(Value::String("a")), 0);
  EXPECT_FALSE(nul.EqualsForGrouping(Value::String("a")));
  EXPECT_EQ(Value::String("").Compare(Value::String(std::string_view())), 0);
}

TEST(ValueTest, SpillBytesRoundTripEveryType) {
  StringArena strings;
  Row row = OneOfEachType(&strings);
  std::string bytes;
  AppendRowBytes(row, &bytes);
  Row back;
  auto decoded = std::make_unique<StringArena>();
  ASSERT_TRUE(ParseRowBytes(bytes, decoded.get(), &back).ok());
  bytes.assign(bytes.size(), 'x');  // the decoded row must not view `bytes`
  StringArena keeper;
  keeper.Adopt(decoded.get());
  decoded.reset();
  ASSERT_EQ(back.size(), row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(back[i].type(), row[i].type());
    EXPECT_TRUE(back[i].EqualsForGrouping(row[i])) << i;
  }
}

TEST(StringArenaTest, CopiesOutliveTheirSourceAndStayPutAcrossChunks) {
  StringArena arena;
  std::vector<std::string_view> views;
  std::vector<std::string> expected;
  for (int i = 0; i < 5000; ++i) {
    std::string source(static_cast<size_t>(i % 97),
                       static_cast<char>('a' + i % 26));
    if (i % 500 == 0) source += std::string(70000, 'z');  // over a chunk
    views.push_back(arena.Copy(source));
    expected.push_back(source);
  }
  StringArena adopter;
  adopter.Adopt(&arena);
  EXPECT_EQ(arena.bytes(), 0u);
  StringArena moved(std::move(adopter));
  EXPECT_EQ(adopter.bytes(), 0u);
  // Emptied arenas copy into fresh chunks, never into ones they gave away.
  for (StringArena* emptied : {&arena, &adopter}) {
    EXPECT_EQ(emptied->Copy(std::string(300, '!')), std::string(300, '!'));
  }
  for (size_t i = 0; i < views.size(); ++i) {
    ASSERT_EQ(views[i], expected[i]) << i;
  }
  EXPECT_GE(moved.bytes(), 5000u);
}

TEST(StringArenaTest, OwnLeavesNonStringsAloneAndOwnStringsRepointsRows) {
  StringArena arena;
  for (const Value& v : {Value::Null(), Value::Int64(3), Value::Date(1)}) {
    Value owned = arena.Own(v);
    EXPECT_EQ(owned.type(), v.type());
    EXPECT_TRUE(owned.EqualsForGrouping(v));
  }
  EXPECT_EQ(arena.bytes(), 0u);
  std::vector<Row> rows;
  std::shared_ptr<const StringArena> owner;
  {
    std::string local = "lives on the stack";
    rows.push_back({Value::Int64(1), Value::String(local)});
    owner = OwnStrings(&rows);
    local.assign(local.size(), '#');
  }
  EXPECT_EQ(rows[0][1].string_value(), "lives on the stack");
}

TEST(RowTest, RowHashAndEquality) {
  Row a = {Value::Int64(1), Value::String("x")};
  Row b = {Value::Double(1.0), Value::String("x")};
  Row c = {Value::Int64(2), Value::String("x")};
  EXPECT_TRUE(RowEq()(a, b));
  EXPECT_EQ(RowHash()(a), RowHash()(b));
  EXPECT_FALSE(RowEq()(a, c));
  EXPECT_FALSE(RowEq()(a, Row{Value::Int64(1)}));
}

TEST(RowTest, RowToString) {
  Row r = {Value::Int64(1), Value::Null()};
  EXPECT_EQ(RowToString(r), "(1, NULL)");
}

TEST(DateTest, EpochRoundTrip) {
  EXPECT_EQ(DaysFromCivil(1970, 1, 1), 0);
  int y, m, d;
  CivilFromDays(0, &y, &m, &d);
  EXPECT_EQ(y, 1970);
  EXPECT_EQ(m, 1);
  EXPECT_EQ(d, 1);
}

TEST(DateTest, KnownDates) {
  EXPECT_EQ(DaysFromCivil(1970, 1, 2), 1);
  EXPECT_EQ(DaysFromCivil(1969, 12, 31), -1);
  EXPECT_EQ(DaysFromCivil(2000, 3, 1), 11017);
}

TEST(DateTest, RoundTripManyDates) {
  for (int32_t days = -20000; days <= 40000; days += 137) {
    int y, m, d;
    CivilFromDays(days, &y, &m, &d);
    EXPECT_EQ(DaysFromCivil(y, m, d), days);
  }
}

TEST(DateTest, ParseAndFormat) {
  auto d = ParseDate("1995-03-15");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(FormatDate(d.value()), "1995-03-15");
  EXPECT_FALSE(ParseDate("not-a-date").ok());
  EXPECT_FALSE(ParseDate("1995-13-01").ok());
  EXPECT_FALSE(ParseDate("1995-02-30").ok());
}

TEST(DateTest, LeapYearHandling) {
  EXPECT_TRUE(ParseDate("2000-02-29").ok());   // 400-divisible
  EXPECT_FALSE(ParseDate("1900-02-29").ok());  // 100 not 400
  EXPECT_TRUE(ParseDate("1996-02-29").ok());
}

TEST(DateTest, AddMonthsClampsDay) {
  int32_t jan31 = ParseDate("1995-01-31").value();
  EXPECT_EQ(FormatDate(AddMonths(jan31, 1)), "1995-02-28");
  EXPECT_EQ(FormatDate(AddMonths(jan31, -1)), "1994-12-31");
  int32_t d = ParseDate("1995-06-15").value();
  EXPECT_EQ(FormatDate(AddMonths(d, 3)), "1995-09-15");
  EXPECT_EQ(FormatDate(AddMonths(d, 12)), "1996-06-15");
}

TEST(DateTest, AddYears) {
  int32_t feb29 = ParseDate("1996-02-29").value();
  EXPECT_EQ(FormatDate(AddYears(feb29, 1)), "1997-02-28");
  EXPECT_EQ(FormatDate(AddYears(feb29, 4)), "2000-02-29");
}

TEST(SchemaTest, FindField) {
  Schema s({{"a", TypeId::kInt64}, {"b", TypeId::kString}});
  EXPECT_EQ(s.FindField("a"), 0);
  EXPECT_EQ(s.FindField("b"), 1);
  EXPECT_EQ(s.FindField("c"), -1);
  EXPECT_EQ(s.num_fields(), 2u);
}

TEST(SchemaTest, Concat) {
  Schema l({{"a", TypeId::kInt64}});
  Schema r({{"b", TypeId::kDouble}, {"c", TypeId::kString}});
  Schema joined = Schema::Concat(l, r);
  EXPECT_EQ(joined.num_fields(), 3u);
  EXPECT_EQ(joined.field(2).name, "c");
}

TEST(SchemaTest, ToString) {
  Schema s({{"a", TypeId::kInt64}});
  EXPECT_EQ(s.ToString(), "a:BIGINT");
}

TEST(CompareOpTest, EvalAllOps) {
  EXPECT_TRUE(EvalCompareOp(CompareOp::kEq, 0));
  EXPECT_FALSE(EvalCompareOp(CompareOp::kEq, 1));
  EXPECT_TRUE(EvalCompareOp(CompareOp::kNe, -1));
  EXPECT_TRUE(EvalCompareOp(CompareOp::kLt, -1));
  EXPECT_TRUE(EvalCompareOp(CompareOp::kLe, 0));
  EXPECT_FALSE(EvalCompareOp(CompareOp::kLe, 1));
  EXPECT_TRUE(EvalCompareOp(CompareOp::kGt, 1));
  EXPECT_TRUE(EvalCompareOp(CompareOp::kGe, 0));
}

TEST(CompareOpTest, Names) {
  EXPECT_STREQ(CompareOpToString(CompareOp::kLe), "<=");
  EXPECT_STREQ(CompareOpToString(CompareOp::kNe), "<>");
}

}  // namespace
}  // namespace qprog
