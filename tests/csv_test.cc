// CSV import/export round trips and error handling.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "storage/csv.h"
#include "tests/test_util.h"

namespace qprog {
namespace {

using testutil::D;
using testutil::Dt;
using testutil::I;
using testutil::N;
using testutil::S;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

Schema MixedSchema() {
  return Schema({{"id", TypeId::kInt64},
                 {"price", TypeId::kDouble},
                 {"day", TypeId::kDate},
                 {"note", TypeId::kString},
                 {"flag", TypeId::kBool}});
}

TEST(CsvTest, SplitRecordBasics) {
  auto fields = SplitCsvRecord("a,b,,d", ',');
  ASSERT_TRUE(fields.ok());
  ASSERT_EQ(fields->size(), 4u);
  EXPECT_EQ((*fields)[2], "");
}

TEST(CsvTest, SplitRecordQuoting) {
  auto fields = SplitCsvRecord("\"a,b\",\"he said \"\"hi\"\"\",c", ',');
  ASSERT_TRUE(fields.ok());
  ASSERT_EQ(fields->size(), 3u);
  EXPECT_EQ((*fields)[0], "a,b");
  EXPECT_EQ((*fields)[1], "he said \"hi\"");
}

TEST(CsvTest, SplitRecordErrors) {
  EXPECT_FALSE(SplitCsvRecord("\"unterminated", ',').ok());
  EXPECT_FALSE(SplitCsvRecord("ab\"cd", ',').ok());
}

TEST(CsvTest, RoundTripPreservesValues) {
  Table t = testutil::MakeTable(
      "t", {"id", "price", "day", "note", "flag"},
      {{I(1), D(9.5), Dt("1995-03-15"), S("plain"), testutil::B(true)},
       {I(-2), D(0.25), Dt("1970-01-01"), S("with, comma"), testutil::B(false)},
       {I(3), N(), Dt("2000-02-29"), S("quote \" inside"), N()}});
  // Rebuild with a typed schema so ReadCsv knows what to parse.
  Table typed("t", MixedSchema());
  for (uint64_t i = 0; i < t.num_rows(); ++i) {
    typed.AppendRow(testutil::RowAt(t, i));
  }

  std::string path = TempPath("roundtrip.csv");
  ASSERT_TRUE(WriteCsv(typed, path).ok());
  auto back = ReadCsv(path, "t2", MixedSchema());
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->num_rows(), 3u);
  for (uint64_t i = 0; i < 3; ++i) {
    Row got = testutil::RowAt(*back, i);
    Row want = testutil::RowAt(typed, i);
    EXPECT_TRUE(RowEq()(got, want)) << "row " << i << ": " << RowToString(got)
                                    << " vs " << RowToString(want);
  }
}

TEST(CsvTest, HeaderWrittenAndSkipped) {
  Table t("t", Schema({{"a", TypeId::kInt64}}));
  t.AppendRow({I(7)});
  std::string path = TempPath("header.csv");
  ASSERT_TRUE(WriteCsv(t, path).ok());
  std::ifstream in(path);
  std::string first;
  std::getline(in, first);
  EXPECT_EQ(first, "a");
  auto back = ReadCsv(path, "t", Schema({{"a", TypeId::kInt64}}));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 1u);
}

TEST(CsvTest, NoHeaderOption) {
  std::string path = TempPath("noheader.csv");
  {
    std::ofstream out(path);
    out << "1,x\n2,y\n";
  }
  CsvOptions options;
  options.has_header = false;
  auto t = ReadCsv(path, "t",
                   Schema({{"a", TypeId::kInt64}, {"b", TypeId::kString}}),
                   options);
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->at(1, 1).string_value(), "y");
}

TEST(CsvTest, NullTextOption) {
  std::string path = TempPath("nulls.csv");
  {
    std::ofstream out(path);
    out << "a\nNA\n5\n";
  }
  CsvOptions options;
  options.null_text = "NA";
  auto t = ReadCsv(path, "t", Schema({{"a", TypeId::kInt64}}), options);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->at(0, 0).is_null());
  EXPECT_EQ(t->at(1, 0).int64_value(), 5);
}

TEST(CsvTest, ParseErrorsReportLine) {
  std::string path = TempPath("bad.csv");
  {
    std::ofstream out(path);
    out << "a\n1\nnot_an_int\n";
  }
  auto t = ReadCsv(path, "t", Schema({{"a", TypeId::kInt64}}));
  ASSERT_FALSE(t.ok());
  EXPECT_NE(t.status().message().find("line 3"), std::string::npos);
}

TEST(CsvTest, ArityMismatchRejected) {
  std::string path = TempPath("arity.csv");
  {
    std::ofstream out(path);
    out << "a,b\n1,2,3\n";
  }
  auto t = ReadCsv(path, "t",
                   Schema({{"a", TypeId::kInt64}, {"b", TypeId::kInt64}}));
  EXPECT_FALSE(t.ok());
}

TEST(CsvTest, MissingFileIsNotFound) {
  auto t = ReadCsv("/nonexistent/nope.csv", "t",
                   Schema({{"a", TypeId::kInt64}}));
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kNotFound);
}

TEST(CsvTest, CustomDelimiter) {
  Table t("t", Schema({{"a", TypeId::kInt64}, {"b", TypeId::kString}}));
  t.AppendRow({I(1), S("x|y")});
  std::string path = TempPath("pipe.csv");
  CsvOptions options;
  options.delimiter = '|';
  ASSERT_TRUE(WriteCsv(t, path, options).ok());
  auto back = ReadCsv(path, "t",
                      Schema({{"a", TypeId::kInt64}, {"b", TypeId::kString}}),
                      options);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->at(0, 1).string_value(), "x|y");
}

}  // namespace
}  // namespace qprog
