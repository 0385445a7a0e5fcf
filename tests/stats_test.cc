#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "skyserver/skyserver.h"
#include "stats/histogram.h"
#include "stats/selectivity.h"
#include "stats/table_stats.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "tests/test_util.h"
#include "tpch/dbgen.h"

namespace qprog {
namespace {

using testutil::D;
using testutil::I;
using testutil::N;
using testutil::S;

std::vector<Row> UniformRows(int64_t n, int64_t domain, uint64_t seed) {
  Rng rng(seed);
  std::vector<Row> rows;
  for (int64_t i = 0; i < n; ++i) rows.push_back({I(rng.UniformInt(0, domain - 1))});
  return rows;
}

Table UniformTable(int64_t n, int64_t domain, uint64_t seed) {
  return testutil::MakeTable("t", {"a"}, UniformRows(n, domain, seed));
}

TEST(HistogramTest, CountsAndNulls) {
  Table t = testutil::MakeTable("t", {"a"}, {{I(1)}, {I(2)}, {N()}, {I(2)}});
  Histogram h = Histogram::Build(t, 0, 4);
  EXPECT_EQ(h.total_rows(), 4u);
  EXPECT_EQ(h.null_rows(), 1u);
  uint64_t count = 0;
  for (size_t b = 0; b < h.num_buckets(); ++b) count += h.bucket(b).count;
  EXPECT_EQ(count, 3u);
}

TEST(HistogramTest, EqualsEstimateOnUniformData) {
  Table t = UniformTable(10000, 100, 42);
  Histogram h = Histogram::Build(t, 0, 20);
  // ~100 rows per value.
  double est = h.EstimateEquals(I(50));
  EXPECT_NEAR(est, 100.0, 60.0);
  EXPECT_EQ(h.EstimateEquals(I(1000)), 0.0);
}

TEST(HistogramTest, RangeEstimateOnUniformData) {
  Table t = UniformTable(10000, 100, 43);
  Histogram h = Histogram::Build(t, 0, 20);
  double est = h.EstimateRange(I(0), true, false, I(49), true, false);
  EXPECT_NEAR(est / 10000.0, 0.5, 0.05);
  est = h.EstimateRange(Value::Null(), false, true, Value::Null(), false, true);
  EXPECT_NEAR(est, 10000.0, 1.0);  // unbounded both sides = all non-null rows
}

TEST(HistogramTest, EquiDepthBucketsBalanced) {
  Table t = UniformTable(10000, 1000, 44);
  Histogram h = Histogram::Build(t, 0, 10);
  ASSERT_GE(h.num_buckets(), 8u);
  for (size_t b = 0; b < h.num_buckets(); ++b) {
    EXPECT_GT(h.bucket(b).count, 500u);
    EXPECT_LT(h.bucket(b).count, 2000u);
  }
}

TEST(HistogramTest, EqualValuesDoNotStraddleBuckets) {
  // 1000 copies of one value must land in a single bucket.
  std::vector<Row> rows;
  for (int i = 0; i < 1000; ++i) rows.push_back({I(7)});
  for (int i = 0; i < 1000; ++i) rows.push_back({I(i + 100)});
  Table t = testutil::MakeTable("t", {"a"}, std::move(rows));
  Histogram h = Histogram::Build(t, 0, 16);
  EXPECT_NEAR(h.EstimateEquals(I(7)), 1000.0, 1.0);
}

TEST(HistogramTest, EmptyTable) {
  Table t = testutil::MakeTable("t", {"a"}, {});
  Histogram h = Histogram::Build(t, 0, 8);
  EXPECT_EQ(h.num_buckets(), 0u);
  EXPECT_EQ(h.EstimateEquals(I(1)), 0.0);
  EXPECT_EQ(h.EstimateRange(I(0), true, false, I(10), true, false), 0.0);
}

TEST(HistogramTest, StringColumn) {
  Table t = testutil::MakeTable("t", {"a"},
                                {{S("apple")}, {S("banana")}, {S("cherry")}});
  Histogram h = Histogram::Build(t, 0, 2);
  EXPECT_GT(h.EstimateEquals(S("banana")), 0.0);
  EXPECT_EQ(h.TotalDistinct(), 3u);
}

// The paper's lossiness requirement (Section 2.3): with a bounded bucket
// budget, one tuple's value can change within a bucket without changing the
// histogram's bucket boundaries/counts in a detectable way.
TEST(HistogramTest, LossyUnderBucketBudget) {
  Table t = UniformTable(10000, 10000, 45);
  Histogram h1 = Histogram::Build(t, 0, 8);
  // Change one row to another value inside the same bucket's range.
  const auto& b0 = h1.bucket(0);
  int64_t lo = b0.lower.int64_value();
  int64_t hi = b0.upper.int64_value();
  ASSERT_GT(hi, lo + 2);
  // Find a row in bucket 0 and nudge it within range.
  std::vector<Row> rows = UniformRows(10000, 10000, 45);
  for (Row& row : rows) {
    int64_t v = row[0].int64_value();
    if (v > lo && v < hi) {
      row[0] = I(v == lo + 1 ? lo + 2 : lo + 1);
      break;
    }
  }
  Table t2 = testutil::MakeTable("t", {"a"}, std::move(rows));
  Histogram h2 = Histogram::Build(t2, 0, 8);
  ASSERT_EQ(h1.num_buckets(), h2.num_buckets());
  for (size_t b = 0; b < h1.num_buckets(); ++b) {
    EXPECT_EQ(h1.bucket(b).count, h2.bucket(b).count);
  }
}

// The sort-then-scan construction that Histogram::Build replaced, kept as the
// reference its count path and its sort path must both reproduce.
struct ReferenceHistogram {
  std::vector<Histogram::Bucket> buckets;
  uint64_t null_rows = 0;
};

ReferenceHistogram ReferenceBuild(const Table& table, size_t column,
                                  size_t num_buckets) {
  ReferenceHistogram h;
  const Column& col = table.column(column);
  col.Visit([&](auto view) {
    using Key = typename decltype(view)::value_type;
    std::vector<Key> values;
    for (uint64_t i = 0; i < col.size(); ++i) {
      if (col.is_null(i)) {
        ++h.null_rows;
      } else {
        values.push_back(view[i]);
      }
    }
    std::sort(values.begin(), values.end());
    const uint64_t n = values.size();
    const uint64_t depth =
        std::max<uint64_t>(1, (n + num_buckets - 1) / num_buckets);
    size_t begin = 0;
    while (begin < n) {
      size_t end = std::min<size_t>(begin + depth, n);
      while (end < n && values[end] == values[end - 1]) ++end;
      Histogram::Bucket b;
      b.lower = decltype(view)::Box(values[begin]);
      b.upper = decltype(view)::Box(values[end - 1]);
      b.count = end - begin;
      b.distinct = 1;
      for (size_t i = begin + 1; i < end; ++i) {
        if (values[i] != values[i - 1]) ++b.distinct;
      }
      h.buckets.push_back(std::move(b));
      begin = end;
    }
  });
  return h;
}

// Value number `k` of a domain of `type`. DOUBLE's value 0 is 0.0 or -0.0 as
// `flip` says: the two are one value, so they share a run.
Value DomainValue(TypeId type, int64_t k, bool flip,
                  const std::vector<std::string>& strings) {
  switch (type) {
    case TypeId::kDouble:
      if (k == 0) return D(flip ? -0.0 : 0.0);
      return D((k % 2 == 0 ? -0.25 : 0.25) * static_cast<double>(k));
    case TypeId::kDate:
      return Value::Date(static_cast<int32_t>(9000 + 3 * k));
    case TypeId::kBool:
      return Value::Bool(k != 0);
    case TypeId::kString:
      return Value::String(strings[static_cast<size_t>(k)]);
    default:
      return I(k * 7 - 300);
  }
}

// A one-column table of `rows` rows holding exactly `distinct` distinct
// non-NULL values (each appears at least once) and about `null_share` NULLs.
// Draws are skewed towards small value numbers, so heavy runs straddle
// bucket edges.
Table EquivalenceColumn(TypeId type, uint64_t rows, int64_t distinct,
                        double null_share, uint64_t seed) {
  std::vector<std::string> strings;
  for (int64_t k = 0; k < distinct; ++k) {
    strings.push_back("v" + std::to_string((k * 37) % 1000) + "_" +
                      std::to_string(k));
  }
  Rng rng(seed);
  Table t("t", Schema({Field("a", type)}));
  for (uint64_t i = 0; i < rows; ++i) {
    bool flip = rng.Uniform(2) == 0;
    if (i < static_cast<uint64_t>(distinct)) {
      t.AppendRow(
          {DomainValue(type, static_cast<int64_t>(i), flip, strings)});
    } else if (rng.UniformDouble(0, 1) < null_share) {
      t.AppendRow({N()});
    } else {
      double u = rng.UniformDouble(0, 1);
      int64_t k = std::min<int64_t>(
          distinct - 1, static_cast<int64_t>(u * u * u * distinct));
      t.AppendRow({DomainValue(type, k, flip, strings)});
    }
  }
  return t;
}

void ExpectMatchesReference(const Table& t, size_t num_buckets,
                            const std::string& what) {
  Histogram got = Histogram::Build(t, 0, num_buckets);
  ReferenceHistogram want = ReferenceBuild(t, 0, num_buckets);
  EXPECT_EQ(got.null_rows(), want.null_rows) << what;
  ASSERT_EQ(got.num_buckets(), want.buckets.size()) << what;
  uint64_t distinct = 0;
  for (size_t b = 0; b < want.buckets.size(); ++b) {
    const Histogram::Bucket& g = got.bucket(b);
    const Histogram::Bucket& w = want.buckets[b];
    EXPECT_EQ(g.lower.type(), w.lower.type()) << what << " bucket " << b;
    EXPECT_EQ(g.lower.Compare(w.lower), 0) << what << " bucket " << b;
    EXPECT_EQ(g.upper.Compare(w.upper), 0) << what << " bucket " << b;
    EXPECT_EQ(g.count, w.count) << what << " bucket " << b;
    EXPECT_EQ(g.distinct, w.distinct) << what << " bucket " << b;
    distinct += w.distinct;
  }
  EXPECT_EQ(got.TotalDistinct(), distinct) << what;
}

// Build counts a column while its distinct values are at most one per
// kRowsPerCountedValue rows and sorts it past that; both sides of the
// cutover must give the reference's buckets, null count and distinct count.
TEST(HistogramTest, MatchesSortingReferenceOnBothSidesOfTheCutover) {
  const uint64_t rows = 1600;
  const int64_t cutover =
      static_cast<int64_t>(rows / Histogram::kRowsPerCountedValue);
  uint64_t seed = 100;
  for (TypeId type : {TypeId::kInt64, TypeId::kDouble, TypeId::kDate,
                      TypeId::kBool, TypeId::kString}) {
    std::vector<int64_t> distincts = {1, 2};
    if (type != TypeId::kBool) {
      distincts = {1, 7, cutover - 1, cutover, cutover + 1, 700};
    }
    for (int64_t distinct : distincts) {
      for (double null_share : {0.0, 0.25}) {
        Table t =
            EquivalenceColumn(type, rows, distinct, null_share, ++seed);
        ASSERT_EQ(ReferenceBuild(t, 0, 1).buckets.at(0).distinct,
                  static_cast<uint64_t>(distinct));
        for (size_t num_buckets : {1, 3, 32}) {
          ExpectMatchesReference(
              t, num_buckets,
              std::string(TypeIdToString(type)) + " distinct " +
                  std::to_string(distinct) + " nulls " +
                  std::to_string(null_share) + " buckets " +
                  std::to_string(num_buckets));
        }
      }
    }
  }
}

// FNV-1a 64 over Histogram::ToString() of every column (32 buckets), one
// digest per table.
std::map<std::string, uint64_t> HistogramDigests(const Database& db) {
  std::map<std::string, uint64_t> digests;
  for (const std::string& name : db.TableNames()) {
    const Table& t = *db.GetTable(name);
    std::string text;
    for (size_t c = 0; c < t.schema().num_fields(); ++c) {
      text += Histogram::Build(t, c, 32).ToString();
      text += "\n";
    }
    digests[name] = testutil::Fnv1a64(text);
  }
  return digests;
}

void ExpectDigests(const std::map<std::string, uint64_t>& got,
                   const std::map<std::string, uint64_t>& want) {
  EXPECT_EQ(got.size(), want.size());
  for (const auto& [name, digest] : got) {
    auto it = want.find(name);
    ASSERT_NE(it, want.end()) << name;
    EXPECT_EQ(digest, it->second) << name << " digest 0x" << std::hex << digest;
  }
}

// The pins below were recorded from the row-store implementation, which
// gathered each column into a std::vector<Value> sorted with Value::Compare.
// The typed column sort must reproduce every statistic exactly; a changed pin
// means the statistics changed, not the pin.
class TpchStatsGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    tpch::TpchConfig config;
    config.scale_factor = 0.01;
    config.z = 2.0;
    config.build_indexes = false;
    config.collect_stats = false;
    ASSERT_TRUE(tpch::GenerateTpch(config, db_).ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static Database* db_;
};

Database* TpchStatsGoldenTest::db_ = nullptr;

TEST_F(TpchStatsGoldenTest, HistogramsMatchPinnedDigests) {
  ExpectDigests(HistogramDigests(*db_), {
      {"customer", 0x69d4a65d37168dceULL},
      {"lineitem", 0x0e6d7c3aecaf1252ULL},
      {"nation", 0xa0a00dff6f21495fULL},
      {"orders", 0x4c3fce415f655d5aULL},
      {"part", 0x4aadbb8d16f84303ULL},
      {"partsupp", 0xd708355c0eb00538ULL},
      {"region", 0xfdec15692d446f3aULL},
      {"supplier", 0x7a1aef6fa876687dULL},
  });
}

TEST_F(TpchStatsGoldenTest, SampleStatisticsMatchPinnedDigests) {
  // The reservoir rows plus each column's null count, distinct count, min
  // and max.
  std::map<std::string, uint64_t> digests;
  for (const std::string& name : db_->TableNames()) {
    auto stats =
        SampleStatisticsGenerator(200, 5).Generate(*db_->GetTable(name));
    std::string text;
    for (const Row& row : stats->sample()) text += RowToString(row) + "\n";
    for (size_t c = 0; c < stats->num_columns(); ++c) {
      const ColumnStats& cs = stats->column(c);
      text += cs.name + " " + std::to_string(cs.null_count) + " " +
              std::to_string(cs.distinct) + " " + cs.min.ToString() + " " +
              cs.max.ToString() + "\n";
    }
    digests[name] = testutil::Fnv1a64(text);
  }
  ExpectDigests(digests, {
      {"customer", 0x409570115e192189ULL},
      {"lineitem", 0xd070c8ba13ac1e05ULL},
      {"nation", 0x9e0d2669330a9d7dULL},
      {"orders", 0x5a09b48810a2d3d2ULL},
      {"part", 0x29701e7de68dadbeULL},
      {"partsupp", 0xd6b9b52b74c7a3bdULL},
      {"region", 0xac7dfb81ee11d237ULL},
      {"supplier", 0xddb3290fcfa935fbULL},
  });
}

TEST(HistogramGoldenTest, SkyServerHistogramsMatchPinnedDigests) {
  Database db;
  skyserver::SkyServerConfig config;
  config.collect_stats = false;
  ASSERT_TRUE(skyserver::GenerateSkyServer(config, &db).ok());
  ExpectDigests(HistogramDigests(db), {
      {"neighbors", 0x43a012b50b6aae10ULL},
      {"photoobj", 0x981200677e39b972ULL},
      {"photoz", 0x844abb14ee43476dULL},
      {"specobj", 0x328f6aca918a7449ULL},
  });
}

TEST(StatsGeneratorTest, HistogramGeneratorBasics) {
  Table t = testutil::MakeTable("t", {"a", "b"},
                                {{I(1), S("x")}, {I(2), S("y")}, {N(), S("x")}});
  HistogramStatisticsGenerator gen(8);
  auto stats = gen.Generate(t);
  EXPECT_EQ(stats->row_count(), 3u);
  ASSERT_EQ(stats->num_columns(), 2u);
  EXPECT_EQ(stats->column(0).null_count, 1u);
  EXPECT_EQ(stats->column(0).distinct, 2u);
  EXPECT_EQ(stats->column(0).min.int64_value(), 1);
  EXPECT_EQ(stats->column(0).max.int64_value(), 2);
  EXPECT_EQ(stats->column(1).distinct, 2u);
  EXPECT_EQ(gen.name(), "histogram");
}

TEST(StatsGeneratorTest, SampleGeneratorReservoir) {
  Table t = UniformTable(5000, 100, 46);
  SampleStatisticsGenerator gen(100, /*seed=*/7);
  auto stats = gen.Generate(t);
  EXPECT_EQ(stats->row_count(), 5000u);
  EXPECT_EQ(stats->sample().size(), 100u);
  EXPECT_EQ(gen.name(), "sample");
  // Randomized generators are seed-deterministic.
  auto stats2 = SampleStatisticsGenerator(100, 7).Generate(t);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(RowEq()(stats->sample()[i], stats2->sample()[i]));
  }
}

TEST(StatsGeneratorTest, SampleSmallerTableTakesAll) {
  Table t = testutil::MakeTable("t", {"a"}, {{I(1)}, {I(2)}});
  SampleStatisticsGenerator gen(10, 1);
  auto stats = gen.Generate(t);
  EXPECT_EQ(stats->sample().size(), 2u);
}

TEST(SelectivityTest, EqualityFromHistogram) {
  Table t = UniformTable(10000, 100, 47);
  HistogramStatisticsGenerator gen(32);
  auto stats = gen.Generate(t);
  PredicateDesc pred{0, CompareOp::kEq, I(42)};
  double sel = EstimatePredicateSelectivity(*stats, pred);
  EXPECT_NEAR(sel, 0.01, 0.006);
}

TEST(SelectivityTest, RangeFromHistogram) {
  Table t = UniformTable(10000, 100, 48);
  HistogramStatisticsGenerator gen(32);
  auto stats = gen.Generate(t);
  PredicateDesc pred{0, CompareOp::kLt, I(25)};
  EXPECT_NEAR(EstimatePredicateSelectivity(*stats, pred), 0.25, 0.05);
  pred.op = CompareOp::kGe;
  EXPECT_NEAR(EstimatePredicateSelectivity(*stats, pred), 0.75, 0.05);
  pred.op = CompareOp::kNe;
  EXPECT_NEAR(EstimatePredicateSelectivity(*stats, pred), 0.99, 0.02);
}

TEST(SelectivityTest, ConjunctionIndependence) {
  Table t = UniformTable(10000, 100, 49);
  HistogramStatisticsGenerator gen(32);
  auto stats = gen.Generate(t);
  std::vector<PredicateDesc> preds = {{0, CompareOp::kLt, I(50)},
                                      {0, CompareOp::kGe, I(0)}};
  double sel = EstimateConjunctionSelectivity(*stats, preds);
  EXPECT_NEAR(sel, 0.5, 0.08);
}

TEST(SelectivityTest, JoinCardinalityFormula) {
  EXPECT_DOUBLE_EQ(EstimateJoinCardinality(1000, 100, 5000, 50), 50000.0);
  EXPECT_DOUBLE_EQ(EstimateJoinCardinality(10, 0, 10, 0), 100.0);  // min 1
}

TEST(SelectivityTest, GroupCountCappedByRows) {
  EXPECT_DOUBLE_EQ(EstimateGroupCount(100, {1000}), 100.0);
  EXPECT_DOUBLE_EQ(EstimateGroupCount(1000, {10, 5}), 50.0);
  EXPECT_DOUBLE_EQ(EstimateGroupCount(0, {10}), 1.0);
}

TEST(SelectivityTest, EmptyStatsZeroSelectivity) {
  TableStats stats;
  PredicateDesc pred{0, CompareOp::kEq, I(1)};
  EXPECT_EQ(EstimatePredicateSelectivity(stats, pred), 0.0);
}

}  // namespace
}  // namespace qprog
