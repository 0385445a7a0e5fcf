// Times Histogram::Build at the collector's 32-bucket budget on every column
// of TPC-H lineitem and orders at SF 0.05, z = 2 (the tables of e2ebench's
// tpch_mem), next to the typed sort that Build used before it counted:
// gather the non-NULL payload, std::sort it and walk its runs of equal
// values. The sort baseline leaves out the bucket cut, so it is a lower
// bound on the old Build.
//
// A sweep over a synthetic BIGINT column of kSweepRows values in random
// order, with r rows per distinct value, shows where counting stops paying
// and so sets Histogram::kRowsPerCountedValue. Build counts a column only
// while it has at most one distinct value per kRowsPerCountedValue rows,
// NULLs included, so the sweep's "counted" column is padded with NULL rows
// up to that many rows per distinct value; its count and its sort baseline
// are timed on that same padded column.
//
// Every scenario runs once untimed, then kReps timed reps that alternate
// Build and the baseline. Times are microseconds, min/q1/median/q3/max over
// the reps. Results are printed and written, under a provenance header, to
// BENCH_stats.json in the working directory:
//
//   ./build/bench/micro_stats

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/macros.h"
#include "common/random.h"
#include "common/strings.h"
#include "stats/histogram.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "tpch/dbgen.h"

namespace qprog {
namespace {

constexpr int kReps = 10;
constexpr size_t kBuckets = 32;
constexpr uint64_t kSweepRows = 300000;

// The old Build's sort of one column; returns its number of runs.
uint64_t SortRuns(const Column& col) {
  return col.Visit([&](auto view) -> uint64_t {
    using Key = typename decltype(view)::value_type;
    std::vector<Key> values;
    values.reserve(col.size());
    for (uint64_t i = 0; i < col.size(); ++i) {
      if (!col.is_null(i)) values.push_back(view[i]);
    }
    std::sort(values.begin(), values.end());
    uint64_t runs = values.empty() ? 0 : 1;
    for (size_t i = 1; i < values.size(); ++i) {
      runs += values[i] != values[i - 1];
    }
    return runs;
  });
}

double MicrosOf(const auto& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct Result {
  std::string name;
  uint64_t rows = 0;
  uint64_t distinct = 0;
  bool counted = false;
  bench::Spread build_us;
  bench::Spread sort_us;
};

// Times Build and the sort baseline on column `c` of `t`, interleaved.
Result Measure(std::string name, const Table& t, size_t c) {
  Result r;
  r.name = std::move(name);
  r.rows = t.num_rows();
  Histogram h = Histogram::Build(t, c, kBuckets);
  r.distinct = h.TotalDistinct();
  r.counted = r.distinct <= r.rows / Histogram::kRowsPerCountedValue;
  QPROG_CHECK(SortRuns(t.column(c)) == r.distinct);
  std::vector<double> build, sort;
  for (int rep = 0; rep < kReps; ++rep) {
    build.push_back(MicrosOf([&] { h = Histogram::Build(t, c, kBuckets); }));
    uint64_t runs = 0;
    sort.push_back(MicrosOf([&] { runs = SortRuns(t.column(c)); }));
    QPROG_CHECK(runs == r.distinct);
  }
  r.build_us = bench::SpreadOf(build);
  r.sort_us = bench::SpreadOf(sort);
  return r;
}

// kSweepRows BIGINT values, `rows_per_value` rows of each distinct value in
// random order, then `nulls` NULL rows.
Table SweepColumn(uint64_t rows_per_value, uint64_t nulls) {
  const uint64_t distinct = kSweepRows / rows_per_value;
  std::vector<int64_t> values;
  values.reserve(kSweepRows);
  for (uint64_t i = 0; i < kSweepRows; ++i) {
    values.push_back(static_cast<int64_t>((i % distinct) * 7919));
  }
  Rng rng(rows_per_value);
  rng.Shuffle(&values);
  Table t("sweep", Schema({Field("v", TypeId::kInt64)}));
  for (int64_t v : values) t.AppendRow({Value::Int64(v)});
  for (uint64_t i = 0; i < nulls; ++i) t.AppendRow({Value::Null()});
  return t;
}

void Print(const Result& r) {
  std::printf("%-28s %9llu %8llu %-6s %9.0f/%9.0f/%9.0f %9.0f/%9.0f/%9.0f\n",
              r.name.c_str(), static_cast<unsigned long long>(r.rows),
              static_cast<unsigned long long>(r.distinct),
              r.counted ? "count" : "sort", r.build_us.q1, r.build_us.median,
              r.build_us.q3, r.sort_us.q1, r.sort_us.median, r.sort_us.q3);
}

std::string Json(const Result& r) {
  return StringPrintf("\"%s\":{\"rows\":%llu,\"distinct\":%llu,"
                      "\"path\":\"%s\",",
                      r.name.c_str(), static_cast<unsigned long long>(r.rows),
                      static_cast<unsigned long long>(r.distinct),
                      r.counted ? "count" : "sort") +
         bench::SpreadJson("build_us", r.build_us) + "," +
         bench::SpreadJson("sort_us", r.sort_us) + "}";
}

}  // namespace
}  // namespace qprog

int main() {
  using namespace qprog;  // NOLINT(build/namespaces)
  std::printf("=== micro_stats: Histogram::Build per column ===\n");
  std::printf("%d reps per scenario, %zu buckets, counting while rows per "
              "distinct value >= %llu\n\n",
              kReps, kBuckets,
              static_cast<unsigned long long>(Histogram::kRowsPerCountedValue));
  std::printf("%-28s %9s %8s %-6s %-29s %s\n", "column", "rows", "distinct",
              "path", "build us q1/med/q3", "sort us q1/med/q3");

  Database db;
  tpch::TpchConfig config;
  config.scale_factor = 0.05;
  config.z = 2.0;
  config.build_indexes = false;
  config.collect_stats = false;
  QPROG_CHECK(tpch::GenerateTpch(config, &db).ok());
  std::vector<Result> columns;
  double build_total = 0;
  double sort_total = 0;
  for (const char* name : {"lineitem", "orders"}) {
    const Table& t = *db.GetTable(name);
    for (size_t c = 0; c < t.schema().num_fields(); ++c) {
      columns.push_back(Measure(t.schema().field(c).name, t, c));
      Print(columns.back());
      build_total += columns.back().build_us.median;
      sort_total += columns.back().sort_us.median;
    }
  }
  std::printf("%-28s %9s %8s %-6s %29.0f %29.0f\n\n", "sum of medians", "", "",
              "", build_total, sort_total);

  std::vector<Result> sweep;
  for (uint64_t r : {2, 4, 8, 16, 64, 1024}) {
    Table plain = SweepColumn(r, 0);
    sweep.push_back(Measure(StringPrintf("r=%llu",
                                         static_cast<unsigned long long>(r)),
                            plain, 0));
    Print(sweep.back());
    if (r < Histogram::kRowsPerCountedValue) {
      uint64_t padded_rows =
          kSweepRows / r * Histogram::kRowsPerCountedValue;
      Table padded = SweepColumn(r, padded_rows - kSweepRows);
      sweep.push_back(Measure(
          StringPrintf("r=%llu counted",
                       static_cast<unsigned long long>(r)),
          padded, 0));
      Print(sweep.back());
    }
  }

  std::string json = "{\"bench\":\"micro_stats\"," +
                     bench::ProvenanceJson(kReps) +
                     StringPrintf(",\"scale_factor\":0.05,\"buckets\":%zu,"
                                  "\"rows_per_counted_value\":%llu,"
                                  "\"sum_build_us_median\":%.1f,"
                                  "\"sum_sort_us_median\":%.1f,\"columns\":{",
                                  kBuckets,
                                  static_cast<unsigned long long>(
                                      Histogram::kRowsPerCountedValue),
                                  build_total, sort_total);
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) json += ',';
    json += Json(columns[i]);
  }
  json += StringPrintf("},\"sweep_rows\":%llu,\"sweep\":{",
                       static_cast<unsigned long long>(kSweepRows));
  for (size_t i = 0; i < sweep.size(); ++i) {
    if (i > 0) json += ',';
    json += Json(sweep[i]);
  }
  json += "}}\n";
  std::FILE* out = std::fopen("BENCH_stats.json", "w");
  if (out != nullptr) {
    std::fwrite(json.data(), 1, json.size(), out);
    std::fclose(out);
    std::printf("\nwrote BENCH_stats.json\n");
  }
  return 0;
}
