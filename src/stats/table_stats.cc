#include "stats/table_stats.h"

#include <functional>
#include <string_view>
#include <type_traits>
#include <unordered_set>

#include "common/random.h"
#include "storage/table.h"

namespace qprog {

std::unique_ptr<TableStats> HistogramStatisticsGenerator::Generate(
    const Table& table) {
  auto stats = std::make_unique<TableStats>();
  stats->set_row_count(table.num_rows());
  const Schema& schema = table.schema();
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    ColumnStats cs;
    cs.name = schema.field(c).name;
    Histogram h = Histogram::Build(table, c, buckets_per_column_);
    cs.null_count = h.null_rows();
    cs.distinct = h.TotalDistinct();
    if (h.num_buckets() > 0) {
      cs.min = h.bucket(0).lower;
      cs.max = h.bucket(h.num_buckets() - 1).upper;
    }
    cs.histogram = std::move(h);
    stats->AddColumn(std::move(cs));
  }
  return stats;
}

std::unique_ptr<TableStats> SampleStatisticsGenerator::Generate(
    const Table& table) {
  auto stats = std::make_unique<TableStats>();
  stats->set_row_count(table.num_rows());
  Rng rng(seed_);
  std::vector<Row> reservoir;
  reservoir.reserve(sample_size_);
  for (uint64_t i = 0; i < table.num_rows(); ++i) {
    if (reservoir.size() < sample_size_) {
      table.ReadRow(i, &reservoir.emplace_back());
    } else {
      uint64_t j = rng.Uniform(i + 1);
      if (j < sample_size_) table.ReadRow(i, &reservoir[j]);
    }
  }
  stats->set_sample(std::move(reservoir));
  // Column summaries (distinct/min/max) still come from a full pass so the
  // sample generator remains usable by the cardinality estimator. The
  // distinct count is the number of distinct Value::Hash results; for
  // VARCHAR, std::hash<std::string_view> is that hash without boxing.
  const Schema& schema = table.schema();
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    ColumnStats cs;
    cs.name = schema.field(c).name;
    const Column& col = table.column(c);
    col.Visit([&](auto view) {
      using Key = typename decltype(view)::value_type;
      std::unordered_set<size_t> hashes;
      bool any = false;
      Key min{};
      Key max{};
      for (uint64_t i = 0; i < col.size(); ++i) {
        if (col.is_null(i)) {
          ++cs.null_count;
          continue;
        }
        const Key v = view[i];
        if constexpr (std::is_same_v<Key, std::string_view>) {
          hashes.insert(std::hash<std::string_view>()(v));
        } else {
          hashes.insert(decltype(view)::Box(v).Hash());
        }
        if (!any || v < min) min = v;
        if (!any || max < v) max = v;
        any = true;
      }
      cs.distinct = hashes.size();
      if (any) {
        cs.min = decltype(view)::Box(min);
        cs.max = decltype(view)::Box(max);
      }
    });
    stats->AddColumn(std::move(cs));
  }
  return stats;
}

}  // namespace qprog
