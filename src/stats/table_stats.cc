#include "stats/table_stats.h"

#include "common/random.h"
#include "storage/table.h"

namespace qprog {

namespace {

// A column's null count, distinct count, min and max, read off its
// histogram's buckets.
ColumnStats Summarize(std::string name, const Histogram& h) {
  ColumnStats cs;
  cs.name = std::move(name);
  cs.null_count = h.null_rows();
  cs.distinct = h.TotalDistinct();
  if (h.num_buckets() > 0) {
    cs.min = h.bucket(0).lower;
    cs.max = h.bucket(h.num_buckets() - 1).upper;
  }
  return cs;
}

}  // namespace

std::unique_ptr<TableStats> HistogramStatisticsGenerator::Generate(
    const Table& table) {
  auto stats = std::make_unique<TableStats>();
  stats->set_row_count(table.num_rows());
  const Schema& schema = table.schema();
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    Histogram h = Histogram::Build(table, c, buckets_per_column_);
    ColumnStats cs = Summarize(schema.field(c).name, h);
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
  // Column summaries still come from a full pass, so the sample generator
  // remains usable by the cardinality estimator: a one-bucket histogram's
  // bucket spans the column's min and max and counts its distinct values.
  const Schema& schema = table.schema();
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    stats->AddColumn(
        Summarize(schema.field(c).name, Histogram::Build(table, c, 1)));
  }
  return stats;
}

}  // namespace qprog
