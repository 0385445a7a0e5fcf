#include "storage/table.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"

namespace qprog {

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  columns_.reserve(schema_.num_fields());
  for (const Field& field : schema_.fields()) columns_.emplace_back(field.type);
}

void Table::AppendRow(const Row& row) {
  QPROG_CHECK_MSG(row.size() == schema_.num_fields(),
                  "row arity %zu != schema arity %zu in table %s", row.size(),
                  schema_.num_fields(), name_.c_str());
  for (size_t c = 0; c < row.size(); ++c) {
    QPROG_CHECK_MSG(columns_[c].Append(row[c]),
                    "%s value for %s column %s of table %s",
                    TypeIdToString(row[c].type()),
                    TypeIdToString(schema_.field(c).type),
                    schema_.field(c).name.c_str(), name_.c_str());
  }
  ++num_rows_;
}

void Table::Reserve(uint64_t n) {
  for (Column& column : columns_) column.Reserve(n);
}

void Table::ReadRow(uint64_t i, Row* out) const {
  out->resize(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) (*out)[c] = columns_[c].Read(i);
}

void Table::Reorder(const std::vector<size_t>& perm) {
  QPROG_CHECK(perm.size() == num_rows_);
  for (Column& column : columns_) column.Permute(perm);
}

void Table::SortByColumn(size_t col) {
  QPROG_CHECK(col < schema_.num_fields());
  const Column& column = columns_[col];
  std::vector<size_t> perm;
  perm.reserve(num_rows_);
  for (uint64_t i = 0; i < num_rows_; ++i) {
    if (column.is_null(i)) perm.push_back(i);
  }
  column.Visit([&](auto view) {
    using Key = typename decltype(view)::value_type;
    // Sorting (key, row) pairs orders equal keys by row: a stable sort.
    std::vector<std::pair<Key, size_t>> keyed;
    keyed.reserve(num_rows_ - perm.size());
    for (uint64_t i = 0; i < num_rows_; ++i) {
      if (!column.is_null(i)) keyed.emplace_back(view[i], i);
    }
    std::sort(keyed.begin(), keyed.end());
    for (const auto& entry : keyed) perm.push_back(entry.second);
  });
  Reorder(perm);
}

}  // namespace qprog
