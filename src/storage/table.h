// Table: an in-memory column store. The workloads in this project are
// read-only after bulk load, so the table is append-only and supports
// reordering its rows (the paper's experiments depend critically on physical
// tuple order — skew-first, skew-last, random — see Sections 4 and 5).
//
// Each schema field is one typed Column (storage/column.h); there is no
// row-major copy. Loaders append whole Rows, scans build Rows from the
// columns (ReadRow / ReadColumns), and statistics and indexes read the typed
// column payloads directly.

#ifndef QPROG_STORAGE_TABLE_H_
#define QPROG_STORAGE_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/column.h"
#include "types/schema.h"
#include "types/value.h"

namespace qprog {

class Table {
 public:
  Table(std::string name, Schema schema);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  uint64_t num_rows() const { return num_rows_; }

  /// Appends a row, splitting it into the columns. Aborts if the arity does
  /// not match the schema or a non-NULL value's type differs from its
  /// field's type (NULLs are always admissible).
  void AppendRow(const Row& row);

  /// Reserves capacity for bulk loads.
  void Reserve(uint64_t n);

  const Column& column(size_t col) const { return columns_[col]; }

  /// Overwrites `*out` with row `i` (resized to the schema's arity).
  void ReadRow(uint64_t i, Row* out) const;

  /// Overwrites only `columns` of `*out` with row `i`'s values; the other
  /// entries are left as they are. `*out` must already have the schema's
  /// arity.
  void ReadColumns(uint64_t i, const std::vector<size_t>& columns,
                   Row* out) const {
    for (size_t c : columns) (*out)[c] = columns_[c].Read(i);
  }

  /// Value of column `col` in row `i`; a VARCHAR views the column's bytes.
  Value at(uint64_t i, size_t col) const { return columns_[col].Read(i); }

  /// Physically reorders the rows so that row i of the new table is
  /// `perm[i]` of the old one. `perm` must be a permutation of [0, n).
  void Reorder(const std::vector<size_t>& perm);

  /// Stable-sorts rows by ascending values in `col`, NULLs first (used to
  /// lay data out in "natural" clustered order, and by merge-join test
  /// fixtures).
  void SortByColumn(size_t col);

 private:
  std::string name_;
  Schema schema_;
  std::vector<Column> columns_;
  uint64_t num_rows_ = 0;
};

}  // namespace qprog

#endif  // QPROG_STORAGE_TABLE_H_
