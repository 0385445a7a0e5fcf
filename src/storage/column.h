// Column: one typed, contiguous column of a Table (DESIGN.md §2, "Storage
// layout").
//
// The payload is a plain array in the field's SQL type: int64_t for BIGINT,
// double for DOUBLE, int32_t days for DATE, one byte per BOOLEAN, and for
// VARCHAR one string view per row into the column's own StringArena, whose
// bytes never move. NULL slots hold a zero (or empty) payload and are
// flagged in a byte-per-row null mask, which is allocated only when the
// first NULL arrives. Statistics and indexes sort the payload
// through the typed views below instead of sorting Values.

#ifndef QPROG_STORAGE_COLUMN_H_
#define QPROG_STORAGE_COLUMN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "types/string_arena.h"
#include "types/value.h"

namespace qprog {

// Typed read-only views of a column's payload. operator[] returns the raw
// payload of row i (zero or empty for NULL rows: consult Column::is_null);
// Box converts one payload value back into a Value of the column's type.

struct BigintView {
  using value_type = int64_t;
  const int64_t* data;
  int64_t operator[](uint64_t i) const { return data[i]; }
  static Value Box(int64_t v) { return Value::Int64(v); }
};

struct DoubleView {
  using value_type = double;
  const double* data;
  double operator[](uint64_t i) const { return data[i]; }
  static Value Box(double v) { return Value::Double(v); }
};

struct DateView {
  using value_type = int32_t;
  const int32_t* data;
  int32_t operator[](uint64_t i) const { return data[i]; }
  static Value Box(int32_t v) { return Value::Date(v); }
};

struct BooleanView {
  using value_type = bool;
  const uint8_t* data;
  bool operator[](uint64_t i) const { return data[i] != 0; }
  static Value Box(bool v) { return Value::Bool(v); }
};

/// Box views the column's bytes, which never move (see Column).
struct VarcharView {
  using value_type = std::string_view;
  const std::string_view* strings;
  std::string_view operator[](uint64_t i) const { return strings[i]; }
  static Value Box(std::string_view v) { return Value::String(v); }
};

class Column {
 public:
  /// An empty column of `type`. A NULL-typed column admits only NULLs and is
  /// stored as an all-NULL BIGINT column.
  explicit Column(TypeId type);

  TypeId type() const { return type_; }
  uint64_t size() const { return size_; }
  bool is_null(uint64_t i) const { return !nulls_.empty() && nulls_[i] != 0; }

  void Reserve(uint64_t n);

  /// Appends `v`. Returns false, appending nothing, when `v` is neither NULL
  /// nor of the column's type.
  bool Append(const Value& v);

  /// Row `i`'s value; a VARCHAR views the column's bytes. Inline: scans
  /// call it for every cell they build.
  Value Read(uint64_t i) const {
    if (is_null(i)) return Value::Null();
    switch (type_) {
      case TypeId::kDouble:
        return Value::Double(doubles_[i]);
      case TypeId::kDate:
        return Value::Date(dates_[i]);
      case TypeId::kBool:
        return Value::Bool(bools_[i] != 0);
      case TypeId::kString:
        return Value::String(strings_[i]);
      case TypeId::kNull:
      case TypeId::kInt64:
        break;
    }
    return Value::Int64(bigints_[i]);
  }

  /// Calls `fn` with the typed view of this column's payload and returns its
  /// result: BigintView, DoubleView, DateView, BooleanView or VarcharView.
  template <typename Fn>
  decltype(auto) Visit(Fn&& fn) const {
    switch (type_) {
      case TypeId::kDouble:
        return fn(DoubleView{doubles_.data()});
      case TypeId::kDate:
        return fn(DateView{dates_.data()});
      case TypeId::kBool:
        return fn(BooleanView{bools_.data()});
      case TypeId::kString:
        return fn(VarcharView{strings_.data()});
      case TypeId::kNull:
      case TypeId::kInt64:
        break;
    }
    return fn(BigintView{bigints_.data()});
  }

  /// Reorders the rows so that new row k is old row `perm[k]`. `perm` must
  /// be a permutation of [0, size()). VARCHAR bytes stay where they are:
  /// only the per-row views are permuted.
  void Permute(const std::vector<size_t>& perm);

 private:
  void AppendNullFlag(bool null);

  TypeId type_;
  uint64_t size_ = 0;
  std::vector<uint8_t> nulls_;  // empty until the first NULL; then 1 = NULL
  // Exactly one payload is in use, chosen by type_.
  std::vector<int64_t> bigints_;
  std::vector<double> doubles_;
  std::vector<int32_t> dates_;
  std::vector<uint8_t> bools_;
  // VARCHAR: row i is strings_[i], a view into chars_. Once a byte is
  // copied into chars_ it never moves (appends add chunks, Permute moves
  // only the views), so every Value read from the column stays valid for
  // the column's lifetime.
  StringArena chars_;
  std::vector<std::string_view> strings_;
};

}  // namespace qprog

#endif  // QPROG_STORAGE_COLUMN_H_
