// Column: one typed, contiguous column of a Table (DESIGN.md §2, "Storage
// layout").
//
// The payload is a plain array in the field's SQL type: int64_t for BIGINT,
// double for DOUBLE, int32_t days for DATE, one byte per BOOLEAN, and one
// byte buffer plus offsets for VARCHAR. NULL slots hold a zero (or empty)
// payload and are flagged in a byte-per-row null mask, which is allocated
// only when the first NULL arrives. Statistics and indexes sort the payload
// through the typed views below instead of sorting Values.

#ifndef QPROG_STORAGE_COLUMN_H_
#define QPROG_STORAGE_COLUMN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

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

struct VarcharView {
  using value_type = std::string_view;
  const char* chars;
  const uint64_t* offsets;  // row i is chars[offsets[i], offsets[i + 1])
  std::string_view operator[](uint64_t i) const {
    return std::string_view(chars + offsets[i], offsets[i + 1] - offsets[i]);
  }
  static Value Box(std::string_view v) { return Value::String(std::string(v)); }
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

  /// Overwrites `*out` with row `i`'s value, reusing its string capacity.
  /// Inline: scans call it for every cell they build.
  void Read(uint64_t i, Value* out) const {
    if (is_null(i)) {
      out->SetNull();
      return;
    }
    switch (type_) {
      case TypeId::kDouble:
        out->SetDouble(doubles_[i]);
        return;
      case TypeId::kDate:
        out->SetDate(dates_[i]);
        return;
      case TypeId::kBool:
        out->SetBool(bools_[i] != 0);
        return;
      case TypeId::kString:
        out->SetString(std::string_view(chars_.data() + offsets_[i],
                                        offsets_[i + 1] - offsets_[i]));
        return;
      case TypeId::kNull:
      case TypeId::kInt64:
        out->SetInt64(bigints_[i]);
        return;
    }
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
        return fn(VarcharView{chars_.data(), offsets_.data()});
      case TypeId::kNull:
      case TypeId::kInt64:
        break;
    }
    return fn(BigintView{bigints_.data()});
  }

  /// Reorders the rows so that new row k is old row `perm[k]`. `perm` must
  /// be a permutation of [0, size()).
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
  std::string chars_;
  std::vector<uint64_t> offsets_;  // size_ + 1 entries for VARCHAR
};

}  // namespace qprog

#endif  // QPROG_STORAGE_COLUMN_H_
