// Value: the dynamically-typed scalar flowing through the iterator engine.
//
// The engine is tuple-at-a-time (the getnext model of the paper is defined on
// iterator calls, so a row-oriented engine is the faithful substrate). A
// Value is a small tagged union over the SQL types the TPC-H / SkyServer
// workloads need: NULL, BOOLEAN, BIGINT, DOUBLE, DATE and VARCHAR.

#ifndef QPROG_TYPES_VALUE_H_
#define QPROG_TYPES_VALUE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/macros.h"

namespace qprog {

enum class TypeId : uint8_t {
  kNull = 0,
  kBool = 1,
  kInt64 = 2,
  kDouble = 3,
  kDate = 4,    // int32 days since 1970-01-01
  kString = 5,
};

/// Returns "NULL", "BOOLEAN", "BIGINT", "DOUBLE", "DATE" or "VARCHAR".
const char* TypeIdToString(TypeId type);

/// True for BIGINT, DOUBLE and DATE (types that order numerically).
bool IsNumericType(TypeId type);

/// A dynamically typed scalar. Copyable; strings are owned.
class Value {
 public:
  /// SQL NULL.
  Value() : type_(TypeId::kNull) {}

  // Factories, setters and accessors are inline: loads, scans and
  // expression evaluation call them once per cell.
  static Value Null() { return Value(); }
  static Value Bool(bool v) {
    Value r(TypeId::kBool);
    r.u_.bool_ = v;
    return r;
  }
  static Value Int64(int64_t v) {
    Value r(TypeId::kInt64);
    r.u_.int64_ = v;
    return r;
  }
  static Value Double(double v) {
    Value r(TypeId::kDouble);
    r.u_.double_ = v;
    return r;
  }
  static Value Date(int32_t days) {
    Value r(TypeId::kDate);
    r.u_.date_ = days;
    return r;
  }
  static Value String(std::string v) {
    Value r(TypeId::kString);
    r.string_ = std::move(v);
    return r;
  }

  TypeId type() const { return type_; }
  bool is_null() const { return type_ == TypeId::kNull; }

  /// In-place assignment, equivalent to `*this = Value::Int64(v)` and so on
  /// without a temporary. SetString reuses the string's capacity.
  void SetNull() { Set(TypeId::kNull); }
  void SetBool(bool v) {
    Set(TypeId::kBool);
    u_.bool_ = v;
  }
  void SetInt64(int64_t v) {
    Set(TypeId::kInt64);
    u_.int64_ = v;
  }
  void SetDouble(double v) {
    Set(TypeId::kDouble);
    u_.double_ = v;
  }
  void SetDate(int32_t days) {
    Set(TypeId::kDate);
    u_.date_ = days;
  }
  void SetString(std::string_view v) {
    type_ = TypeId::kString;
    string_.assign(v.data(), v.size());
  }

  /// Typed accessors; abort on type mismatch (programmer error).
  bool bool_value() const {
    QPROG_CHECK(type_ == TypeId::kBool);
    return u_.bool_;
  }
  int64_t int64_value() const {
    QPROG_CHECK(type_ == TypeId::kInt64);
    return u_.int64_;
  }
  double double_value() const {
    QPROG_CHECK(type_ == TypeId::kDouble);
    return u_.double_;
  }
  int32_t date_value() const {
    QPROG_CHECK(type_ == TypeId::kDate);
    return u_.date_;
  }
  const std::string& string_value() const {
    QPROG_CHECK(type_ == TypeId::kString);
    return string_;
  }

  /// Numeric view: BIGINT/DOUBLE/DATE/BOOL coerced to double; aborts
  /// otherwise. Used by arithmetic and aggregation.
  double AsDouble() const;

  /// SQL three-valued-logic equality/comparison collapse: any comparison with
  /// NULL is "unknown" and callers treat it as false. `Compare` returns
  /// negative/zero/positive; both inputs must be non-NULL and of comparable
  /// types (numeric with numeric, string with string, bool with bool).
  int Compare(const Value& other) const;

  /// Strict equality used by hash tables and DISTINCT: NULL equals NULL,
  /// 1 (BIGINT) equals 1.0 (DOUBLE), strings compare bytewise.
  bool EqualsForGrouping(const Value& other) const;

  /// Hash consistent with EqualsForGrouping.
  size_t Hash() const;

  /// SQL-text rendering (strings unquoted; dates as YYYY-MM-DD).
  std::string ToString() const;

  /// Equality operator matches EqualsForGrouping (used by tests).
  friend bool operator==(const Value& a, const Value& b) {
    return a.EqualsForGrouping(b);
  }

 private:
  explicit Value(TypeId type) : type_(type) {}

  // Non-string types keep an empty string, so copies stay cheap.
  void Set(TypeId type) {
    type_ = type;
    u_ = {};
    string_.clear();
  }

  TypeId type_;
  union {
    bool bool_;
    int64_t int64_;
    double double_;
    int32_t date_;
  } u_ = {};
  std::string string_;
};

std::ostream& operator<<(std::ostream& os, const Value& v);

/// A tuple: a flat vector of values positionally matched to a Schema.
using Row = std::vector<Value>;

/// Renders "(v1, v2, ...)" for debugging.
std::string RowToString(const Row& row);

/// Hash/equality over whole rows (grouping semantics), usable as functors in
/// unordered containers keyed by Row.
struct RowHash {
  size_t operator()(const Row& row) const;
};
struct RowEq {
  bool operator()(const Row& a, const Row& b) const;
};

}  // namespace qprog

#endif  // QPROG_TYPES_VALUE_H_
