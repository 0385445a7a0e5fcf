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
#include <type_traits>
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

/// A dynamically typed scalar: a 16-byte, trivially copyable cell (DESIGN.md
/// §2, "String ownership"). A VARCHAR is a view: a pointer and a 32-bit
/// length into bytes that someone else owns — a table column, a plan
/// constant, a spill run's arena or a result's StringArena
/// (types/string_arena.h). Copying a Value never copies string bytes.
class Value {
 public:
  /// SQL NULL.
  Value() = default;

  // Factories and accessors are inline: loads, scans and expression
  // evaluation call them once per cell.
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
  /// A VARCHAR viewing `v`'s bytes, which must outlive every copy of the
  /// result. A temporary std::string does not, so that overload is deleted.
  static Value String(std::string_view v) {
    QPROG_DCHECK(v.size() <= UINT32_MAX);
    Value r(TypeId::kString);
    r.len_ = static_cast<uint32_t>(v.size());
    r.u_.chars_ = v.data();
    return r;
  }
  template <typename S>
    requires std::is_same_v<S, std::string>
  static Value String(S&&) = delete;

  TypeId type() const { return type_; }
  bool is_null() const { return type_ == TypeId::kNull; }

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
  std::string_view string_value() const {
    QPROG_CHECK(type_ == TypeId::kString);
    return std::string_view(u_.chars_, len_);
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

  /// Hash consistent with EqualsForGrouping. A VARCHAR hashes its bytes
  /// through std::hash<std::string_view>, which equals std::hash<std::string>
  /// on the same bytes.
  size_t Hash() const;

  /// SQL-text rendering (strings unquoted; dates as YYYY-MM-DD).
  std::string ToString() const;

  /// Equality operator matches EqualsForGrouping (used by tests).
  friend bool operator==(const Value& a, const Value& b) {
    return a.EqualsForGrouping(b);
  }

 private:
  explicit Value(TypeId type) : type_(type) {}

  TypeId type_ = TypeId::kNull;
  uint32_t len_ = 0;  // VARCHAR byte length
  union {
    int64_t int64_;
    double double_;
    bool bool_;
    int32_t date_;
    const char* chars_;  // VARCHAR bytes, owned elsewhere
  } u_ = {0};
};

static_assert(sizeof(Value) == 16 && std::is_trivially_copyable_v<Value>);

std::ostream& operator<<(std::ostream& os, const Value& v);

/// A tuple: a flat vector of values positionally matched to a Schema.
using Row = std::vector<Value>;

/// Renders "(v1, v2, ...)" for debugging.
std::string RowToString(const Row& row);

/// True when any value of `row` is NULL (a key that matches nothing).
bool HasNull(const Row& row);

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
