#include "types/value.h"

#include <cmath>
#include <functional>

#include "common/macros.h"
#include "common/strings.h"
#include "types/date.h"

namespace qprog {

const char* TypeIdToString(TypeId type) {
  switch (type) {
    case TypeId::kNull:
      return "NULL";
    case TypeId::kBool:
      return "BOOLEAN";
    case TypeId::kInt64:
      return "BIGINT";
    case TypeId::kDouble:
      return "DOUBLE";
    case TypeId::kDate:
      return "DATE";
    case TypeId::kString:
      return "VARCHAR";
  }
  return "UNKNOWN";
}

bool IsNumericType(TypeId type) {
  return type == TypeId::kInt64 || type == TypeId::kDouble ||
         type == TypeId::kDate;
}

double Value::AsDouble() const {
  switch (type_) {
    case TypeId::kBool:
      return u_.bool_ ? 1.0 : 0.0;
    case TypeId::kInt64:
      return static_cast<double>(u_.int64_);
    case TypeId::kDouble:
      return u_.double_;
    case TypeId::kDate:
      return static_cast<double>(u_.date_);
    default:
      QPROG_CHECK_MSG(false, "AsDouble on %s", TypeIdToString(type_));
      return 0.0;
  }
}

int Value::Compare(const Value& other) const {
  QPROG_CHECK_MSG(!is_null() && !other.is_null(), "Compare with NULL");
  if (type_ == TypeId::kString || other.type_ == TypeId::kString) {
    QPROG_CHECK_MSG(
        type_ == TypeId::kString && other.type_ == TypeId::kString,
        "comparing %s with %s", TypeIdToString(type_),
        TypeIdToString(other.type_));
    return string_value().compare(other.string_value());
  }
  if (type_ == TypeId::kBool || other.type_ == TypeId::kBool) {
    QPROG_CHECK(type_ == TypeId::kBool && other.type_ == TypeId::kBool);
    return static_cast<int>(u_.bool_) - static_cast<int>(other.u_.bool_);
  }
  // Exact comparison for same-typed integers/dates avoids double rounding.
  if (type_ == other.type_ && type_ == TypeId::kInt64) {
    if (u_.int64_ < other.u_.int64_) return -1;
    return u_.int64_ > other.u_.int64_ ? 1 : 0;
  }
  if (type_ == other.type_ && type_ == TypeId::kDate) {
    if (u_.date_ < other.u_.date_) return -1;
    return u_.date_ > other.u_.date_ ? 1 : 0;
  }
  double a = AsDouble();
  double b = other.AsDouble();
  if (a < b) return -1;
  return a > b ? 1 : 0;
}

bool Value::EqualsForGrouping(const Value& other) const {
  if (is_null() || other.is_null()) return is_null() && other.is_null();
  if (type_ == TypeId::kString || other.type_ == TypeId::kString) {
    return type_ == other.type_ && string_value() == other.string_value();
  }
  if (type_ == TypeId::kBool || other.type_ == TypeId::kBool) {
    return type_ == other.type_ && u_.bool_ == other.u_.bool_;
  }
  return Compare(other) == 0;
}

size_t Value::Hash() const {
  switch (type_) {
    case TypeId::kNull:
      return 0x9E3779B9u;
    case TypeId::kBool:
      return u_.bool_ ? 0x5BD1E995u : 0xC2B2AE35u;
    case TypeId::kString:
      return std::hash<std::string_view>()(string_value());
    default: {
      // Hash numerics through double so 1 and 1.0 collide (they are equal
      // under EqualsForGrouping).
      double d = AsDouble();
      if (d == 0.0) d = 0.0;  // normalize -0.0
      return std::hash<double>()(d);
    }
  }
}

std::string Value::ToString() const {
  switch (type_) {
    case TypeId::kNull:
      return "NULL";
    case TypeId::kBool:
      return u_.bool_ ? "true" : "false";
    case TypeId::kInt64:
      return StringPrintf("%lld", static_cast<long long>(u_.int64_));
    case TypeId::kDouble:
      return StringPrintf("%g", u_.double_);
    case TypeId::kDate:
      return FormatDate(u_.date_);
    case TypeId::kString:
      return std::string(string_value());
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  out += ")";
  return out;
}

bool HasNull(const Row& row) {
  for (const Value& v : row) {
    if (v.is_null()) return true;
  }
  return false;
}

size_t RowHash::operator()(const Row& row) const {
  size_t h = 0x84222325u;
  for (const Value& v : row) {
    h ^= v.Hash() + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

bool RowEq::operator()(const Row& a, const Row& b) const {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a[i].EqualsForGrouping(b[i])) return false;
  }
  return true;
}

}  // namespace qprog
