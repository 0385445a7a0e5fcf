// Shared helpers for qprog tests: compact table/row construction and
// result-set comparison.

#ifndef QPROG_TESTS_TEST_UTIL_H_
#define QPROG_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "storage/table.h"
#include "types/date.h"
#include "types/schema.h"
#include "types/string_arena.h"
#include "types/value.h"

namespace qprog {
namespace testutil {

inline Value I(int64_t v) { return Value::Int64(v); }
inline Value D(double v) { return Value::Double(v); }
/// A VARCHAR whose bytes live in a test-lifetime store, so the Value
/// outlives any string it was made from.
inline Value S(std::string_view v) {
  static std::mutex mu;
  static StringArena store;
  std::lock_guard<std::mutex> lock(mu);
  return Value::String(store.Copy(v));
}
inline Value B(bool v) { return Value::Bool(v); }
inline Value N() { return Value::Null(); }
inline Value Dt(const char* ymd) { return Value::Date(ParseDate(ymd).value()); }

/// Builds a table whose columns are typed from each column's first non-NULL
/// value (NULL-typed when a column holds only NULLs). A later value of
/// another type aborts the append, as the typed columns require.
inline Table MakeTable(std::string name, std::vector<std::string> columns,
                       std::vector<Row> rows) {
  std::vector<Field> fields;
  fields.reserve(columns.size());
  for (size_t i = 0; i < columns.size(); ++i) {
    TypeId type = TypeId::kNull;
    for (const Row& row : rows) {
      if (i < row.size() && !row[i].is_null()) {
        type = row[i].type();
        break;
      }
    }
    fields.emplace_back(columns[i], type);
  }
  Table table(std::move(name), Schema(std::move(fields)));
  for (const Row& row : rows) table.AppendRow(row);
  return table;
}

/// Row `i` of `table`, built from its columns.
inline Row RowAt(const Table& table, uint64_t i) {
  Row row;
  table.ReadRow(i, &row);
  return row;
}

/// 64-bit FNV-1a over `bytes`: the digest the golden-pin tests record.
inline uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Sorts rows lexically by ToString for order-insensitive comparison.
inline std::vector<Row> Sorted(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return RowToString(a) < RowToString(b);
  });
  return rows;
}

inline std::string RowsToString(const std::vector<Row>& rows) {
  std::string out;
  for (const Row& r : rows) {
    out += RowToString(r);
    out += "\n";
  }
  return out;
}

}  // namespace testutil
}  // namespace qprog

#endif  // QPROG_TESTS_TEST_UTIL_H_
