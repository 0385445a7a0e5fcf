#include "storage/csv.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/strings.h"
#include "types/date.h"

namespace qprog {

namespace {

bool NeedsQuoting(const std::string& field, char delimiter) {
  for (char c : field) {
    if (c == delimiter || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

std::string QuoteField(const std::string& field, char delimiter) {
  if (!NeedsQuoting(field, delimiter)) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string FieldOf(const Value& v) {
  if (v.is_null()) return "";
  return v.ToString();
}

StatusOr<Value> ParseField(const std::string& field, TypeId type,
                           const std::string& null_text, size_t line) {
  if (field.empty() || field == null_text) return Value::Null();
  switch (type) {
    case TypeId::kInt64: {
      char* end = nullptr;
      long long v = std::strtoll(field.c_str(), &end, 10);
      if (end == nullptr || *end != '\0') {
        return InvalidArgument(StringPrintf("line %zu: bad BIGINT '%s'", line,
                                            field.c_str()));
      }
      return Value::Int64(v);
    }
    case TypeId::kDouble: {
      char* end = nullptr;
      double v = std::strtod(field.c_str(), &end);
      if (end == nullptr || *end != '\0') {
        return InvalidArgument(StringPrintf("line %zu: bad DOUBLE '%s'", line,
                                            field.c_str()));
      }
      return Value::Double(v);
    }
    case TypeId::kDate: {
      auto days = ParseDate(field);
      if (!days.ok()) {
        return InvalidArgument(
            StringPrintf("line %zu: bad DATE '%s'", line, field.c_str()));
      }
      return Value::Date(days.value());
    }
    case TypeId::kBool: {
      std::string lower = ToLower(field);
      if (lower == "true" || lower == "1") return Value::Bool(true);
      if (lower == "false" || lower == "0") return Value::Bool(false);
      return InvalidArgument(
          StringPrintf("line %zu: bad BOOLEAN '%s'", line, field.c_str()));
    }
    case TypeId::kString:
    case TypeId::kNull:
      return Value::String(field);
  }
  return Internal("unhandled type");
}

}  // namespace

StatusOr<std::vector<std::string>> SplitCsvRecord(const std::string& line,
                                                  char delimiter) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      if (!current.empty()) {
        return InvalidArgument("quote in the middle of an unquoted field");
      }
      in_quotes = true;
    } else if (c == delimiter) {
      fields.push_back(std::move(current));
      current.clear();
    } else if (c == '\r' && i + 1 == line.size()) {
      // tolerate trailing CR
    } else {
      current += c;
    }
  }
  if (in_quotes) return InvalidArgument("unterminated quoted field");
  fields.push_back(std::move(current));
  return fields;
}

Status WriteCsv(const Table& table, const std::string& path,
                const CsvOptions& options) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Internal(StringPrintf("cannot open '%s' for writing", path.c_str()));
  }
  const Schema& schema = table.schema();
  if (options.has_header) {
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      if (c > 0) out << options.delimiter;
      out << QuoteField(schema.field(c).name, options.delimiter);
    }
    out << "\n";
  }
  Row row;
  for (uint64_t i = 0; i < table.num_rows(); ++i) {
    table.ReadRow(i, &row);
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out << options.delimiter;
      out << QuoteField(FieldOf(row[c]), options.delimiter);
    }
    out << "\n";
  }
  out.flush();
  if (!out.good()) {
    return Internal(StringPrintf("write to '%s' failed", path.c_str()));
  }
  return OkStatus();
}

StatusOr<Table> ReadCsv(const std::string& path, const std::string& name,
                        const Schema& schema, const CsvOptions& options) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return NotFound(StringPrintf("cannot open '%s'", path.c_str()));
  }
  Table table(name, schema);
  std::string line;
  size_t line_no = 0;
  bool skipped_header = !options.has_header;
  while (std::getline(in, line)) {
    ++line_no;
    if (!skipped_header) {
      skipped_header = true;
      continue;
    }
    if (line.empty()) continue;
    QPROG_ASSIGN_OR_RETURN(std::vector<std::string> fields,
                           SplitCsvRecord(line, options.delimiter));
    if (fields.size() != schema.num_fields()) {
      return InvalidArgument(StringPrintf(
          "line %zu: expected %zu fields, found %zu", line_no,
          schema.num_fields(), fields.size()));
    }
    Row row;
    row.reserve(fields.size());
    for (size_t c = 0; c < fields.size(); ++c) {
      QPROG_ASSIGN_OR_RETURN(
          Value v, ParseField(fields[c], schema.field(c).type,
                              options.null_text, line_no));
      row.push_back(std::move(v));
    }
    table.AppendRow(std::move(row));
  }
  return table;
}

}  // namespace qprog
