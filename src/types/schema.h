// Schema: ordered, named, typed fields describing a Table or operator output.

#ifndef QPROG_TYPES_SCHEMA_H_
#define QPROG_TYPES_SCHEMA_H_

#include <initializer_list>
#include <string>
#include <vector>

#include "types/value.h"

namespace qprog {

/// One column of a schema.
struct Field {
  std::string name;
  TypeId type = TypeId::kNull;

  Field() = default;
  Field(std::string n, TypeId t) : name(std::move(n)), type(t) {}

  friend bool operator==(const Field& a, const Field& b) {
    return a.name == b.name && a.type == b.type;
  }
};

/// An ordered list of fields. Cheap to copy.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}
  Schema(std::initializer_list<Field> fields) : fields_(fields) {}

  size_t num_fields() const { return fields_.size(); }
  const Field& field(size_t i) const { return fields_[i]; }
  const std::vector<Field>& fields() const { return fields_; }

  /// Index of the field named `name`, or -1 if absent. Names are matched
  /// case-sensitively; callers normalize as needed.
  int FindField(std::string_view name) const;

  /// Concatenation (used by joins: left schema ++ right schema).
  static Schema Concat(const Schema& left, const Schema& right);

  /// The fields at `columns`, in that order (narrowed scans).
  Schema Select(const std::vector<size_t>& columns) const;

  /// "name:TYPE, name:TYPE, ..." for debugging.
  std::string ToString() const;

  friend bool operator==(const Schema& a, const Schema& b) {
    return a.fields_ == b.fields_;
  }

 private:
  std::vector<Field> fields_;
};

}  // namespace qprog

#endif  // QPROG_TYPES_SCHEMA_H_
