#include "types/schema.h"

namespace qprog {

int Schema::FindField(std::string_view name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Schema Schema::Concat(const Schema& left, const Schema& right) {
  std::vector<Field> fields = left.fields_;
  fields.insert(fields.end(), right.fields_.begin(), right.fields_.end());
  return Schema(std::move(fields));
}

Schema Schema::Select(const std::vector<size_t>& columns) const {
  std::vector<Field> fields;
  fields.reserve(columns.size());
  for (size_t c : columns) fields.push_back(fields_[c]);
  return Schema(std::move(fields));
}

std::string Schema::ToString() const {
  std::string out;
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += fields_[i].name;
    out += ":";
    out += TypeIdToString(fields_[i].type);
  }
  return out;
}

}  // namespace qprog
