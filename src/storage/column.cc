#include "storage/column.h"

#include <utility>

#include "common/macros.h"

namespace qprog {

namespace {

template <typename T>
void PermuteVector(const std::vector<size_t>& perm, std::vector<T>* v) {
  std::vector<T> out;
  out.reserve(perm.size());
  for (size_t src : perm) out.push_back((*v)[src]);
  *v = std::move(out);
}

}  // namespace

Column::Column(TypeId type) : type_(type) {}

void Column::Reserve(uint64_t n) {
  switch (type_) {
    case TypeId::kDouble:
      doubles_.reserve(n);
      break;
    case TypeId::kDate:
      dates_.reserve(n);
      break;
    case TypeId::kBool:
      bools_.reserve(n);
      break;
    case TypeId::kString:
      strings_.reserve(n);
      break;
    case TypeId::kNull:
    case TypeId::kInt64:
      bigints_.reserve(n);
      break;
  }
}

void Column::AppendNullFlag(bool null) {
  if (null && nulls_.empty()) nulls_.assign(size_, 0);
  if (null || !nulls_.empty()) nulls_.push_back(null ? 1 : 0);
  ++size_;
}

bool Column::Append(const Value& v) {
  const bool null = v.is_null();
  if (!null && v.type() != type_) return false;
  switch (type_) {
    case TypeId::kDouble:
      doubles_.push_back(null ? 0.0 : v.double_value());
      break;
    case TypeId::kDate:
      dates_.push_back(null ? 0 : v.date_value());
      break;
    case TypeId::kBool:
      bools_.push_back(!null && v.bool_value() ? 1 : 0);
      break;
    case TypeId::kString:
      strings_.push_back(
          chars_.Copy(null ? std::string_view() : v.string_value()));
      break;
    case TypeId::kNull:
    case TypeId::kInt64:
      bigints_.push_back(null ? 0 : v.int64_value());
      break;
  }
  AppendNullFlag(null);
  return true;
}

void Column::Permute(const std::vector<size_t>& perm) {
  QPROG_CHECK(perm.size() == size_);
  for (size_t src : perm) QPROG_CHECK(src < size_);
  if (!nulls_.empty()) PermuteVector(perm, &nulls_);
  switch (type_) {
    case TypeId::kDouble:
      PermuteVector(perm, &doubles_);
      break;
    case TypeId::kDate:
      PermuteVector(perm, &dates_);
      break;
    case TypeId::kBool:
      PermuteVector(perm, &bools_);
      break;
    case TypeId::kString:
      PermuteVector(perm, &strings_);
      break;
    case TypeId::kNull:
    case TypeId::kInt64:
      PermuteVector(perm, &bigints_);
      break;
  }
}

}  // namespace qprog
