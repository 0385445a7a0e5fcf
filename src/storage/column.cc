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

Column::Column(TypeId type) : type_(type) {
  if (type_ == TypeId::kString) offsets_.push_back(0);
}

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
      offsets_.reserve(n + 1);
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
      if (!null) chars_.append(v.string_value());
      offsets_.push_back(chars_.size());
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
    case TypeId::kString: {
      std::string chars;
      chars.reserve(chars_.size());
      std::vector<uint64_t> offsets;
      offsets.reserve(offsets_.size());
      offsets.push_back(0);
      for (size_t src : perm) {
        chars.append(chars_, offsets_[src], offsets_[src + 1] - offsets_[src]);
        offsets.push_back(chars.size());
      }
      chars_ = std::move(chars);
      offsets_ = std::move(offsets);
      break;
    }
    case TypeId::kNull:
    case TypeId::kInt64:
      PermuteVector(perm, &bigints_);
      break;
  }
}

}  // namespace qprog
