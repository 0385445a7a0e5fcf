#include "index/hash_index.h"

#include <algorithm>

#include "common/macros.h"

namespace qprog {

HashIndex::HashIndex(const Table* table, size_t column)
    : table_(table), column_(column) {
  QPROG_CHECK(column < table->schema().num_fields());
  const Column& col = table->column(column);
  col.Visit([&](auto view) {
    for (uint64_t i = 0; i < col.size(); ++i) {
      if (col.is_null(i)) continue;
      auto& bucket = buckets_[decltype(view)::Box(view[i])];
      bucket.push_back(i);
      max_key_multiplicity_ =
          std::max<uint64_t>(max_key_multiplicity_, bucket.size());
    }
  });
}

const std::vector<uint64_t>& HashIndex::Lookup(const Value& key) const {
  if (key.is_null()) return empty_;
  auto it = buckets_.find(key);
  return it == buckets_.end() ? empty_ : it->second;
}

}  // namespace qprog
