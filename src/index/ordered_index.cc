#include "index/ordered_index.h"

#include <algorithm>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/macros.h"

namespace qprog {

OrderedIndex::OrderedIndex(const Table* table, size_t column)
    : table_(table), column_(column) {
  QPROG_CHECK(column < table->schema().num_fields());
  const Column& col = table->column(column);
  col.Visit([&](auto view) {
    using Key = typename decltype(view)::value_type;
    // Sorting (key, row id) pairs orders equal keys by row id: the stable
    // key order.
    std::vector<std::pair<Key, uint64_t>> entries;
    entries.reserve(col.size());
    for (uint64_t i = 0; i < col.size(); ++i) {
      if (!col.is_null(i)) entries.emplace_back(view[i], i);
    }
    std::sort(entries.begin(), entries.end());
    row_ids_.reserve(entries.size());
    uint64_t run = 0;
    for (size_t i = 0; i < entries.size(); ++i) {
      row_ids_.push_back(entries[i].second);
      run = i > 0 && entries[i].first == entries[i - 1].first ? run + 1 : 1;
      max_key_multiplicity_ = std::max(max_key_multiplicity_, run);
    }
  });
}

size_t OrderedIndex::Bound(const Value& key, bool upper) const {
  const Column& col = table_->column(column_);
  return col.Visit([&](auto view) {
    using Key = typename decltype(view)::value_type;
    // Sign of Value::Compare(entry's key, key); strings compare unboxed.
    auto compare = [&](uint64_t row_id) {
      if constexpr (std::is_same_v<Key, std::string_view>) {
        QPROG_CHECK(key.type() == TypeId::kString);
        return view[row_id].compare(key.string_value());
      } else {
        return decltype(view)::Box(view[row_id]).Compare(key);
      }
    };
    auto it = upper ? std::partition_point(
                          row_ids_.begin(), row_ids_.end(),
                          [&](uint64_t id) { return compare(id) <= 0; })
                    : std::partition_point(
                          row_ids_.begin(), row_ids_.end(),
                          [&](uint64_t id) { return compare(id) < 0; });
    return static_cast<size_t>(it - row_ids_.begin());
  });
}

OrderedIndex::EntryRange OrderedIndex::EqualRange(const Value& key) const {
  if (key.is_null() || row_ids_.empty()) return {};
  const size_t lo = Bound(key, /*upper=*/false);
  const size_t hi = Bound(key, /*upper=*/true);
  return {row_ids_.data() + lo, row_ids_.data() + hi};
}

OrderedIndex::EntryRange OrderedIndex::Range(const Value& lo, bool lo_inclusive,
                                             bool lo_unbounded, const Value& hi,
                                             bool hi_inclusive,
                                             bool hi_unbounded) const {
  if (row_ids_.empty()) return {};
  size_t begin = 0;
  size_t end = row_ids_.size();
  if (!lo_unbounded) {
    QPROG_CHECK(!lo.is_null());
    begin = Bound(lo, /*upper=*/!lo_inclusive);
  }
  if (!hi_unbounded) {
    QPROG_CHECK(!hi.is_null());
    end = Bound(hi, /*upper=*/hi_inclusive);
  }
  if (begin >= end) return {};
  return {row_ids_.data() + begin, row_ids_.data() + end};
}

}  // namespace qprog
