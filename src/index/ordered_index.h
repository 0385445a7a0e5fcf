// OrderedIndex: a sorted secondary index over one column of a Table.
//
// Backing structure is the array of row ids sorted by key — the read-only
// equivalent of a B+-tree's leaf level, which is all the index-seek and
// index-nested-loops operators of the paper require (equality and range
// probes). Keys are not copied: the build sorts the column's typed payload
// and probes read it through the row ids. NULL keys are excluded, matching
// SQL index-lookup semantics.

#ifndef QPROG_INDEX_ORDERED_INDEX_H_
#define QPROG_INDEX_ORDERED_INDEX_H_

#include <cstdint>
#include <vector>

#include "storage/table.h"
#include "types/value.h"

namespace qprog {

class OrderedIndex {
 public:
  /// Builds the index over `table`.`column`. The table must outlive the
  /// index; the index observes but does not own the table.
  OrderedIndex(const Table* table, size_t column);

  OrderedIndex(const OrderedIndex&) = delete;
  OrderedIndex& operator=(const OrderedIndex&) = delete;

  const Table* table() const { return table_; }
  size_t column() const { return column_; }
  uint64_t num_entries() const { return row_ids_.size(); }

  /// Row ids whose key equals `key`, in key-then-row order. Returns the
  /// half-open range [begin, end) into entry storage.
  struct EntryRange {
    const uint64_t* begin = nullptr;
    const uint64_t* end = nullptr;
    size_t size() const { return static_cast<size_t>(end - begin); }
  };
  EntryRange EqualRange(const Value& key) const;

  /// Row ids with lo <= key <= hi (either bound optional via NULL Value and
  /// the *_unbounded flags).
  EntryRange Range(const Value& lo, bool lo_inclusive, bool lo_unbounded,
                   const Value& hi, bool hi_inclusive, bool hi_unbounded) const;

  /// Largest number of rows sharing one key (used by the bounds tracker to
  /// cap index-nested-loops upper bounds, Section 5.1).
  uint64_t max_key_multiplicity() const { return max_key_multiplicity_; }

 private:
  // Index of the first entry whose key is not below `key` (upper = false),
  // or the first whose key is above it (upper = true).
  size_t Bound(const Value& key, bool upper) const;

  const Table* table_;
  size_t column_;
  // Row ids of the non-NULL keys, ascending by (key, row id).
  std::vector<uint64_t> row_ids_;
  uint64_t max_key_multiplicity_ = 0;
};

}  // namespace qprog

#endif  // QPROG_INDEX_ORDERED_INDEX_H_
