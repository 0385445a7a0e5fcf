// KeyDirectory: the distinct keys of a hash operator, each stored once.
// HashJoin's build table chains rows behind it and HashAggregate's group
// table keeps one state vector per entry (DESIGN.md §9).

#ifndef QPROG_EXEC_KEY_DIRECTORY_H_
#define QPROG_EXEC_KEY_DIRECTORY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "types/value.h"

namespace qprog {

/// Distinct keys of `width` values each, numbered densely in first-insertion
/// order and held once, in flat Value cells, behind an open-addressing
/// directory kept at most half full. Keys match under grouping semantics
/// (RowEq): BIGINT 1 finds DOUBLE 1.0, and -0.0 finds 0.0. A VARCHAR cell
/// keeps viewing the bytes its owner already holds.
class KeyDirectory {
 public:
  static constexpr size_t kNotFound = ~size_t{0};

  explicit KeyDirectory(size_t width) : width_(width) {}

  /// The number of `key`, or kNotFound.
  size_t Find(const Row& key) const;
  /// The number of `key`, appending it as number size() when it is new.
  size_t Insert(const Row& key);

  size_t size() const { return hashes_.size(); }
  std::span<const Value> key(size_t k) const {
    return {cells_.data() + k * width_, width_};
  }

  /// Forgets every key but keeps the capacity (the next Grace leaf).
  void Clear();
  /// Forgets every key and frees the memory.
  void Release();

 private:
  static constexpr uint32_t kEmptySlot = ~uint32_t{0};

  /// The slot holding `key`, or the empty slot where it would go.
  size_t SlotOf(const Row& key, size_t hash) const;
  size_t HomeSlot(size_t hash) const {
    return (hash * 0x9E3779B97F4A7C15ULL) >> slot_shift_;
  }
  void Grow();

  size_t width_;
  std::vector<size_t> hashes_;   // per key
  std::vector<Value> cells_;     // width_ cells per key
  std::vector<uint32_t> slots_;  // key number, or kEmptySlot
  int slot_shift_ = 64;          // 64 - log2(slots_.size())
};

}  // namespace qprog

#endif  // QPROG_EXEC_KEY_DIRECTORY_H_
