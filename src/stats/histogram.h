// Equi-depth single-column histogram — the canonical "lossy single-relation
// statistic" of the paper (Section 2.3). Buckets hold ~equal row counts;
// inside a bucket the distribution is assumed uniform, which is exactly the
// information loss the paper's lower-bound argument exploits.

#ifndef QPROG_STATS_HISTOGRAM_H_
#define QPROG_STATS_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "types/value.h"

namespace qprog {

class Table;

/// Equi-depth histogram over the non-NULL values of one column. Supports
/// numeric columns (BIGINT/DOUBLE/DATE) and strings (ordered lexically).
class Histogram {
 public:
  struct Bucket {
    Value lower;          // inclusive
    Value upper;          // inclusive
    uint64_t count = 0;   // rows in bucket
    uint64_t distinct = 0;  // distinct values in bucket
  };

  Histogram() = default;

  /// Build counts a column's values in a hash table and sorts only the
  /// distinct ones while the column holds at most one distinct value per
  /// kRowsPerCountedValue rows; past that it sorts the column.
  static constexpr uint64_t kRowsPerCountedValue = 16;

  /// Builds an equi-depth histogram with at most `num_buckets` buckets from
  /// the given column. Rows with NULL in the column are tallied separately.
  static Histogram Build(const Table& table, size_t column, size_t num_buckets);

  uint64_t total_rows() const { return total_rows_; }
  uint64_t null_rows() const { return null_rows_; }
  size_t num_buckets() const { return buckets_.size(); }
  const Bucket& bucket(size_t i) const { return buckets_[i]; }

  /// Estimated number of rows with column == v (uniformity within bucket).
  double EstimateEquals(const Value& v) const;

  /// Estimated number of rows with lo <= column <= hi; either bound may be
  /// omitted (unbounded) via the flags. Non-inclusive bounds supported.
  double EstimateRange(const Value& lo, bool lo_inclusive, bool lo_unbounded,
                       const Value& hi, bool hi_inclusive,
                       bool hi_unbounded) const;

  /// Total distinct values across buckets.
  uint64_t TotalDistinct() const;

  std::string ToString() const;

 private:
  // Fraction of bucket `b` with values < v (or <= v), by linear
  // interpolation for numerics, and by the conservative 0.5 for strings.
  double FractionBelow(const Bucket& b, const Value& v, bool inclusive) const;

  std::vector<Bucket> buckets_;
  uint64_t total_rows_ = 0;
  uint64_t null_rows_ = 0;
};

}  // namespace qprog

#endif  // QPROG_STATS_HISTOGRAM_H_
