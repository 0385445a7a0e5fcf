#include "stats/histogram.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "common/strings.h"
#include "storage/table.h"

namespace qprog {

Histogram Histogram::Build(const Table& table, size_t column,
                           size_t num_buckets) {
  QPROG_CHECK(num_buckets >= 1);
  Histogram h;
  h.total_rows_ = table.num_rows();
  const Column& col = table.column(column);
  col.Visit([&](auto view) {
    using Key = typename decltype(view)::value_type;
    // Sort the typed payload of the non-NULL rows; equal keys are
    // indistinguishable, so the buckets match a sort of boxed Values.
    std::vector<Key> values;
    values.reserve(col.size());
    for (uint64_t i = 0; i < col.size(); ++i) {
      if (col.is_null(i)) {
        ++h.null_rows_;
      } else {
        values.push_back(view[i]);
      }
    }
    std::sort(values.begin(), values.end());
    const uint64_t n = values.size();
    const uint64_t depth =
        std::max<uint64_t>(1, (n + num_buckets - 1) / num_buckets);
    size_t begin = 0;
    while (begin < n) {
      size_t end = std::min<size_t>(begin + depth, n);
      // Extend the bucket so equal values never straddle a boundary (keeps
      // EstimateEquals consistent).
      while (end < n && values[end] == values[end - 1]) ++end;
      Bucket b;
      b.lower = decltype(view)::Box(values[begin]);
      b.upper = decltype(view)::Box(values[end - 1]);
      b.count = end - begin;
      b.distinct = 1;
      for (size_t i = begin + 1; i < end; ++i) {
        if (values[i] != values[i - 1]) ++b.distinct;
      }
      h.buckets_.push_back(std::move(b));
      begin = end;
    }
  });
  return h;
}

double Histogram::FractionBelow(const Bucket& b, const Value& v,
                                bool inclusive) const {
  if (v.Compare(b.lower) < 0) return 0.0;
  if (v.Compare(b.upper) > 0) return 1.0;
  if (b.lower.type() == TypeId::kString || v.type() == TypeId::kString) {
    // No numeric interpolation for strings; assume half the bucket.
    return 0.5;
  }
  double lo = b.lower.AsDouble();
  double hi = b.upper.AsDouble();
  if (hi <= lo) return inclusive ? 1.0 : 0.0;
  double f = (v.AsDouble() - lo) / (hi - lo);
  if (inclusive) {
    // Include the "slice" of rows equal to v.
    f += 1.0 / std::max<double>(1.0, static_cast<double>(b.distinct));
  }
  return std::clamp(f, 0.0, 1.0);
}

double Histogram::EstimateEquals(const Value& v) const {
  if (v.is_null()) return static_cast<double>(null_rows_);
  for (const Bucket& b : buckets_) {
    if (v.Compare(b.lower) >= 0 && v.Compare(b.upper) <= 0) {
      return static_cast<double>(b.count) /
             std::max<double>(1.0, static_cast<double>(b.distinct));
    }
  }
  return 0.0;
}

double Histogram::EstimateRange(const Value& lo, bool lo_inclusive,
                                bool lo_unbounded, const Value& hi,
                                bool hi_inclusive, bool hi_unbounded) const {
  double total = 0.0;
  for (const Bucket& b : buckets_) {
    double above_lo = 1.0;
    if (!lo_unbounded) {
      // Fraction of the bucket at or above `lo` = 1 - fraction strictly
      // below. FractionBelow(v, inclusive=false) approximates P(x < v);
      // FractionBelow(v, inclusive=true) approximates P(x <= v).
      above_lo = 1.0 - FractionBelow(b, lo, /*inclusive=*/!lo_inclusive);
    }
    double below_hi = 1.0;
    if (!hi_unbounded) {
      below_hi = FractionBelow(b, hi, hi_inclusive);
    }
    double fraction = std::clamp(above_lo + below_hi - 1.0, 0.0, 1.0);
    total += fraction * static_cast<double>(b.count);
  }
  return total;
}

uint64_t Histogram::TotalDistinct() const {
  uint64_t d = 0;
  for (const Bucket& b : buckets_) d += b.distinct;
  return d;
}

std::string Histogram::ToString() const {
  std::string out = StringPrintf("Histogram(%zu buckets, %llu rows, %llu null)",
                                 buckets_.size(),
                                 static_cast<unsigned long long>(total_rows_),
                                 static_cast<unsigned long long>(null_rows_));
  for (const Bucket& b : buckets_) {
    out += StringPrintf("\n  [%s, %s] count=%llu distinct=%llu",
                        b.lower.ToString().c_str(), b.upper.ToString().c_str(),
                        static_cast<unsigned long long>(b.count),
                        static_cast<unsigned long long>(b.distinct));
  }
  return out;
}

}  // namespace qprog
