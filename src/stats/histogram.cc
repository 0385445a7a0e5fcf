#include "stats/histogram.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>

#include "common/macros.h"
#include "common/strings.h"
#include "storage/table.h"

namespace qprog {

namespace {

// One run of equal non-NULL values of a column: a payload value and how many
// rows hold it.
template <typename Key>
struct Run {
  Key value{};
  uint64_t count = 0;
};

// Counts the non-NULL values of `col` in a flat open-addressing table kept at
// most half full, and returns them as runs sorted by value. Keys match under
// the payload's ==, and std::hash hashes keys equal under == alike (-0.0 as
// 0.0). Returns nullopt as soon as the column has more than `max_distinct`
// distinct values; the table it built is freed before the caller sorts the
// column instead.
template <typename View>
std::optional<std::vector<Run<typename View::value_type>>> CountRuns(
    const Column& col, View view, uint64_t max_distinct) {
  using Key = typename View::value_type;
  std::vector<Run<Key>> slots(16);  // count 0: empty
  int shift = 64 - 4;               // 64 - log2(slots.size())
  const auto slot_of = [&](Key v) {
    size_t s = (std::hash<Key>()(v) * 0x9E3779B97F4A7C15ULL) >> shift;
    while (slots[s].count != 0 && !(slots[s].value == v)) {
      s = (s + 1) & (slots.size() - 1);
    }
    return s;
  };
  uint64_t distinct = 0;
  for (uint64_t i = 0; i < col.size(); ++i) {
    if (col.is_null(i)) continue;
    const Key v = view[i];
    size_t s = slot_of(v);
    if (slots[s].count == 0) {
      if (++distinct > max_distinct) return std::nullopt;
      if (2 * distinct > slots.size()) {
        std::vector<Run<Key>> old(slots.size() * 2);
        old.swap(slots);
        --shift;
        for (const Run<Key>& r : old) {
          if (r.count != 0) slots[slot_of(r.value)] = r;
        }
        s = slot_of(v);
      }
      slots[s].value = v;
    }
    ++slots[s].count;
  }
  std::vector<Run<Key>> runs;
  runs.reserve(distinct);
  for (const Run<Key>& r : slots) {
    if (r.count != 0) runs.push_back(r);
  }
  std::sort(runs.begin(), runs.end(), [](const Run<Key>& a, const Run<Key>& b) {
    return a.value < b.value;
  });
  return runs;
}

// Cuts the equi-depth buckets of `n` sorted values, which `for_each_run`
// hands to its callback as runs of equal values in order. A bucket closes on
// the first run that reaches `depth` rows past the bucket's start, so equal
// values never straddle a boundary (keeps EstimateEquals consistent).
template <typename View, typename ForEachRun>
std::vector<Histogram::Bucket> CutBuckets(uint64_t n, size_t num_buckets,
                                          ForEachRun&& for_each_run) {
  using Key = typename View::value_type;
  const uint64_t depth =
      std::max<uint64_t>(1, (n + num_buckets - 1) / num_buckets);
  std::vector<Histogram::Bucket> buckets;
  Histogram::Bucket b;
  uint64_t seen = 0;
  for_each_run([&](Key value, uint64_t count) {
    if (b.count == 0) b.lower = View::Box(value);
    b.count += count;
    ++b.distinct;
    seen += count;
    if (b.count >= depth || seen == n) {
      b.upper = View::Box(value);
      buckets.push_back(std::move(b));
      b = Histogram::Bucket();
    }
  });
  return buckets;
}

}  // namespace

Histogram Histogram::Build(const Table& table, size_t column,
                           size_t num_buckets) {
  QPROG_CHECK(num_buckets >= 1);
  Histogram h;
  h.total_rows_ = table.num_rows();
  const Column& col = table.column(column);
  for (uint64_t i = 0; i < col.size(); ++i) h.null_rows_ += col.is_null(i);
  const uint64_t n = col.size() - h.null_rows_;
  col.Visit([&](auto view) {
    using View = decltype(view);
    using Key = typename View::value_type;
    if (auto runs = CountRuns(col, view, col.size() / kRowsPerCountedValue)) {
      h.buckets_ = CutBuckets<View>(n, num_buckets, [&](auto&& emit) {
        for (const Run<Key>& r : *runs) emit(r.value, r.count);
      });
      return;
    }
    // Too many distinct values to count: sort the typed payload of the
    // non-NULL rows. Equal keys are indistinguishable, so the buckets match
    // a sort of boxed Values.
    std::vector<Key> values;
    values.reserve(n);
    for (uint64_t i = 0; i < col.size(); ++i) {
      if (!col.is_null(i)) values.push_back(view[i]);
    }
    std::sort(values.begin(), values.end());
    h.buckets_ = CutBuckets<View>(n, num_buckets, [&](auto&& emit) {
      for (size_t i = 0; i < values.size();) {
        size_t j = i + 1;
        while (j < values.size() && values[j] == values[j - 1]) ++j;
        emit(values[i], j - i);
        i = j;
      }
    });
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
