// MetricsRegistry: named counters and histograms for the engine's own
// machinery — checkpoint latency, estimator evaluation cost, bound
// refinements — dumpable as JSON or Prometheus text.
//
// Header-only so qprog_core can record into a registry without a link
// dependency on the observability library. Not thread-safe by design: one
// registry observes one single-threaded execution, like ExecContext.

#ifndef QPROG_OBS_METRICS_REGISTRY_H_
#define QPROG_OBS_METRICS_REGISTRY_H_

#include <cmath>
#include <cstdint>
#include <map>
#include <string>

#include "common/strings.h"

namespace qprog {

/// A log2-bucketed histogram of non-negative samples (typically nanoseconds).
/// Bucket i counts samples in [2^i, 2^(i+1)); bucket 0 also holds 0-valued
/// samples. 64 buckets cover the full uint64 range.
class LatencyHistogram {
 public:
  static constexpr size_t kNumBuckets = 64;

  void Record(double value) {
    if (value < 0 || std::isnan(value)) value = 0;
    ++count_;
    sum_ += value;
    if (count_ == 1 || value < min_) min_ = value;
    if (count_ == 1 || value > max_) max_ = value;
    ++buckets_[BucketOf(value)];
  }

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ == 0 ? 0 : min_; }
  double max() const { return count_ == 0 ? 0 : max_; }
  double mean() const {
    return count_ == 0 ? 0 : sum_ / static_cast<double>(count_);
  }
  uint64_t bucket(size_t i) const { return buckets_[i]; }

  /// Estimate of the p-th percentile (p in [0, 1]): finds the bucket holding
  /// the target rank and linearly interpolates within it by rank, clamped to
  /// the observed [min, max]. Reporting the bucket's upper bound would
  /// overstate tail latency by up to 2x (a max of 41865 reads as a p99 of
  /// 65536); interpolation keeps the estimate inside the observed range.
  double ApproxPercentile(double p) const {
    if (count_ == 0) return 0;
    uint64_t target = static_cast<uint64_t>(p * static_cast<double>(count_));
    if (target >= count_) target = count_ - 1;
    uint64_t seen = 0;
    for (size_t i = 0; i < kNumBuckets; ++i) {
      if (buckets_[i] == 0) continue;
      if (seen + buckets_[i] > target) {
        double lo = i == 0 ? 0.0 : static_cast<double>(1ULL << i);
        double hi = static_cast<double>(1ULL << (i + 1 <= 63 ? i + 1 : 63));
        // Rank position within the bucket, at the midpoint of the sample's
        // unit slot so a single-sample bucket reads as its center.
        double frac = (static_cast<double>(target - seen) + 0.5) /
                      static_cast<double>(buckets_[i]);
        double v = lo + frac * (hi - lo);
        if (v < min_) v = min_;
        if (v > max_) v = max_;
        return v;
      }
      seen += buckets_[i];
    }
    return max_;
  }

 private:
  static size_t BucketOf(double value) {
    if (value < 1.0) return 0;
    double l = std::log2(value);
    size_t b = static_cast<size_t>(l);
    return b >= kNumBuckets ? kNumBuckets - 1 : b;
  }

  uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
  uint64_t buckets_[kNumBuckets] = {};
};

class MetricsRegistry {
 public:
  /// Adds `n` to the named counter (created at zero on first use).
  void IncrementCounter(const std::string& name, uint64_t n = 1) {
    counters_[name] += n;
  }
  uint64_t counter(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

  /// Returns the named histogram, creating it on first use.
  LatencyHistogram* histogram(const std::string& name) {
    return &histograms_[name];
  }
  const LatencyHistogram* FindHistogram(const std::string& name) const {
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
  }

  size_t num_counters() const { return counters_.size(); }
  size_t num_histograms() const { return histograms_.size(); }

  /// JSON dump with deterministic (sorted) key order:
  ///   {"counters":{...},"histograms":{"name":{"count":..,"sum":..,
  ///    "min":..,"max":..,"mean":..,"p50":..,"p99":..},...}}
  std::string ToJson() const {
    std::string out = "{\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : counters_) {
      if (!first) out += ',';
      first = false;
      out += StringPrintf("\"%s\":%llu", name.c_str(),
                          static_cast<unsigned long long>(value));
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto& [name, h] : histograms_) {
      if (!first) out += ',';
      first = false;
      out += StringPrintf(
          "\"%s\":{\"count\":%llu,\"sum\":%.6g,\"min\":%.6g,\"max\":%.6g,"
          "\"mean\":%.6g,\"p50\":%.6g,\"p99\":%.6g}",
          name.c_str(), static_cast<unsigned long long>(h.count()), h.sum(),
          h.min(), h.max(), h.mean(), h.ApproxPercentile(0.5),
          h.ApproxPercentile(0.99));
    }
    out += "}}";
    return out;
  }

  /// Prometheus text exposition (one scrapeable page): counters as
  /// `<prefix><name> <value>` counter metrics, histograms as summaries with
  /// p50/p99 quantile gauges plus `_sum`/`_count`. Metric names are
  /// sanitized to [a-zA-Z0-9_]; key order is deterministic (sorted), so the
  /// dump is golden-testable.
  std::string DumpPrometheus(const std::string& prefix = "qprog_") const {
    std::string out;
    for (const auto& [name, value] : counters_) {
      std::string metric = prefix + SanitizeMetricName(name);
      out += StringPrintf("# TYPE %s counter\n%s %llu\n", metric.c_str(),
                          metric.c_str(),
                          static_cast<unsigned long long>(value));
    }
    for (const auto& [name, h] : histograms_) {
      std::string metric = prefix + SanitizeMetricName(name);
      out += StringPrintf(
          "# TYPE %s summary\n"
          "%s{quantile=\"0.5\"} %.6g\n"
          "%s{quantile=\"0.99\"} %.6g\n"
          "%s_sum %.6g\n"
          "%s_count %llu\n",
          metric.c_str(), metric.c_str(), h.ApproxPercentile(0.5),
          metric.c_str(), h.ApproxPercentile(0.99), metric.c_str(), h.sum(),
          metric.c_str(), static_cast<unsigned long long>(h.count()));
    }
    return out;
  }

 private:
  static std::string SanitizeMetricName(const std::string& name) {
    std::string out = name;
    for (char& c : out) {
      bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                (c >= '0' && c <= '9') || c == '_';
      if (!ok) c = '_';
    }
    return out;
  }

  std::map<std::string, uint64_t> counters_;
  std::map<std::string, LatencyHistogram> histograms_;
};

}  // namespace qprog

#endif  // QPROG_OBS_METRICS_REGISTRY_H_
