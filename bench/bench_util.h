// Shared helpers for the reproduction benches: series and table printing in
// the shape of the paper's figures/tables, and the provenance header a
// BENCH_*.json records next to its numbers.

#ifndef QPROG_BENCH_BENCH_UTIL_H_
#define QPROG_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "core/monitor.h"

namespace qprog {
namespace bench {

/// Prints "actual <name1> <name2> ..." rows sampled at ~`points` evenly
/// spaced true-progress steps — the data behind a Figure-3/4/5/7 style plot.
inline void PrintSeries(const ProgressReport& report, size_t points = 20) {
  std::printf("%-10s", "actual");
  for (const std::string& name : report.names) {
    std::printf(" %-10s", name.c_str());
  }
  std::printf("\n");
  if (report.checkpoints.empty()) return;
  size_t step = std::max<size_t>(1, report.checkpoints.size() / points);
  for (size_t i = 0; i < report.checkpoints.size(); i += step) {
    const Checkpoint& c = report.checkpoints[i];
    std::printf("%-10.4f", c.true_progress);
    for (double e : c.estimates) std::printf(" %-10.4f", e);
    std::printf("\n");
  }
  const Checkpoint& last = report.checkpoints.back();
  std::printf("%-10.4f", last.true_progress);
  for (double e : last.estimates) std::printf(" %-10.4f", e);
  std::printf("\n");
}

/// Prints the paper's Table-1-style error summary for each estimator.
inline void PrintMetrics(const ProgressReport& report) {
  std::printf("%-12s %-12s %-12s %-14s %-14s\n", "estimator", "max_err",
              "avg_err", "max_ratio_err", "avg_ratio_err");
  for (size_t i = 0; i < report.names.size(); ++i) {
    EstimatorMetrics m = report.Metrics(i);
    std::printf("%-12s %-11.2f%% %-11.2f%% %-14.3f %-14.3f\n",
                report.names[i].c_str(), 100 * m.max_abs_err,
                100 * m.avg_abs_err, m.max_ratio_err, m.avg_ratio_err);
  }
}

inline void PrintHeader(const char* title, const char* paper_context) {
  std::printf("=== %s ===\n", title);
  std::printf("paper: %s\n\n", paper_context);
}

#ifndef QPROG_BENCH_BUILD_TYPE
#define QPROG_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef QPROG_BENCH_SOURCE_DIR
#define QPROG_BENCH_SOURCE_DIR "."
#endif

/// The commit the bench was built from, or "unknown" outside a git checkout.
inline std::string GitSha() {
  std::string sha;
  std::FILE* pipe = popen(
      "git -C '" QPROG_BENCH_SOURCE_DIR "' rev-parse HEAD 2>/dev/null", "r");
  if (pipe != nullptr) {
    char buf[64];
    if (std::fgets(buf, sizeof(buf), pipe) != nullptr) sha = buf;
    pclose(pipe);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  return sha.empty() ? "unknown" : sha;
}

/// The `"provenance":{...}` member of a BENCH_*.json: host cores, build
/// type, git sha and how many times each scenario was repeated.
inline std::string ProvenanceJson(int repetitions) {
  return StringPrintf(
      "\"provenance\":{\"nproc\":%u,\"build_type\":\"%s\","
      "\"git_sha\":\"%s\",\"repetitions\":%d}",
      std::max(1u, std::thread::hardware_concurrency()),
      QPROG_BENCH_BUILD_TYPE, GitSha().c_str(), repetitions);
}

/// Minimum, quartiles and maximum of repeated measurements of one scenario.
struct Spread {
  double min = 0;
  double q1 = 0;
  double median = 0;
  double q3 = 0;
  double max = 0;
};

/// Quartiles interpolate linearly between the order statistics around
/// position p * (n - 1).
inline Spread SpreadOf(std::vector<double> samples) {
  Spread s;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  auto at = [&samples](double p) {
    double pos = p * static_cast<double>(samples.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, samples.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return samples[lo] + frac * (samples[hi] - samples[lo]);
  };
  s.min = samples.front();
  s.q1 = at(0.25);
  s.median = at(0.5);
  s.q3 = at(0.75);
  s.max = samples.back();
  return s;
}

/// `"<name>_min":..,"<name>_q1":..,"<name>_median":..,"<name>_q3":..,
/// "<name>_max":..` for a JSON object.
inline std::string SpreadJson(const char* name, const Spread& s) {
  return StringPrintf(
      "\"%s_min\":%.1f,\"%s_q1\":%.1f,\"%s_median\":%.1f,\"%s_q3\":%.1f,"
      "\"%s_max\":%.1f",
      name, s.min, name, s.q1, name, s.median, name, s.q3, name, s.max);
}

}  // namespace bench
}  // namespace qprog

#endif  // QPROG_BENCH_BENCH_UTIL_H_
