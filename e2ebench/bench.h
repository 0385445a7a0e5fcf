// Shared pieces of the end-to-end benchmark: options, the metric catalog,
// result accumulation, order-independent row digests, statistics and
// process-level measurements (time, RSS).
//
// The benchmark measures the engine from outside: every timing here wraps a
// call into a module's public API (dbgen, Database, exec::Drive,
// ProgressMonitor, sql::Parse/PlanSelect, QueryServer). The only in-engine
// instruments it attaches are the existing TelemetryCollector and
// MetricsRegistry, and only in the traced run (--trace 1).

#ifndef QPROG_E2EBENCH_BENCH_H_
#define QPROG_E2EBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/plan.h"
#include "obs/telemetry.h"
#include "storage/catalog.h"
#include "types/value.h"

namespace e2e {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  /// Tiny scale factors and short runs: the self-test mode.
  bool quick = false;
  /// Makes every reference digest wrong (row count and hash), so every
  /// output check must fail: proves the checks are live.
  bool corrupt_reference = false;
  /// Writable directory inside the checkout: spill files and the
  /// cross-run determinism records live here.
  std::string state_dir = ".bench_build/e2ebench-state";
  /// Identifies the engine sources (hash of src/), keys determinism records.
  std::string source_hash = "unknown";
  std::string git_sha = "unknown";
};

// -- metric catalog -----------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  // "lower" | "higher"
  double bound;        // end-to-end only; 0 for per-layer metrics
};

/// End-to-end metrics (emitted by every workload with --trace 0).
const std::vector<MetricSpec>& EndToEndMetrics();
/// Per-layer metrics (emitted by every workload with --trace 1).
const std::vector<MetricSpec>& PerLayerMetrics();
/// Operator kinds that get exec.<kind>.* per-layer metrics.
const std::vector<qprog::OpKind>& TracedKinds();
/// The BENCHMARK.json manifest generated from the catalog.
std::string ManifestJson();

// -- results ------------------------------------------------------------------

class Result {
 public:
  /// Records a metric value; the unit comes from the catalog.
  void Set(const std::string& name, double value);
  /// Records the unscaled wall-clock value of a host-scaled time metric
  /// (printed on its own line, for transparency).
  void SetRaw(const std::string& name, double value) { raw_[name] = value; }
  /// Counts one checked operation (a query execution or a request).
  void Attempt() { ++attempted_; }
  /// Counts a failed operation: an error status, a shed request or a wrong
  /// result. `wrong` marks a wrong result, which makes the run incorrect.
  void Fail(const std::string& what, bool wrong);
  /// A determinism violation: the run is incorrect.
  void Nondeterministic(const std::string& what);

  bool correct() const { return wrong_ == 0 && nondeterministic_ == 0; }
  /// (attempted - failed) / attempted: the ok_frac metric.
  double OkFrac() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(attempted_ - failed_) /
                                 static_cast<double>(attempted_);
  }

  /// Prints the failure log (stderr) and the final JSON line (stdout) with
  /// exactly the catalog's metrics for the run mode. Returns the exit code.
  int Emit(bool trace) const;

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t wrong_ = 0;
  uint64_t nondeterministic_ = 0;
  std::vector<std::string> log_;
  std::map<std::string, double> values_;
  std::map<std::string, double> raw_;
};

// -- row digests --------------------------------------------------------------

/// Order-independent digest of a row multiset: the row count plus the
/// wrapping sum of a mixed per-row hash. Doubles hash at 9 significant
/// digits, so a different summation order (spill, worker pool) digests the
/// same.
struct Digest {
  uint64_t rows = 0;
  uint64_t sum = 0;
  void Add(const qprog::Row& row);
  bool operator==(const Digest& o) const {
    return rows == o.rows && sum == o.sum;
  }
  std::string ToString() const;
};

// -- statistics ---------------------------------------------------------------

double Median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q);
double GeoMean(const std::vector<double>& v);
double Mean(const std::vector<double>& v);

// -- process measurements -----------------------------------------------------

inline double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }
inline double Millis(uint64_t ns) { return static_cast<double>(ns) / 1e6; }
/// Peak resident set of the process so far (MB).
double PeakRssMb();
/// Current resident set (MB).
double CurrentRssMb();
int Nproc();

// -- host speed ---------------------------------------------------------------

/// Host-speed probe. The benchmark's hosts are virtual CPUs whose speed
/// drifts by tens of percent over minutes (noisy neighbours); thread CPU
/// time drifts with wall time and there are no hardware counters. The probe
/// runs a fixed kernel that uses no engine code (sort, hash-map build and
/// probe, small allocations, random reads over a 16 MB buffer) and times it;
/// the benchmark samples it between timed operations and reports times
/// scaled to the probe's nominal speed, so a change in the engine moves the
/// reported times and a change in the host mostly does not.
class HostProbe {
 public:
  HostProbe();
  /// Runs the kernel once; returns its wall time in ms and records it.
  double Sample();
  /// Scale factor for times measured since the last Reset(): nominal kernel
  /// time / median sampled kernel time (1 = nominal host speed).
  double Factor() const;
  void Reset() { window_.clear(); }
  /// Median of every sample taken (ms).
  double MedianMs() const { return Median(all_); }

 private:
  std::vector<uint64_t> buffer_;
  std::vector<double> window_;
  std::vector<double> all_;
  uint64_t sink_ = 0;
};

// -- setup --------------------------------------------------------------------

/// Builds the skewed (z = 2) TPC-H database `repeats` times from `seed` and
/// keeps the last one; records each build's split and total times in
/// `result`: setup_s (host-scaled by the probe sampled around each build)
/// and the tpch/index/stats/storage per-layer metrics (wall clock).
std::unique_ptr<qprog::Database> SetupTpch(double sf, uint64_t seed,
                                           int repeats, HostProbe* probe,
                                           Result* result);

/// SplitMix64: derives independent seeds from the run seed.
uint64_t Mix(uint64_t x);
/// Uniform double in [0, 1): element `i` of the stream named by `seed`.
double Uniform(uint64_t seed, uint64_t i);
/// Fills `order` with a permutation of 0..n-1 drawn from (seed, round).
void SeededOrder(uint64_t seed, uint64_t round, std::vector<size_t>* order);

/// Cross-run determinism record: compares `values` with the record of an
/// earlier run at the same (workload, seed, sources); writes it if absent.
void CheckAcrossRuns(const Options& opts,
                     const std::map<std::string, double>& values,
                     Result* result);

/// Per-operator-kind time and row totals, from TelemetryCollector stats.
struct KindTotals {
  double open_ns = 0, next_self_ns = 0, close_ns = 0, rows = 0;
};
/// Adds one traced run of `plan` to `totals`, keyed by OpKind. `telemetry`
/// indexes nodes by pre-order id, as the plan does. Self time per phase is
/// the node's inclusive time minus its children's.
void AddKindTotals(const qprog::PhysicalPlan& plan,
                   const qprog::TelemetryCollector& telemetry,
                   std::map<qprog::OpKind, KindTotals>* totals);
/// Emits exec.<kind>.{open_ms,next_self_ms,close_ms,rows}, divided by
/// `passes` (per-pass values), for every traced kind (0 when absent).
void EmitKindTotals(const std::map<qprog::OpKind, KindTotals>& totals,
                    double passes, Result* result);

int RunTpch(const Options& opts, bool spill);
int RunFleet(const Options& opts);

}  // namespace e2e

#endif  // QPROG_E2EBENCH_BENCH_H_
