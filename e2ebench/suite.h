// Query-suite machinery shared by the TPC-H workloads and the fleet's
// per-layer profile: timed unmonitored and monitored executions, the
// reference pass, output and determinism checks, and the traced rounds
// that yield the exec/core/obs/spill per-layer metrics.

#ifndef QPROG_E2EBENCH_SUITE_H_
#define QPROG_E2EBENCH_SUITE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "exec/plan.h"
#include "obs/eta_model.h"

namespace qprog {
class WorkerPool;
}

namespace e2e {

/// A named query and the way to build a fresh plan for it.
struct SuiteQuery {
  std::string name;
  std::function<qprog::PhysicalPlan()> plan;
};

/// The workload's execution environment. A fresh guard and spill manager
/// are made per execution; the worker pool is shared.
struct Env {
  uint64_t soft_budget_rows = 0;  // 0 = unbudgeted, nothing spills
  qprog::WorkerPool* pool = nullptr;
  std::string spill_dir;
  bool budgeted() const { return soft_budget_rows > 0; }
};

/// What every execution of a query must reproduce.
struct Expected {
  Digest digest;      // serial, unbudgeted, unmonitored reference
  uint64_t work = 0;  // total(Q) in the workload's environment
  uint64_t interval = 1;
  // Monitored-run values pinned by the first monitored run.
  bool pinned = false;
  uint64_t spill_work = 0;
  double dne_avg_err = 0;
  double safe_max_ratio_err = 0;
};

/// Runs every query once serially, unbudgeted and unmonitored; records row
/// digests and work. With `corrupt` every digest is deliberately wrong.
std::vector<Expected> ReferencePass(const std::vector<SuiteQuery>& queries,
                                    bool corrupt);

/// Re-runs every query unmonitored under `env`, checks the digests against
/// the reference and takes the budgeted work as total(Q).
void BudgetedPass(const std::vector<SuiteQuery>& queries, const Env& env,
                  std::vector<Expected>* expected, Result* result);

/// Sets each query's checkpoint interval to ~100 checkpoints per run.
void SetIntervals(std::vector<Expected>* expected);

/// One monitored run under `env` with every estimator and an EtaModel; the
/// ETA claims are scored into `cal` (may be null). Checks the outcome
/// against `e` and pins its deterministic values on first use. Returns the
/// wall time in ms (plan build + run + teardown).
double MonitoredRun(const SuiteQuery& query, const Env& env, Expected* e,
                    qprog::EtaCalibration* cal, Result* result);

/// Traced rounds: per query, four variants in rotating order — A the
/// monitored end-to-end configuration, B A plus TelemetryCollector and
/// MetricsRegistry, C unmonitored tuple Drive, D unmonitored batch-1024
/// Drive — repeated until `seconds` pass (at least `min_rounds`). Sets the
/// exec.*, core.*, obs.* and spill.* per-layer metrics. Returns the rounds.
int TracedRounds(const std::vector<SuiteQuery>& queries, const Env& env,
                 std::vector<Expected>* expected, double seconds,
                 int min_rounds, Result* result);

/// Sum of per-entry medians (empty entries skipped).
double SumOfMedians(const std::vector<std::vector<double>>& samples);

}  // namespace e2e

#endif  // QPROG_E2EBENCH_SUITE_H_
