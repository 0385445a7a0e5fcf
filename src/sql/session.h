// SqlSession: one client's SQL entry point over a shared database — the
// seam between the SQL layer (parse/plan) and the execution environment
// (guard, spill, pool, telemetry), and the layer at which a *per-query*
// estimator choice finally reaches CreateEstimator: the session carries
// default estimator specs ("hybrid:2.5", "window:32", ...) and every
// ExecuteMonitored call may override them, with malformed specs surfacing
// as kInvalidArgument before any execution starts.
//
// A session is single-threaded (one query at a time, like a client
// connection); many sessions over one Database are safe because execution
// never mutates the catalog. Cross-session coordination — shared memory
// pools, admission, quotas — lives above this layer in server/QueryServer,
// which owns one SqlSession per connection and wires per-session guards and
// spill managers into these options.
//
// When a WorkloadStatsRegistry is attached, every run (monitored or not)
// records its template fingerprint and resource figures, growing the priors
// the admission controller predicts from. The wall-clock figure is the only
// nondeterministic field; admission decisions never read it (it feeds the
// predicted-wait *hint* only), so a fixed seed still yields fixed decisions.

#ifndef QPROG_SQL_SESSION_H_
#define QPROG_SQL_SESSION_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "core/monitor.h"
#include "obs/cross_run_registry.h"
#include "obs/workload_stats.h"
#include "sql/planner.h"
#include "storage/catalog.h"

namespace qprog {
namespace sql {

/// Session-wide configuration: default estimator specs plus the borrowed
/// execution environment (all pointers optional and caller-owned). The
/// engine knobs — worker_pool, partitions — live on the shared
/// ExecutionConfig base (exec/execution_config.h): `partitions > 1` makes
/// the planner build partitioned scan → partial-agg → Exchange → final-agg
/// pipelines for decomposable aggregations (sql/planner.h).
struct SessionOptions : ExecutionConfig {
  /// Estimator specs for monitored runs without a per-query override.
  /// CreateEstimator syntax — parameterized specs like "hybrid:2.5" and
  /// "window:32" are accepted.
  std::vector<std::string> estimators = {"dne", "safe"};
  /// Checkpoint every this many units of work (getnext calls).
  uint64_t checkpoint_interval = 1000;

  QueryGuard* guard = nullptr;
  FaultInjector* fault_injector = nullptr;
  SpillManager* spill_manager = nullptr;
  TelemetryCollector* telemetry = nullptr;
  MetricsRegistry* metrics_registry = nullptr;
  /// Per-template priors sink; shared across sessions (thread-safe).
  WorkloadStatsRegistry* workload_stats = nullptr;
  /// Cross-run estimator registry (obs/cross_run_registry.h); shared across
  /// sessions (thread-safe). When attached, every monitored run records a
  /// CrossRunObservation, plans are re-seeded from observed cardinality
  /// priors before execution (unless cross_run_feedback is off), and an
  /// "auto" estimator spec resolves to the template's historically-best
  /// fixed estimator.
  CrossRunRegistry* cross_run = nullptr;
  /// Re-seed estimated_rows from cross-run priors on plan construction.
  bool cross_run_feedback = true;
  /// Completed runs a template needs before its priors are trusted — the k
  /// of both prior feedback and auto-selection warmth.
  uint64_t cross_run_min_runs = 3;
  /// Wall-clock ETA model for monitored runs; each checkpoint then carries
  /// a calibrated [eta_lo, eta, eta_hi] band. Like the rest of the
  /// environment, borrowed — and single-threaded, so one model serves one
  /// session (the server wires a fresh model per ticket).
  EtaModel* eta_model = nullptr;
};

/// Per-query overrides for one ExecuteMonitored call.
struct QueryOptions {
  /// Estimator specs for this query; empty = the session's defaults.
  std::vector<std::string> estimators;
  /// 0 = the session's default interval.
  uint64_t checkpoint_interval = 0;
  /// Forwarded to MonitorOptions::checkpoint_listener.
  std::function<void(const Checkpoint&)> checkpoint_listener;
  /// Pre-resolved pick for "auto" estimator specs (an estimator spec like
  /// "pmax"). The server resolves the selection once at Submit time and
  /// passes it here, so the fleet display and the run agree even while
  /// concurrent runs update the registry. Empty = the session resolves the
  /// selection itself at execution time.
  std::string auto_pick;
};

class SqlSession {
 public:
  /// The database and everything in `options` are borrowed and must outlive
  /// the session.
  explicit SqlSession(const Database* db,
                      SessionOptions options = SessionOptions());

  SqlSession(const SqlSession&) = delete;
  SqlSession& operator=(const SqlSession&) = delete;

  /// Parse + plan + execute under the session's guard/spill environment,
  /// returning the result rows (no progress monitoring).
  StatusOr<std::vector<Row>> Execute(const std::string& query);

  /// Parse + plan + monitored run: resolves the estimator specs (per-query
  /// override first, else the session defaults) through CreateEstimator —
  /// kInvalidArgument on a malformed spec, before execution — then runs
  /// under a ProgressMonitor. A guardrail abort is NOT an error return: the
  /// report carries the partial checkpoints and the aborting status, exactly
  /// as ProgressMonitor::Run reports it.
  StatusOr<ProgressReport> ExecuteMonitored(
      const std::string& query, const QueryOptions& q = QueryOptions());

  const SessionOptions& options() const { return options_; }
  const Database* db() const { return db_; }
  /// Queries that reached execution (parse/plan/spec failures excluded).
  uint64_t queries_run() const { return queries_run_; }

 private:
  void RecordWorkload(uint64_t fingerprint, bool completed, uint64_t work,
                      uint64_t spill_work, uint64_t peak_buffered_rows,
                      uint64_t root_rows, uint64_t wall_ns);

  const Database* db_;
  SessionOptions options_;
  uint64_t queries_run_ = 0;
};

}  // namespace sql
}  // namespace qprog

#endif  // QPROG_SQL_SESSION_H_
