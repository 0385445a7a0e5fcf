#include "sql/session.h"

#include <memory>
#include <utility>

#include "common/macros.h"
#include "obs/telemetry.h"
#include "sql/fingerprint.h"

namespace qprog {
namespace sql {

SqlSession::SqlSession(const Database* db, SessionOptions options)
    : db_(db), options_(std::move(options)) {
  QPROG_CHECK(db_ != nullptr);
  QPROG_CHECK(options_.checkpoint_interval > 0);
}

void SqlSession::RecordWorkload(uint64_t fingerprint, bool completed,
                                uint64_t work, uint64_t spill_work,
                                uint64_t peak_buffered_rows,
                                uint64_t root_rows, uint64_t wall_ns) {
  if (options_.workload_stats == nullptr) return;
  WorkloadObservation obs;
  obs.completed = completed;
  obs.work = work;
  obs.spill_work = spill_work;
  obs.peak_buffered_rows = peak_buffered_rows;
  obs.root_rows = root_rows;
  obs.wall_ns = wall_ns;
  options_.workload_stats->Record(fingerprint, obs);
}

StatusOr<std::vector<Row>> SqlSession::Execute(const std::string& query) {
  PlanOptions popts;
  popts.partitions = options_.partitions;
  QPROG_ASSIGN_OR_RETURN(PhysicalPlan plan, PlanSql(query, *db_, popts));
  ExecContext ctx;
  ctx.set_guard(options_.guard);
  ctx.set_fault_injector(options_.fault_injector);
  ctx.set_spill_manager(options_.spill_manager);
  ctx.set_worker_pool(options_.worker_pool);
  ctx.set_telemetry(options_.telemetry);
  if (options_.fault_injector != nullptr) options_.fault_injector->Reset();
  ++queries_run_;
  uint64_t start_ns = MonotonicNanos();
  exec::DriveOptions dopts;
  dopts.ctx = &ctx;
  dopts.collect_rows = true;
  exec::DriveResult result = exec::Drive(&plan, dopts);
  StatusOr<std::vector<Row>> rows =
      result.ok() ? StatusOr<std::vector<Row>>(std::move(result.rows))
                  : StatusOr<std::vector<Row>>(result.status);
  RecordWorkload(TemplateFingerprint(query), rows.ok(), ctx.work(),
                 ctx.total_spill_work(), ctx.peak_buffered_rows(),
                 rows.ok() ? rows.value().size() : 0,
                 MonotonicNanos() - start_ns);
  return rows;
}

StatusOr<ProgressReport> SqlSession::ExecuteMonitored(const std::string& query,
                                                      const QueryOptions& q) {
  PlanOptions popts;
  popts.partitions = options_.partitions;
  QPROG_ASSIGN_OR_RETURN(PhysicalPlan plan, PlanSql(query, *db_, popts));
  const uint64_t fingerprint = TemplateFingerprint(query);
  // Cross-run prior feedback: re-seed the plan's estimated_rows from the
  // template's observed cardinalities before any estimator sees the plan.
  // Guarded inside ApplyPriors (plan-signature match, static-bound clamp);
  // rejected priors leave a metrics breadcrumb instead of touching the plan.
  if (options_.cross_run != nullptr && options_.cross_run_feedback) {
    CrossRunPriorReport priors = options_.cross_run->ApplyPriors(
        fingerprint, &plan, options_.cross_run_min_runs);
    if (options_.metrics_registry != nullptr) {
      MetricsRegistry* m = options_.metrics_registry;
      if (priors.nodes_reseeded > 0) {
        m->IncrementCounter("cross_run.nodes_reseeded",
                            static_cast<uint64_t>(priors.nodes_reseeded));
      }
      if (priors.priors_rejected > 0) {
        m->IncrementCounter("cross_run.priors_rejected",
                            static_cast<uint64_t>(priors.priors_rejected));
      }
      if (priors.signature_mismatch) {
        m->IncrementCounter("cross_run.signature_mismatch");
      }
    }
  }
  // Resolve estimator specs before touching the plan: a malformed per-query
  // spec ("hybrid:nope") must fail the query, not crash the session. A bare
  // "auto" spec resolves here: the server's Submit-time pick wins when
  // provided; otherwise the registry selects (deterministically, given its
  // state), falling back to dne_bounded for cold templates.
  std::vector<std::string> specs =
      q.estimators.empty() ? options_.estimators : q.estimators;
  for (std::string& spec : specs) {
    if (spec != "auto") continue;
    if (!q.auto_pick.empty()) {
      spec = "auto:" + q.auto_pick;
    } else if (options_.cross_run != nullptr) {
      spec = "auto:" + options_.cross_run->SelectEstimator(
                           fingerprint, options_.cross_run_min_runs);
    }
    // With no registry, bare "auto" stays — CreateEstimator wraps the
    // dne_bounded cold fallback.
  }
  std::vector<std::unique_ptr<ProgressEstimator>> estimators;
  estimators.reserve(specs.size());
  for (const std::string& spec : specs) {
    QPROG_ASSIGN_OR_RETURN(std::unique_ptr<ProgressEstimator> e,
                           CreateEstimator(spec));
    estimators.push_back(std::move(e));
  }
  MonitorOptions mopts;
  static_cast<ExecutionConfig&>(mopts) = options_;  // engine-knob spine
  mopts.guard = options_.guard;
  mopts.fault_injector = options_.fault_injector;
  mopts.spill_manager = options_.spill_manager;
  mopts.telemetry = options_.telemetry;
  mopts.metrics_registry = options_.metrics_registry;
  mopts.eta_model = options_.eta_model;
  mopts.checkpoint_listener = q.checkpoint_listener;
  ProgressMonitor monitor(&plan, std::move(estimators), std::move(mopts));
  uint64_t interval = q.checkpoint_interval > 0 ? q.checkpoint_interval
                                                : options_.checkpoint_interval;
  ++queries_run_;
  uint64_t start_ns = MonotonicNanos();
  ProgressReport report = monitor.Run(interval);
  uint64_t wall_ns = MonotonicNanos() - start_ns;
  RecordWorkload(fingerprint, report.completed(), report.total_work,
                 report.spill_work, report.peak_buffered_rows,
                 report.root_rows, wall_ns);
  if (options_.cross_run != nullptr) {
    // Recording is best-effort: a log I/O failure must not fail the query —
    // the report is already in hand. The error is surfaced as a breadcrumb.
    Status recorded = options_.cross_run->RecordRun(
        BuildCrossRunObservation(fingerprint, report, wall_ns));
    if (!recorded.ok() && options_.metrics_registry != nullptr) {
      options_.metrics_registry->IncrementCounter("cross_run.record_errors");
    }
  }
  return report;
}

}  // namespace sql
}  // namespace qprog
