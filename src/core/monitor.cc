#include "core/monitor.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "common/strings.h"
#include "obs/eta_model.h"

namespace qprog {

const char* TerminationReasonToString(TerminationReason reason) {
  switch (reason) {
    case TerminationReason::kCompleted:
      return "completed";
    case TerminationReason::kCancelled:
      return "cancelled";
    case TerminationReason::kDeadlineExceeded:
      return "deadline";
    case TerminationReason::kBudgetExhausted:
      return "budget";
    case TerminationReason::kFault:
      return "fault";
  }
  return "?";
}

TerminationReason TerminationFromStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return TerminationReason::kCompleted;
    case StatusCode::kCancelled:
      return TerminationReason::kCancelled;
    case StatusCode::kDeadlineExceeded:
      return TerminationReason::kDeadlineExceeded;
    case StatusCode::kResourceExhausted:
      return TerminationReason::kBudgetExhausted;
    default:
      return TerminationReason::kFault;
  }
}

namespace {

/// Clamps an estimator's output into the only legal range: a finite fraction
/// in [0, 1]. NaN maps to 0 (no defensible progress claim).
double SanitizeEstimate(double estimate) {
  if (std::isnan(estimate)) return 0.0;
  if (estimate < 0.0) return 0.0;
  if (estimate > 1.0) return 1.0;  // also catches +inf
  return estimate;
}

}  // namespace

EstimatorMetrics ProgressReport::Metrics(size_t i) const {
  EstimatorMetrics m;
  if (checkpoints.empty()) return m;
  double abs_sum = 0;
  double ratio_sum = 0;
  size_t ratio_n = 0;
  for (const Checkpoint& c : checkpoints) {
    double est = c.estimates[i];
    double err = std::fabs(est - c.true_progress);
    m.max_abs_err = std::max(m.max_abs_err, err);
    abs_sum += err;
    if (c.true_progress > 0 && est > 0) {
      double ratio = std::max(est / c.true_progress, c.true_progress / est);
      m.max_ratio_err = std::max(m.max_ratio_err, ratio);
      ratio_sum += ratio;
      ++ratio_n;
    }
  }
  m.avg_abs_err = abs_sum / static_cast<double>(checkpoints.size());
  m.avg_ratio_err = ratio_n > 0 ? ratio_sum / static_cast<double>(ratio_n) : 1;
  return m;
}

int ProgressReport::FindEstimator(const std::string& name) const {
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<int>(i);
  }
  return -1;
}

std::string ProgressReport::ToTsv() const {
  std::string out = "work\ttrue";
  for (const std::string& n : names) out += "\t" + n;
  out += "\n";
  for (const Checkpoint& c : checkpoints) {
    out += StringPrintf("%llu\t%.6f", static_cast<unsigned long long>(c.work),
                        c.true_progress);
    for (double e : c.estimates) out += StringPrintf("\t%.6f", e);
    out += "\n";
  }
  return out;
}

ProgressMonitor::ProgressMonitor(
    PhysicalPlan* plan,
    std::vector<std::unique_ptr<ProgressEstimator>> estimators,
    MonitorOptions options)
    : plan_(plan),
      estimators_(std::move(estimators)),
      options_(std::move(options)) {
  QPROG_CHECK(plan_ != nullptr);
  QPROG_CHECK(!estimators_.empty());
}

ProgressMonitor ProgressMonitor::WithEstimators(
    PhysicalPlan* plan, const std::vector<std::string>& names,
    MonitorOptions options) {
  std::vector<std::unique_ptr<ProgressEstimator>> estimators;
  estimators.reserve(names.size());
  for (const std::string& name : names) {
    auto e = CreateEstimator(name);
    QPROG_CHECK_MSG(e.ok(), "%s", e.status().ToString().c_str());
    estimators.push_back(std::move(e).value());
  }
  return ProgressMonitor(plan, std::move(estimators), std::move(options));
}

ProgressReport ProgressMonitor::Run(uint64_t checkpoint_interval) {
  QPROG_CHECK(checkpoint_interval > 0);
  TelemetryCollector* telemetry = options_.telemetry;
  MetricsRegistry* registry = options_.metrics_registry;
  ProgressReport report;
  for (const auto& e : estimators_) report.names.push_back(e->name());
  report.scanned_leaf_cardinality = ScannedLeafCardinality(*plan_);

  ExecContext ctx;
  ctx.set_guard(options_.guard);
  ctx.set_fault_injector(options_.fault_injector);
  ctx.set_spill_manager(options_.spill_manager);
  ctx.set_worker_pool(options_.worker_pool);
  ctx.set_telemetry(telemetry);
  if (options_.fault_injector != nullptr) {
    options_.fault_injector->Reset();  // deterministic replay
  }
  BoundsTracker tracker(plan_);
  std::vector<Pipeline> pipelines = DecomposePipelines(*plan_);

  if (options_.eta_model != nullptr) options_.eta_model->OnRunStart();

  if (telemetry != nullptr) {
    TraceEvent begin;
    begin.kind = TraceEventKind::kRunBegin;
    begin.name = JoinStrings(report.names, ",");
    begin.a = report.scanned_leaf_cardinality;
    begin.b = static_cast<double>(checkpoint_interval);
    telemetry->Emit(std::move(begin));
  }

  ProgressContext pc;
  pc.plan = plan_;
  pc.exec = &ctx;
  pc.pipelines = &pipelines;
  pc.scanned_leaf_cardinality = report.scanned_leaf_cardinality;

  SpillSnapshot spill_snapshot;
  ctx.SetWorkObserver(checkpoint_interval, [&](uint64_t work) {
    uint64_t cp_start = registry != nullptr ? MonotonicNanos() : 0;
    PlanBounds bounds = tracker.Compute(ctx);
    pc.bounds = &bounds;
    // Spill-aware view for the estimators, from the operators' counters.
    // Exposed only while something has actually spilled.
    spill_snapshot = SpillSnapshot();
    for (const PhysicalOperator* op : plan_->nodes()) {
      ProgressState s;
      op->FillProgressState(ctx, &s);
      if (s.spill_work_done == 0 && s.spill_rows_pending == 0) continue;
      spill_snapshot.spill_work_done += s.spill_work_done;
      spill_snapshot.spill_rows_pending += s.spill_rows_pending;
      if (spill_snapshot.node_pending.empty()) {
        spill_snapshot.node_pending.resize(plan_->nodes().size(), 0);
      }
      spill_snapshot.node_pending[static_cast<size_t>(op->node_id())] =
          s.spill_rows_pending;
    }
    pc.spill = spill_snapshot.active() ? &spill_snapshot : nullptr;
    Checkpoint cp;
    cp.work = work;
    cp.work_lb = bounds.work_lb;
    cp.work_ub = bounds.work_ub;
    cp.estimates.reserve(estimators_.size());
    for (const auto& e : estimators_) {
      if (registry != nullptr) {
        uint64_t eval_start = MonotonicNanos();
        cp.estimates.push_back(SanitizeEstimate(e->Estimate(pc)));
        registry->histogram("estimator_eval_ns")
            ->Record(static_cast<double>(MonotonicNanos() - eval_start));
      } else {
        cp.estimates.push_back(SanitizeEstimate(e->Estimate(pc)));
      }
    }
    if (options_.eta_model != nullptr) {
      EtaBand band = options_.eta_model->OnCheckpoint(work, bounds.work_lb,
                                                      bounds.work_ub);
      cp.eta_seconds = band.eta_s;
      cp.eta_lo_seconds = band.eta_lo_s;
      cp.eta_hi_seconds = band.eta_hi_s;
    }
    if (telemetry != nullptr) {
      // Bounds history first (refinement events carry this checkpoint's
      // work), then the checkpoint, then the estimates it was scored with.
      for (size_t n = 0; n < bounds.node_bounds.size(); ++n) {
        telemetry->RecordNodeBounds(static_cast<int>(n),
                                     bounds.node_bounds[n].lb,
                                     bounds.node_bounds[n].ub, work);
      }
      TraceEvent ev;
      ev.kind = TraceEventKind::kCheckpoint;
      ev.work = work;
      ev.a = bounds.work_lb;
      ev.b = bounds.work_ub;
      telemetry->Emit(std::move(ev));
      for (size_t i = 0; i < estimators_.size(); ++i) {
        TraceEvent est;
        est.kind = TraceEventKind::kEstimatorEvaluated;
        est.work = work;
        est.name = estimators_[i]->name();
        est.a = cp.estimates[i];
        telemetry->Emit(std::move(est));
      }
      // ETA band last (schema v4), opt-in per model: wall-clock values only
      // trace byte-reproducibly under a deterministic clock, so the engine's
      // byte-identical-trace contracts stay intact for ETA-less traces.
      if (options_.eta_model != nullptr &&
          options_.eta_model->trace_enabled()) {
        TraceEvent eta;
        eta.kind = TraceEventKind::kEtaSample;
        eta.work = work;
        eta.a = cp.eta_seconds;
        eta.b = cp.eta_lo_seconds;
        eta.c = cp.eta_hi_seconds;
        telemetry->Emit(std::move(eta));
      }
    }
    report.checkpoints.push_back(std::move(cp));
    pc.bounds = nullptr;
    if (registry != nullptr) {
      registry->IncrementCounter("checkpoints");
      registry->histogram("checkpoint_ns")
          ->Record(static_cast<double>(MonotonicNanos() - cp_start));
    }
    if (options_.checkpoint_listener) {
      options_.checkpoint_listener(report.checkpoints.back());
    }
  });

  report.root_rows = exec::Drive(plan_, {.ctx = &ctx}).root_rows;
  ctx.ClearWorkObserver();

  report.status = ctx.status();
  report.termination = TerminationFromStatus(report.status);
  report.total_work = ctx.work();
  report.spill_work = ctx.total_spill_work();
  report.peak_buffered_rows = ctx.peak_buffered_rows();
  report.plan_signature = PlanSignature(*plan_);
  report.node_stats.reserve(plan_->num_nodes());
  for (const PhysicalOperator* op : plan_->nodes()) {
    NodeRunStat ns;
    ns.node_id = op->node_id();
    ProgressState state;
    op->FillProgressState(ctx, &state);
    ns.actual_rows = state.rows_produced;
    ns.estimated_rows = op->estimated_rows();
    if (telemetry != nullptr) ns.next_ns = telemetry->stats(ns.node_id).next_ns;
    report.node_stats.push_back(ns);
  }
  if (!report.checkpoints.empty()) {
    // Latest ETA band — also on partial (cancelled/deadline/budget) reports,
    // where it is the claim standing at the last sample before the stop.
    const Checkpoint& last = report.checkpoints.back();
    report.eta_seconds = last.eta_seconds;
    report.eta_lo_seconds = last.eta_lo_seconds;
    report.eta_hi_seconds = last.eta_hi_seconds;
  }
  if (registry != nullptr) registry->IncrementCounter("runs");
  if (!report.completed()) {
    // The true total is unknowable for an unfinished query: keep the partial
    // checkpoints (work counters, bounds, estimates) but make no
    // true-progress or mu claims.
    EmitRunEnd(report);
    return report;
  }
  double denom = std::max(1.0, report.scanned_leaf_cardinality);
  report.mu = static_cast<double>(report.total_work) / denom;
  EmitRunEnd(report);
  for (Checkpoint& c : report.checkpoints) {
    c.true_progress = report.total_work > 0
                          ? static_cast<double>(c.work) /
                                static_cast<double>(report.total_work)
                          : 0;
  }
  return report;
}

void ProgressMonitor::EmitRunEnd(const ProgressReport& report) {
  TelemetryCollector* telemetry = options_.telemetry;
  if (telemetry == nullptr) return;
  TraceEvent ev;
  ev.kind = TraceEventKind::kRunEnd;
  ev.work = report.total_work;
  ev.name = TerminationReasonToString(report.termination);
  if (!report.status.ok()) ev.detail = report.status.ToString();
  ev.a = static_cast<double>(report.root_rows);
  ev.b = report.mu;
  telemetry->Emit(std::move(ev));
  if (TraceSink* sink = telemetry->sink(); sink != nullptr) sink->Flush();
}

ProgressReport ProgressMonitor::MakeAbortedReport(const ExecContext& ctx) const {
  ProgressReport report;
  for (const auto& e : estimators_) report.names.push_back(e->name());
  report.status = ctx.status();
  report.termination = TerminationFromStatus(report.status);
  report.total_work = ctx.work();
  report.spill_work = ctx.total_spill_work();
  report.peak_buffered_rows = ctx.peak_buffered_rows();
  return report;
}

ProgressReport ProgressMonitor::RunWithApproxCheckpoints(
    size_t approx_checkpoints) {
  QPROG_CHECK(approx_checkpoints > 0);
  if (!PlanSupportsRewind(*plan_)) {
    ProgressReport report;
    for (const auto& e : estimators_) report.names.push_back(e->name());
    report.status = InvalidArgument(
        "RunWithApproxCheckpoints requires a rewindable plan: its throwaway "
        "learning run re-opens every operator, and this plan contains an "
        "operator with SupportsRewind() == false; use Run(interval) instead");
    report.termination = TerminationReason::kFault;
    return report;
  }
  // Throwaway learning run to measure total(Q). Guardrails stay active (a
  // cancel or deadline must be honored even while learning); the fault
  // injector is reset first so the monitored run replays the same schedule.
  ExecContext ctx;
  ctx.set_guard(options_.guard);
  ctx.set_fault_injector(options_.fault_injector);
  ctx.set_spill_manager(options_.spill_manager);
  ctx.set_worker_pool(options_.worker_pool);
  if (options_.fault_injector != nullptr) options_.fault_injector->Reset();
  exec::Drive(plan_, {.ctx = &ctx});
  if (!ctx.ok()) return MakeAbortedReport(ctx);
  uint64_t total = ctx.work();
  uint64_t interval =
      std::max<uint64_t>(1, total / static_cast<uint64_t>(approx_checkpoints));
  return Run(interval);
}

}  // namespace qprog
