// ProgressMonitor: executes a plan while sampling every registered estimator
// at work-based checkpoints, then scores them against the true progress
// (knowable only once the query finishes). This is the experimental harness
// behind every figure and table of the paper's evaluation.

#ifndef QPROG_CORE_MONITOR_H_
#define QPROG_CORE_MONITOR_H_

#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/estimators.h"
#include "exec/execution_config.h"
#include "exec/fault_injector.h"
#include "exec/query_guard.h"
#include "obs/metrics_registry.h"
#include "obs/telemetry.h"

namespace qprog {

class SpillManager;
class WorkerPool;
class EtaModel;

/// One sampling instant.
struct Checkpoint;

/// Everything a ProgressMonitor borrows, gathered into one construction-time
/// options struct. All pointers are borrowed and may be null; the listener
/// may be empty. This is the only way to wire the environment: the options
/// are fixed at construction, so a monitor's borrowed pointers never change
/// mid-lifetime.
/// The engine-level knob (worker_pool) lives on the
/// shared ExecutionConfig base (exec/execution_config.h) — one spine that
/// MonitorOptions, SessionOptions, and ServerOptions all embed, so adding an
/// engine knob is a one-struct change.
struct MonitorOptions : ExecutionConfig {
  /// Resource guard enforced during monitored runs: cancellation is honored
  /// within one checkpoint interval, and budget / deadline violations end
  /// the run with a partial report.
  QueryGuard* guard = nullptr;
  /// Fault injector, Reset() at the start of every run so a given seed
  /// replays the same fault schedule.
  FaultInjector* fault_injector = nullptr;
  /// Spill manager: blocking operators that would overflow the guard's soft
  /// buffered-row budget spill to disk instead of aborting.
  SpillManager* spill_manager = nullptr;
  /// Telemetry collector: operator stats, bounds history, and — with a
  /// TraceSink — the full replayable event stream.
  TelemetryCollector* telemetry = nullptr;
  /// Metrics registry: checkpoint latency and estimator-cost histograms.
  MetricsRegistry* metrics_registry = nullptr;
  /// Wall-clock ETA model (obs/eta_model.h): when attached, every checkpoint
  /// additionally carries a sanitized [eta_lo, eta, eta_hi] band, and — if
  /// the model's trace option is on — a v4 kEtaSample trace event.
  EtaModel* eta_model = nullptr;
  /// Called after each checkpoint is recorded — the hook a kill-or-wait
  /// policy uses to watch estimates and, e.g., RequestCancel() on the guard.
  std::function<void(const Checkpoint&)> checkpoint_listener;
};
struct Checkpoint {
  uint64_t work = 0;            // Curr
  double true_progress = 0;     // work / true total(Q), filled in after the run
  double work_lb = 0;           // bounds snapshot
  double work_ub = 0;
  std::vector<double> estimates;  // parallel to ProgressReport::names
  /// Wall-clock ETA band (seconds) sampled by an attached EtaModel
  /// (obs/eta_model.h). Sanitized: either all three are finite with
  /// 0 <= eta_lo <= eta <= eta_hi, or all three are +infinity — no model
  /// attached, or no rate sample yet. Renderers show "--" for infinity.
  double eta_seconds = std::numeric_limits<double>::infinity();
  double eta_lo_seconds = std::numeric_limits<double>::infinity();
  double eta_hi_seconds = std::numeric_limits<double>::infinity();
};

/// Why a monitored run stopped. Everything except kCompleted describes an
/// execution-guardrail abort; the report then carries the checkpoints
/// collected up to the stop plus the aborting Status.
enum class TerminationReason {
  kCompleted,
  kCancelled,
  kDeadlineExceeded,
  kBudgetExhausted,  // work or buffered-row budget (kResourceExhausted)
  kFault,            // injected or real operator failure
};

const char* TerminationReasonToString(TerminationReason reason);

/// Maps an execution Status to the termination it represents.
TerminationReason TerminationFromStatus(const Status& status);

/// Error summary for one estimator over a run. Absolute errors are fractions
/// of total progress (the paper's tables report them as percentages); ratio
/// errors follow Section 2.5 (max(est/true, true/est)).
struct EstimatorMetrics {
  double max_abs_err = 0;
  double avg_abs_err = 0;
  double max_ratio_err = 1;
  double avg_ratio_err = 1;
};

/// Per-node cardinality outcome of one monitored run — the raw material of
/// cross-run priors (obs/cross_run_registry.h). Filled by the monitor at run
/// end from the execution counters, so consumers need no access to the
/// internal ExecContext.
struct NodeRunStat {
  int node_id = -1;
  uint64_t actual_rows = 0;    // rows handed to the parent
  double estimated_rows = -1;  // planner estimate; < 0 when unknown
  uint64_t next_ns = 0;        // inclusive getnext time (0 without telemetry)
};

struct ProgressReport {
  std::vector<std::string> names;       // estimator names
  std::vector<Checkpoint> checkpoints;  // in work order
  uint64_t total_work = 0;              // total(Q); for an aborted run, the
                                        // work performed up to the stop
  uint64_t root_rows = 0;               // rows the query returned
  uint64_t spill_work = 0;              // spill I/O units performed
  /// High-water mark of buffered rows over the run — the query's observed
  /// peak memory in the engine's buffered-row proxy. Together with the
  /// template fingerprint this is the admission predictor's training signal
  /// (obs/cross_run_registry.h).
  uint64_t peak_buffered_rows = 0;
  double mu = 0;                        // total(Q) / sum of scanned leaves
                                        // (0 when the run did not complete)
  double scanned_leaf_cardinality = 0;

  /// Latest wall-clock ETA band (seconds), copied from the last checkpoint —
  /// including on cancellation/deadline partial reports, where it is the
  /// band claimed at the last sample before the stop. Invariant (enforced by
  /// EtaModel sanitization, unit-tested): 0 <= eta_lo <= eta <= eta_hi, all
  /// finite once one checkpoint has landed with a model attached, all
  /// +infinity otherwise.
  double eta_seconds = std::numeric_limits<double>::infinity();
  double eta_lo_seconds = std::numeric_limits<double>::infinity();
  double eta_hi_seconds = std::numeric_limits<double>::infinity();

  /// Structural fingerprint of the executed plan (PlanSignature); guards
  /// cross-run priors against plan-shape drift within a template.
  uint64_t plan_signature = 0;
  /// Per-node cardinality outcomes, indexed by node id.
  std::vector<NodeRunStat> node_stats;

  /// How the run ended. On an abort, `checkpoints` holds everything sampled
  /// before the stop and `true_progress` stays 0 (the true total is
  /// unknowable for an unfinished query).
  TerminationReason termination = TerminationReason::kCompleted;
  Status status;  // OK iff termination == kCompleted

  bool completed() const { return termination == TerminationReason::kCompleted; }

  /// Metrics for estimator `i` (index into `names`).
  EstimatorMetrics Metrics(size_t i) const;

  /// Index of `name` in `names`, or -1.
  int FindEstimator(const std::string& name) const;

  /// Tab-separated dump: work, true progress, then one column per estimator.
  std::string ToTsv() const;
};

class ProgressMonitor {
 public:
  /// The monitor borrows `plan` and everything in `options`; the estimators
  /// are owned.
  ProgressMonitor(PhysicalPlan* plan,
                  std::vector<std::unique_ptr<ProgressEstimator>> estimators,
                  MonitorOptions options = MonitorOptions());

  /// Convenience: monitor with the named estimators (must all resolve;
  /// parameterized specs like "hybrid:2.5" are accepted).
  static ProgressMonitor WithEstimators(PhysicalPlan* plan,
                                        const std::vector<std::string>& names,
                                        MonitorOptions options = MonitorOptions());

  /// Executes the plan to completion (or until a guardrail stops it),
  /// checkpointing every `checkpoint_interval` units of work (getnext
  /// calls). Every estimate in the report is sanitized into [0, 1] — a
  /// misbehaving estimator cannot leak NaN or out-of-range values.
  ProgressReport Run(uint64_t checkpoint_interval);

  /// Executes with roughly `approx_checkpoints` samples: performs a throwaway
  /// full execution to learn total(Q), then the monitored run. Requires a
  /// rewindable plan (PlanSupportsRewind); otherwise returns an empty report
  /// whose status is kInvalidArgument. If a guardrail stops the learning
  /// run, its partial report (without checkpoints) is returned.
  ProgressReport RunWithApproxCheckpoints(size_t approx_checkpoints);

 private:
  ProgressReport MakeAbortedReport(const ExecContext& ctx) const;

  /// Emits the kRunEnd trace event (no-op without telemetry).
  void EmitRunEnd(const ProgressReport& report);

  PhysicalPlan* plan_;
  std::vector<std::unique_ptr<ProgressEstimator>> estimators_;
  MonitorOptions options_;
};

}  // namespace qprog

#endif  // QPROG_CORE_MONITOR_H_
