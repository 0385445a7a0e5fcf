// CrossRunRegistry: what the engine remembers *between* queries — the
// crash-safe store of per-template estimator accuracy and cardinality
// outcomes that turns the paper's within-run machinery into a learning
// system across runs.
//
// Three consumers, one record stream:
//
//  * Robust estimator selection (König et al., PAPERS.md): per template and
//    per estimator, the registry aggregates the terminal progress error —
//    |claimed − true| at each checkpoint, bucketed into true-progress
//    deciles — and SelectEstimator() returns the historically-best fixed
//    estimator among the candidate set once a template has enough runs. A
//    cold template falls back to dne_bounded, deterministically.
//
//  * Prior feedback: per (template fingerprint, plan-node id), rstats-style
//    cardinality-error aggregates (avg / RMS / time-weighted /
//    cost-weighted |log(actual/est)|, following pg_track_optimizer) plus the
//    observed mean actual rows. ApplyPriors() re-seeds a fresh plan's
//    estimated_rows from those observations — feeding the dne family's
//    driver totals — guarded twice: the plan's structural signature must
//    match the recorded one, and every prior must pass a sanity clamp
//    against the node's static per-pass upper bound. estimated_rows is read
//    only by the estimators (never the BoundsTracker), so re-seeding cannot
//    violate Curr <= LB <= UB.
//
//  * Admission priors (LearnedWMP, PAPERS.md): every run, monitored or
//    not, folds its resource figures into the template's WorkloadStats.
//    The admission controller (server/admission.h) reads them back through
//    LookupWorkload(); with a log attached they survive a restart.
//
// Persistence is a RegistryLog (storage/registry_log.h): every RecordRun
// appends one observation record and fsyncs; Compact() rewrites the log as
// one aggregate record per template (atomic rename). Recovery replays
// whatever prefix survived — torn tails truncated, corrupt records skipped
// — and the in-memory state is exactly the fold of the recovered records.
//
// Thread-safe: server sessions record concurrently while Submit-time
// selection and admission read. Readers never wait on log I/O: the maps have
// their own mutex, which is never held across an append, fsync or compaction.

#ifndef QPROG_OBS_CROSS_RUN_REGISTRY_H_
#define QPROG_OBS_CROSS_RUN_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/monitor.h"
#include "storage/registry_log.h"

namespace qprog {

class PhysicalPlan;

/// True-progress deciles the estimator error series is bucketed into:
/// bucket d covers (d/10, (d+1)/10].
inline constexpr int kProgressDeciles = 10;

/// One finished (or aborted) run's resource figures. Peak buffered rows is
/// the engine's memory proxy; wall time is the only nondeterministic field,
/// and admission decisions never read it.
struct WorkloadObservation {
  bool completed = false;
  uint64_t work = 0;
  uint64_t spill_work = 0;
  uint64_t peak_buffered_rows = 0;
  uint64_t root_rows = 0;
  uint64_t wall_ns = 0;
};

/// Aggregate over every observation of one template — the admission
/// controller's prior.
struct WorkloadStats {
  uint64_t runs = 0;  // observations recorded (completed + aborted)
  uint64_t completed_runs = 0;
  uint64_t total_work = 0;
  uint64_t total_spill_work = 0;
  uint64_t total_root_rows = 0;
  uint64_t total_wall_ns = 0;
  uint64_t total_peak_buffered_rows = 0;
  uint64_t max_peak_buffered_rows = 0;
  uint64_t max_work = 0;

  /// Mean wall time per run in nanoseconds (0 with no runs).
  uint64_t MeanWallNanos() const {
    return runs > 0 ? total_wall_ns / runs : 0;
  }
};

/// rstats-style cardinality-error aggregate for one (template, node) pair.
/// Errors are |log(actual/est)| per run (LogScaleError, obs/accuracy.h).
struct CrossRunNodeStats {
  uint64_t runs = 0;            // runs contributing an error (known estimate)
  double sum_log_err = 0;
  double sum_sq_log_err = 0;
  double sum_time_weighted = 0;  // err * next_ns
  double sum_time_weight = 0;    // next_ns
  double sum_cost_weighted = 0;  // err * actual_rows
  double sum_cost_weight = 0;    // actual_rows
  uint64_t rows_runs = 0;        // runs contributing actual rows (all runs)
  double sum_actual_rows = 0;
  double max_actual_rows = 0;

  double AvgLogError() const {
    return runs > 0 ? sum_log_err / static_cast<double>(runs) : 0;
  }
  double RmsLogError() const;
  /// Emphasises errors in expensive nodes; 0 without wall-time telemetry.
  double TimeWeightedLogError() const {
    return sum_time_weight > 0 ? sum_time_weighted / sum_time_weight : 0;
  }
  /// Emphasises errors in high-cardinality nodes.
  double CostWeightedLogError() const {
    return sum_cost_weight > 0 ? sum_cost_weighted / sum_cost_weight : 0;
  }
  /// The re-seeding prior: mean observed production of this node.
  double MeanActualRows() const {
    return rows_runs > 0 ? sum_actual_rows / static_cast<double>(rows_runs) : -1;
  }
};

/// Terminal progress-error aggregate for one (template, estimator) pair.
/// Per run, the contribution is the run's average |claimed − true| over its
/// checkpoints; deciles record the error of the checkpoint closest to each
/// true-progress decile (the claimed-vs-true series König-style selection
/// scores on).
struct CrossRunEstimatorStats {
  uint64_t runs = 0;
  double sum_avg_abs_err = 0;
  double sum_sq_avg_abs_err = 0;
  double max_abs_err = 0;  // worst single-checkpoint error ever seen
  double decile_sum[kProgressDeciles] = {0};
  uint64_t decile_count[kProgressDeciles] = {0};

  double AvgError() const {
    return runs > 0 ? sum_avg_abs_err / static_cast<double>(runs) : 0;
  }
  /// The selection score: RMS of per-run average errors — punishes the
  /// occasional catastrophic run harder than the mean does.
  double RmsError() const;
  /// Mean abs error at decile `d` (0-based), or -1 with no samples there.
  double DecileError(int d) const;
};

/// Everything remembered about one template, in deterministic (ordered-map)
/// iteration order.
struct CrossRunTemplateStats {
  uint64_t fingerprint = 0;
  /// PlanSignature of the recorded runs. Priors are rejected wholesale when
  /// a new plan's signature differs (plan shape drifted); the signature of
  /// the *latest* recorded run wins, so a changed template relearns.
  uint64_t plan_signature = 0;
  std::map<int, CrossRunNodeStats> nodes;
  std::map<std::string, CrossRunEstimatorStats> estimators;
  /// Every run's resource figures; also the template's run counters.
  WorkloadStats workload;
};

/// One run's contribution to the registry — the unit of the on-disk log.
/// An unmonitored or aborted run carries workload figures only.
struct CrossRunObservation {
  uint64_t fingerprint = 0;
  uint64_t plan_signature = 0;
  WorkloadObservation workload;

  struct Node {
    int node_id = -1;
    uint64_t actual_rows = 0;
    double estimated_rows = -1;  // < 0 = unknown (no error contribution)
    uint64_t next_ns = 0;
  };
  std::vector<Node> nodes;

  struct Estimator {
    std::string name;
    double avg_abs_err = 0;
    double max_abs_err = 0;
    /// Error at the checkpoint closest to each decile; -1 = no checkpoint
    /// landed near that decile (short runs).
    double decile_err[kProgressDeciles];
    Estimator() {
      for (double& d : decile_err) d = -1;
    }
  };
  std::vector<Estimator> estimators;
};

/// Builds the observation for a finished monitored run. Node and estimator
/// entries exist only for completed runs: true progress is unknowable for an
/// aborted run, and its actual row counts are partial (a lower bound) — so
/// an aborted run contributes workload figures only.
CrossRunObservation BuildCrossRunObservation(uint64_t fingerprint,
                                             const ProgressReport& report,
                                             uint64_t wall_ns);

/// What ApplyPriors did to one plan.
struct CrossRunPriorReport {
  /// Priors existed for the template (>= min_runs and signature checked).
  bool had_history = false;
  /// Plan signature differed from the recorded one; all priors rejected.
  bool signature_mismatch = false;
  int nodes_reseeded = 0;
  /// Priors discarded by the sanity clamp (non-finite, negative, or above
  /// the node's static per-pass upper bound).
  int priors_rejected = 0;
};

class CrossRunRegistry {
 public:
  /// The fixed estimators auto-selection chooses among, in canonical
  /// (tie-breaking) order.
  static const std::vector<std::string>& SelectionCandidates();
  /// The deterministic pick for a template with insufficient history.
  static constexpr const char* kColdFallback = "dne_bounded";

  CrossRunRegistry() = default;
  CrossRunRegistry(const CrossRunRegistry&) = delete;
  CrossRunRegistry& operator=(const CrossRunRegistry&) = delete;

  // --- persistence ---------------------------------------------------------

  /// Attaches (creating if absent) the crash-safe log at `path` and replays
  /// every recoverable record into memory. `recovery` (optional) reports
  /// what was recovered and repaired; records that decode to garbage despite
  /// an intact checksum are counted in decode_skipped(). Without OpenLog the
  /// registry is memory-only.
  Status OpenLog(const std::string& path,
                 RegistryLogOptions options = RegistryLogOptions(),
                 RegistryRecoveryReport* recovery = nullptr);

  /// Folds one observation into memory and, with a log attached, appends
  /// and fsyncs it — after an OK return the observation survives kill-9.
  /// The fold is visible to readers before the append finishes. A
  /// log-append failure leaves memory updated (this process still benefits)
  /// and returns the error.
  Status RecordRun(const CrossRunObservation& obs);

  /// Memory-only fold (no log I/O) — the replay path and the memory-only
  /// registry's record path.
  void Record(const CrossRunObservation& obs);

  /// Rewrites the log as one aggregate record per template (atomic rename).
  /// Bounds log growth: N runs collapse to num_templates() records.
  Status Compact();

  bool log_open() const;
  uint64_t log_bytes() const;
  uint64_t log_io_retries() const;
  /// Intact-checksum records whose payload failed to decode (version skew,
  /// truncated serialization) — skipped, like checksum corruption.
  uint64_t decode_skipped() const;

  // --- queries -------------------------------------------------------------

  CrossRunTemplateStats Lookup(uint64_t fingerprint,
                               bool* found = nullptr) const;
  /// The template's workload aggregate alone — the admission path's cheap
  /// point read (no node or estimator maps copied). An unseen template
  /// returns a zero aggregate with `found` (optional) false.
  WorkloadStats LookupWorkload(uint64_t fingerprint,
                               bool* found = nullptr) const;
  size_t num_templates() const;

  /// König-style selection: the candidate with the lowest historical
  /// RmsError for this template, among candidates with >= `min_runs`
  /// completed runs; ties break on canonical candidate order. Returns
  /// kColdFallback when no candidate qualifies. Deterministic given the
  /// registry state.
  std::string SelectEstimator(uint64_t fingerprint,
                              uint64_t min_runs = 3) const;

  /// Re-seeds `plan`'s estimated_rows from the template's observed mean
  /// actual rows, for nodes with >= `min_runs` error-contributing runs.
  /// Guards: the plan's PlanSignature must match the recorded one (else
  /// nothing is touched), and each prior must be finite, non-negative and
  /// <= StaticPerPassUpperBound(node) (else that prior is discarded and
  /// counted). Never touches the BoundsTracker's inputs.
  CrossRunPriorReport ApplyPriors(uint64_t fingerprint, PhysicalPlan* plan,
                                  uint64_t min_runs = 3) const;

  // --- reports -------------------------------------------------------------

  struct Offender {
    uint64_t fingerprint = 0;
    int node_id = -1;
    double rms_log_error = 0;
    uint64_t runs = 0;
  };
  /// (template, node) pairs ranked by RMS cardinality error, worst first.
  std::vector<Offender> WorstOffenders(size_t limit = 10) const;

  /// Deterministic JSON dump of every template's aggregates.
  std::string ToJson() const;

 private:
  void RecordLocked(const CrossRunObservation& obs);
  void MergeAggregateLocked(const CrossRunTemplateStats& stats);
  std::string SelectLocked(uint64_t fingerprint, uint64_t min_runs) const;

  /// Taken before mu_. Serializes log I/O: RecordRun's fold-then-append
  /// and Compact's snapshot-then-rewrite, so a compaction never sees a fold
  /// whose append is still to come. Guards log_.
  mutable std::mutex log_mu_;
  /// Guards the in-memory state only; never held across log I/O.
  mutable std::mutex mu_;
  std::map<uint64_t, CrossRunTemplateStats> by_template_;
  std::unique_ptr<RegistryLog> log_;
  uint64_t decode_skipped_ = 0;
};

/// Record serialization, exposed for tests that hand-craft logs.
/// Wire format: [u8 record type][u8 version][LE body]. Type 1 = observation,
/// type 2 = template aggregate (Compact output). Unknown types and versions
/// are skipped on replay (forward compatibility), counted as decode skips.
/// Version 1 carries the run counters twice: a slot ahead of the workload
/// figures (observation: completed; aggregate: runs, completed_runs) and the
/// workload figures themselves. Encoders fill the early slot from the
/// workload figures; decoders read and discard it.
std::string EncodeCrossRunObservation(const CrossRunObservation& obs);
std::string EncodeCrossRunAggregate(const CrossRunTemplateStats& stats);
bool DecodeCrossRunObservation(const std::string& payload,
                               CrossRunObservation* obs);
bool DecodeCrossRunAggregate(const std::string& payload,
                             CrossRunTemplateStats* stats);

}  // namespace qprog

#endif  // QPROG_OBS_CROSS_RUN_REGISTRY_H_
