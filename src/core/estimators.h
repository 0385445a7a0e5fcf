// The progress-estimator toolkit (Sections 4-6 of the paper).
//
//   dne   — driver-node estimator of [5, 13] (Definition 1): fraction of the
//           driver-node input consumed, summed over all pipelines' drivers.
//           Excellent when per-tuple work variance is low or the input order
//           is predictive; unbounded error otherwise (Example 1).
//   pmax  — Curr / LB (Definition 3): a guaranteed *upper bound* on progress
//           with ratio error <= mu (Theorem 5). Excellent when mu is small.
//   safe  — Curr / sqrt(LB*UB) (Definition 5): worst-case optimal
//           (Theorem 6), ratio error <= sqrt(UB/LB).
//   dne_bounded — dne clamped into the feasible interval [Curr/UB, Curr/LB]
//           (the Section 5.4 refinement that makes dne's error bounded for
//           scan-based plans).
//   hybrid — Section 6.4 heuristic: safe by default, pmax once the
//           *observable upper bound* on mu (UB / sum of scanned-leaf
//           cardinalities) drops below a threshold. (Theorem 7 shows mu
//           itself cannot be estimated; the upper bound can.)
//   dne_pessimistic — dne with the engine's spill debt folded into the
//           denominator: anticipated re-read passes (spilled rows not yet
//           replayed) count as work still owed, so the estimate stops
//           rushing to 1 while partitions sit on disk. Clamped into
//           [Curr/UB, Curr/LB] like dne_bounded; never exceeds dne_bounded
//           while spill work is pending.

#ifndef QPROG_CORE_ESTIMATORS_H_
#define QPROG_CORE_ESTIMATORS_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/statusor.h"
#include "core/bounds.h"
#include "core/pipeline.h"

namespace qprog {

/// Read-only view of the engine's spill debt at one checkpoint, populated by
/// the ProgressMonitor from the operators' query-thread spill counters
/// (never from SpillRun state a worker task may own). All figures are in
/// work units of the paper's model: one unit per row written to a run, one
/// per row read back.
struct SpillSnapshot {
  uint64_t spill_work_done = 0;     // spill I/O units already performed
  uint64_t spill_rows_pending = 0;  // spill I/O units still owed
  /// Per-node pending spill work, indexed by node id (empty when nothing
  /// has spilled).
  std::vector<uint64_t> node_pending;

  bool active() const { return spill_work_done != 0 || spill_rows_pending != 0; }
};

/// Everything an estimator may look at, at one checkpoint. Matches the
/// paper's information model (Section 2.4): the plan, execution feedback
/// (counters, operator phase state, runtime bounds), and planner estimates —
/// but never the data that has not flowed yet.
struct ProgressContext {
  const PhysicalPlan* plan = nullptr;
  const ExecContext* exec = nullptr;
  const PlanBounds* bounds = nullptr;
  const std::vector<Pipeline>* pipelines = nullptr;
  double scanned_leaf_cardinality = 0;  // denominator of mu
  /// Spill-aware view; null when the monitor has not sampled one (e.g. a
  /// caller-built context). Estimators must treat null as "no spill".
  const SpillSnapshot* spill = nullptr;
};

/// pmax = Curr / LB (Definition 3) and safe = Curr / sqrt(LB * UB)
/// (Definition 5), clamped to [0, 1]; 0 while a bound they divide by is not
/// positive. The live estimators and the trace replay (obs/replay.h) share
/// them.
double PmaxProgress(double curr, double lb);
double SafeProgress(double curr, double lb, double ub);

/// Interface for progress estimators. Estimates are fractions in [0, 1].
class ProgressEstimator {
 public:
  virtual ~ProgressEstimator() = default;
  virtual double Estimate(const ProgressContext& pc) const = 0;
  virtual std::string name() const = 0;
};

class DneEstimator : public ProgressEstimator {
 public:
  double Estimate(const ProgressContext& pc) const override;
  std::string name() const override { return "dne"; }
};

class PmaxEstimator : public ProgressEstimator {
 public:
  double Estimate(const ProgressContext& pc) const override;
  std::string name() const override { return "pmax"; }
};

class SafeEstimator : public ProgressEstimator {
 public:
  double Estimate(const ProgressContext& pc) const override;
  std::string name() const override { return "safe"; }
};

class BoundedDneEstimator : public ProgressEstimator {
 public:
  double Estimate(const ProgressContext& pc) const override;
  std::string name() const override { return "dne_bounded"; }
};

/// dne_bounded made spill-aware: the raw driver fraction's denominator grows
/// by the pending spill work from the ProgressContext's SpillSnapshot, so
/// the estimate anticipates the re-read passes the engine already owes
/// instead of discovering them one checkpoint at a time. Same feasible-
/// interval clamp as dne_bounded; with no snapshot (or no spill) the two
/// are identical, and while spill is pending this one is never larger.
class PessimisticDneEstimator : public ProgressEstimator {
 public:
  double Estimate(const ProgressContext& pc) const override;
  std::string name() const override { return "dne_pessimistic"; }
};

class HybridEstimator : public ProgressEstimator {
 public:
  /// Switches from safe to pmax when UB / scanned-leaf-cardinality (an upper
  /// bound on mu) falls at or below `mu_threshold`.
  explicit HybridEstimator(double mu_threshold = 3.0)
      : mu_threshold_(mu_threshold) {}
  double Estimate(const ProgressContext& pc) const override;
  std::string name() const override { return "hybrid"; }

 private:
  double mu_threshold_;
};

/// The Section 6.4 "sliding window" direction, implemented: like dne, but
/// instead of assuming the driver fraction IS the progress (i.e. that the
/// per-tuple work seen so far equals the overall average), it extrapolates
/// the remaining work from the per-driver-tuple work observed over the most
/// recent `window` checkpoints:
///
///   estimate = Curr / (Curr + remaining_driver_tuples * mu_recent),
///
/// clamped into the feasible [Curr/UB, Curr/LB] interval. Stateful across
/// the checkpoints of one run (do not share an instance between runs).
class WindowEstimator : public ProgressEstimator {
 public:
  explicit WindowEstimator(size_t window = 16) : window_(window) {}
  double Estimate(const ProgressContext& pc) const override;
  std::string name() const override { return "window"; }

 private:
  size_t window_;
  // (driver rows consumed, Curr) at recent checkpoints; mutable because the
  // ProgressEstimator interface is const per call but this estimator
  // accumulates execution feedback, as Section 6.4 envisions.
  mutable std::vector<std::pair<double, double>> history_;
};

/// The König-style robust choice (PAPERS.md: "A Statistical Approach Towards
/// Robust Progress Estimation"): a named wrapper around whichever fixed
/// estimator the cross-run registry picked for the query's template. The
/// wrapper reports name() "auto" — the report column stays stable across
/// queries whose pick differs — while pick() exposes the inner estimator for
/// fleet display. With no history (cold template, or no registry attached)
/// the deterministic fallback is dne_bounded: bounded error on scan-based
/// plans, never the unbounded dne tail.
class AutoEstimator : public ProgressEstimator {
 public:
  /// Wraps `inner` (must be non-null); `inner->name()` becomes pick().
  explicit AutoEstimator(std::unique_ptr<ProgressEstimator> inner);
  double Estimate(const ProgressContext& pc) const override;
  std::string name() const override { return "auto"; }
  /// The wrapped estimator's name ("dne_bounded" when cold).
  const std::string& pick() const { return pick_; }

 private:
  std::unique_ptr<ProgressEstimator> inner_;
  std::string pick_;
};

/// Factory. `spec` is an estimator name — "dne", "pmax", "safe",
/// "dne_bounded", "dne_pessimistic", "hybrid", "window", "auto" — optionally
/// followed by ":" and a constructor parameter for the estimators that take
/// one: "hybrid:2.5" sets the mu threshold (a positive double), "window:32"
/// the history length (a positive integer), "auto:pmax" the inner estimator
/// an AutoEstimator wraps (any non-auto spec; bare "auto" wraps the
/// dne_bounded cold fallback). A bare name uses the default parameter.
/// Returns kInvalidArgument for unknown names, malformed or out-of-range
/// parameters, and parameters passed to estimators that take none ("dne:2").
StatusOr<std::unique_ptr<ProgressEstimator>> CreateEstimator(
    const std::string& spec);

/// All estimator names, in canonical order (bare names, no parameters).
std::vector<std::string> AllEstimatorNames();

/// One row of the estimator catalog: the bare name, the spec syntax
/// CreateEstimator accepts for it, and a one-line description.
struct EstimatorSpecInfo {
  std::string name;
  std::string syntax;
  std::string description;
};

/// The full estimator catalog (AllEstimatorNames plus "auto"), in canonical
/// order. Surfaced by the server's fleet report so operators can discover
/// valid `estimators` values without reading CreateEstimator's source.
std::vector<EstimatorSpecInfo> ListEstimatorSpecs();

}  // namespace qprog

#endif  // QPROG_CORE_ESTIMATORS_H_
