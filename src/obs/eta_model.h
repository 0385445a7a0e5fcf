// Wall-clock ETA with calibrated uncertainty bands (DESIGN.md section 13).
//
// The paper's estimators answer "what fraction of the work is done?"; every
// consumer of a progress bar actually wants "done in 3m ± 40s". This layer
// maps work → time using the rates the engine already measures, and carries
// *uncertainty* instead of a bare point estimate, in the spirit of Wu et
// al.'s "Uncertainty Aware Query Execution Time Prediction" (PAPERS.md):
//
//   RateTracker — online EWMA mean + variance of the work→time rate the
//     band prices with: the aggregate ns per work unit (getnext call)
//     observed between checkpoints. Spill I/O is inside that rate, because
//     spill work units are counted in the work measure.
//
//   EtaModel — at every checkpoint converts the remaining-work interval into
//     an [eta_lo, eta, eta_hi] wall-clock band by combining
//       (a) the structural interval implied by the [LB, UB] work bounds
//           (remaining work is somewhere in [LB-Curr, UB-Curr]), with
//       (b) the observed rate variance (a z * stddev rate band).
//     The point estimate prices the `safe` estimator's implied total
//     (sqrt(LB*UB), the worst-case-optimal choice of Theorem 6) at the mean
//     rate.
//
// Sanitization contract (mirrors the monitor's estimate sanitization): a
// band is either all-finite with 0 <= eta_lo <= eta <= eta_hi, or the
// all-infinite "unknowable" band (rendered "--" everywhere) — before the
// first checkpoint, or when a component would be NaN. A misbehaving rate
// cannot leak NaN or a negative ETA into a report, a trace, or a fleet row.
//
// Header-only on purpose, like telemetry.h / metrics_registry.h: the
// ProgressMonitor (qprog_core) drives the model without linking qprog_obs.
// The offline calibration scorer lives in eta_model.cc (qprog_obs).
//
// Determinism: the clock is injectable (EtaModelOptions::now_fn). With a
// deterministic clock the whole band is a pure function of the checkpoint
// sequence, which is how tests pin byte-identical ETA traces across worker
// pool sizes. Trace emission is opt-in (EtaModelOptions::trace) so the
// engine's existing byte-identical-trace contracts are unaffected by merely
// attaching a model.

#ifndef QPROG_OBS_ETA_MODEL_H_
#define QPROG_OBS_ETA_MODEL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>

#include "obs/telemetry.h"

namespace qprog {

/// One EWMA-tracked rate: exponentially weighted mean and variance.
struct RateEstimate {
  double mean = 0.0;      // EWMA mean of the observed samples
  double var = 0.0;       // EWMA variance around that mean
  uint64_t samples = 0;   // observations folded in

  double stddev() const { return std::sqrt(std::max(0.0, var)); }
  bool warm() const { return samples > 0; }

  void Observe(double sample, double alpha) {
    ++samples;
    if (samples == 1) {
      mean = sample;
      var = 0.0;
      return;
    }
    // West's EW update: variance shrinks only as evidence accumulates.
    double delta = sample - mean;
    double incr = alpha * delta;
    mean += incr;
    var = (1.0 - alpha) * (var + delta * incr);
  }
};

/// Online work→time rates for one run, in nanoseconds per unit.
class RateTracker {
 public:
  explicit RateTracker(double alpha = 0.3) : alpha_(alpha) {}

  void Reset() { work_ = RateEstimate(); }

  /// Aggregate rate: `delta_ns` wall nanoseconds bought `delta_work` units
  /// of the paper's work measure since the previous checkpoint.
  void ObserveWork(uint64_t delta_work, uint64_t delta_ns) {
    if (delta_work == 0) return;
    work_.Observe(static_cast<double>(delta_ns) /
                      static_cast<double>(delta_work),
                  alpha_);
  }

  double alpha() const { return alpha_; }
  const RateEstimate& work_rate() const { return work_; }

 private:
  double alpha_;
  RateEstimate work_;
};

/// One wall-clock prediction: seconds until the query completes, with a
/// calibrated uncertainty band. Either all three components are finite with
/// 0 <= eta_lo <= eta <= eta_hi, or all three are +infinity ("unknowable";
/// renderers show "--").
struct EtaBand {
  double eta_s = std::numeric_limits<double>::infinity();
  double eta_lo_s = std::numeric_limits<double>::infinity();
  double eta_hi_s = std::numeric_limits<double>::infinity();

  bool finite() const {
    return std::isfinite(eta_s) && std::isfinite(eta_lo_s) &&
           std::isfinite(eta_hi_s);
  }
};

/// Clamps a band into the only legal shape: finite components are forced
/// non-negative and ordered eta_lo <= eta <= eta_hi; any NaN (or a
/// non-finite point estimate) collapses the band to all-infinite.
inline EtaBand SanitizeEtaBand(EtaBand band) {
  if (std::isnan(band.eta_s) || std::isnan(band.eta_lo_s) ||
      std::isnan(band.eta_hi_s) || !std::isfinite(band.eta_s)) {
    return EtaBand();
  }
  band.eta_s = std::max(0.0, band.eta_s);
  band.eta_lo_s = std::max(0.0, band.eta_lo_s);
  band.eta_hi_s = std::max(0.0, band.eta_hi_s);
  band.eta_lo_s = std::min(band.eta_lo_s, band.eta_s);
  band.eta_hi_s = std::max(band.eta_hi_s, band.eta_s);
  return band;
}

struct EtaModelOptions {
  /// EWMA smoothing factor for every tracked rate.
  double alpha = 0.3;
  /// z-score scaling the rate stddev into the band; 1.645 claims a ~90%
  /// two-sided interval under the model's rate-noise assumption. The
  /// calibration harness (bench/eta_calibration) measures what the claim is
  /// actually worth.
  double z = 1.645;
  /// Minimum relative half-width of the band around the point estimate:
  /// eta_hi >= eta * (1 + min_rel_width), eta_lo <= eta * (1 - min_rel_width).
  /// Guards the claim against early checkpoints where the EWMA variance has
  /// not seen the run's real rate drift yet (and against LB == UB plans,
  /// where the structural interval is empty).
  double min_rel_width = 0.25;
  /// Emit kEtaSample trace events (schema v4) at every checkpoint. Off by
  /// default: ETA values are wall-clock-derived, so tracing them is only
  /// byte-reproducible with a deterministic now_fn.
  bool trace = false;
  /// Clock. Defaults to MonotonicNanos; tests inject a deterministic clock
  /// to make bands (and their traces) pure functions of the checkpoint
  /// sequence.
  std::function<uint64_t()> now_fn;
};

class EtaModel {
 public:
  explicit EtaModel(EtaModelOptions options = EtaModelOptions())
      : options_(std::move(options)), rates_(options_.alpha) {
    if (!options_.now_fn) options_.now_fn = [] { return MonotonicNanos(); };
  }

  EtaModel(const EtaModel&) = delete;
  EtaModel& operator=(const EtaModel&) = delete;

  /// Re-arms the model for a run: resets every rate and stamps the run
  /// epoch.
  void OnRunStart() {
    rates_.Reset();
    latest_ = EtaBand();
    checkpoints_ = 0;
    last_work_ = 0;
    last_ns_ = options_.now_fn();
  }

  /// Folds one checkpoint into the rates and returns the sanitized band.
  /// `work` is Curr, [`work_lb`, `work_ub`] the bounds-tracker interval on
  /// total(Q); pending spill work units are already inside the bounds.
  EtaBand OnCheckpoint(uint64_t work, double work_lb, double work_ub) {
    ++checkpoints_;
    uint64_t now = options_.now_fn();
    rates_.ObserveWork(work - last_work_, now - last_ns_);
    last_work_ = work;
    last_ns_ = now;

    const RateEstimate& r = rates_.work_rate();
    if (!r.warm()) {
      latest_ = EtaBand();
      return latest_;
    }
    double curr = static_cast<double>(work);
    double lb = std::max(work_lb, 0.0);
    double ub = std::max(work_ub, lb);
    double rem_lo = std::max(0.0, lb - curr);
    double rem_hi = std::max(0.0, ub - curr);
    // The safe estimator's implied total — worst-case-optimal within
    // [LB, UB] (Theorem 6) — prices the point estimate.
    double rem_mid = std::max(0.0, std::sqrt(lb * ub) - curr);

    double sd = r.stddev();
    double lo_rate = std::max(0.0, r.mean - options_.z * sd);
    double hi_rate = r.mean + options_.z * sd;

    EtaBand band;
    band.eta_s = rem_mid * r.mean / 1e9;
    band.eta_lo_s = rem_lo * lo_rate / 1e9;
    band.eta_hi_s = rem_hi * hi_rate / 1e9;
    // Calibration floor on the claimed interval (see EtaModelOptions).
    band.eta_lo_s =
        std::min(band.eta_lo_s, band.eta_s * (1.0 - options_.min_rel_width));
    band.eta_hi_s =
        std::max(band.eta_hi_s, band.eta_s * (1.0 + options_.min_rel_width));
    latest_ = SanitizeEtaBand(band);
    return latest_;
  }

  const RateTracker& rates() const { return rates_; }
  const EtaBand& latest() const { return latest_; }
  uint64_t checkpoints() const { return checkpoints_; }
  bool trace_enabled() const { return options_.trace; }
  const EtaModelOptions& options() const { return options_; }

 private:
  EtaModelOptions options_;
  RateTracker rates_;
  EtaBand latest_;
  uint64_t checkpoints_ = 0;
  uint64_t last_work_ = 0;
  uint64_t last_ns_ = 0;
};

// ---------------------------------------------------------------------------
// Offline calibration scoring (compiled in qprog_obs; used by the
// bench/eta_calibration driver, tests, and trace re-scoring).

/// One scored prediction: the band claimed at a checkpoint, the progress
/// fraction it was claimed at, and the wall-clock remaining time actually
/// observed once the query finished.
struct EtaCalibrationSample {
  double progress = 0.0;          // true progress in [0, 1] at the claim
  EtaBand band;                   // the claim
  double actual_remaining_s = 0;  // ground truth
};

/// Aggregates claimed-interval coverage versus observed completion times,
/// bucketed by progress decile — the time-domain analogue of the paper's
/// "can we trust the fraction?" scoring.
class EtaCalibration {
 public:
  struct DecileStats {
    uint64_t samples = 0;
    uint64_t covered = 0;          // actual fell inside [eta_lo, eta_hi]
    double abs_err_sum_s = 0.0;    // |eta - actual|
    double rel_width_sum = 0.0;    // (eta_hi - eta_lo) / max(actual, 1ms)

    double coverage() const {
      return samples > 0
                 ? static_cast<double>(covered) / static_cast<double>(samples)
                 : 0.0;
    }
    double mean_abs_err_s() const {
      return samples > 0 ? abs_err_sum_s / static_cast<double>(samples) : 0.0;
    }
    double mean_rel_width() const {
      return samples > 0 ? rel_width_sum / static_cast<double>(samples) : 0.0;
    }
  };

  /// Folds one finite-band sample; infinite (unknowable) bands are counted
  /// separately and never score as covered.
  void Add(const EtaCalibrationSample& sample);

  /// Decile `d` in 0..9 buckets progress [d/10, (d+1)/10).
  const DecileStats& decile(size_t d) const { return deciles_[d]; }
  DecileStats Overall() const;
  uint64_t infinite_bands() const { return infinite_bands_; }

  /// {"claimed":0.9,"overall":{...},"deciles":[{...}x10],"infinite_bands":n}
  /// with deterministic key order.
  std::string ToJson() const;

 private:
  DecileStats deciles_[10];
  uint64_t infinite_bands_ = 0;
};

}  // namespace qprog

#endif  // QPROG_OBS_ETA_MODEL_H_
