// AdmissionController: predicts a query's peak memory from per-template
// priors and decides — at submission time — whether it is admitted, queued,
// or shed.
//
// Prediction follows the LearnedWMP observation (PAPERS.md): memory demand
// clusters by query template. Every finished run feeds its template
// fingerprint (sql/fingerprint.h) and peak buffered rows into the shared
// CrossRunRegistry (obs/cross_run_registry.h); the controller reads the
// template's WorkloadStats straight from it and predicts the next run at
// max observed peak x a headroom factor. Templates never seen
// before fall back to a *seeded* pseudo-random prior in
// [fallback/2, 3*fallback/2): deterministic for a fixed (seed, fingerprint),
// so a fixed-seed test replays the exact admission sequence while a fleet
// still avoids the thundering-herd of every cold template predicting the
// same number.
//
// Decisions use only deterministic inputs — the prediction, the tenant's
// quota and in-flight figures, the queue length, and the predicted-row
// ledger — never wall-clock measurements. Wall time from the priors feeds
// the retry-after / predicted-wait *hints* only.
//
// Shedding, not queueing, handles the two overload shapes where waiting is
// a lie: a tenant past its quota (its own backlog must not consume global
// queue slots) and a full global queue. Shed queries get kResourceExhausted
// plus a retry-after hint scaled by the current backlog.

#ifndef QPROG_SERVER_ADMISSION_H_
#define QPROG_SERVER_ADMISSION_H_

#include <cstddef>
#include <cstdint>

#include "obs/cross_run_registry.h"
#include "server/tenant.h"

namespace qprog {

struct AdmissionOptions {
  /// Seed for the cold-template prediction fallback. Fixing it fixes every
  /// admission decision for a fixed submission sequence.
  uint64_t seed = 0;

  /// Center of the cold-template prior, in buffered rows.
  uint64_t fallback_peak_rows = 256;

  /// Multiplier over the historical max peak: admission plans for a run
  /// somewhat worse than the worst observed.
  double headroom = 1.25;

  /// Global queue capacity; submissions past it are shed.
  size_t max_queue = 64;

  /// Base of the retry-after hint handed to shed queries; scaled by the
  /// backlog (queued + running + 1).
  uint64_t retry_after_base_ms = 10;
};

enum class AdmissionAction {
  kAdmit,  // capacity for it now: starts as soon as a session frees up
  kQueue,  // accepted, but waits behind earlier work or for memory
  kShed,   // rejected with kResourceExhausted + retry-after hint
};

const char* AdmissionActionToString(AdmissionAction action);

struct AdmissionDecision {
  AdmissionAction action = AdmissionAction::kAdmit;
  uint64_t predicted_peak_rows = 0;
  bool predicted_from_prior = false;  // true: template had history
  size_t queue_position = 0;          // kQueue: 0-based position at submit
  uint64_t retry_after_ms = 0;        // kShed: when to try again (hint)
  const char* reason = "";            // kShed: "tenant-quota" | "queue-full"
};

class AdmissionController {
 public:
  /// `priors` is borrowed and may be null (every template is then cold).
  AdmissionController(AdmissionOptions options,
                      const CrossRunRegistry* priors);

  /// Predicted peak buffered rows for one run of `fingerprint`'s template.
  /// Sets `from_prior` (optional) to whether history existed.
  uint64_t PredictPeakRows(uint64_t fingerprint,
                           bool* from_prior = nullptr) const;

  /// Deterministic snapshot of server load at submission time.
  struct Load {
    size_t queued = 0;
    size_t running = 0;
    uint64_t inflight_predicted_rows = 0;  // sum of admitted predictions
    uint64_t pool_rows = 0;                // governor pool size
    uint64_t tenant_inflight = 0;          // this tenant's queued + running
    uint64_t tenant_inflight_predicted_rows = 0;
  };

  AdmissionDecision Decide(uint64_t fingerprint, const TenantQuota& quota,
                           const Load& load) const;

  const AdmissionOptions& options() const { return options_; }

 private:
  AdmissionOptions options_;
  const CrossRunRegistry* priors_;
};

}  // namespace qprog

#endif  // QPROG_SERVER_ADMISSION_H_
