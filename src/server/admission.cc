#include "server/admission.h"

#include <cmath>

#include "exec/query_guard.h"

namespace qprog {
namespace {

// splitmix64 finalizer — the same cheap bijective mix the spill layer uses
// for salted re-partitioning; good enough to decorrelate fingerprints.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

const char* AdmissionActionToString(AdmissionAction action) {
  switch (action) {
    case AdmissionAction::kAdmit:
      return "admit";
    case AdmissionAction::kQueue:
      return "queue";
    case AdmissionAction::kShed:
      return "shed";
  }
  return "unknown";
}

AdmissionController::AdmissionController(AdmissionOptions options,
                                         const CrossRunRegistry* priors)
    : options_(options), priors_(priors) {}

uint64_t AdmissionController::PredictPeakRows(uint64_t fingerprint,
                                              bool* from_prior) const {
  if (priors_ != nullptr) {
    bool found = false;
    WorkloadStats stats = priors_->LookupWorkload(fingerprint, &found);
    if (found && stats.runs > 0) {
      if (from_prior != nullptr) *from_prior = true;
      double padded =
          static_cast<double>(stats.max_peak_buffered_rows) * options_.headroom;
      uint64_t predicted = static_cast<uint64_t>(std::ceil(padded));
      return predicted > 0 ? predicted : 1;
    }
  }
  if (from_prior != nullptr) *from_prior = false;
  // Cold template: seeded prior in [fallback/2, 3*fallback/2). Deterministic
  // per (seed, fingerprint); spread so a burst of distinct cold templates
  // does not predict one identical number.
  uint64_t base = options_.fallback_peak_rows;
  if (base == 0) return 1;
  uint64_t jitter = Mix64(options_.seed ^ fingerprint) % (base > 1 ? base : 1);
  uint64_t predicted = base / 2 + jitter;
  return predicted > 0 ? predicted : 1;
}

AdmissionDecision AdmissionController::Decide(uint64_t fingerprint,
                                              const TenantQuota& quota,
                                              const Load& load) const {
  AdmissionDecision d;
  d.predicted_peak_rows = PredictPeakRows(fingerprint, &d.predicted_from_prior);

  uint64_t backlog = static_cast<uint64_t>(load.queued + load.running) + 1;
  // Tenant isolation first: a tenant past its quota is shed even if the
  // global queue has room — its backlog must not crowd other tenants out.
  if (load.tenant_inflight + 1 > quota.max_concurrent ||
      (quota.max_inflight_predicted_rows != TenantQuota::kUnlimited &&
       load.tenant_inflight_predicted_rows + d.predicted_peak_rows >
           quota.max_inflight_predicted_rows)) {
    d.action = AdmissionAction::kShed;
    d.reason = "tenant-quota";
    d.retry_after_ms = options_.retry_after_base_ms * backlog;
    return d;
  }
  if (load.queued >= options_.max_queue) {
    d.action = AdmissionAction::kShed;
    d.reason = "queue-full";
    d.retry_after_ms = options_.retry_after_base_ms * backlog;
    return d;
  }
  // Accepted. kAdmit when the predicted-row ledger says it fits right now
  // and nothing is ahead of it; otherwise it queues (behind earlier work,
  // or for the governor to free/revoke memory).
  bool fits = load.pool_rows == QueryGuard::kNoLimit ||
              load.inflight_predicted_rows + d.predicted_peak_rows <=
                  load.pool_rows;
  if (load.queued == 0 && fits) {
    d.action = AdmissionAction::kAdmit;
  } else {
    d.action = AdmissionAction::kQueue;
    d.queue_position = load.queued;
  }
  return d;
}

}  // namespace qprog
