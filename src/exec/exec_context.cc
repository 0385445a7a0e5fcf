#include "exec/exec_context.h"

#include "common/strings.h"
#include "exec/fault_injector.h"

namespace qprog {

void ExecContext::OnWorkEvent(int node_id) {
  // Fire the observer once per crossed interval, with the scheduled crossing
  // point — a burst of counted rows cannot silently skip observations, and
  // successive next_observation_ values never drift off the interval grid.
  while (observer_ && !failed_ && work_ >= next_observation_) {
    uint64_t scheduled = next_observation_;
    next_observation_ += observation_interval_;
    observer_(scheduled);
  }
  // Guard checks piggyback on every event (observation or scheduled check),
  // so cancellation requested from an observer callback is honored before
  // another unit of work is counted.
  if (guard_ != nullptr) {
    if (!failed_) {
      Status violation = guard_->Check(work_);
      if (!violation.ok()) {
        if (telemetry_ != nullptr) {
          // Attributed to the node whose counted row crossed the threshold —
          // the operator that was driving the work when the guard tripped.
          telemetry_->RecordGuardTrip(node_id, work_,
                                      StatusCodeToString(violation.code()),
                                      violation.message());
        }
        RaiseError(std::move(violation));
      }
    }
    next_guard_check_ = work_ + guard_->check_interval();
  }
  RecomputeNextEvent();
}

bool ExecContext::ConsultFaultSlow(const char* site, int node_id) {
  Status fault = fault_injector_->OnHit(site);
  if (fault.ok()) return false;
  if (telemetry_ != nullptr) {
    telemetry_->RecordFault(node_id, work_, site, fault.message());
  }
  RaiseError(std::move(fault));
  return true;
}

bool ExecContext::ChargeBufferedRows(uint64_t n) {
  // Check-first: a failed charge leaves the account untouched, so operators
  // only ever release what they successfully charged.
  if (failed_) return false;
  const uint64_t budgeted = buffered_rows_ - leaf_rows_ + n;
  if (guard_ != nullptr && budgeted > guard_->max_buffered_rows()) {
    RaiseError(qprog::ResourceExhausted(StringPrintf(
        "buffered-row budget exceeded (%llu buffered > %llu allowed)",
        static_cast<unsigned long long>(budgeted),
        static_cast<unsigned long long>(guard_->max_buffered_rows()))));
    return false;
  }
  buffered_rows_ += n;
  if (buffered_rows_ > peak_buffered_rows_) peak_buffered_rows_ = buffered_rows_;
  return true;
}

ChargeVerdict ExecContext::ChargeBufferedRowsOrSpill(uint64_t n) {
  if (failed_) return ChargeVerdict::kFailed;
  if (guard_ != nullptr && spill_manager_ != nullptr) {
    if (buffered_rows_ + n > guard_->max_buffered_rows_kill()) {
      RaiseError(qprog::ResourceExhausted(StringPrintf(
          "buffered-row kill threshold exceeded (%llu buffered > %llu "
          "allowed even with spilling)",
          static_cast<unsigned long long>(buffered_rows_ + n),
          static_cast<unsigned long long>(guard_->max_buffered_rows_kill()))));
      return ChargeVerdict::kFailed;
    }
    // One read of the soft budget decides the charge. The governor may lower
    // it concurrently; a charge that passed this check must not then fail
    // against the newer value, which later charges see as kSpill. Rebuilt
    // Grace leaves are left out: they answer to the kill threshold only.
    if (buffered_rows_ - leaf_rows_ + n > guard_->max_buffered_rows()) {
      // Not charged: the operator spills instead of buffering these rows.
      return ChargeVerdict::kSpill;
    }
    buffered_rows_ += n;
    if (buffered_rows_ > peak_buffered_rows_) {
      peak_buffered_rows_ = buffered_rows_;
    }
    return ChargeVerdict::kCharged;
  }
  return ChargeBufferedRows(n) ? ChargeVerdict::kCharged
                               : ChargeVerdict::kFailed;
}

bool ExecContext::ChargeBufferedRowsPostSpill(uint64_t n) {
  if (failed_) return false;
  if (guard_ != nullptr &&
      buffered_rows_ + n > guard_->max_buffered_rows_kill()) {
    RaiseError(qprog::ResourceExhausted(StringPrintf(
        "spilled partition does not fit (%llu buffered > %llu kill "
        "threshold); input too skewed to process under this budget",
        static_cast<unsigned long long>(buffered_rows_ + n),
        static_cast<unsigned long long>(guard_->max_buffered_rows_kill()))));
    return false;
  }
  buffered_rows_ += n;
  if (buffered_rows_ > peak_buffered_rows_) peak_buffered_rows_ = buffered_rows_;
  return true;
}

bool ExecContext::ChargeLeafRows(uint64_t n) {
  if (!ChargeBufferedRowsPostSpill(n)) return false;
  leaf_rows_ += n;
  return true;
}

}  // namespace qprog
