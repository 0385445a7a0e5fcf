#include "obs/replay.h"

#include "common/strings.h"
#include "core/estimators.h"

namespace qprog {

namespace {

StatusOr<TerminationReason> ParseTermination(const std::string& name) {
  for (TerminationReason r :
       {TerminationReason::kCompleted, TerminationReason::kCancelled,
        TerminationReason::kDeadlineExceeded,
        TerminationReason::kBudgetExhausted, TerminationReason::kFault}) {
    if (name == TerminationReasonToString(r)) return r;
  }
  return InvalidArgument(
      StringPrintf("unknown termination \"%s\" in run_end event",
                   name.c_str()));
}

}  // namespace

StatusOr<ReplayResult> ReplayTrace(const std::vector<TraceEvent>& events) {
  ReplayResult result;
  result.num_events = events.size();
  ProgressReport& report = result.report;

  bool saw_begin = false;
  bool saw_end = false;
  for (const TraceEvent& ev : events) {
    switch (ev.kind) {
      case TraceEventKind::kRunBegin: {
        if (saw_begin) {
          return InvalidArgument(
              "trace contains more than one run_begin event; replay one run "
              "at a time");
        }
        saw_begin = true;
        report.names = SplitString(ev.name, ',');
        if (report.names.size() == 1 && report.names[0].empty()) {
          report.names.clear();
        }
        result.leaf_cardinality = ev.a;
        result.checkpoint_interval = static_cast<uint64_t>(ev.b);
        report.scanned_leaf_cardinality = ev.a;
        break;
      }
      case TraceEventKind::kCheckpoint: {
        Checkpoint cp;
        cp.work = ev.work;
        cp.work_lb = ev.a;
        cp.work_ub = ev.b;
        report.checkpoints.push_back(std::move(cp));
        break;
      }
      case TraceEventKind::kEstimatorEvaluated: {
        if (report.checkpoints.empty()) {
          return InvalidArgument(
              "estimator event before the first checkpoint event");
        }
        report.checkpoints.back().estimates.push_back(ev.a);
        break;
      }
      case TraceEventKind::kEtaSample: {
        if (report.checkpoints.empty()) {
          return InvalidArgument("eta event before the first checkpoint event");
        }
        // v4: the recorded band round-trips bit-identically (17 significant
        // digits), so replayed ETA triples equal the live checkpoint's.
        Checkpoint& cp = report.checkpoints.back();
        cp.eta_seconds = ev.a;
        cp.eta_lo_seconds = ev.b;
        cp.eta_hi_seconds = ev.c;
        break;
      }
      case TraceEventKind::kRunEnd: {
        saw_end = true;
        report.total_work = ev.work;
        report.root_rows = static_cast<uint64_t>(ev.a);
        StatusOr<TerminationReason> term = ParseTermination(ev.name);
        if (!term.ok()) return term.status();
        report.termination = term.value();
        if (report.completed()) {
          report.status = OkStatus();
          report.mu = ev.b;
        } else {
          report.status = Internal(ev.detail.empty()
                                       ? std::string("aborted (from trace)")
                                       : ev.detail);
        }
        break;
      }
      case TraceEventKind::kOperatorOpen:
      case TraceEventKind::kOperatorClose:
      case TraceEventKind::kBoundRefined:
      case TraceEventKind::kGuardTrip:
      case TraceEventKind::kFaultFired:
      case TraceEventKind::kSpillBegin:
      case TraceEventKind::kSpillEnd:
      case TraceEventKind::kIoRetry:
        break;  // not needed to rebuild the report
    }
  }
  if (!report.checkpoints.empty()) {
    // Mirror the monitor: the report-level band is the last checkpoint's.
    const Checkpoint& last = report.checkpoints.back();
    report.eta_seconds = last.eta_seconds;
    report.eta_lo_seconds = last.eta_lo_seconds;
    report.eta_hi_seconds = last.eta_hi_seconds;
  }
  if (!saw_begin) {
    return InvalidArgument("trace has no run_begin event; nothing to replay");
  }
  if (!saw_end) {
    return InvalidArgument(
        "trace has no run_end event (recording was cut off); estimator "
        "metrics would be unscorable");
  }
  for (const Checkpoint& cp : report.checkpoints) {
    if (cp.estimates.size() != report.names.size()) {
      return InvalidArgument(StringPrintf(
          "checkpoint at work=%llu has %zu estimates for %zu estimators",
          static_cast<unsigned long long>(cp.work), cp.estimates.size(),
          report.names.size()));
    }
  }
  // Recompute true progress with the exact division the live monitor uses;
  // recorded work counters are integers, so this is bit-identical.
  if (report.completed()) {
    for (Checkpoint& c : report.checkpoints) {
      c.true_progress = report.total_work > 0
                            ? static_cast<double>(c.work) /
                                  static_cast<double>(report.total_work)
                            : 0;
    }
  }
  return result;
}

StatusOr<ReplayResult> ReplayTraceFile(const std::string& path) {
  StatusOr<std::vector<TraceEvent>> events = ReadTraceFile(path);
  if (!events.ok()) return events.status();
  return ReplayTrace(events.value());
}

ReevaluatedEstimates ReevaluateBoundEstimators(const ReplayResult& replay) {
  ReevaluatedEstimates out;
  out.names = {"pmax", "safe"};
  out.estimates.reserve(replay.report.checkpoints.size());
  for (const Checkpoint& cp : replay.report.checkpoints) {
    // The live estimators' own formulas, which never yield NaN, so the
    // monitor's sanitization leaves them as they are.
    double curr = static_cast<double>(cp.work);
    out.estimates.push_back({PmaxProgress(curr, cp.work_lb),
                             SafeProgress(curr, cp.work_lb, cp.work_ub)});
  }
  return out;
}

}  // namespace qprog
