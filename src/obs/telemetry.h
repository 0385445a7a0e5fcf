// Per-operator runtime statistics and the TelemetryCollector that gathers
// them during execution.
//
// The collector is attached to an ExecContext (borrowed). When it is absent
// the executor's instrumented wrappers reduce to a single null-pointer branch
// per getnext call — the zero-cost contract verified by
// bench/micro_trace_overhead.cpp. When present, every operator's Open/Next/
// Close is timed with a monotonic clock and counted per plan node, and typed
// TraceEvents flow to the collector's TraceSink (if one is attached).
//
// Everything here is header-only on purpose: qprog_exec instruments against
// these types without linking the observability library, which keeps the
// library layering acyclic (exec -> [obs headers]; obs lib -> core -> exec).

#ifndef QPROG_OBS_TELEMETRY_H_
#define QPROG_OBS_TELEMETRY_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace qprog {

/// Nanoseconds on a cheap monotonic clock (never wall-clock; immune to NTP).
inline uint64_t MonotonicNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Runtime statistics for one plan node over one execution. Times are
/// inclusive of children (the convention of EXPLAIN ANALYZE everywhere):
/// a join's next_ns contains the getnext time of its inputs.
struct OperatorStats {
  uint64_t next_calls = 0;     // Next() invocations received from the parent
  uint64_t rows_returned = 0;  // Next() calls that produced a row
  uint64_t opens = 0;          // Open() calls (rescanned inners open often)
  uint64_t closes = 0;
  uint64_t open_ns = 0;        // cumulative wall time inside Open()
  uint64_t next_ns = 0;        // cumulative wall time inside Next(), inclusive
  uint64_t close_ns = 0;
  uint64_t first_row_ns = 0;   // since run start; 0 = no row produced yet
  uint64_t last_row_ns = 0;
  uint64_t guard_trips = 0;    // guard violations attributed to this node
  uint64_t faults = 0;         // injected/operator faults at this node
  uint64_t spills = 0;             // spill runs this node created
  uint64_t spill_rows_written = 0; // rows written to spill runs
  uint64_t spill_rows_read = 0;    // rows re-read from spill runs
  uint64_t spill_bytes = 0;        // bytes written to spill runs
  uint64_t io_retries = 0;         // transient spill I/O failures retried
};

/// Per-node production-bounds history the monitor feeds in at checkpoints —
/// the raw material for the bounds-accuracy telemetry (obs/accuracy.h).
struct NodeBoundsRecord {
  bool seen = false;
  double first_lb = 0.0, first_ub = 0.0;  // bounds at the first checkpoint
  double lb = 0.0, ub = 0.0;              // latest bounds
  uint64_t refinements = 0;               // times the bounds changed
};

/// Gathers per-operator stats and forwards typed trace events to an optional
/// sink. Borrowed by ExecContext; one collector observes one execution at a
/// time (ExecContext::Reset re-arms it via OnExecReset).
class TelemetryCollector {
 public:
  explicit TelemetryCollector(TraceSink* sink = nullptr) : sink_(sink) {}

  TelemetryCollector(const TelemetryCollector&) = delete;
  TelemetryCollector& operator=(const TelemetryCollector&) = delete;

  /// Installs (or removes) the trace sink. Stats collection is independent
  /// of the sink: no sink means stats-only telemetry.
  void set_sink(TraceSink* sink) { sink_ = sink; }
  TraceSink* sink() const { return sink_; }

  /// Called by ExecContext::Reset when a run starts: sizes the per-node
  /// arrays and restarts the run clock. The trace sequence number is NOT
  /// reset — one sink may record several runs back to back.
  void OnExecReset(size_t num_nodes) {
    stats_.assign(num_nodes, OperatorStats{});
    bounds_.assign(num_nodes, NodeBoundsRecord{});
    epoch_ns_ = MonotonicNanos();
  }

  size_t num_nodes() const { return stats_.size(); }
  const OperatorStats& stats(int node) const {
    return stats_[static_cast<size_t>(node)];
  }
  const NodeBoundsRecord& node_bounds(int node) const {
    return bounds_[static_cast<size_t>(node)];
  }
  /// Nanoseconds since the current run started.
  uint64_t run_elapsed_ns() const { return MonotonicNanos() - epoch_ns_; }

  // -- operator lifecycle hooks (called by PhysicalOperator wrappers) -------

  void RecordOpen(int node, const std::string& label, uint64_t elapsed_ns,
                  uint64_t work) {
    OperatorStats& s = stats_[static_cast<size_t>(node)];
    ++s.opens;
    s.open_ns += elapsed_ns;
    if (sink_ != nullptr) {
      TraceEvent ev;
      ev.kind = TraceEventKind::kOperatorOpen;
      ev.work = work;
      ev.node = node;
      ev.name = label;
      Emit(std::move(ev));
    }
  }

  void RecordNext(int node, bool produced, uint64_t elapsed_ns,
                  uint64_t end_ns) {
    OperatorStats& s = stats_[static_cast<size_t>(node)];
    ++s.next_calls;
    s.next_ns += elapsed_ns;
    if (produced) {
      ++s.rows_returned;
      uint64_t rel = end_ns - epoch_ns_;
      if (rel == 0) rel = 1;  // keep 0 reserved for "no row yet"
      if (s.first_row_ns == 0) s.first_row_ns = rel;
      s.last_row_ns = rel;
    }
  }

  void RecordClose(int node, const std::string& label, uint64_t elapsed_ns,
                   uint64_t work) {
    OperatorStats& s = stats_[static_cast<size_t>(node)];
    ++s.closes;
    s.close_ns += elapsed_ns;
    if (sink_ != nullptr) {
      TraceEvent ev;
      ev.kind = TraceEventKind::kOperatorClose;
      ev.work = work;
      ev.node = node;
      ev.name = label;
      Emit(std::move(ev));
    }
  }

  // -- error attribution hooks (called by ExecContext) ----------------------

  void RecordGuardTrip(int node, uint64_t work, const std::string& reason,
                       const std::string& message) {
    if (node >= 0) ++stats_[static_cast<size_t>(node)].guard_trips;
    if (sink_ != nullptr) {
      TraceEvent ev;
      ev.kind = TraceEventKind::kGuardTrip;
      ev.work = work;
      ev.node = node;
      ev.name = reason;
      ev.detail = message;
      Emit(std::move(ev));
    }
  }

  void RecordFault(int node, uint64_t work, const std::string& site,
                   const std::string& message) {
    if (node >= 0) ++stats_[static_cast<size_t>(node)].faults;
    if (sink_ != nullptr) {
      TraceEvent ev;
      ev.kind = TraceEventKind::kFaultFired;
      ev.work = work;
      ev.node = node;
      ev.name = site;
      ev.detail = message;
      Emit(std::move(ev));
    }
  }

  // -- spill hooks (called by the SpillManager) -----------------------------

  /// `depth` is the Grace recursion depth of the run being created: 0 for
  /// first-pass runs (and every non-join spill), >= 1 for runs produced by
  /// re-partitioning an oversized partition (trace schema v3).
  void RecordSpillBegin(int node, uint64_t work, const std::string& phase,
                        int depth = 0) {
    if (node >= 0) ++stats_[static_cast<size_t>(node)].spills;
    if (sink_ != nullptr) {
      TraceEvent ev;
      ev.kind = TraceEventKind::kSpillBegin;
      ev.work = work;
      ev.node = node;
      ev.name = phase;
      ev.a = static_cast<double>(depth);
      Emit(std::move(ev));
    }
  }

  void RecordSpillEnd(int node, uint64_t work, const std::string& phase,
                      uint64_t rows, uint64_t bytes) {
    if (node >= 0) {
      OperatorStats& s = stats_[static_cast<size_t>(node)];
      s.spill_rows_written += rows;
      s.spill_bytes += bytes;
    }
    if (sink_ != nullptr) {
      TraceEvent ev;
      ev.kind = TraceEventKind::kSpillEnd;
      ev.work = work;
      ev.node = node;
      ev.name = phase;
      ev.a = static_cast<double>(rows);
      ev.b = static_cast<double>(bytes);
      Emit(std::move(ev));
    }
  }

  /// Stats-only (no event): re-reads happen once per spilled row and would
  /// drown the trace.
  void RecordSpillRead(int node, uint64_t rows) {
    if (node >= 0) stats_[static_cast<size_t>(node)].spill_rows_read += rows;
  }

  void RecordIoRetry(int node, uint64_t work, const std::string& site,
                     uint64_t attempt) {
    if (node >= 0) ++stats_[static_cast<size_t>(node)].io_retries;
    if (sink_ != nullptr) {
      TraceEvent ev;
      ev.kind = TraceEventKind::kIoRetry;
      ev.work = work;
      ev.node = node;
      ev.name = site;
      ev.a = static_cast<double>(attempt);
      Emit(std::move(ev));
    }
  }

  // -- bounds history (called by the ProgressMonitor at checkpoints) --------

  /// Records node bounds at a checkpoint; emits a kBoundRefined event when
  /// they changed since the last checkpoint.
  void RecordNodeBounds(int node, double lb, double ub, uint64_t work) {
    NodeBoundsRecord& r = bounds_[static_cast<size_t>(node)];
    bool changed = !r.seen || lb != r.lb || ub != r.ub;
    if (!r.seen) {
      r.seen = true;
      r.first_lb = lb;
      r.first_ub = ub;
    } else if (changed) {
      ++r.refinements;
    }
    r.lb = lb;
    r.ub = ub;
    if (changed && sink_ != nullptr) {
      TraceEvent ev;
      ev.kind = TraceEventKind::kBoundRefined;
      ev.work = work;
      ev.node = node;
      ev.a = lb;
      ev.b = ub;
      Emit(std::move(ev));
    }
  }

  /// Emits an arbitrary event (run begin/end, checkpoints, estimator
  /// evaluations). No-op without a sink; seq is stamped here so every sink
  /// sees a strictly increasing sequence.
  void Emit(TraceEvent event) {
    if (sink_ == nullptr) return;
    event.seq = seq_++;
    sink_->Append(event);
  }

  /// Events handed to the sink so far (and the next seq to be stamped).
  uint64_t events_emitted() const { return seq_; }

 private:
  TraceSink* sink_;
  uint64_t seq_ = 0;
  uint64_t epoch_ns_ = 0;
  std::vector<OperatorStats> stats_;
  std::vector<NodeBoundsRecord> bounds_;
};

}  // namespace qprog

#endif  // QPROG_OBS_TELEMETRY_H_
