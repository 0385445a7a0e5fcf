// Structured trace layer: typed events describing one query execution, a
// pluggable TraceSink to receive them, and a TraceReader that parses a
// recorded JSONL trace back into events for offline replay (obs/replay.h).
//
// Events are deliberately timestamp-free: a trace for a fixed plan and fixed
// fault-injector seed is byte-identical across runs, which is what makes the
// golden-trace tests and the replay-equals-live invariant possible. Wall-time
// lives in OperatorStats (obs/telemetry.h), never in the trace.
//
// Schema versioning: every JSONL line carries `"v":N` with
// N = kTraceSchemaVersion. Bumping a schema is ONE edit — raise
// kTraceSchemaVersion — because every reader consults the single
// TraceSchemaAccepted() range predicate below instead of literal version
// lists. History: v2 added the spill/io-retry events, v3 the Grace recursion
// `depth` field on spill_begin, v4 the per-checkpoint `eta` event
// (obs/eta_model.h), v5 the exchange repartition events (exchange_begin /
// partition_close), since retired with the partitioned plan: the reader
// rejects them as unknown events. Up to v4 each version is a strict
// superset of the previous one, so the reader parses the full accepted
// range (see DESIGN.md section 8).

#ifndef QPROG_OBS_TRACE_H_
#define QPROG_OBS_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/statusor.h"

namespace qprog {

/// Current trace schema version written by the serializer. A schema bump
/// edits this constant and nothing else on the reader side.
inline constexpr int kTraceSchemaVersion = 5;

/// Oldest schema version the reader still parses. Every version since is a
/// strict superset of its predecessor (absent fields parse as zero values),
/// so the reader handles the whole range.
inline constexpr int kMinTraceSchemaVersion = 1;

/// The single accepted-range predicate every reader consults. No code may
/// compare against version literals directly — this is what makes a version
/// bump a one-line change that cannot miss a reader.
inline constexpr bool TraceSchemaAccepted(int version) {
  return version >= kMinTraceSchemaVersion && version <= kTraceSchemaVersion;
}

/// Every event type the engine can emit. One enumerator per row in the
/// DESIGN.md section-8 event taxonomy; serialized under stable string names
/// (TraceEventKindToString) so the JSONL schema survives enum reordering.
enum class TraceEventKind : uint8_t {
  kRunBegin,            // monitored run starts: estimator roster, leaf card
  kOperatorOpen,        // an operator's Open() ran
  kOperatorClose,       // an operator's Close() ran
  kCheckpoint,          // work-based checkpoint sampled: work, [LB, UB]
  kEstimatorEvaluated,  // one estimator's (sanitized) estimate at a checkpoint
  kBoundRefined,        // a node's [lb, ub] production bounds changed
  kGuardTrip,           // QueryGuard violation became the sticky error
  kFaultFired,          // FaultInjector fault became the sticky error
  kRunEnd,              // run finished: total work, termination, root rows, mu
  kSpillBegin,          // v2: a node started spilling (phase in `name`);
                        // v3 adds the Grace recursion depth in `a`
  kSpillEnd,            // v2: one spill run sealed: rows + bytes written
  kIoRetry,             // v2: transient spill I/O failure, attempt retried
  kEtaSample,           // v4: sanitized wall-clock ETA band at a checkpoint
};

const char* TraceEventKindToString(TraceEventKind kind);

/// One trace event. The generic payload fields mean different things per
/// kind (and serialize under kind-specific JSON keys):
///
///   kind                `name`            `detail`        `a`         `b`
///   ------------------  ----------------  --------------  ----------  -----
///   kRunBegin           estimators (CSV)  -               leaf card   interval
///   kOperatorOpen/Close operator label    -               -           -
///   kCheckpoint         -                 -               work_lb     work_ub
///   kEstimatorEvaluated estimator name    -               estimate    -
///   kBoundRefined       -                 -               lb          ub
///   kGuardTrip          reason            status message  -           -
///   kFaultFired         fault site        status message  -           -
///   kRunEnd             termination       status message  root_rows   mu
///   kSpillBegin         spill phase       -               depth       -
///   kSpillEnd           spill phase       -               rows        bytes
///   kIoRetry            fault site        -               attempt     -
///   kEtaSample          -                 -               eta_s       eta_lo_s   (`c` = eta_hi_s)
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kRunBegin;
  uint64_t seq = 0;   // collector-assigned, strictly increasing
  uint64_t work = 0;  // ExecContext work counter at emission
  int32_t node = -1;  // plan node id, -1 when not node-scoped
  std::string name;
  std::string detail;
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;  // third payload double (v4: eta_hi); 0 for older kinds

  bool operator==(const TraceEvent& other) const = default;
};

/// Serializes one event as a single JSONL line (no trailing newline).
/// Doubles are printed with 17 significant digits so they round-trip
/// bit-exactly through ParseTraceEvent — the foundation of the replay
/// invariant.
std::string TraceEventToJson(const TraceEvent& event);

/// Parses one JSONL line produced by TraceEventToJson.
StatusOr<TraceEvent> ParseTraceEvent(const std::string& line);

/// Receives events as they are emitted. Implementations must tolerate
/// Append() between any two getnext calls; Flush() is a hint before the
/// trace is handed to a reader.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void Append(const TraceEvent& event) = 0;
  virtual void Flush() {}
};

/// Fixed-capacity in-memory sink keeping the most recent `capacity` events —
/// the "flight recorder" attached to a long-running server query.
class RingBufferSink : public TraceSink {
 public:
  explicit RingBufferSink(size_t capacity);

  void Append(const TraceEvent& event) override;

  /// Buffered events, oldest first.
  std::vector<TraceEvent> Snapshot() const;

  size_t capacity() const { return capacity_; }
  size_t size() const { return size_; }
  /// Total events ever appended (>= size() once wrapped).
  uint64_t total_appended() const { return total_; }
  /// Events evicted by wraparound.
  uint64_t dropped() const { return total_ - size_; }

 private:
  size_t capacity_;
  size_t size_ = 0;
  size_t head_ = 0;  // next write position
  uint64_t total_ = 0;
  std::vector<TraceEvent> buffer_;
};

/// Accumulates the JSONL text in memory — golden tests and small traces.
class JsonlStringSink : public TraceSink {
 public:
  void Append(const TraceEvent& event) override;  // out of line: this header
                                                  // is included by qprog_exec,
                                                  // which must not pull in
                                                  // serialization symbols
  const std::string& data() const { return data_; }

 private:
  std::string data_;
};

/// Streams events to a JSONL file. Write failures latch into status() and
/// further appends become no-ops (tracing must never crash the query).
class JsonlFileSink : public TraceSink {
 public:
  explicit JsonlFileSink(const std::string& path);
  ~JsonlFileSink() override;

  JsonlFileSink(const JsonlFileSink&) = delete;
  JsonlFileSink& operator=(const JsonlFileSink&) = delete;

  void Append(const TraceEvent& event) override;
  void Flush() override;
  /// Closes the file; later appends are dropped. Idempotent.
  void Close();

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

 private:
  std::FILE* file_ = nullptr;
  Status status_;
};

/// Parses a whole JSONL trace (one event per non-empty line). Fails with the
/// offending line number on the first malformed or version-incompatible line.
StatusOr<std::vector<TraceEvent>> ParseTraceJsonl(const std::string& text);

/// Reads and parses a JSONL trace file written by JsonlFileSink.
StatusOr<std::vector<TraceEvent>> ReadTraceFile(const std::string& path);

}  // namespace qprog

#endif  // QPROG_OBS_TRACE_H_
