// SpillManager: the memory-adaptive execution layer. When a blocking
// operator's ChargeBufferedRowsOrSpill comes back kSpill, the operator dumps
// buffered state into SpillRuns — checksummed temp files (storage/
// spill_file.h) — and re-reads them later in partition-sized pieces, so a
// query degrades to extra I/O passes instead of dying with
// kResourceExhausted.
//
// Spilling changes the paper's work model: every row written to or re-read
// from a run is one extra unit of work that was not in the static plan, so
// total(Q) is revised upward mid-query (ExecContext::AddSpillWork). The
// bounds walker folds the same terms into [LB, UB], which keeps pmax/safe
// sound while the total grows under the estimators' feet — exactly the
// dynamic-total regime the paper's Section 5 warns about.
//
// Retryable I/O: every file operation first consults the fault injector at
// its site (spill.open / spill.write / spill.read). A kUnavailable verdict is
// transient — the manager retries with deterministic doubling busy-wait
// backoff up to the policy's attempt limit, emitting an io_retry trace event
// per retry. Any other failure (injected permanent faults, real I/O errors,
// checksum mismatches) is terminal: retrying a possibly-partial write would
// corrupt the run, so it surfaces immediately as the sticky execution error.
//
// Cleanup is structural: a SpillRun deletes its temp file on destruction and
// operators own their runs, so DoClose — which the plan driver invokes even
// on an aborted run — is all it takes to guarantee zero leaked temp files on
// cancel, deadline, guard trip or injected fault. As a backstop against runs
// whose destructor never fires (a worker task dying mid-write with ownership
// of a run, or an abort path that drops a run on the floor), the manager
// keeps a registry of every live temp-file path: CreateRun registers,
// Discard unregisters, live_files() lets tests audit for leaks,
// and ~SpillManager unlinks anything still registered.
//
// String ownership: a row read back from a run views VARCHAR bytes in the
// run's own arena, filled without a lock because one thread at a time owns
// the run. Discard moves the arena's chunks to the manager, so the rows an
// operator built from a run stay valid after the run is gone, until the
// manager — one per query — is destroyed (DESIGN.md §9).
//
// Threading: runs perform their I/O against a WorkContext — the ExecContext
// itself on the serial path, a per-task TaskContext (exec/worker_pool.h) on
// a pool thread. One run is owned by exactly one context at a time; the
// manager-wide SpillStats counters are atomics because runs on different
// worker threads bump them concurrently (they are monitoring data, not part
// of the deterministic work model). CreateRun, the only way to make a run,
// is query-thread-only: run *identity* (and the spill_begin trace event) is
// part of the deterministic trace, so operators create runs up front and
// hand them to tasks.

#ifndef QPROG_EXEC_SPILL_H_
#define QPROG_EXEC_SPILL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "exec/exec_context.h"
#include "exec/work_context.h"
#include "storage/spill_file.h"
#include "types/string_arena.h"
#include "types/value.h"

namespace qprog {

class SpillManager;

/// Retry behavior for transient spill I/O failures.
struct SpillRetryPolicy {
  /// Total tries per operation (first attempt + up to max_attempts-1
  /// retries). Must be >= 1.
  int max_attempts = 4;
  /// Busy-wait spins before the first retry; doubles per retry. Deterministic
  /// (no clock) so traces stay byte-identical for a fixed seed.
  uint64_t backoff_spins = 512;
};

/// Simulated spill-device bandwidth, for benchmarking I/O overlap: each byte
/// moved to/from a spill file accrues sleep debt at these rates, paid in
/// >= 100us sleeps. Debt is per-run, so concurrent runs on worker threads
/// overlap their "device time" exactly like real bandwidth-bound I/O — this
/// is what lets bench/micro_parallel measure parallel speedup even on a
/// single-core host. Default zero = off; the model adds latency, never
/// changes results or traces.
struct SpillDeviceModel {
  uint64_t write_ns_per_byte = 0;
  uint64_t read_ns_per_byte = 0;
  bool enabled() const { return (write_ns_per_byte | read_ns_per_byte) != 0; }
};

/// Manager-wide counters, aggregated across all runs. Atomics: worker-thread
/// runs update them concurrently. Monitoring data only — nothing in the
/// deterministic work model reads them.
struct SpillStats {
  std::atomic<uint64_t> runs_created{0};
  std::atomic<uint64_t> runs_deleted{0};
  std::atomic<uint64_t> rows_written{0};
  std::atomic<uint64_t> rows_read{0};
  /// Serialized row bytes appended to runs, without record framing.
  std::atomic<uint64_t> bytes_written{0};
  /// Bytes written to disk, record framing included, accumulated when each
  /// run's write phase finishes.
  std::atomic<uint64_t> disk_bytes_written{0};
  std::atomic<uint64_t> io_retries{0};
};

/// One spill run: a write-then-read sequence of rows in a temp file. Created
/// via SpillManager::CreateRun; the backing file is deleted when the run is
/// destroyed (or earlier via Discard), never later.
///
/// All methods return false after raising the sticky error on the passed
/// context — callers propagate by returning false themselves, and DoClose
/// destroys the runs. A run may move between threads (created on the query
/// thread, written/read by a task) but is only ever touched by one thread at
/// a time, with the task barrier as the handoff point.
class SpillRun {
 public:
  ~SpillRun();

  SpillRun(const SpillRun&) = delete;
  SpillRun& operator=(const SpillRun&) = delete;

  /// Serializes and appends one row; counts one unit of spill work at `node`.
  bool Append(WorkContext* wc, int node, const Row& row);

  /// Ends the write phase and emits the spill_end trace event carrying this
  /// run's row and byte counts. Call once, after the last Append.
  bool FinishWrite(WorkContext* wc, int node);

  /// Rewinds to the first row for reading. May be called again to re-read.
  bool OpenRead(WorkContext* wc, int node);

  /// Reads the next row; counts one unit of spill work at `node`. Returns
  /// false at end of run *or* on error — check wc->ok() to tell them apart.
  /// The row's VARCHARs view this run's string arena, which Discard hands
  /// to the manager: they stay valid until the SpillManager is destroyed.
  bool ReadNext(WorkContext* wc, int node, Row* row);

  /// Deletes the backing file now and hands the decoded strings to the
  /// manager (idempotent; destructor does it too).
  void Discard();

  uint64_t rows_written() const { return rows_written_; }
  uint64_t rows_read() const { return rows_read_; }
  /// Rows written but not yet re-read — the run's pending spill work, which
  /// the bounds walker adds to UB (and LB: every spilled row must come back).
  /// NOTE: while a task owns this run, these counters are in flux and must
  /// not be read from the query thread; operators keep their own query-
  /// thread-side pending counters for FillProgressState (DESIGN.md §10).
  uint64_t rows_pending() const { return rows_written_ - rows_read_; }

 private:
  friend class SpillManager;

  SpillRun(SpillManager* manager, std::unique_ptr<SpillFile> file,
           std::string phase);

  /// Accrues device-model sleep debt for bytes newly moved by file_ since
  /// the last charge, and pays it off in >= 100us sleeps.
  void ChargeDevice();

  SpillManager* manager_;
  std::unique_ptr<SpillFile> file_;
  std::string path_;  // retained past file_'s death to unregister it
  std::string phase_;
  uint64_t rows_written_ = 0;
  uint64_t rows_read_ = 0;
  std::string scratch_;  // serialization buffer, reused across rows
  StringArena strings_;  // bytes of the VARCHARs ReadNext decoded
  // Device-model bookkeeping: file byte counters as of the last charge, and
  // unslept debt in nanoseconds. All zero-cost when the model is off.
  uint64_t device_written_seen_ = 0;
  uint64_t device_read_seen_ = 0;
  uint64_t device_debt_ns_ = 0;
};

using SpillRunPtr = std::unique_ptr<SpillRun>;

/// Creates and tracks spill runs for one execution. Borrowed by ExecContext
/// (set_spill_manager); operators reach it via ctx->spill_manager(). Tests
/// assert live_runs() == 0 after Close to prove nothing leaked.
class SpillManager {
 public:
  /// `dir` is where temp files go (empty = $TMPDIR, else /tmp).
  explicit SpillManager(std::string dir = "",
                        SpillRetryPolicy policy = SpillRetryPolicy());

  /// Sweeps orphans: any registered temp file whose run never ran its
  /// destructor is unlinked here, so even a task that died mid-write cannot
  /// leak a qprog-spill-* file past the manager's lifetime.
  ~SpillManager();

  SpillManager(const SpillManager&) = delete;
  SpillManager& operator=(const SpillManager&) = delete;

  /// Creates a spill run for `node`; emits a spill_begin trace event with
  /// `phase` (e.g. "sort.run", "hashjoin.build") and `depth` — the Grace
  /// recursion depth of the run (0 for first-pass runs and every non-join
  /// spill; >= 1 for runs minted while re-partitioning an oversized
  /// partition). Returns nullptr after raising the sticky error when the
  /// file cannot be created. Query thread only — run creation order is part
  /// of the deterministic trace.
  SpillRunPtr CreateRun(ExecContext* ctx, int node, const char* phase,
                        int depth = 0);

  /// Runs created but not yet destroyed (each owns one live temp file).
  uint64_t live_runs() const { return stats_.runs_created - stats_.runs_deleted; }

  /// Paths of every temp file currently registered (sorted, for stable test
  /// output). Empty after all runs are destroyed — the soak leak audit.
  /// Thread-safe snapshot.
  std::vector<std::string> live_files() const;

  const SpillStats& stats() const { return stats_; }
  const std::string& dir() const { return dir_; }
  const SpillRetryPolicy& policy() const { return policy_; }

  /// Simulated device bandwidth (see SpillDeviceModel). Benchmarks only;
  /// configure before execution.
  void set_device_model(SpillDeviceModel model) { device_model_ = model; }
  const SpillDeviceModel& device_model() const { return device_model_; }

 private:
  friend class SpillRun;

  /// Runs `attempt` with transient-fault retries: consults the context's
  /// fault injector at `site` before each try (the injector models the I/O
  /// layer), retries only kUnavailable with doubling busy-wait backoff, and
  /// returns the first non-transient status (or the last transient one when
  /// the attempt budget runs out).
  Status WithRetries(WorkContext* wc, int node, const char* site,
                     const std::function<Status()>& attempt);

  /// Records `status` as the sticky error on `wc`, attributed to `node` at
  /// `site` in the telemetry.
  void RaiseIoError(WorkContext* wc, int node, const char* site,
                    Status status);

  void RegisterLiveFile(const std::string& path);
  void UnregisterLiveFile(const std::string& path);
  /// Keeps a discarded run's decoded strings until the manager dies.
  void AdoptStrings(StringArena* strings);

  std::string dir_;
  SpillRetryPolicy policy_;
  SpillStats stats_;
  SpillDeviceModel device_model_;
  mutable std::mutex live_files_mu_;
  std::unordered_set<std::string> live_files_;
  std::mutex strings_mu_;
  StringArena strings_;  // strings read back from discarded runs
};

}  // namespace qprog

#endif  // QPROG_EXEC_SPILL_H_
