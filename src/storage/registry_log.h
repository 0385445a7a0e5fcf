// RegistryLog: the crash-safe storage substrate of the cross-run estimator
// registry (obs/cross_run_registry.h). An append-only file of length-
// prefixed, checksummed records — the same [u32 size][u32 fnv1a32][payload]
// framing SpillFile uses for spill runs — that survives kill-9, torn writes,
// and bit rot:
//
//  * Torn tail: a record whose header or payload runs past end-of-file is
//    the half-written victim of a crash. Open() truncates the file back to
//    the last fully-written record, so the next append continues from a
//    clean prefix.
//  * Corrupt record: a record whose length header is intact but whose
//    payload fails the checksum (bit rot, partially-synced page) is skipped
//    — the length framing still locates the next record — and reported in
//    the RegistryRecoveryReport. Skipped bytes stay in the file until the
//    next Compact() rewrites it.
//  * Unframeable garbage: a length header that is itself corrupt (larger
//    than kMaxRecordBytes) leaves no way to resynchronize; everything from
//    that offset on is truncated like a torn tail.
//
// Compact() rewrites the log as a fresh file beside the original and
// publishes it with an atomic rename(2), so a crash during compaction
// leaves either the old log or the new one — never a mix.
//
// Fault injection: every open / append / sync / compact consults an
// optional fault hook (the exec-layer FaultInjector bound by the caller;
// storage cannot link exec) at the registry.open / registry.append /
// registry.compact sites. kUnavailable verdicts are transient and retried
// with the same deterministic doubling busy-wait backoff as spill I/O;
// anything else is permanent and surfaces as a clean error with no partial
// state — a failed append truncates the file back to its pre-append size.

#ifndef QPROG_STORAGE_REGISTRY_LOG_H_
#define QPROG_STORAGE_REGISTRY_LOG_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/statusor.h"

namespace qprog {

/// Fault-site names consulted through RegistryLogOptions::fault_hook. These
/// mirror the exec-layer faults::kRegistry* constants; the duplication keeps
/// storage below exec in the layer order.
inline constexpr char kRegistryOpenSite[] = "registry.open";
inline constexpr char kRegistryAppendSite[] = "registry.append";
inline constexpr char kRegistryCompactSite[] = "registry.compact";

struct RegistryLogOptions {
  /// Consulted before every real file operation with the site name
  /// (kRegistry*Site). A kUnavailable return is transient (retried with
  /// doubling backoff, four tries in all); any other non-OK return is
  /// permanent and surfaces after the operation's state is rolled back.
  /// Null = no faults.
  std::function<Status(const char* site)> fault_hook;
};

/// What Open() found and repaired.
struct RegistryRecoveryReport {
  uint64_t records_recovered = 0;
  /// Checksum-failed records skipped over intact length framing.
  uint64_t corrupt_records_skipped = 0;
  /// Bytes cut off the end (torn tail or unframeable garbage).
  uint64_t torn_tail_bytes = 0;
  bool truncated = false;
};

/// Maximum payload size Open() will believe. A length header above this is
/// treated as unframeable corruption, not an allocation request — the PR 3
/// SpillFile::ReadRecord hardening, applied at recovery time.
inline constexpr uint32_t kRegistryMaxRecordBytes = 16u * 1024 * 1024;

class RegistryLog {
 public:
  /// Opens (creating if absent) the log at `path`, replays every recoverable
  /// record through `visitor` (may be null), repairs the tail, and leaves
  /// the file positioned for appending. `recovery` (optional) reports what
  /// was recovered, skipped, and truncated.
  static StatusOr<std::unique_ptr<RegistryLog>> Open(
      const std::string& path, RegistryLogOptions options = RegistryLogOptions(),
      const std::function<void(const std::string& payload)>& visitor = nullptr,
      RegistryRecoveryReport* recovery = nullptr);

  ~RegistryLog();

  RegistryLog(const RegistryLog&) = delete;
  RegistryLog& operator=(const RegistryLog&) = delete;

  /// Appends one record. On any failure (after transient retries) the file
  /// is truncated back to its pre-append size, so a permanent fault never
  /// leaves a partial record for the next Open() to trip over.
  Status Append(const std::string& payload);

  /// Flushes and fsyncs everything appended so far. After an OK Sync every
  /// prior Append survives kill-9. Append never syncs; the caller chooses
  /// when to (e.g. once per recorded run).
  Status Sync();

  /// Atomically replaces the log's contents with `records`: writes them to
  /// a sibling temp file, fsyncs, and rename(2)s it over the log. On any
  /// failure the original log is untouched (the temp file is removed).
  Status Compact(const std::vector<std::string>& records);

  const std::string& path() const { return path_; }
  uint64_t records_appended() const { return records_appended_; }
  /// Current on-disk size in bytes (framing included).
  uint64_t bytes() const { return bytes_; }
  /// Transient-fault retries performed across all operations.
  uint64_t io_retries() const { return io_retries_; }

 private:
  RegistryLog(std::string path, RegistryLogOptions options);

  /// Consults the fault hook at `site`, retrying transient verdicts with
  /// doubling busy-wait backoff. Returns the first permanent failure, or OK.
  Status ConsultFault(const char* site);
  Status OpenForAppend(uint64_t append_offset);

  std::string path_;
  RegistryLogOptions options_;
  std::FILE* file_ = nullptr;
  uint64_t bytes_ = 0;
  uint64_t records_appended_ = 0;
  uint64_t io_retries_ = 0;
};

/// Serializes one record frame ([u32 size][u32 fnv1a32][payload]) onto
/// `out` — shared by Append and Compact, and by tests that hand-craft
/// corrupt logs.
void AppendRegistryFrame(const std::string& payload, std::string* out);

}  // namespace qprog

#endif  // QPROG_STORAGE_REGISTRY_LOG_H_
