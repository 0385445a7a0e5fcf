// SpillFile: the storage substrate of the memory-adaptive execution layer
// (exec/spill.h). A write-then-read temp file holding length-prefixed,
// checksummed records; created under a spill directory and deleted on
// destruction, so a run can never leak past its owner.
//
// One on-disk framing, one frame per record:
//
//   [u32 payload_size][u32 fnv1a32(payload)][payload]
//
// A checksum mismatch on read is data corruption — a *permanent* failure
// (kInternal), never retried. Transient failures (kUnavailable) are only ever
// produced by the fault injector upstream of the file; a short read/write
// from the OS is likewise permanent from this layer's point of view.
//
// Row serialization lives here too (storage already links qprog_types): a
// tagged per-value encoding covering every TypeId the engine's Value carries.

#ifndef QPROG_STORAGE_SPILL_FILE_H_
#define QPROG_STORAGE_SPILL_FILE_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "common/statusor.h"
#include "types/string_arena.h"
#include "types/value.h"

namespace qprog {

/// 32-bit FNV-1a over a byte buffer — cheap, deterministic, and good enough
/// to catch torn spill records.
uint32_t SpillChecksum(const void* data, size_t size);

/// Serializes `row` onto `out` (appends; does not clear).
void AppendRowBytes(const Row& row, std::string* out);

/// Parses a buffer produced by AppendRowBytes. Fails with kInternal on any
/// malformed byte — a failed parse after a passing checksum means a bug, not
/// bit rot, but the caller treats both as permanent spill corruption.
/// VARCHAR bytes are copied into `strings`, which the row's strings view.
Status ParseRowBytes(const std::string& bytes, StringArena* strings,
                     Row* out);

class SpillFile {
 public:
  /// Creates a fresh spill file under `dir` (empty = $TMPDIR, else /tmp).
  /// File names carry the kFilePrefix so tests can audit a directory for
  /// leaked spill files.
  static StatusOr<std::unique_ptr<SpillFile>> Create(const std::string& dir);

  static constexpr const char* kFilePrefix = "qprog-spill-";

  ~SpillFile();

  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  /// Appends one record. Write phase only.
  Status AppendRecord(const void* data, size_t size);

  /// Flushes buffered writes and rewinds to the first record for reading.
  /// May be called again to re-read from the start.
  Status SeekToStart();

  /// Reads the next record into `*out`. Returns false at end of file; a
  /// checksum mismatch or torn record is a kInternal error.
  StatusOr<bool> ReadRecord(std::string* out);

  /// Closes and deletes the backing file. Idempotent; also runs at
  /// destruction, so a SpillFile can never outlive its temp file.
  void CloseAndDelete();

  uint64_t records_written() const { return records_written_; }
  /// Bytes written to disk (framing included).
  uint64_t bytes_written() const { return bytes_written_; }
  /// Bytes physically read from disk so far (framing included).
  uint64_t bytes_read() const { return bytes_read_; }
  const std::string& path() const { return path_; }

 private:
  SpillFile(std::FILE* file, std::string path);

  std::FILE* file_;
  std::string path_;
  uint64_t records_written_ = 0;
  uint64_t bytes_written_ = 0;
  uint64_t bytes_read_ = 0;
};

}  // namespace qprog

#endif  // QPROG_STORAGE_SPILL_FILE_H_
