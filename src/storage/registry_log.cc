#include "storage/registry_log.h"

#include <atomic>
#include <cerrno>
#include <cstring>

#include <sys/stat.h>
#include <unistd.h>

#include "common/macros.h"
#include "common/strings.h"
#include "storage/spill_file.h"  // SpillChecksum: the shared fnv1a32

namespace qprog {

namespace {

constexpr size_t kFrameHeaderBytes = 8;  // u32 size + u32 checksum

// Transient-fault retry budget, matching the spill layer's default policy:
// up to kMaxAttempts tries in all, busy-waiting kInitialBackoffSpins before
// the first retry and doubling per retry.
constexpr int kMaxAttempts = 4;
constexpr uint64_t kInitialBackoffSpins = 512;

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

/// Deterministic busy-wait, the spill-layer backoff idiom: no clocks, so a
/// retried schedule replays identically.
void BusyWait(uint64_t spins) {
  std::atomic<uint64_t> sink{0};
  for (uint64_t i = 0; i < spins; ++i) {
    sink.fetch_add(1, std::memory_order_relaxed);
  }
}

Status IoError(const char* op, const std::string& path) {
  return Internal(StringPrintf("registry log %s failed for '%s': %s", op,
                               path.c_str(), std::strerror(errno)));
}

/// fsync via the stdio handle's descriptor; flushes stdio buffers first.
Status FlushAndSync(std::FILE* file, const std::string& path) {
  if (std::fflush(file) != 0) return IoError("flush", path);
  if (::fsync(fileno(file)) != 0) return IoError("fsync", path);
  return OkStatus();
}

}  // namespace

void AppendRegistryFrame(const std::string& payload, std::string* out) {
  PutU32(out, static_cast<uint32_t>(payload.size()));
  PutU32(out, SpillChecksum(payload.data(), payload.size()));
  out->append(payload);
}

RegistryLog::RegistryLog(std::string path, RegistryLogOptions options)
    : path_(std::move(path)), options_(std::move(options)) {}

RegistryLog::~RegistryLog() {
  if (file_ != nullptr) std::fclose(file_);
}

Status RegistryLog::ConsultFault(const char* site) {
  if (!options_.fault_hook) return OkStatus();
  uint64_t backoff = kInitialBackoffSpins;
  Status last = OkStatus();
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    if (attempt > 0) {
      ++io_retries_;
      BusyWait(backoff);
      backoff *= 2;
    }
    last = options_.fault_hook(site);
    if (last.ok()) return last;
    if (last.code() != StatusCode::kUnavailable) return last;  // permanent
  }
  return last;  // transient window outlasted the retry budget
}

StatusOr<std::unique_ptr<RegistryLog>> RegistryLog::Open(
    const std::string& path, RegistryLogOptions options,
    const std::function<void(const std::string& payload)>& visitor,
    RegistryRecoveryReport* recovery) {
  std::unique_ptr<RegistryLog> log(new RegistryLog(path, std::move(options)));
  QPROG_RETURN_IF_ERROR(log->ConsultFault(kRegistryOpenSite));

  RegistryRecoveryReport report;
  uint64_t good_end = 0;  // offset just past the last recoverable byte

  // Recovery scan: read the whole existing file (if any), walking the frame
  // chain. The file is read with plain stdio — recovery is not a hot path.
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in != nullptr) {
    std::string payload;
    uint64_t offset = 0;
    for (;;) {
      char header[kFrameHeaderBytes];
      size_t got = std::fread(header, 1, kFrameHeaderBytes, in);
      if (got < kFrameHeaderBytes) {
        // Fewer than 8 bytes left: clean EOF (got == 0) or a torn header.
        if (got > 0) {
          report.torn_tail_bytes += got;
          report.truncated = true;
        }
        break;
      }
      uint32_t size = 0, checksum = 0;
      std::memcpy(&size, header, 4);
      std::memcpy(&checksum, header + 4, 4);
      if (size > kRegistryMaxRecordBytes) {
        // Unframeable: the length itself is garbage, so there is no way to
        // find the next record boundary. Everything from here is dropped.
        std::fseek(in, 0, SEEK_END);
        uint64_t file_end = static_cast<uint64_t>(std::ftell(in));
        report.torn_tail_bytes += file_end - offset;
        report.truncated = true;
        break;
      }
      payload.resize(size);
      size_t payload_got =
          size > 0 ? std::fread(&payload[0], 1, size, in) : 0;
      if (payload_got < size) {
        // Torn payload at end of file.
        report.torn_tail_bytes += kFrameHeaderBytes + payload_got;
        report.truncated = true;
        break;
      }
      if (SpillChecksum(payload.data(), payload.size()) != checksum) {
        // Bit rot inside an intact frame: skip it, keep walking.
        ++report.corrupt_records_skipped;
        offset += kFrameHeaderBytes + size;
        good_end = offset;
        continue;
      }
      ++report.records_recovered;
      offset += kFrameHeaderBytes + size;
      good_end = offset;
      if (visitor) visitor(payload);
    }
    std::fclose(in);
  }

  // Repair: drop the torn tail so the append path continues from a clean
  // prefix. truncate(2) on the path — the read handle is already closed.
  if (report.truncated) {
    if (::truncate(path.c_str(), static_cast<off_t>(good_end)) != 0 &&
        errno != ENOENT) {
      return IoError("truncate", path);
    }
  }

  QPROG_RETURN_IF_ERROR(log->OpenForAppend(good_end));
  if (recovery != nullptr) *recovery = report;
  return log;
}

Status RegistryLog::OpenForAppend(uint64_t append_offset) {
  // "a+" creates if absent; positioning is explicit because appends must
  // land exactly at the recovered prefix end.
  std::FILE* f = std::fopen(path_.c_str(), "ab");
  if (f == nullptr) return IoError("open", path_);
  if (file_ != nullptr) std::fclose(file_);
  file_ = f;
  bytes_ = append_offset;
  return OkStatus();
}

Status RegistryLog::Append(const std::string& payload) {
  if (file_ == nullptr) return Internal("registry log is not open");
  if (payload.size() > kRegistryMaxRecordBytes) {
    return InvalidArgument(
        StringPrintf("registry record of %zu bytes exceeds the %u-byte limit",
                     payload.size(), kRegistryMaxRecordBytes));
  }
  Status fault = ConsultFault(kRegistryAppendSite);
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  AppendRegistryFrame(payload, &frame);
  bool wrote_ok = false;
  if (fault.ok()) {
    wrote_ok = std::fwrite(frame.data(), 1, frame.size(), file_) == frame.size();
    if (!wrote_ok) fault = IoError("append", path_);
  }
  if (!fault.ok()) {
    // Roll back any partial bytes: flush what stdio buffered, then cut the
    // file back to the pre-append size. A permanent fault must leave no
    // partial state for the next Open() to repair.
    std::fflush(file_);
    std::fclose(file_);
    file_ = nullptr;
    if (::truncate(path_.c_str(), static_cast<off_t>(bytes_)) != 0 &&
        errno != ENOENT) {
      return IoError("rollback-truncate", path_);
    }
    Status reopen = OpenForAppend(bytes_);
    if (!reopen.ok()) return reopen;
    return fault;
  }
  bytes_ += frame.size();
  ++records_appended_;
  return OkStatus();
}

Status RegistryLog::Sync() {
  if (file_ == nullptr) return Internal("registry log is not open");
  return FlushAndSync(file_, path_);
}

Status RegistryLog::Compact(const std::vector<std::string>& records) {
  Status fault = ConsultFault(kRegistryCompactSite);
  if (!fault.ok()) return fault;

  const std::string tmp_path = path_ + ".compact.tmp";
  std::FILE* tmp = std::fopen(tmp_path.c_str(), "wb");
  if (tmp == nullptr) return IoError("compact-open", tmp_path);
  std::string frame;
  uint64_t written = 0;
  for (const std::string& payload : records) {
    if (payload.size() > kRegistryMaxRecordBytes) {
      std::fclose(tmp);
      std::remove(tmp_path.c_str());
      return InvalidArgument("registry compact record exceeds the size limit");
    }
    frame.clear();
    AppendRegistryFrame(payload, &frame);
    if (std::fwrite(frame.data(), 1, frame.size(), tmp) != frame.size()) {
      std::fclose(tmp);
      std::remove(tmp_path.c_str());
      return IoError("compact-write", tmp_path);
    }
    written += frame.size();
  }
  Status sync = FlushAndSync(tmp, tmp_path);
  std::fclose(tmp);
  if (!sync.ok()) {
    std::remove(tmp_path.c_str());
    return sync;
  }
  // Atomic publish: after rename either the whole new log is visible or the
  // old one still is — a crash in between cannot mix the two.
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  if (std::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    Status err = IoError("compact-rename", path_);
    std::remove(tmp_path.c_str());
    Status reopen = OpenForAppend(bytes_);
    return reopen.ok() ? err : reopen;
  }
  records_appended_ = records.size();
  return OpenForAppend(written);
}

}  // namespace qprog
