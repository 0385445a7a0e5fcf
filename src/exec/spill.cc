#include "exec/spill.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>

#include "exec/fault_injector.h"

namespace qprog {

namespace {

// Pay device-model debt in chunks of at least this much: sleeping per byte
// would drown the model in syscall overhead, while 100us chunks keep the
// simulated bandwidth accurate to well under a percent at realistic rates.
constexpr uint64_t kDeviceSleepChunkNs = 100 * 1000;

}  // namespace

size_t GracePartitionIndex(size_t hash, int level, int fanout) {
  uint64_t x = static_cast<uint64_t>(hash);
  if (level > 0) {
    x += 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(level);
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
  }
  return static_cast<size_t>(x % static_cast<uint64_t>(fanout));
}

// --------------------------------------------------------------------------
// SpillRun

SpillRun::SpillRun(SpillManager* manager, std::unique_ptr<SpillFile> file,
                   std::string phase)
    : manager_(manager),
      file_(std::move(file)),
      path_(file_->path()),
      phase_(std::move(phase)) {}

SpillRun::~SpillRun() { Discard(); }

void SpillRun::Discard() {
  if (file_ != nullptr) {
    file_.reset();  // closes and deletes the temp file
    manager_->UnregisterLiveFile(path_);
    ++manager_->stats_.runs_deleted;
  }
}

void SpillRun::ChargeDevice() {
  const SpillDeviceModel& model = manager_->device_model_;
  if (!model.enabled()) return;
  uint64_t written = file_->bytes_written();
  uint64_t read = file_->bytes_read();
  // bytes_read resets to 0 on rewind; resync instead of charging a wrap.
  if (read < device_read_seen_) device_read_seen_ = read;
  device_debt_ns_ += (written - device_written_seen_) * model.write_ns_per_byte;
  device_debt_ns_ += (read - device_read_seen_) * model.read_ns_per_byte;
  device_written_seen_ = written;
  device_read_seen_ = read;
  if (device_debt_ns_ >= kDeviceSleepChunkNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(device_debt_ns_));
    device_debt_ns_ = 0;
  }
}

bool SpillRun::Append(WorkContext* wc, int node, const Row& row) {
  if (!wc->ok()) return false;
  scratch_.clear();
  AppendRowBytes(row, &scratch_);
  Status status =
      manager_->WithRetries(wc, node, faults::kSpillWrite, [&]() -> Status {
        return file_->AppendRecord(scratch_.data(), scratch_.size());
      });
  if (!status.ok()) {
    manager_->RaiseIoError(wc, node, faults::kSpillWrite, std::move(status));
    return false;
  }
  ++rows_written_;
  ChargeDevice();
  if (accounted_) {
    ++manager_->stats_.rows_written;
    manager_->stats_.bytes_written += scratch_.size();
    // One unit of extra work per spilled row: total(Q) just grew.
    wc->AddSpillWork(node, 1);
  }
  return wc->ok();  // counting the work may have tripped the guard
}

bool SpillRun::FinishWrite(WorkContext* wc, int node) {
  if (!wc->ok()) return false;
  // Seal flushes the final codec block, so the spill_end byte count below is
  // the run's true on-disk size (identical to bytes_written in record mode).
  Status status = manager_->WithRetries(
      wc, node, faults::kSpillWrite, [&]() -> Status { return file_->Seal(); });
  if (!status.ok()) {
    manager_->RaiseIoError(wc, node, faults::kSpillWrite, std::move(status));
    return false;
  }
  ChargeDevice();
  if (accounted_) {
    manager_->stats_.disk_bytes_written += file_->bytes_written();
    wc->OnSpillEnd(node, phase_, rows_written_, file_->bytes_written());
  }
  return true;
}

bool SpillRun::OpenRead(WorkContext* wc, int node) {
  if (!wc->ok()) return false;
  Status status =
      manager_->WithRetries(wc, node, faults::kSpillOpen, [&]() -> Status {
        return file_->SeekToStart();
      });
  if (!status.ok()) {
    manager_->RaiseIoError(wc, node, faults::kSpillOpen, std::move(status));
    return false;
  }
  ChargeDevice();  // rewind may have flushed a final block
  // A rewind puts every row back in front of the reader: pending work (and
  // with it LB/UB) grows again, which is exactly what a re-read pass costs.
  rows_read_ = 0;
  return true;
}

bool SpillRun::ReadNext(WorkContext* wc, int node, Row* row) {
  if (!wc->ok()) return false;
  bool got_record = false;
  Status status =
      manager_->WithRetries(wc, node, faults::kSpillRead, [&]() -> Status {
        StatusOr<bool> record = file_->ReadRecord(&scratch_);
        if (!record.ok()) return record.status();
        got_record = record.value();
        return OkStatus();
      });
  if (!status.ok()) {
    manager_->RaiseIoError(wc, node, faults::kSpillRead, std::move(status));
    return false;
  }
  if (!got_record) return false;  // clean end of run
  status = ParseRowBytes(scratch_, row);
  if (!status.ok()) {
    manager_->RaiseIoError(wc, node, faults::kSpillRead, std::move(status));
    return false;
  }
  ++rows_read_;
  ChargeDevice();
  if (accounted_) {
    ++manager_->stats_.rows_read;
    wc->OnSpillRead(node, 1);
    wc->AddSpillWork(node, 1);
  }
  return wc->ok();
}

// --------------------------------------------------------------------------
// SpillManager

SpillManager::SpillManager(std::string dir, SpillRetryPolicy policy)
    : dir_(std::move(dir)), policy_(policy) {
  QPROG_CHECK(policy_.max_attempts >= 1);
}

SpillManager::~SpillManager() {
  // Backstop sweep: anything still registered belongs to a run whose
  // destructor never fired. Unlink it here so an abnormal termination (task
  // death mid-write, dropped ownership on an abort path) cannot leak a
  // qprog-spill-* temp file past the manager. No lock contention is possible
  // — destruction means no runs are live to race with.
  for (const std::string& path : live_files_) {
    std::remove(path.c_str());
  }
  live_files_.clear();
}

std::vector<std::string> SpillManager::live_files() const {
  std::lock_guard<std::mutex> lock(live_files_mu_);
  std::vector<std::string> paths(live_files_.begin(), live_files_.end());
  std::sort(paths.begin(), paths.end());
  return paths;
}

void SpillManager::RegisterLiveFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(live_files_mu_);
  live_files_.insert(path);
}

void SpillManager::UnregisterLiveFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(live_files_mu_);
  live_files_.erase(path);
}

SpillRunPtr SpillManager::CreateRun(ExecContext* ctx, int node,
                                    const char* phase, int depth) {
  if (!ctx->ok()) return nullptr;
  std::unique_ptr<SpillFile> file;
  Status status = WithRetries(ctx, node, faults::kSpillOpen, [&]() -> Status {
    StatusOr<std::unique_ptr<SpillFile>> created =
        SpillFile::Create(dir_, file_options_);
    if (!created.ok()) return created.status();
    file = std::move(created).value();
    return OkStatus();
  });
  if (!status.ok()) {
    RaiseIoError(ctx, node, faults::kSpillOpen, std::move(status));
    return nullptr;
  }
  ++stats_.runs_created;
  RegisterLiveFile(file->path());
  if (ctx->telemetry() != nullptr) {
    ctx->telemetry()->RecordSpillBegin(node, ctx->work(), phase, depth);
  }
  return SpillRunPtr(new SpillRun(this, std::move(file), phase));
}

SpillRunPtr SpillManager::CreateSideRun(WorkContext* wc, int node) {
  // Thread-safe, unlike CreateRun: SpillFile::Create names files off an
  // atomic counter, the stats bump is atomic, and the manager's options are
  // frozen during execution. Deliberately silent — no spill_begin, and the
  // run is marked unaccounted so its I/O never touches the work model.
  if (!wc->ok()) return nullptr;
  std::unique_ptr<SpillFile> file;
  Status status = WithRetries(wc, node, faults::kSpillOpen, [&]() -> Status {
    StatusOr<std::unique_ptr<SpillFile>> created =
        SpillFile::Create(dir_, file_options_);
    if (!created.ok()) return created.status();
    file = std::move(created).value();
    return OkStatus();
  });
  if (!status.ok()) {
    RaiseIoError(wc, node, faults::kSpillOpen, std::move(status));
    return nullptr;
  }
  ++stats_.runs_created;
  RegisterLiveFile(file->path());
  SpillRunPtr run(new SpillRun(this, std::move(file), "side"));
  run->accounted_ = false;
  return run;
}

Status SpillManager::WithRetries(WorkContext* wc, int node, const char* site,
                                 const std::function<Status()>& attempt) {
  uint64_t spins = policy_.backoff_spins;
  Status last;
  for (int try_no = 1;; ++try_no) {
    // The injector stands in for the I/O layer and is consulted *before* the
    // real operation: an injected failure leaves the file untouched, which is
    // what makes the retry sound (a partial real write is never retried).
    Status status = OkStatus();
    FaultInjector* injector = wc->io_fault_injector();
    if (injector != nullptr) status = injector->OnHit(site);
    if (status.ok()) status = attempt();
    if (status.ok()) return status;
    if (status.code() != StatusCode::kUnavailable) return status;
    last = std::move(status);
    if (try_no >= policy_.max_attempts) return last;
    ++stats_.io_retries;
    wc->OnIoRetry(node, site, static_cast<uint64_t>(try_no));
    // Deterministic doubling backoff: a busy-wait, not a sleep, so a seeded
    // run produces a byte-identical trace every time.
    volatile uint64_t sink = 0;
    for (uint64_t i = 0; i < spins; ++i) sink = sink + i;
    spins *= 2;
  }
}

void SpillManager::RaiseIoError(WorkContext* wc, int node, const char* site,
                                Status status) {
  wc->OnIoFault(node, site, status.message());
  wc->RaiseError(std::move(status));
}

}  // namespace qprog
