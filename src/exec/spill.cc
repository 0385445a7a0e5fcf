#include "exec/spill.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "exec/fault_injector.h"

namespace qprog {

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
    manager_->AdoptStrings(&strings_);
  }
}

bool SpillRun::Append(ExecContext* ctx, int node, const Row& row) {
  if (!ctx->ok()) return false;
  scratch_.clear();
  AppendRowBytes(row, &scratch_);
  Status status =
      manager_->WithRetries(ctx, node, faults::kSpillWrite, [&]() -> Status {
        return file_->AppendRecord(scratch_.data(), scratch_.size());
      });
  if (!status.ok()) {
    manager_->RaiseIoError(ctx, node, faults::kSpillWrite, std::move(status));
    return false;
  }
  ++rows_written_;
  ++manager_->stats_.rows_written;
  manager_->stats_.bytes_written += scratch_.size();
  // One unit of extra work per spilled row: total(Q) just grew.
  ctx->AddSpillWork(node, 1);
  return ctx->ok();  // counting the work may have tripped the guard
}

bool SpillRun::FinishWrite(ExecContext* ctx, int node) {
  if (!ctx->ok()) return false;
  // Records reach the file as they are appended, so there is nothing left to
  // write. The spill.write consult stays: fault schedules number it.
  Status status = manager_->WithRetries(ctx, node, faults::kSpillWrite,
                                        [] { return OkStatus(); });
  if (!status.ok()) {
    manager_->RaiseIoError(ctx, node, faults::kSpillWrite, std::move(status));
    return false;
  }
  manager_->stats_.disk_bytes_written += file_->bytes_written();
  if (ctx->telemetry() != nullptr) {
    ctx->telemetry()->RecordSpillEnd(node, ctx->work(), phase_, rows_written_,
                                     file_->bytes_written());
  }
  return true;
}

bool SpillRun::OpenRead(ExecContext* ctx, int node) {
  if (!ctx->ok()) return false;
  Status status =
      manager_->WithRetries(ctx, node, faults::kSpillOpen, [&]() -> Status {
        return file_->SeekToStart();
      });
  if (!status.ok()) {
    manager_->RaiseIoError(ctx, node, faults::kSpillOpen, std::move(status));
    return false;
  }
  // A rewind puts every row back in front of the reader: pending work (and
  // with it LB/UB) grows again, which is exactly what a re-read pass costs.
  rows_read_ = 0;
  return true;
}

bool SpillRun::ReadNext(ExecContext* ctx, int node, Row* row) {
  if (!ctx->ok()) return false;
  bool got_record = false;
  Status status =
      manager_->WithRetries(ctx, node, faults::kSpillRead, [&]() -> Status {
        StatusOr<bool> record = file_->ReadRecord(&scratch_);
        if (!record.ok()) return record.status();
        got_record = record.value();
        return OkStatus();
      });
  if (!status.ok()) {
    manager_->RaiseIoError(ctx, node, faults::kSpillRead, std::move(status));
    return false;
  }
  if (!got_record) return false;  // clean end of run
  status = ParseRowBytes(scratch_, &strings_, row);
  if (!status.ok()) {
    manager_->RaiseIoError(ctx, node, faults::kSpillRead, std::move(status));
    return false;
  }
  ++rows_read_;
  ++manager_->stats_.rows_read;
  if (ctx->telemetry() != nullptr) ctx->telemetry()->RecordSpillRead(node, 1);
  ctx->AddSpillWork(node, 1);
  return ctx->ok();
}

// --------------------------------------------------------------------------
// SpillManager

SpillManager::SpillManager(std::string dir, SpillRetryPolicy policy)
    : dir_(std::move(dir)), policy_(policy) {
  QPROG_CHECK(policy_.max_attempts >= 1);
}

SpillManager::~SpillManager() {
  // Backstop sweep: anything still registered belongs to a run whose
  // destructor never fired. Unlink it here so dropped ownership on an abort
  // path cannot leak a qprog-spill-* temp file past the manager.
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

void SpillManager::AdoptStrings(StringArena* strings) {
  std::lock_guard<std::mutex> lock(strings_mu_);
  strings_.Adopt(strings);
}

SpillRunPtr SpillManager::CreateRun(ExecContext* ctx, int node,
                                    const char* phase, int depth) {
  if (!ctx->ok()) return nullptr;
  std::unique_ptr<SpillFile> file;
  Status status = WithRetries(ctx, node, faults::kSpillOpen, [&]() -> Status {
    StatusOr<std::unique_ptr<SpillFile>> created = SpillFile::Create(dir_);
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

Status SpillManager::WithRetries(ExecContext* ctx, int node, const char* site,
                                 const std::function<Status()>& attempt) {
  uint64_t spins = policy_.backoff_spins;
  Status last;
  for (int try_no = 1;; ++try_no) {
    // The injector stands in for the I/O layer and is consulted *before* the
    // real operation: an injected failure leaves the file untouched, which is
    // what makes the retry sound (a partial real write is never retried).
    Status status = OkStatus();
    FaultInjector* injector = ctx->fault_injector();
    if (injector != nullptr) status = injector->OnHit(site);
    if (status.ok()) status = attempt();
    if (status.ok()) return status;
    if (status.code() != StatusCode::kUnavailable) return status;
    last = std::move(status);
    if (try_no >= policy_.max_attempts) return last;
    ++stats_.io_retries;
    if (ctx->telemetry() != nullptr) {
      ctx->telemetry()->RecordIoRetry(node, ctx->work(), site,
                                      static_cast<uint64_t>(try_no));
    }
    // Deterministic doubling backoff: a busy-wait, not a sleep, so a seeded
    // run produces a byte-identical trace every time.
    volatile uint64_t sink = 0;
    for (uint64_t i = 0; i < spins; ++i) sink = sink + i;
    spins *= 2;
  }
}

void SpillManager::RaiseIoError(ExecContext* ctx, int node, const char* site,
                                Status status) {
  if (ctx->telemetry() != nullptr) {
    ctx->telemetry()->RecordFault(node, ctx->work(), site, status.message());
  }
  ctx->RaiseError(std::move(status));
}

}  // namespace qprog
