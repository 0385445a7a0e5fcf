#include "storage/spill_file.h"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/strings.h"

#if defined(_WIN32)
#include <process.h>
#define QPROG_GETPID _getpid
#else
#include <unistd.h>
#define QPROG_GETPID getpid
#endif

namespace qprog {

namespace {

void AppendU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

bool ReadU32(const char* p, const char* end, uint32_t* v, const char** next) {
  if (end - p < 4) return false;
  std::memcpy(v, p, 4);
  *next = p + 4;
  return true;
}

std::string DefaultSpillDir() {
  const char* tmp = std::getenv("TMPDIR");
  return (tmp != nullptr && tmp[0] != '\0') ? tmp : "/tmp";
}

}  // namespace

uint32_t SpillChecksum(const void* data, size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t h = 2166136261u;
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 16777619u;
  }
  return h;
}

void AppendRowBytes(const Row& row, std::string* out) {
  AppendU32(out, static_cast<uint32_t>(row.size()));
  for (const Value& v : row) {
    out->push_back(static_cast<char>(v.type()));
    switch (v.type()) {
      case TypeId::kNull:
        break;
      case TypeId::kBool:
        out->push_back(v.bool_value() ? 1 : 0);
        break;
      case TypeId::kInt64: {
        int64_t x = v.int64_value();
        char buf[8];
        std::memcpy(buf, &x, 8);
        out->append(buf, 8);
        break;
      }
      case TypeId::kDouble: {
        double x = v.double_value();
        char buf[8];
        std::memcpy(buf, &x, 8);
        out->append(buf, 8);
        break;
      }
      case TypeId::kDate: {
        int32_t x = v.date_value();
        char buf[4];
        std::memcpy(buf, &x, 4);
        out->append(buf, 4);
        break;
      }
      case TypeId::kString: {
        std::string_view s = v.string_value();
        AppendU32(out, static_cast<uint32_t>(s.size()));
        out->append(s);
        break;
      }
    }
  }
}

Status ParseRowBytes(const std::string& bytes, StringArena* strings,
                     Row* out) {
  const char* p = bytes.data();
  const char* end = p + bytes.size();
  uint32_t nfields = 0;
  if (!ReadU32(p, end, &nfields, &p)) {
    return Internal("spill row: truncated field count");
  }
  out->clear();
  out->reserve(nfields);
  for (uint32_t i = 0; i < nfields; ++i) {
    if (p >= end) return Internal("spill row: truncated type tag");
    auto tag = static_cast<TypeId>(static_cast<unsigned char>(*p++));
    switch (tag) {
      case TypeId::kNull:
        out->push_back(Value::Null());
        break;
      case TypeId::kBool:
        if (p >= end) return Internal("spill row: truncated bool");
        out->push_back(Value::Bool(*p++ != 0));
        break;
      case TypeId::kInt64: {
        if (end - p < 8) return Internal("spill row: truncated int64");
        int64_t x;
        std::memcpy(&x, p, 8);
        p += 8;
        out->push_back(Value::Int64(x));
        break;
      }
      case TypeId::kDouble: {
        if (end - p < 8) return Internal("spill row: truncated double");
        double x;
        std::memcpy(&x, p, 8);
        p += 8;
        out->push_back(Value::Double(x));
        break;
      }
      case TypeId::kDate: {
        if (end - p < 4) return Internal("spill row: truncated date");
        int32_t x;
        std::memcpy(&x, p, 4);
        p += 4;
        out->push_back(Value::Date(x));
        break;
      }
      case TypeId::kString: {
        uint32_t len = 0;
        if (!ReadU32(p, end, &len, &p) || end - p < len) {
          return Internal("spill row: truncated string");
        }
        out->push_back(Value::String(strings->Copy(std::string_view(p, len))));
        p += len;
        break;
      }
      default:
        return Internal(StringPrintf("spill row: unknown type tag %d",
                                     static_cast<int>(tag)));
    }
  }
  if (p != end) return Internal("spill row: trailing bytes");
  return OkStatus();
}

// --------------------------------------------------------------------------
// SpillFile

SpillFile::SpillFile(std::FILE* file, std::string path)
    : file_(file), path_(std::move(path)) {}

SpillFile::~SpillFile() { CloseAndDelete(); }

StatusOr<std::unique_ptr<SpillFile>> SpillFile::Create(const std::string& dir) {
  static std::atomic<uint64_t> counter{0};
  const std::string base = dir.empty() ? DefaultSpillDir() : dir;
  // The pid+counter name is unique within a process; the "x" (exclusive)
  // mode turns a cross-process collision into a clean retry.
  for (int attempt = 0; attempt < 8; ++attempt) {
    std::string path = StringPrintf(
        "%s/%s%d-%llu.tmp", base.c_str(), kFilePrefix,
        static_cast<int>(QPROG_GETPID()),
        static_cast<unsigned long long>(
            counter.fetch_add(1, std::memory_order_relaxed)));
    std::FILE* file = std::fopen(path.c_str(), "wb+x");
    if (file != nullptr) {
      return std::unique_ptr<SpillFile>(new SpillFile(file, std::move(path)));
    }
    if (errno != EEXIST) {
      return Internal(StringPrintf("cannot create spill file \"%s\": %s",
                                   path.c_str(), std::strerror(errno)));
    }
  }
  return Internal(
      StringPrintf("cannot create spill file under \"%s\"", base.c_str()));
}

Status SpillFile::AppendRecord(const void* data, size_t size) {
  if (file_ == nullptr) return Internal("spill file already closed");
  uint32_t header[2] = {static_cast<uint32_t>(size),
                        SpillChecksum(data, size)};
  if (std::fwrite(header, 1, sizeof(header), file_) != sizeof(header) ||
      (size > 0 && std::fwrite(data, 1, size, file_) != size)) {
    return Internal(StringPrintf("spill write failed on \"%s\": %s",
                                 path_.c_str(), std::strerror(errno)));
  }
  ++records_written_;
  bytes_written_ += sizeof(header) + size;
  return OkStatus();
}

Status SpillFile::SeekToStart() {
  if (file_ == nullptr) return Internal("spill file already closed");
  if (std::fflush(file_) != 0 || std::fseek(file_, 0, SEEK_SET) != 0) {
    return Internal(StringPrintf("spill rewind failed on \"%s\": %s",
                                 path_.c_str(), std::strerror(errno)));
  }
  return OkStatus();
}

StatusOr<bool> SpillFile::ReadRecord(std::string* out) {
  if (file_ == nullptr) return Internal("spill file already closed");
  uint32_t header[2];
  size_t n = std::fread(header, 1, sizeof(header), file_);
  if (n == 0 && std::feof(file_)) return false;
  if (n != sizeof(header)) {
    return Internal(
        StringPrintf("spill record header torn on \"%s\"", path_.c_str()));
  }
  // A valid payload can never exceed the bytes this file was written with;
  // reject corrupt lengths before resize() turns them into a ~4 GiB
  // allocation (std::bad_alloc) instead of a clean corruption error.
  if (header[0] > bytes_written_) {
    return Internal(
        StringPrintf("spill record length corrupt on \"%s\"", path_.c_str()));
  }
  out->resize(header[0]);
  if (header[0] > 0 &&
      std::fread(out->data(), 1, out->size(), file_) != out->size()) {
    return Internal(
        StringPrintf("spill record payload torn on \"%s\"", path_.c_str()));
  }
  if (SpillChecksum(out->data(), out->size()) != header[1]) {
    return Internal(
        StringPrintf("spill record checksum mismatch on \"%s\"",
                     path_.c_str()));
  }
  return true;
}

void SpillFile::CloseAndDelete() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
    std::remove(path_.c_str());
  }
}

}  // namespace qprog
