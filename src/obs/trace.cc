#include "obs/trace.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <map>

#include "common/strings.h"

namespace qprog {

namespace {

/// JSON-escapes a string value: quotes, backslashes and control characters.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StringPrintf("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// %.17g round-trips every finite double exactly through strtod.
std::string JsonDouble(double v) { return StringPrintf("%.17g", v); }

void AppendField(std::string* out, const char* key, const std::string& value) {
  *out += StringPrintf(",\"%s\":\"%s\"", key, JsonEscape(value).c_str());
}

void AppendField(std::string* out, const char* key, double value) {
  *out += StringPrintf(",\"%s\":%s", key, JsonDouble(value).c_str());
}

void AppendField(std::string* out, const char* key, uint64_t value) {
  *out += StringPrintf(",\"%s\":%llu", key,
                       static_cast<unsigned long long>(value));
}

void AppendField(std::string* out, const char* key, int32_t value) {
  *out += StringPrintf(",\"%s\":%d", key, value);
}

/// Flat JSON object scanner for the trace schema: string and number values
/// only (all any trace line ever contains).
struct FlatJson {
  std::map<std::string, std::string> strings;
  std::map<std::string, double> numbers;

  bool has_string(const char* key) const { return strings.count(key) > 0; }
  bool has_number(const char* key) const { return numbers.count(key) > 0; }
  std::string str(const char* key) const {
    auto it = strings.find(key);
    return it == strings.end() ? std::string() : it->second;
  }
  double num(const char* key, double fallback = 0.0) const {
    auto it = numbers.find(key);
    return it == numbers.end() ? fallback : it->second;
  }
};

Status ParseFlatJson(const std::string& line, FlatJson* out) {
  const char* p = line.c_str();
  auto skip_ws = [&] {
    while (*p == ' ' || *p == '\t') ++p;
  };
  auto parse_string = [&](std::string* s) -> bool {
    if (*p != '"') return false;
    ++p;
    s->clear();
    while (*p != '\0' && *p != '"') {
      if (*p == '\\') {
        ++p;
        switch (*p) {
          case '"':
            *s += '"';
            break;
          case '\\':
            *s += '\\';
            break;
          case '/':
            *s += '/';
            break;
          case 'n':
            *s += '\n';
            break;
          case 't':
            *s += '\t';
            break;
          case 'r':
            *s += '\r';
            break;
          case 'u': {
            char hex[5] = {0};
            for (int i = 0; i < 4; ++i) {
              if (!std::isxdigit(static_cast<unsigned char>(p[1 + i]))) {
                return false;
              }
              hex[i] = p[1 + i];
            }
            long code = std::strtol(hex, nullptr, 16);
            if (code > 0x7f) return false;  // traces only escape ASCII control
            *s += static_cast<char>(code);
            p += 4;
            break;
          }
          default:
            return false;
        }
        ++p;
      } else {
        *s += *p++;
      }
    }
    if (*p != '"') return false;
    ++p;
    return true;
  };

  skip_ws();
  if (*p != '{') return InvalidArgument("trace line does not start with '{'");
  ++p;
  skip_ws();
  if (*p == '}') return OkStatus();  // empty object
  for (;;) {
    skip_ws();
    std::string key;
    if (!parse_string(&key)) {
      return InvalidArgument("trace line: malformed key");
    }
    skip_ws();
    if (*p != ':') return InvalidArgument("trace line: expected ':'");
    ++p;
    skip_ws();
    if (*p == '"') {
      std::string value;
      if (!parse_string(&value)) {
        return InvalidArgument("trace line: malformed string value");
      }
      out->strings[key] = std::move(value);
    } else {
      char* end = nullptr;
      double value = std::strtod(p, &end);
      if (end == p) return InvalidArgument("trace line: malformed number");
      out->numbers[key] = value;
      p = end;
    }
    skip_ws();
    if (*p == ',') {
      ++p;
      continue;
    }
    if (*p == '}') return OkStatus();
    return InvalidArgument("trace line: expected ',' or '}'");
  }
}

}  // namespace

const char* TraceEventKindToString(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kRunBegin:
      return "run_begin";
    case TraceEventKind::kOperatorOpen:
      return "operator_open";
    case TraceEventKind::kOperatorClose:
      return "operator_close";
    case TraceEventKind::kCheckpoint:
      return "checkpoint";
    case TraceEventKind::kEstimatorEvaluated:
      return "estimator";
    case TraceEventKind::kBoundRefined:
      return "bound_refined";
    case TraceEventKind::kGuardTrip:
      return "guard_trip";
    case TraceEventKind::kFaultFired:
      return "fault";
    case TraceEventKind::kRunEnd:
      return "run_end";
    case TraceEventKind::kSpillBegin:
      return "spill_begin";
    case TraceEventKind::kSpillEnd:
      return "spill_end";
    case TraceEventKind::kIoRetry:
      return "io_retry";
    case TraceEventKind::kEtaSample:
      return "eta";
  }
  return "?";
}

std::string TraceEventToJson(const TraceEvent& event) {
  std::string out = StringPrintf("{\"v\":%d", kTraceSchemaVersion);
  AppendField(&out, "seq", event.seq);
  out += StringPrintf(",\"event\":\"%s\"", TraceEventKindToString(event.kind));
  AppendField(&out, "work", event.work);
  switch (event.kind) {
    case TraceEventKind::kRunBegin:
      AppendField(&out, "estimators", event.name);
      AppendField(&out, "leaf_cardinality", event.a);
      AppendField(&out, "interval", event.b);
      break;
    case TraceEventKind::kOperatorOpen:
    case TraceEventKind::kOperatorClose:
      AppendField(&out, "node", event.node);
      AppendField(&out, "op", event.name);
      break;
    case TraceEventKind::kCheckpoint:
      AppendField(&out, "work_lb", event.a);
      AppendField(&out, "work_ub", event.b);
      break;
    case TraceEventKind::kEstimatorEvaluated:
      AppendField(&out, "name", event.name);
      AppendField(&out, "estimate", event.a);
      break;
    case TraceEventKind::kBoundRefined:
      AppendField(&out, "node", event.node);
      AppendField(&out, "lb", event.a);
      AppendField(&out, "ub", event.b);
      break;
    case TraceEventKind::kGuardTrip:
      AppendField(&out, "node", event.node);
      AppendField(&out, "reason", event.name);
      AppendField(&out, "message", event.detail);
      break;
    case TraceEventKind::kFaultFired:
      AppendField(&out, "node", event.node);
      AppendField(&out, "site", event.name);
      AppendField(&out, "message", event.detail);
      break;
    case TraceEventKind::kRunEnd:
      AppendField(&out, "termination", event.name);
      AppendField(&out, "message", event.detail);
      AppendField(&out, "root_rows", event.a);
      AppendField(&out, "mu", event.b);
      break;
    case TraceEventKind::kSpillBegin:
      AppendField(&out, "node", event.node);
      AppendField(&out, "phase", event.name);
      AppendField(&out, "depth", event.a);
      break;
    case TraceEventKind::kSpillEnd:
      AppendField(&out, "node", event.node);
      AppendField(&out, "phase", event.name);
      AppendField(&out, "rows", event.a);
      AppendField(&out, "bytes", event.b);
      break;
    case TraceEventKind::kIoRetry:
      AppendField(&out, "node", event.node);
      AppendField(&out, "site", event.name);
      AppendField(&out, "attempt", event.a);
      break;
    case TraceEventKind::kEtaSample:
      AppendField(&out, "eta", event.a);
      AppendField(&out, "eta_lo", event.b);
      AppendField(&out, "eta_hi", event.c);
      break;
  }
  out += '}';
  return out;
}

StatusOr<TraceEvent> ParseTraceEvent(const std::string& line) {
  FlatJson json;
  Status status = ParseFlatJson(line, &json);
  if (!status.ok()) return status;
  if (!json.has_number("v")) {
    return InvalidArgument("trace line missing schema version \"v\"");
  }
  int version = static_cast<int>(json.num("v"));
  if (!TraceSchemaAccepted(version)) {
    return InvalidArgument(StringPrintf(
        "unsupported trace schema version %d (reader supports %d..%d)",
        version, kMinTraceSchemaVersion, kTraceSchemaVersion));
  }
  if (!json.has_string("event")) {
    return InvalidArgument("trace line missing \"event\"");
  }

  TraceEvent event;
  event.seq = static_cast<uint64_t>(json.num("seq"));
  event.work = static_cast<uint64_t>(json.num("work"));
  event.node = static_cast<int32_t>(json.num("node", -1));

  const std::string kind_name = json.str("event");
  if (kind_name == "run_begin") {
    event.kind = TraceEventKind::kRunBegin;
    event.name = json.str("estimators");
    event.a = json.num("leaf_cardinality");
    event.b = json.num("interval");
  } else if (kind_name == "operator_open" || kind_name == "operator_close") {
    event.kind = kind_name == "operator_open" ? TraceEventKind::kOperatorOpen
                                              : TraceEventKind::kOperatorClose;
    event.name = json.str("op");
  } else if (kind_name == "checkpoint") {
    event.kind = TraceEventKind::kCheckpoint;
    event.a = json.num("work_lb");
    event.b = json.num("work_ub");
  } else if (kind_name == "estimator") {
    event.kind = TraceEventKind::kEstimatorEvaluated;
    event.name = json.str("name");
    event.a = json.num("estimate");
  } else if (kind_name == "bound_refined") {
    event.kind = TraceEventKind::kBoundRefined;
    event.a = json.num("lb");
    event.b = json.num("ub");
  } else if (kind_name == "guard_trip") {
    event.kind = TraceEventKind::kGuardTrip;
    event.name = json.str("reason");
    event.detail = json.str("message");
  } else if (kind_name == "fault") {
    event.kind = TraceEventKind::kFaultFired;
    event.name = json.str("site");
    event.detail = json.str("message");
  } else if (kind_name == "run_end") {
    event.kind = TraceEventKind::kRunEnd;
    event.name = json.str("termination");
    event.detail = json.str("message");
    event.a = json.num("root_rows");
    event.b = json.num("mu");
  } else if (kind_name == "spill_begin") {
    event.kind = TraceEventKind::kSpillBegin;
    event.name = json.str("phase");
    // v2 spill_begin lines carry no depth; they parse as depth 0.
    event.a = json.num("depth");
  } else if (kind_name == "spill_end") {
    event.kind = TraceEventKind::kSpillEnd;
    event.name = json.str("phase");
    event.a = json.num("rows");
    event.b = json.num("bytes");
  } else if (kind_name == "io_retry") {
    event.kind = TraceEventKind::kIoRetry;
    event.name = json.str("site");
    event.a = json.num("attempt");
  } else if (kind_name == "eta") {
    event.kind = TraceEventKind::kEtaSample;
    event.a = json.num("eta");
    event.b = json.num("eta_lo");
    event.c = json.num("eta_hi");
  } else {
    return InvalidArgument(
        StringPrintf("unknown trace event \"%s\"", kind_name.c_str()));
  }
  return event;
}

// --------------------------------------------------------------------------
// RingBufferSink

RingBufferSink::RingBufferSink(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  buffer_.resize(capacity_);
}

void RingBufferSink::Append(const TraceEvent& event) {
  buffer_[head_] = event;
  head_ = (head_ + 1) % capacity_;
  if (size_ < capacity_) ++size_;
  ++total_;
}

std::vector<TraceEvent> RingBufferSink::Snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(size_);
  // Oldest event sits at head_ once wrapped, else at 0.
  size_t start = size_ < capacity_ ? 0 : head_;
  for (size_t i = 0; i < size_; ++i) {
    out.push_back(buffer_[(start + i) % capacity_]);
  }
  return out;
}

// --------------------------------------------------------------------------
// JsonlFileSink

JsonlFileSink::JsonlFileSink(const std::string& path) {
  file_ = std::fopen(path.c_str(), "w");
  if (file_ == nullptr) {
    status_ = Internal(
        StringPrintf("cannot open trace file \"%s\" for writing: %s",
                     path.c_str(), std::strerror(errno)));
  }
}

JsonlFileSink::~JsonlFileSink() { Close(); }

void JsonlFileSink::Append(const TraceEvent& event) {
  if (file_ == nullptr || !status_.ok()) return;
  std::string line = TraceEventToJson(event);
  line += '\n';
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()) {
    status_ = Internal("trace file write failed");
  }
}

void JsonlFileSink::Flush() {
  if (file_ != nullptr) std::fflush(file_);
}

void JsonlStringSink::Append(const TraceEvent& event) {
  data_ += TraceEventToJson(event);
  data_ += '\n';
}

void JsonlFileSink::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

// --------------------------------------------------------------------------
// Readers

StatusOr<std::vector<TraceEvent>> ParseTraceJsonl(const std::string& text) {
  std::vector<TraceEvent> events;
  size_t line_no = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    ++line_no;
    std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;
    StatusOr<TraceEvent> event = ParseTraceEvent(line);
    if (!event.ok()) {
      return InvalidArgument(StringPrintf("trace line %zu: %s", line_no,
                                          event.status().message().c_str()));
    }
    events.push_back(std::move(event).value());
  }
  return events;
}

StatusOr<std::vector<TraceEvent>> ReadTraceFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) {
    return NotFound(StringPrintf("cannot open trace file \"%s\": %s",
                                 path.c_str(), std::strerror(errno)));
  }
  std::string text;
  char buffer[1 << 16];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    text.append(buffer, n);
  }
  bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) {
    return Internal(StringPrintf("error reading trace file \"%s\"",
                                 path.c_str()));
  }
  return ParseTraceJsonl(text);
}

}  // namespace qprog
