#include "bench.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "common/macros.h"
#include "stats/table_stats.h"
#include "tpch/dbgen.h"

namespace e2e {

using qprog::OpKind;

// -- metric catalog -----------------------------------------------------------

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s", "lower", 0.25},
      {"suite_s", "s", "lower", 0.24},
      {"query_geomean_ms", "ms", "lower", 0.24},
      {"peak_rss_mb", "MB", "lower", 0.1},
      {"ok_frac", "fraction", "higher", 0.02},
      {"dne_avg_err", "fraction", "lower", 0.02},
      {"safe_max_ratio_err", "ratio", "lower", 0.02},
      {"eta_coverage", "fraction", "higher", 0.1},
  };
  return kMetrics;
}

const std::vector<OpKind>& TracedKinds() {
  // The kinds the workloads' plans contain (IndexSeek, IndexNestedLoopsJoin,
  // MergeJoin and Exchange appear in none of them).
  static const std::vector<OpKind> kKinds = {
      OpKind::kSeqScan,       OpKind::kFilter,
      OpKind::kProject,       OpKind::kNestedLoopsJoin,
      OpKind::kHashJoin,      OpKind::kSort,
      OpKind::kHashAggregate, OpKind::kStreamAggregate,
      OpKind::kLimit,
  };
  return kKinds;
}

namespace {

std::vector<MetricSpec> BuildPerLayer() {
  // Names are interned for the catalog's lifetime (static storage below).
  static std::vector<std::string> kind_names;
  std::vector<MetricSpec> m = {
      {"tpch.gen_s", "s", "lower", 0},
      {"index.build_s", "s", "lower", 0},
      {"stats.collect_s", "s", "lower", 0},
      {"storage.rss_after_setup_mb", "MB", "lower", 0},
      {"exec.drive_s", "s", "lower", 0},
      {"exec.work", "count", "lower", 0},
      {"exec.ns_per_work", "ns", "lower", 0},
      {"exec.peak_buffered_rows", "count", "lower", 0},
      {"exec.batch_ratio", "ratio", "lower", 0},
      {"core.monitor_overhead", "ratio", "lower", 0},
      {"core.checkpoint_us", "us", "lower", 0},
      {"obs.trace_overhead", "ratio", "lower", 0},
      {"obs.eta_rel_width", "ratio", "lower", 0},
      {"spill.work", "count", "lower", 0},
      {"spill.bytes_written", "bytes", "lower", 0},
      {"spill.disk_bytes", "bytes", "lower", 0},
      {"spill.runs", "count", "lower", 0},
      {"spill.io_retries", "count", "lower", 0},
      {"sql.parse_us", "us", "lower", 0},
      {"sql.plan_us", "us", "lower", 0},
      {"server.submit_us_p50", "us", "lower", 0},
      {"server.submit_us_p95", "us", "lower", 0},
      {"server.queue_wait_ms_p50", "ms", "lower", 0},
      {"server.queue_wait_ms_p95", "ms", "lower", 0},
      {"server.exec_ms_p50", "ms", "lower", 0},
      {"server.latency_p50_ms", "ms", "lower", 0},
      {"server.latency_p95_ms", "ms", "lower", 0},
      {"server.revocations", "count", "lower", 0},
      {"server.shed", "count", "lower", 0},
      {"gen.late_p95_ms", "ms", "lower", 0},
  };
  const char* kPhases[][2] = {{"open_ms", "ms"},
                              {"next_self_ms", "ms"},
                              {"close_ms", "ms"},
                              {"rows", "count"}};
  kind_names.reserve(TracedKinds().size() * 4);
  for (OpKind kind : TracedKinds()) {
    for (const auto& phase : kPhases) {
      kind_names.push_back(std::string("exec.") + qprog::OpKindToString(kind) +
                           "." + phase[0]);
      m.push_back({kind_names.back().c_str(), phase[1], "lower", 0});
    }
  }
  return m;
}

}  // namespace

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = BuildPerLayer();
  return kMetrics;
}

std::string ManifestJson() {
  std::ostringstream out;
  out << "{\n"
      << "  \"command\": [\"python3\", \"e2ebench/run.py\"],\n"
      << "  \"paths\": [\"e2ebench\"],\n"
      << "  \"run_seconds\": 20,\n"
      << "  \"workloads\": [\n"
      << "    {\"name\": \"tpch_mem\", \"why\": \"TPC-H Q1-Q22 at SF 0.05, "
         "z=2, serial and monitored by every estimator: the paper's use "
         "case; no spill, no server\"},\n"
      << "    {\"name\": \"tpch_spill\", \"why\": \"the same 22 plans at SF "
         "0.02 under a 2000-row soft budget with a worker pool: spill, codec, "
         "Grace joins and aggregate replay\"},\n"
      << "    {\"name\": \"fleet\", \"why\": \"open-loop Poisson SQL requests "
         "from two tenants to a QueryServer whose governor revokes grants: "
         "parse, plan, admission, queue and governor\"}\n"
      << "  ],\n";
  auto list = [&out](const char* key, const std::vector<MetricSpec>& specs,
                     bool with_bound) {
    out << "  \"" << key << "\": [\n";
    for (size_t i = 0; i < specs.size(); ++i) {
      const MetricSpec& s = specs[i];
      out << "    {\"name\": \"" << s.name << "\", \"unit\": \"" << s.unit
          << "\", \"better\": \"" << s.better << "\"";
      if (with_bound) out << ", \"bound\": " << s.bound;
      out << "}" << (i + 1 < specs.size() ? "," : "") << "\n";
    }
    out << "  ]";
  };
  list("end_to_end", EndToEndMetrics(), true);
  out << ",\n";
  list("per_layer", PerLayerMetrics(), false);
  out << "\n}\n";
  return out.str();
}

// -- results ------------------------------------------------------------------

void Result::Set(const std::string& name, double value) {
  values_[name] = value;
}

void Result::Fail(const std::string& what, bool wrong) {
  ++failed_;
  if (wrong) ++wrong_;
  if (log_.size() < 200) log_.push_back(what);
}

void Result::Nondeterministic(const std::string& what) {
  ++nondeterministic_;
  if (log_.size() < 200) log_.push_back("nondeterministic: " + what);
}

int Result::Emit(bool trace) const {
  for (const std::string& line : log_) {
    std::fprintf(stderr, "FAIL %s\n", line.c_str());
  }
  const std::vector<MetricSpec>& specs =
      trace ? PerLayerMetrics() : EndToEndMetrics();
  std::string metrics;
  bool complete = true;
  for (const MetricSpec& s : specs) {
    auto it = values_.find(s.name);
    if (it == values_.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "metric %s was not measured\n", s.name);
      complete = false;
      continue;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", s.name, it->second, s.unit);
    metrics += buf;
  }
  // A missing metric on a correct run is a benchmark bug: print no result.
  // An incorrect run (e.g. every output wrong) may lack latencies.
  if (!complete && correct()) return 3;
  if (!raw_.empty()) {
    std::string raw;
    for (const auto& [name, value] : raw_) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": %.6g",
                    raw.empty() ? "" : ", ", name.c_str(), value);
      raw += buf;
    }
    std::printf("{\"unscaled_wall_clock\": {%s}}\n", raw.c_str());
  }
  bool ok = correct();
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      ok ? "true" : "false", static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_), metrics.c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}

// -- row digests --------------------------------------------------------------

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double Uniform(uint64_t seed, uint64_t i) {
  return static_cast<double>(Mix(seed ^ Mix(i)) >> 11) * 0x1.0p-53;
}

void SeededOrder(uint64_t seed, uint64_t round, std::vector<size_t>* order) {
  const size_t n = order->size();
  for (size_t k = 0; k < n; ++k) (*order)[k] = k;
  const uint64_t stream = Mix(seed ^ Mix(round ^ 0x5EEDull));
  for (size_t k = n; k > 1; --k) {  // Fisher-Yates
    size_t j = static_cast<size_t>(Uniform(stream, k) * static_cast<double>(k));
    std::swap((*order)[k - 1], (*order)[j]);
  }
}

namespace {

uint64_t HashValue(const qprog::Value& v) {
  using qprog::TypeId;
  uint64_t tag = static_cast<uint64_t>(v.type()) << 56;
  switch (v.type()) {
    case TypeId::kNull:
      return tag;
    case TypeId::kBool:
      return tag | (v.bool_value() ? 1 : 0);
    case TypeId::kInt64:
      return Mix(tag ^ static_cast<uint64_t>(v.int64_value()));
    case TypeId::kDate:
      return Mix(tag ^ static_cast<uint64_t>(v.date_value()));
    case TypeId::kDouble: {
      double d = v.double_value();
      if (d == 0.0 || !std::isfinite(d)) return Mix(tag ^ (d > 0 ? 1 : 0));
      int exp = 0;
      double mant = std::frexp(d, &exp);  // |mant| in [0.5, 1)
      auto q = static_cast<int64_t>(std::llround(mant * (1 << 30)));
      return Mix(tag ^ Mix(static_cast<uint64_t>(q)) ^
                 static_cast<uint64_t>(exp));
    }
    case TypeId::kString: {
      uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
      for (unsigned char c : v.string_value()) {
        h = (h ^ c) * 0x100000001b3ull;
      }
      return Mix(tag ^ h);
    }
  }
  return tag;
}

}  // namespace

void Digest::Add(const qprog::Row& row) {
  uint64_t h = 0x243F6A8885A308D3ull;
  for (const qprog::Value& v : row) h = Mix(h ^ HashValue(v));
  ++rows;
  sum += h;
}

std::string Digest::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%llu rows/%016llx",
                static_cast<unsigned long long>(rows),
                static_cast<unsigned long long>(sum));
  return buf;
}

// -- statistics ---------------------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return NAN;
  double s = 0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return NAN;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// -- process measurements -----------------------------------------------------

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1, static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)));
}

// -- host speed ---------------------------------------------------------------

namespace {
/// The kernel's median time on the reference host (4-vCPU KVM guest,
/// Release build). Only a scale: reported times are wall-clock times
/// converted to that host's speed.
constexpr double kProbeNominalMs = 1.3;
constexpr size_t kProbeBufferWords = 2u << 20;  // 16 MB
}  // namespace

HostProbe::HostProbe() : buffer_(kProbeBufferWords) {
  uint64_t x = 0x2545F4914F6CDD1Dull;
  for (uint64_t& w : buffer_) w = x = Mix(x);
}

double HostProbe::Sample() {
  uint64_t t0 = qprog::MonotonicNanos();
  uint64_t x = 0x9E3779B97F4A7C15ull;
  std::vector<uint64_t> keys(8192);
  for (uint64_t& k : keys) k = x = Mix(x);
  std::sort(keys.begin(), keys.end());
  std::unordered_map<uint64_t, uint64_t> map;
  for (size_t i = 0; i < 2048; ++i) map[keys[i * 4] >> 40] = i;
  uint64_t acc = 0;
  for (uint64_t k : keys) {
    auto it = map.find(k >> 40);
    if (it != map.end()) acc += it->second;
  }
  std::vector<std::string> strings;
  for (int i = 0; i < 1024; ++i) {
    strings.emplace_back(32 + (i & 15), static_cast<char>('a' + (i & 7)));
  }
  for (const std::string& s : strings) acc += s.size();
  for (int i = 0; i < 8192; ++i) {
    x = Mix(x);
    acc += buffer_[x % buffer_.size()];
  }
  sink_ += acc;
  double ms = static_cast<double>(qprog::MonotonicNanos() - t0) / 1e6;
  window_.push_back(ms);
  all_.push_back(ms);
  return ms;
}

double HostProbe::Factor() const {
  return window_.empty() ? 1.0 : kProbeNominalMs / Median(window_);
}

// -- setup --------------------------------------------------------------------

std::unique_ptr<qprog::Database> SetupTpch(double sf, uint64_t seed,
                                           int repeats, HostProbe* probe,
                                           Result* result) {
  // The same index set GenerateTpch builds with build_indexes = true.
  static const std::pair<const char*, const char*> kIndexes[] = {
      {"region", "r_regionkey"},   {"nation", "n_nationkey"},
      {"supplier", "s_suppkey"},   {"part", "p_partkey"},
      {"customer", "c_custkey"},   {"orders", "o_orderkey"},
      {"lineitem", "l_orderkey"},  {"partsupp", "ps_partkey"},
      {"lineitem", "l_partkey"},
  };
  std::unique_ptr<qprog::Database> db;
  constexpr int kProbesPerSetup = 8;
  std::vector<double> gen, index, stats, total, raw;
  for (int r = 0; r < repeats; ++r) {
    db.reset();  // free the previous build first: RSS holds one database
    db = std::make_unique<qprog::Database>();
    probe->Reset();
    for (int i = 0; i < kProbesPerSetup; ++i) probe->Sample();
    qprog::tpch::TpchConfig config;
    config.scale_factor = sf;
    config.z = 2.0;
    config.seed = seed;
    config.build_indexes = false;
    config.collect_stats = false;
    uint64_t t0 = qprog::MonotonicNanos();
    qprog::Status s = qprog::tpch::GenerateTpch(config, db.get());
    QPROG_CHECK_MSG(s.ok(), "dbgen: %s", s.ToString().c_str());
    uint64_t t1 = qprog::MonotonicNanos();
    for (const auto& [table, column] : kIndexes) {
      auto idx = db->BuildOrderedIndex(table, column);
      QPROG_CHECK_MSG(idx.ok(), "index: %s", idx.status().ToString().c_str());
    }
    uint64_t t2 = qprog::MonotonicNanos();
    qprog::HistogramStatisticsGenerator generator(config.histogram_buckets);
    for (const std::string& name : db->TableNames()) {
      db->SetStats(name, generator.Generate(*db->GetTable(name)));
    }
    uint64_t t3 = qprog::MonotonicNanos();
    for (int i = 0; i < kProbesPerSetup; ++i) probe->Sample();
    gen.push_back(Seconds(t1 - t0));
    index.push_back(Seconds(t2 - t1));
    stats.push_back(Seconds(t3 - t2));
    total.push_back(Seconds(t3 - t0) * probe->Factor());
    raw.push_back(Seconds(t3 - t0));
  }
  result->Set("setup_s", Median(total));
  result->SetRaw("setup_s", Median(raw));
  result->Set("tpch.gen_s", Median(gen));
  result->Set("index.build_s", Median(index));
  result->Set("stats.collect_s", Median(stats));
  result->Set("storage.rss_after_setup_mb", CurrentRssMb());
  return db;
}

// -- determinism across runs --------------------------------------------------

void CheckAcrossRuns(const Options& opts,
                     const std::map<std::string, double>& values,
                     Result* result) {
  if (opts.corrupt_reference) return;  // its digests are deliberately wrong
  namespace fs = std::filesystem;
  fs::path dir = fs::path(opts.state_dir) / "determinism";
  std::error_code ec;
  fs::create_directories(dir, ec);
  char name[256];
  std::snprintf(name, sizeof(name), "%s-%s-%llu-%s.txt",
                opts.workload.c_str(), opts.quick ? "quick" : "full",
                static_cast<unsigned long long>(opts.seed),
                opts.source_hash.c_str());
  fs::path path = dir / name;
  std::map<std::string, std::string> mine;
  for (const auto& [key, value] : values) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    mine[key] = buf;
  }
  std::ifstream in(path);
  if (in) {
    std::string key, value;
    while (in >> key >> value) {
      auto it = mine.find(key);
      if (it != mine.end() && it->second != value) {
        result->Nondeterministic(key + " = " + it->second +
                                 " but an earlier run at this seed had " +
                                 value);
      }
    }
    return;
  }
  std::ofstream out(path);
  for (const auto& [key, value] : mine) out << key << " " << value << "\n";
}

// -- operator kinds -----------------------------------------------------------

void AddKindTotals(const qprog::PhysicalPlan& plan,
                   const qprog::TelemetryCollector& telemetry,
                   std::map<OpKind, KindTotals>* totals) {
  if (telemetry.num_nodes() != plan.num_nodes()) return;
  for (const qprog::PhysicalOperator* op : plan.nodes()) {
    const qprog::OperatorStats& s = telemetry.stats(op->node_id());
    double open = static_cast<double>(s.open_ns);
    double next = static_cast<double>(s.next_ns);
    double close = static_cast<double>(s.close_ns);
    for (size_t i = 0; i < op->num_children(); ++i) {
      const qprog::OperatorStats& c = telemetry.stats(op->child(i)->node_id());
      open -= static_cast<double>(c.open_ns);
      next -= static_cast<double>(c.next_ns);
      close -= static_cast<double>(c.close_ns);
    }
    KindTotals& k = (*totals)[op->kind()];
    k.open_ns += open;
    k.next_self_ns += next;
    k.close_ns += close;
    k.rows += static_cast<double>(s.rows_returned);
  }
}

void EmitKindTotals(const std::map<OpKind, KindTotals>& totals, double passes,
                    Result* result) {
  double per = passes > 0 ? 1.0 / passes : 0.0;
  for (OpKind kind : TracedKinds()) {
    KindTotals k;
    auto it = totals.find(kind);
    if (it != totals.end()) k = it->second;
    std::string prefix = std::string("exec.") + qprog::OpKindToString(kind);
    result->Set(prefix + ".open_ms", k.open_ns / 1e6 * per);
    result->Set(prefix + ".next_self_ms", k.next_self_ns / 1e6 * per);
    result->Set(prefix + ".close_ms", k.close_ns / 1e6 * per);
    result->Set(prefix + ".rows", k.rows * per);
  }
}

}  // namespace e2e
