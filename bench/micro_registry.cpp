// Registry persistence cost: what does crash safety charge per recorded
// run? Measures the RegistryLog pipeline end to end with realistic
// CrossRunObservation payloads —
//
//   append        RecordRun with fsync-per-record (the durable path)
//   append_nosync RecordRun without the fsync (memory + page cache)
//   load          OpenLog replay of the full log into a fresh registry
//   compact       collapse to one aggregate record per template
//
// Results (min/median/max microseconds per phase over kReps passes,
// records/s at the median, log sizes) are printed and written, under a
// provenance header, to BENCH_registry.json in the working directory:
//
//   ./build/bench/micro_registry

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/macros.h"
#include "common/strings.h"
#include "obs/cross_run_registry.h"
#include "storage/registry_log.h"

namespace qprog {
namespace {

constexpr int kTemplates = 20;
constexpr int kRunsPerTemplate = 250;
constexpr int kNodesPerPlan = 8;
constexpr int kReps = 3;
constexpr int kTotal = kTemplates * kRunsPerTemplate;  // records per log

/// A representative observation: an 8-node plan scored by five estimators.
CrossRunObservation MakeObs(uint64_t fingerprint, int run) {
  CrossRunObservation obs;
  obs.fingerprint = fingerprint;
  obs.plan_signature = 0x5157a7u + fingerprint;
  obs.workload.completed = true;
  obs.workload.work = 100000 + static_cast<uint64_t>(run);
  obs.workload.peak_buffered_rows = 4096;
  obs.workload.root_rows = 100;
  obs.workload.wall_ns = 1000000;
  for (int n = 0; n < kNodesPerPlan; ++n) {
    CrossRunObservation::Node node;
    node.node_id = n;
    node.actual_rows = 1000u * static_cast<uint64_t>(n + 1);
    node.estimated_rows = 900.0 * (n + 1);
    node.next_ns = 50000;
    obs.nodes.push_back(node);
  }
  const char* names[] = {"dne", "dne_pessimistic", "pmax", "safe", "hybrid"};
  for (const char* name : names) {
    CrossRunObservation::Estimator e;
    e.name = name;
    e.avg_abs_err = 0.1;
    e.max_abs_err = 0.2;
    for (double& d : e.decile_err) d = 0.1;
    obs.estimators.push_back(std::move(e));
  }
  return obs;
}

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Timed phases, in the order one rep runs them.
constexpr const char* kPhases[] = {"append_fsync", "load_replay", "compact",
                                   "load_compacted"};
constexpr size_t kNumPhases = sizeof(kPhases) / sizeof(kPhases[0]);

struct Rep {
  double seconds[kNumPhases] = {};
  uint64_t log_bytes_full = 0;
  uint64_t log_bytes_compacted = 0;
};

/// One pass over every phase against a fresh log at `path`.
Rep RunOnce(const std::string& path) {
  Rep rep;

  // Durable append: fsync per RecordRun, the SqlSession path.
  {
    std::filesystem::remove(path);
    CrossRunRegistry registry;
    QPROG_CHECK(registry.OpenLog(path).ok());
    auto start = std::chrono::steady_clock::now();
    for (int t = 0; t < kTemplates; ++t) {
      for (int r = 0; r < kRunsPerTemplate; ++r) {
        QPROG_CHECK(
            registry.RecordRun(MakeObs(static_cast<uint64_t>(t + 1), r)).ok());
      }
    }
    rep.seconds[0] = Seconds(start);
    rep.log_bytes_full = registry.log_bytes();
  }

  // Replay: rebuild the whole registry from the log.
  {
    CrossRunRegistry registry;
    RegistryRecoveryReport report;
    auto start = std::chrono::steady_clock::now();
    QPROG_CHECK(registry.OpenLog(path, {}, &report).ok());
    rep.seconds[1] = Seconds(start);
    QPROG_CHECK(report.records_recovered == static_cast<uint64_t>(kTotal));
    QPROG_CHECK(registry.num_templates() == kTemplates);
  }

  // Compact: N runs collapse to one aggregate record per template.
  {
    CrossRunRegistry registry;
    QPROG_CHECK(registry.OpenLog(path).ok());
    auto start = std::chrono::steady_clock::now();
    QPROG_CHECK(registry.Compact().ok());
    rep.seconds[2] = Seconds(start);
    rep.log_bytes_compacted = registry.log_bytes();

    // Reload from the compacted log: same aggregates, kTemplates records.
    CrossRunRegistry reloaded;
    RegistryRecoveryReport report;
    auto start2 = std::chrono::steady_clock::now();
    QPROG_CHECK(reloaded.OpenLog(path, {}, &report).ok());
    rep.seconds[3] = Seconds(start2);
    QPROG_CHECK(report.records_recovered == kTemplates);
    QPROG_CHECK(reloaded.Lookup(1).workload.runs == kRunsPerTemplate);
  }
  std::filesystem::remove(path);
  return rep;
}

}  // namespace
}  // namespace qprog

int main() {
  using namespace qprog;  // NOLINT(build/namespaces)
  const std::string path =
      std::filesystem::temp_directory_path() / "qprog_micro_registry.log";

  std::printf("=== micro_registry: crash-safe registry log throughput ===\n");
  std::printf("%d templates x %d runs, %d-node plans, 5 estimators, "
              "%d runs per phase\n\n",
              kTemplates, kRunsPerTemplate, kNodesPerPlan, kReps);

  std::vector<double> us[kNumPhases];
  Rep rep;
  for (int r = 0; r < kReps; ++r) {
    rep = RunOnce(path);
    for (size_t p = 0; p < kNumPhases; ++p) {
      us[p].push_back(rep.seconds[p] * 1e6);
    }
  }

  std::printf("%-16s %-32s %-14s\n", "phase", "us min/median/max",
              "records/s");
  std::string json = "{\"bench\":\"micro_registry\"," +
                     bench::ProvenanceJson(kReps);
  json += StringPrintf(",\"templates\":%d,\"runs_per_template\":%d",
                       kTemplates, kRunsPerTemplate);
  json += ",\"phases\":{";
  for (size_t p = 0; p < kNumPhases; ++p) {
    bench::Spread spread = bench::SpreadOf(us[p]);
    double records_per_s = kTotal / (spread.median / 1e6);
    std::printf("%-16s %10.1f/%10.1f/%10.1f %-14.0f\n", kPhases[p],
                spread.min, spread.median, spread.max, records_per_s);
    if (p > 0) json += ',';
    json += StringPrintf("\"%s\":{", kPhases[p]) +
            bench::SpreadJson("us", spread) +
            StringPrintf(",\"records_per_s\":%.0f}", records_per_s);
  }
  std::printf("\nlog size: %.2f MB full -> %.2f MB compacted (%.1fx)\n",
              rep.log_bytes_full / 1e6, rep.log_bytes_compacted / 1e6,
              static_cast<double>(rep.log_bytes_full) /
                  static_cast<double>(rep.log_bytes_compacted));

  json += StringPrintf(
      "},\"log_bytes_full\":%llu,\"log_bytes_compacted\":%llu}\n",
      static_cast<unsigned long long>(rep.log_bytes_full),
      static_cast<unsigned long long>(rep.log_bytes_compacted));
  std::FILE* out = std::fopen("BENCH_registry.json", "w");
  if (out != nullptr) {
    std::fwrite(json.data(), 1, json.size(), out);
    std::fclose(out);
    std::printf("wrote BENCH_registry.json\n");
  }
  return 0;
}
