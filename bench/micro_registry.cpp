// Registry persistence cost: what does crash safety charge per recorded
// run? Measures the RegistryLog pipeline end to end with realistic
// CrossRunObservation payloads —
//
//   append        RecordRun with fsync-per-record (the durable path)
//   append_nosync RecordRun without the fsync (memory + page cache)
//   load          OpenLog replay of the full log into a fresh registry
//   compact       collapse to one aggregate record per template
//
// Results (records/s, MB, recovery figures) are printed and written to
// BENCH_registry.json in the working directory.

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/strings.h"
#include "obs/cross_run_registry.h"
#include "storage/registry_log.h"

namespace qprog {
namespace {

constexpr int kTemplates = 20;
constexpr int kRunsPerTemplate = 250;
constexpr int kNodesPerPlan = 8;

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

struct Phase {
  const char* name;
  double seconds = 0;
  double records_per_s = 0;
};

}  // namespace
}  // namespace qprog

int main() {
  using namespace qprog;  // NOLINT(build/namespaces)
  const std::string path =
      std::filesystem::temp_directory_path() / "qprog_micro_registry.log";
  constexpr int kTotal = kTemplates * kRunsPerTemplate;

  std::printf("=== micro_registry: crash-safe registry log throughput ===\n");
  std::printf("%d templates x %d runs, %d-node plans, 5 estimators\n\n",
              kTemplates, kRunsPerTemplate, kNodesPerPlan);

  std::vector<Phase> phases;
  uint64_t log_bytes_full = 0;
  uint64_t log_bytes_compacted = 0;

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
    double s = Seconds(start);
    log_bytes_full = registry.log_bytes();
    phases.push_back({"append_fsync", s, kTotal / s});
  }

  // Replay: rebuild the whole registry from the log.
  {
    CrossRunRegistry registry;
    RegistryRecoveryReport report;
    auto start = std::chrono::steady_clock::now();
    QPROG_CHECK(registry.OpenLog(path, {}, &report).ok());
    double s = Seconds(start);
    QPROG_CHECK(report.records_recovered == static_cast<uint64_t>(kTotal));
    QPROG_CHECK(registry.num_templates() == kTemplates);
    phases.push_back({"load_replay", s, kTotal / s});
  }

  // Compact: N runs collapse to one aggregate record per template.
  {
    CrossRunRegistry registry;
    QPROG_CHECK(registry.OpenLog(path).ok());
    auto start = std::chrono::steady_clock::now();
    QPROG_CHECK(registry.Compact().ok());
    double s = Seconds(start);
    log_bytes_compacted = registry.log_bytes();
    phases.push_back({"compact", s, kTotal / s});

    // Reload from the compacted log: same aggregates, kTemplates records.
    CrossRunRegistry reloaded;
    RegistryRecoveryReport report;
    auto start2 = std::chrono::steady_clock::now();
    QPROG_CHECK(reloaded.OpenLog(path, {}, &report).ok());
    double s2 = Seconds(start2);
    QPROG_CHECK(report.records_recovered == kTemplates);
    QPROG_CHECK(reloaded.Lookup(1).workload.runs == kRunsPerTemplate);
    phases.push_back({"load_compacted", s2, kTotal / s2});
  }

  std::printf("%-16s %-10s %-14s\n", "phase", "seconds", "records/s");
  for (const Phase& p : phases) {
    std::printf("%-16s %-10.3f %-14.0f\n", p.name, p.seconds, p.records_per_s);
  }
  std::printf("\nlog size: %.2f MB full -> %.2f MB compacted (%.1fx)\n",
              log_bytes_full / 1e6, log_bytes_compacted / 1e6,
              static_cast<double>(log_bytes_full) /
                  static_cast<double>(log_bytes_compacted));

  std::string json = "{\"bench\":\"micro_registry\"";
  json += StringPrintf(",\"templates\":%d,\"runs_per_template\":%d",
                       kTemplates, kRunsPerTemplate);
  json += ",\"phases\":{";
  for (size_t i = 0; i < phases.size(); ++i) {
    if (i > 0) json += ',';
    json += StringPrintf("\"%s\":{\"seconds\":%.4f,\"records_per_s\":%.0f}",
                         phases[i].name, phases[i].seconds,
                         phases[i].records_per_s);
  }
  json += StringPrintf(
      "},\"log_bytes_full\":%llu,\"log_bytes_compacted\":%llu}\n",
      static_cast<unsigned long long>(log_bytes_full),
      static_cast<unsigned long long>(log_bytes_compacted));
  std::FILE* out = std::fopen("BENCH_registry.json", "w");
  if (out != nullptr) {
    std::fwrite(json.data(), 1, json.size(), out);
    std::fclose(out);
    std::printf("wrote BENCH_registry.json\n");
  }
  std::filesystem::remove(path);
  return 0;
}
