// Crash-safety and robustness tests for the cross-run estimator registry:
// the RegistryLog corruption matrix (torn tail, bit rot, unframeable
// garbage, empty file), fault injection at the registry.* sites, a real
// kill-9 crash-recovery harness (the binary re-execs itself as a child that
// appends + fsyncs + acks until the parent SIGKILLs it mid-stream), and the
// registry-level guarantees built on top: deterministic estimator
// selection, guarded prior feedback, and workload-prior persistence.
//
// This test has a custom main (no gtest_main): `registry_test --crash-child
// <path>` runs the crash-child protocol instead of the test suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/macros.h"
#include "common/strings.h"
#include "core/estimators.h"
#include "core/monitor.h"
#include "exec/fault_injector.h"
#include "exec/filter_project.h"
#include "exec/plan.h"
#include "exec/query_guard.h"
#include "exec/scan.h"
#include "obs/cross_run_registry.h"
#include "obs/metrics_registry.h"
#include "server/query_server.h"
#include "sql/fingerprint.h"
#include "sql/session.h"
#include "storage/registry_log.h"
#include "storage/table.h"
#include "tests/test_util.h"
#include "types/schema.h"
#include "types/value.h"

namespace qprog {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/registry_test_" + name + ".log";
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

/// Opens `path` and collects every recovered payload.
std::vector<std::string> Recover(const std::string& path,
                                 RegistryRecoveryReport* report = nullptr,
                                 RegistryLogOptions options = {}) {
  std::vector<std::string> payloads;
  auto log = RegistryLog::Open(
      path, std::move(options),
      [&](const std::string& p) { payloads.push_back(p); }, report);
  EXPECT_TRUE(log.ok()) << log.status();
  return payloads;
}

Table Numbers(int64_t n) {
  Table table("t", Schema({Field("v", TypeId::kInt64)}));
  for (int64_t i = 0; i < n; ++i) table.AppendRow({Value::Int64(i)});
  return table;
}

PhysicalPlan ScanFilterPlan(const Table* t, int64_t threshold = 500) {
  auto scan = std::make_unique<SeqScan>(t);
  auto filter = std::make_unique<Filter>(
      std::move(scan), eb::Lt(eb::Col(0), eb::Int(threshold)));
  return PhysicalPlan(std::move(filter));
}

/// Hand-built observation: one node per plan operator with `actual_rows`
/// produced, plus one error sample per (estimator, avg error) pair.
CrossRunObservation MakeObs(
    uint64_t fingerprint, const PhysicalPlan& plan, uint64_t actual_rows,
    const std::vector<std::pair<std::string, double>>& estimator_errs = {}) {
  CrossRunObservation obs;
  obs.fingerprint = fingerprint;
  obs.plan_signature = PlanSignature(plan);
  obs.workload.completed = true;
  obs.workload.work = 100;
  obs.workload.peak_buffered_rows = 10;
  obs.workload.root_rows = actual_rows;
  obs.workload.wall_ns = 5000;
  for (const PhysicalOperator* op : plan.nodes()) {
    CrossRunObservation::Node node;
    node.node_id = op->node_id();
    node.actual_rows = actual_rows;
    node.estimated_rows = static_cast<double>(actual_rows);  // perfect est
    obs.nodes.push_back(node);
  }
  for (const auto& [name, err] : estimator_errs) {
    CrossRunObservation::Estimator e;
    e.name = name;
    e.avg_abs_err = err;
    e.max_abs_err = err;
    for (double& d : e.decile_err) d = err;
    obs.estimators.push_back(std::move(e));
  }
  return obs;
}

/// Every WorkloadStats field, so a lost or misplaced figure cannot hide.
void ExpectWorkloadEq(const WorkloadStats& got, const WorkloadStats& want) {
  EXPECT_EQ(got.runs, want.runs);
  EXPECT_EQ(got.completed_runs, want.completed_runs);
  EXPECT_EQ(got.total_work, want.total_work);
  EXPECT_EQ(got.total_spill_work, want.total_spill_work);
  EXPECT_EQ(got.total_root_rows, want.total_root_rows);
  EXPECT_EQ(got.total_wall_ns, want.total_wall_ns);
  EXPECT_EQ(got.total_peak_buffered_rows, want.total_peak_buffered_rows);
  EXPECT_EQ(got.max_peak_buffered_rows, want.max_peak_buffered_rows);
  EXPECT_EQ(got.max_work, want.max_work);
}

// ---------------------------------------------------------------------------
// RegistryLog: framing, recovery, corruption matrix
// ---------------------------------------------------------------------------

TEST(RegistryLogTest, AppendSyncReopenRoundTrip) {
  std::string path = TempPath("roundtrip");
  std::filesystem::remove(path);
  {
    auto log = RegistryLog::Open(path);
    ASSERT_TRUE(log.ok()) << log.status();
    ASSERT_TRUE(log.value()->Append("alpha").ok());
    ASSERT_TRUE(log.value()->Append(std::string(1000, 'b')).ok());
    ASSERT_TRUE(log.value()->Append("").ok());  // empty payload is a record
    ASSERT_TRUE(log.value()->Sync().ok());
    EXPECT_EQ(log.value()->records_appended(), 3u);
    EXPECT_GT(log.value()->bytes(), 1000u);
  }
  RegistryRecoveryReport report;
  std::vector<std::string> payloads = Recover(path, &report);
  ASSERT_EQ(payloads.size(), 3u);
  EXPECT_EQ(payloads[0], "alpha");
  EXPECT_EQ(payloads[1], std::string(1000, 'b'));
  EXPECT_EQ(payloads[2], "");
  EXPECT_EQ(report.records_recovered, 3u);
  EXPECT_EQ(report.corrupt_records_skipped, 0u);
  EXPECT_FALSE(report.truncated);
  std::filesystem::remove(path);
}

TEST(RegistryLogTest, EmptyFileOpensClean) {
  std::string path = TempPath("empty");
  WriteFileBytes(path, "");
  RegistryRecoveryReport report;
  EXPECT_TRUE(Recover(path, &report).empty());
  EXPECT_EQ(report.records_recovered, 0u);
  EXPECT_FALSE(report.truncated);
  std::filesystem::remove(path);
}

TEST(RegistryLogTest, TornTailTruncatedBackToLastFullRecord) {
  std::string path = TempPath("torn");
  std::string bytes;
  AppendRegistryFrame("first", &bytes);
  AppendRegistryFrame("second", &bytes);
  std::string torn;
  AppendRegistryFrame("half-written-victim", &torn);
  size_t intact = bytes.size();
  bytes += torn.substr(0, torn.size() / 2);  // crash mid-payload
  WriteFileBytes(path, bytes);

  RegistryRecoveryReport report;
  std::vector<std::string> payloads = Recover(path, &report);
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads[1], "second");
  EXPECT_TRUE(report.truncated);
  EXPECT_EQ(report.torn_tail_bytes, torn.size() / 2);
  // The repair is physical: the file shrank back to the intact prefix, so
  // the next append continues from a clean record boundary.
  EXPECT_EQ(std::filesystem::file_size(path), intact);
  std::filesystem::remove(path);
}

TEST(RegistryLogTest, BitFlippedRecordSkippedOverIntactFraming) {
  std::string path = TempPath("bitflip");
  std::string bytes;
  AppendRegistryFrame("record-zero", &bytes);
  size_t second_at = bytes.size();
  AppendRegistryFrame("record-one", &bytes);
  AppendRegistryFrame("record-two", &bytes);
  bytes[second_at + 8 + 3] ^= 0x40;  // flip one payload bit of record-one

  WriteFileBytes(path, bytes);
  RegistryRecoveryReport report;
  std::vector<std::string> payloads = Recover(path, &report);
  // The corrupt record is skipped, not fatal — the length framing still
  // locates record-two behind it.
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads[0], "record-zero");
  EXPECT_EQ(payloads[1], "record-two");
  EXPECT_EQ(report.corrupt_records_skipped, 1u);
  EXPECT_FALSE(report.truncated);
  std::filesystem::remove(path);
}

TEST(RegistryLogTest, OversizedLengthHeaderTreatedAsUnframeable) {
  std::string path = TempPath("oversized");
  std::string bytes;
  AppendRegistryFrame("good", &bytes);
  size_t intact = bytes.size();
  // A length header above kRegistryMaxRecordBytes cannot be trusted to
  // frame anything — not even an allocation.
  uint32_t bogus = kRegistryMaxRecordBytes + 1;
  bytes.append(reinterpret_cast<const char*>(&bogus), sizeof(bogus));
  bytes.append("garbage-that-looks-like-a-checksum-and-payload");
  WriteFileBytes(path, bytes);

  RegistryRecoveryReport report;
  std::vector<std::string> payloads = Recover(path, &report);
  ASSERT_EQ(payloads.size(), 1u);
  EXPECT_EQ(payloads[0], "good");
  EXPECT_TRUE(report.truncated);
  EXPECT_EQ(std::filesystem::file_size(path), intact);
  std::filesystem::remove(path);
}

TEST(RegistryLogTest, AppendAfterRecoveryExtendsTheRepairedPrefix) {
  std::string path = TempPath("append_after");
  std::string bytes;
  AppendRegistryFrame("kept", &bytes);
  bytes += "torn";  // unframeable tail
  WriteFileBytes(path, bytes);
  {
    auto log = RegistryLog::Open(path);
    ASSERT_TRUE(log.ok()) << log.status();
    ASSERT_TRUE(log.value()->Append("appended-after-repair").ok());
    ASSERT_TRUE(log.value()->Sync().ok());
  }
  std::vector<std::string> payloads = Recover(path);
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads[0], "kept");
  EXPECT_EQ(payloads[1], "appended-after-repair");
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Fault injection at the registry.* sites
// ---------------------------------------------------------------------------

TEST(RegistryFaultTest, TransientAppendFaultRetriedDeterministically) {
  std::string path = TempPath("transient");
  std::filesystem::remove(path);
  FaultInjector fi(7);
  FaultSpec spec;
  spec.site = faults::kRegistryAppend;
  spec.fail_on_hit = 1;
  spec.fault_class = FaultClass::kTransient;  // Arm defaults to kUnavailable
  spec.transient_failures = 2;
  fi.Arm(std::move(spec));

  RegistryLogOptions options;
  options.fault_hook = [&](const char* site) { return fi.OnHit(site); };
  auto log = RegistryLog::Open(path, options);
  ASSERT_TRUE(log.ok()) << log.status();
  ASSERT_TRUE(log.value()->Append("survived").ok());
  EXPECT_EQ(log.value()->io_retries(), 2u);  // rode out both failing hits
  ASSERT_TRUE(log.value()->Sync().ok());

  EXPECT_EQ(Recover(path).size(), 1u);
  std::filesystem::remove(path);
}

TEST(RegistryFaultTest, PermanentAppendFaultRollsBackTheFile) {
  std::string path = TempPath("permanent");
  std::filesystem::remove(path);
  FaultInjector fi;
  {
    RegistryLogOptions options;
    options.fault_hook = [&](const char* site) { return fi.OnHit(site); };
    auto log = RegistryLog::Open(path, options);
    ASSERT_TRUE(log.ok()) << log.status();
    ASSERT_TRUE(log.value()->Append("before-the-fault").ok());
    ASSERT_TRUE(log.value()->Sync().ok());
    uint64_t bytes_before = log.value()->bytes();

    FaultSpec spec;
    spec.site = faults::kRegistryAppend;
    spec.fail_on_hit = 2;  // hit 1 was the successful append above
    spec.message = "disk died";
    fi.Arm(std::move(spec));
    Status failed = log.value()->Append("never-lands");
    EXPECT_FALSE(failed.ok());
    // Rollback: no partial record for the next Open() to trip over.
    EXPECT_EQ(log.value()->bytes(), bytes_before);
  }
  RegistryRecoveryReport report;
  std::vector<std::string> payloads = Recover(path, &report);
  ASSERT_EQ(payloads.size(), 1u);
  EXPECT_EQ(payloads[0], "before-the-fault");
  EXPECT_FALSE(report.truncated);
  std::filesystem::remove(path);
}

TEST(RegistryFaultTest, PermanentOpenFaultSurfacesCleanly) {
  std::string path = TempPath("openfault");
  FaultInjector fi;
  FaultSpec spec;
  spec.site = faults::kRegistryOpen;
  spec.fail_on_hit = 1;
  fi.Arm(std::move(spec));
  RegistryLogOptions options;
  options.fault_hook = [&](const char* site) { return fi.OnHit(site); };
  auto log = RegistryLog::Open(path, options);
  EXPECT_FALSE(log.ok());
  std::filesystem::remove(path);
}

TEST(RegistryFaultTest, CompactFaultLeavesOriginalLogUntouched) {
  std::string path = TempPath("compactfault");
  std::filesystem::remove(path);
  FaultInjector fi;
  RegistryLogOptions options;
  options.fault_hook = [&](const char* site) { return fi.OnHit(site); };
  auto log = RegistryLog::Open(path, options);
  ASSERT_TRUE(log.ok()) << log.status();
  ASSERT_TRUE(log.value()->Append("one").ok());
  ASSERT_TRUE(log.value()->Append("two").ok());
  ASSERT_TRUE(log.value()->Sync().ok());

  FaultSpec spec;
  spec.site = faults::kRegistryCompact;
  spec.fail_on_hit = 1;
  fi.Arm(std::move(spec));
  EXPECT_FALSE(log.value()->Compact({"merged"}).ok());

  // The atomic-rename protocol never published the failed rewrite.
  std::vector<std::string> payloads = Recover(path);
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads[0], "one");
  EXPECT_EQ(payloads[1], "two");
  std::filesystem::remove(path);
}

TEST(RegistryLogTest, CompactReplacesContentsAtomically) {
  std::string path = TempPath("compact");
  std::filesystem::remove(path);
  auto log = RegistryLog::Open(path);
  ASSERT_TRUE(log.ok()) << log.status();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(log.value()->Append("run-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(log.value()->Sync().ok());
  uint64_t before = log.value()->bytes();
  ASSERT_TRUE(log.value()->Compact({"aggregate-a", "aggregate-b"}).ok());
  EXPECT_LT(log.value()->bytes(), before);
  // The log stays appendable after the rename swap.
  ASSERT_TRUE(log.value()->Append("post-compact").ok());
  ASSERT_TRUE(log.value()->Sync().ok());

  std::vector<std::string> payloads = Recover(path);
  ASSERT_EQ(payloads.size(), 3u);
  EXPECT_EQ(payloads[0], "aggregate-a");
  EXPECT_EQ(payloads[1], "aggregate-b");
  EXPECT_EQ(payloads[2], "post-compact");
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Kill-9 crash recovery: a real child process, killed mid-append
// ---------------------------------------------------------------------------

std::string CrashChildPayload(int i) {
  // Big enough that a kill lands mid-record often; content is a function of
  // the index so the parent can verify every acked record byte for byte.
  return "crash-record-" + std::to_string(i) + "-" +
         std::string(256, static_cast<char>('a' + (i % 26)));
}

TEST(CrashRecoveryTest, KillNineMidAppendKeepsEveryAckedRecord) {
  std::string path = TempPath("kill9");
  std::filesystem::remove(path);

  int pipefd[2];
  ASSERT_EQ(pipe(pipefd), 0);
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: become the crash-child protocol via re-exec, acks on stdout.
    dup2(pipefd[1], STDOUT_FILENO);
    close(pipefd[0]);
    close(pipefd[1]);
    execl("/proc/self/exe", "registry_test", "--crash-child", path.c_str(),
          static_cast<char*>(nullptr));
    _exit(127);
  }
  close(pipefd[1]);

  // Read acks until the child has durably written a decent prefix, then
  // kill -9 while it is still appending.
  std::FILE* acks = fdopen(pipefd[0], "r");
  ASSERT_NE(acks, nullptr);
  int last_acked = -1;
  char line[64];
  while (last_acked < 40 && std::fgets(line, sizeof(line), acks) != nullptr) {
    int n = -1;
    if (std::sscanf(line, "ACK %d", &n) == 1) last_acked = n;
  }
  ASSERT_GE(last_acked, 40);
  ASSERT_EQ(kill(pid, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);
  std::fclose(acks);

  // Recovery: every record acked before the kill must survive, in order.
  // A torn tail (the record in flight at kill time) is allowed and repaired.
  RegistryRecoveryReport report;
  std::vector<std::string> payloads = Recover(path, &report);
  ASSERT_GE(payloads.size(), static_cast<size_t>(last_acked + 1));
  for (int i = 0; i <= last_acked; ++i) {
    EXPECT_EQ(payloads[static_cast<size_t>(i)], CrashChildPayload(i))
        << "acked record " << i << " lost or corrupted";
  }
  EXPECT_EQ(report.corrupt_records_skipped, 0u);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------

TEST(WireFormatTest, ObservationRoundTrip) {
  Table t = Numbers(1000);
  PhysicalPlan plan = ScanFilterPlan(&t);
  CrossRunObservation obs =
      MakeObs(0xfeed, plan, 500, {{"dne", 0.12}, {"safe", 0.05}});
  obs.nodes[0].next_ns = 98765;

  CrossRunObservation back;
  ASSERT_TRUE(DecodeCrossRunObservation(EncodeCrossRunObservation(obs), &back));
  EXPECT_EQ(back.fingerprint, obs.fingerprint);
  EXPECT_EQ(back.plan_signature, obs.plan_signature);
  EXPECT_EQ(back.workload.completed, obs.workload.completed);
  EXPECT_EQ(back.workload.work, obs.workload.work);
  EXPECT_EQ(back.workload.wall_ns, obs.workload.wall_ns);
  ASSERT_EQ(back.nodes.size(), obs.nodes.size());
  EXPECT_EQ(back.nodes[0].next_ns, 98765u);
  EXPECT_EQ(back.nodes[0].actual_rows, 500u);
  ASSERT_EQ(back.estimators.size(), 2u);
  EXPECT_EQ(back.estimators[0].name, "dne");
  EXPECT_DOUBLE_EQ(back.estimators[1].avg_abs_err, 0.05);
  EXPECT_DOUBLE_EQ(back.estimators[1].decile_err[9], 0.05);
}

std::string ToHex(const std::string& bytes) {
  std::string hex;
  for (char c : bytes) {
    hex += StringPrintf("%02x", static_cast<unsigned char>(c));
  }
  return hex;
}

std::string FromHex(const std::string& hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    int byte = std::stoi(hex.substr(i, 2), nullptr, 16);
    bytes.push_back(static_cast<char>(byte));
  }
  return bytes;
}

// One v1 observation record and one v1 aggregate record, captured from the
// encoder as it was before the run counters were folded into WorkloadStats
// (the duplicate slots then had fields of their own). Logs written by older
// builds must replay unchanged, and new logs must stay readable by them.
const char kGoldenObservationHex[] =
    "0101efcdab89674523011032547698badcfe0101e80300000000000014000000"
    "000000004000000000000000070000000000000015cd5b070000000002000000"
    "00000000f4010000000000000000000000506f40cd8101000000000001000000"
    "0700000000000000000000000000f0bf00000000000000000200000003000000"
    "646e65000000000000c03f000000000000e03f00000000000000000000000000"
    "00b03f000000000000c03f000000000000c83f000000000000d03f0000000000"
    "00f0bf000000000000f0bf000000000000f0bf000000000000f0bf0000000000"
    "00f0bf0400000073616665000000000000d03f000000000000e83f0000000000"
    "00a03f000000000000a03f000000000000a03f000000000000a03f0000000000"
    "00a03f000000000000a03f000000000000a03f000000000000a03f0000000000"
    "00a03f000000000000a03f";
const char kGoldenAggregateHex[] =
    "0201111100000000000022220000000000000500000000000000040000000000"
    "0000050000000000000004000000000000008813000000000000640000000000"
    "00002300000000000000e7030000000000004001000000000000500000000000"
    "0000b00400000000000001000000030000000400000000000000000000000000"
    "f83f000000000000e83f00000000000000400000000000001040000000000000"
    "2040000000000000304004000000000000000000000000409f400000000000c0"
    "82400100000004000000706d61780400000000000000000000000000e03f0000"
    "00000000b03f000000000000d03f0000000000000000000000000000c03f0000"
    "00000000d03f000000000000d83f000000000000e03f000000000000e43f0000"
    "00000000e83f000000000000ec3f000000000000f03f000000000000f23f0000"
    "0000000000000100000000000000020000000000000000000000000000000100"
    "0000000000000200000000000000000000000000000001000000000000000200"
    "0000000000000000000000000000";

CrossRunObservation GoldenObservation() {
  CrossRunObservation obs;
  obs.fingerprint = 0x0123456789abcdefULL;
  obs.plan_signature = 0xfedcba9876543210ULL;
  obs.workload.completed = true;
  obs.workload.work = 1000;
  obs.workload.spill_work = 20;
  obs.workload.peak_buffered_rows = 64;
  obs.workload.root_rows = 7;
  obs.workload.wall_ns = 123456789;
  CrossRunObservation::Node scan;
  scan.node_id = 0;
  scan.actual_rows = 500;
  scan.estimated_rows = 250.5;
  scan.next_ns = 98765;
  CrossRunObservation::Node root;
  root.node_id = 1;
  root.actual_rows = 7;
  obs.nodes = {scan, root};
  CrossRunObservation::Estimator dne;
  dne.name = "dne";
  dne.avg_abs_err = 0.125;
  dne.max_abs_err = 0.5;
  for (int d = 0; d < 5; ++d) dne.decile_err[d] = d * 0.0625;
  CrossRunObservation::Estimator safe;
  safe.name = "safe";
  safe.avg_abs_err = 0.25;
  safe.max_abs_err = 0.75;
  for (double& d : safe.decile_err) d = 0.03125;
  obs.estimators = {dne, safe};
  return obs;
}

CrossRunTemplateStats GoldenAggregate() {
  CrossRunTemplateStats stats;
  stats.fingerprint = 0x1111;
  stats.plan_signature = 0x2222;
  stats.workload.runs = 5;
  stats.workload.completed_runs = 4;
  stats.workload.total_work = 5000;
  stats.workload.total_spill_work = 100;
  stats.workload.total_root_rows = 35;
  stats.workload.total_wall_ns = 999;
  stats.workload.total_peak_buffered_rows = 320;
  stats.workload.max_peak_buffered_rows = 80;
  stats.workload.max_work = 1200;
  CrossRunNodeStats& node = stats.nodes[3];
  node.runs = 4;
  node.sum_log_err = 1.5;
  node.sum_sq_log_err = 0.75;
  node.sum_time_weighted = 2.0;
  node.sum_time_weight = 4.0;
  node.sum_cost_weighted = 8.0;
  node.sum_cost_weight = 16.0;
  node.rows_runs = 4;
  node.sum_actual_rows = 2000;
  node.max_actual_rows = 600;
  CrossRunEstimatorStats& pmax = stats.estimators["pmax"];
  pmax.runs = 4;
  pmax.sum_avg_abs_err = 0.5;
  pmax.sum_sq_avg_abs_err = 0.0625;
  pmax.max_abs_err = 0.25;
  for (int d = 0; d < kProgressDeciles; ++d) {
    pmax.decile_sum[d] = d * 0.125;
    pmax.decile_count[d] = static_cast<uint64_t>(d % 3);
  }
  return stats;
}

TEST(WireFormatTest, V1ObservationBytesAreStable) {
  EXPECT_EQ(ToHex(EncodeCrossRunObservation(GoldenObservation())),
            kGoldenObservationHex);

  CrossRunObservation back;
  ASSERT_TRUE(DecodeCrossRunObservation(FromHex(kGoldenObservationHex),
                                        &back));
  EXPECT_EQ(back.fingerprint, 0x0123456789abcdefULL);
  EXPECT_TRUE(back.workload.completed);
  EXPECT_EQ(back.workload.wall_ns, 123456789u);
  ASSERT_EQ(back.nodes.size(), 2u);
  EXPECT_DOUBLE_EQ(back.nodes[0].estimated_rows, 250.5);
  ASSERT_EQ(back.estimators.size(), 2u);
  EXPECT_EQ(back.estimators[1].name, "safe");
  EXPECT_EQ(ToHex(EncodeCrossRunObservation(back)), kGoldenObservationHex);
}

TEST(WireFormatTest, V1AggregateBytesAreStable) {
  EXPECT_EQ(ToHex(EncodeCrossRunAggregate(GoldenAggregate())),
            kGoldenAggregateHex);

  CrossRunTemplateStats back;
  ASSERT_TRUE(DecodeCrossRunAggregate(FromHex(kGoldenAggregateHex), &back));
  EXPECT_EQ(back.fingerprint, 0x1111u);
  EXPECT_EQ(back.plan_signature, 0x2222u);
  ExpectWorkloadEq(back.workload, GoldenAggregate().workload);
  ASSERT_EQ(back.nodes.count(3), 1u);
  EXPECT_DOUBLE_EQ(back.nodes.at(3).max_actual_rows, 600);
  ASSERT_EQ(back.estimators.count("pmax"), 1u);
  EXPECT_EQ(back.estimators.at("pmax").decile_count[2], 2u);
  EXPECT_EQ(ToHex(EncodeCrossRunAggregate(back)), kGoldenAggregateHex);
}

TEST(WireFormatTest, DecodeRejectsTruncatedAndGarbage) {
  Table t = Numbers(100);
  PhysicalPlan plan = ScanFilterPlan(&t);
  std::string good = EncodeCrossRunObservation(MakeObs(1, plan, 50));
  CrossRunObservation out;
  EXPECT_FALSE(DecodeCrossRunObservation(good.substr(0, good.size() / 2),
                                         &out));
  EXPECT_FALSE(DecodeCrossRunObservation("", &out));
  EXPECT_FALSE(DecodeCrossRunObservation("\x07\x01junk", &out));
}

TEST(WireFormatTest, UnknownRecordTypeCountedAsDecodeSkip) {
  std::string path = TempPath("unknown_type");
  std::filesystem::remove(path);
  {
    auto log = RegistryLog::Open(path);
    ASSERT_TRUE(log.ok()) << log.status();
    // Intact checksum, undecodable payload: a future record type.
    ASSERT_TRUE(log.value()->Append("\x09\x01future-type").ok());
    ASSERT_TRUE(log.value()->Sync().ok());
  }
  CrossRunRegistry registry;
  ASSERT_TRUE(registry.OpenLog(path).ok());
  EXPECT_EQ(registry.decode_skipped(), 1u);
  EXPECT_EQ(registry.num_templates(), 0u);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// CrossRunRegistry: folding, persistence, selection, priors
// ---------------------------------------------------------------------------

TEST(CrossRunRegistryTest, BuildObservationFromMonitoredRun) {
  Table t = Numbers(1000);
  PhysicalPlan plan = ScanFilterPlan(&t);
  plan.nodes()[1]->set_estimated_rows(1000);  // the scan, perfectly known
  ProgressMonitor m = ProgressMonitor::WithEstimators(&plan, {"dne", "safe"});
  ProgressReport r = m.Run(100);
  ASSERT_TRUE(r.completed());

  CrossRunObservation obs = BuildCrossRunObservation(0xabc, r, 1234567);
  EXPECT_TRUE(obs.workload.completed);
  EXPECT_EQ(obs.plan_signature, PlanSignature(plan));
  EXPECT_EQ(obs.workload.work, r.total_work);
  EXPECT_EQ(obs.workload.wall_ns, 1234567u);
  ASSERT_EQ(obs.nodes.size(), plan.num_nodes());
  ASSERT_EQ(obs.estimators.size(), 2u);
  EXPECT_EQ(obs.estimators[0].name, "dne");
  // A completed 10-checkpoint run covers the decile grid.
  int covered = 0;
  for (double d : obs.estimators[0].decile_err) {
    if (d >= 0) ++covered;
  }
  EXPECT_GT(covered, 0);
}

TEST(CrossRunRegistryTest, AbortedRunContributesWorkloadOnly) {
  Table t = Numbers(1000);
  PhysicalPlan plan = ScanFilterPlan(&t);
  QueryGuard guard;
  guard.set_max_work(300);
  MonitorOptions mo;
  mo.guard = &guard;
  ProgressMonitor m = ProgressMonitor::WithEstimators(&plan, {"safe"}, mo);
  ProgressReport r = m.Run(100);
  ASSERT_FALSE(r.completed());

  CrossRunObservation obs = BuildCrossRunObservation(0xabc, r, 99);
  EXPECT_FALSE(obs.workload.completed);
  EXPECT_TRUE(obs.nodes.empty());       // partial rows are a lower bound
  EXPECT_TRUE(obs.estimators.empty());  // true progress unknowable
  EXPECT_EQ(obs.workload.work, r.total_work);
}

TEST(CrossRunRegistryTest, PersistsAcrossReopen) {
  std::string path = TempPath("reopen");
  std::filesystem::remove(path);
  Table t = Numbers(1000);
  PhysicalPlan plan = ScanFilterPlan(&t);
  const uint64_t kFp = 0x5eed;
  WorkloadStats before;
  {
    CrossRunRegistry registry;
    ASSERT_TRUE(registry.OpenLog(path).ok());
    for (int i = 0; i < 4; ++i) {
      CrossRunObservation obs = MakeObs(kFp, plan, 500, {{"pmax", 0.08}});
      // Distinct figures per run, so every sum and max is exercised.
      uint64_t k = static_cast<uint64_t>(i) + 1;
      obs.workload.work = 100 * k;
      obs.workload.spill_work = 7 * k;
      obs.workload.peak_buffered_rows = 10 + 3 * k;
      obs.workload.root_rows = 500 + k;
      obs.workload.wall_ns = 5000 * k;
      ASSERT_TRUE(registry.RecordRun(obs).ok());
    }
    // An aborted run: workload figures only.
    CrossRunObservation aborted;
    aborted.fingerprint = kFp;
    aborted.plan_signature = PlanSignature(plan);
    aborted.workload.work = 40;
    aborted.workload.peak_buffered_rows = 99;
    aborted.workload.wall_ns = 77;
    ASSERT_TRUE(registry.RecordRun(aborted).ok());
    before = registry.LookupWorkload(kFp);
  }
  CrossRunRegistry reopened;
  RegistryRecoveryReport report;
  ASSERT_TRUE(reopened.OpenLog(path, {}, &report).ok());
  EXPECT_EQ(report.records_recovered, 5u);
  EXPECT_EQ(reopened.decode_skipped(), 0u);
  bool found = false;
  CrossRunTemplateStats stats = reopened.Lookup(kFp, &found);
  ASSERT_TRUE(found);
  EXPECT_EQ(stats.workload.runs, 5u);
  EXPECT_EQ(stats.workload.completed_runs, 4u);
  EXPECT_EQ(stats.workload.max_peak_buffered_rows, 99u);
  EXPECT_EQ(stats.plan_signature, PlanSignature(plan));
  ASSERT_EQ(stats.estimators.count("pmax"), 1u);
  EXPECT_EQ(stats.estimators.at("pmax").runs, 4u);
  EXPECT_NEAR(stats.estimators.at("pmax").RmsError(), 0.08, 1e-12);
  // The admission priors come back figure for figure.
  ExpectWorkloadEq(stats.workload, before);
  ExpectWorkloadEq(reopened.LookupWorkload(kFp), before);
  std::filesystem::remove(path);
}

TEST(CrossRunRegistryTest, CompactCollapsesRunsAndPreservesAggregates) {
  std::string path = TempPath("registry_compact");
  std::filesystem::remove(path);
  Table t = Numbers(1000);
  PhysicalPlan plan = ScanFilterPlan(&t);
  CrossRunRegistry registry;
  ASSERT_TRUE(registry.OpenLog(path).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        registry.RecordRun(MakeObs(11, plan, 400, {{"dne", 0.2}})).ok());
    ASSERT_TRUE(
        registry.RecordRun(MakeObs(22, plan, 700, {{"safe", 0.1}})).ok());
  }
  uint64_t before = registry.log_bytes();
  ASSERT_TRUE(registry.Compact().ok());
  EXPECT_LT(registry.log_bytes(), before);

  CrossRunRegistry reopened;
  RegistryRecoveryReport report;
  ASSERT_TRUE(reopened.OpenLog(path, {}, &report).ok());
  EXPECT_EQ(report.records_recovered, 2u);  // one aggregate per template
  EXPECT_EQ(reopened.num_templates(), 2u);
  CrossRunTemplateStats a = reopened.Lookup(11);
  CrossRunTemplateStats b = reopened.Lookup(22);
  EXPECT_EQ(a.workload.runs, 10u);
  EXPECT_EQ(b.workload.runs, 10u);
  EXPECT_NEAR(a.estimators.at("dne").AvgError(), 0.2, 1e-12);
  EXPECT_NEAR(b.estimators.at("safe").AvgError(), 0.1, 1e-12);
  EXPECT_NEAR(a.nodes.begin()->second.MeanActualRows(), 400.0, 1e-9);
  std::filesystem::remove(path);
}

TEST(CrossRunRegistryTest, ConcurrentRecordDuringCompactLosesNothing) {
  std::string path = TempPath("concurrent");
  std::filesystem::remove(path);
  Table t = Numbers(1000);
  PhysicalPlan plan = ScanFilterPlan(&t);
  CrossRunRegistry registry;
  ASSERT_TRUE(registry.OpenLog(path).ok());

  constexpr int kThreads = 4;
  constexpr int kRunsPerThread = 25;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      uint64_t fp = 100 + static_cast<uint64_t>(w);
      for (int i = 0; i < kRunsPerThread; ++i) {
        ASSERT_TRUE(registry
                        .RecordRun(MakeObs(fp, plan, 500,
                                           {{"dne", 0.1 + 0.01 * w}}))
                        .ok());
      }
    });
  }
  // Compact concurrently with the appends — the snapshot-and-rename must
  // never drop a recorded run.
  for (int c = 0; c < 5; ++c) ASSERT_TRUE(registry.Compact().ok());
  for (std::thread& w : workers) w.join();
  ASSERT_TRUE(registry.Compact().ok());

  CrossRunRegistry reopened;
  ASSERT_TRUE(reopened.OpenLog(path).ok());
  for (int w = 0; w < kThreads; ++w) {
    uint64_t fp = 100 + static_cast<uint64_t>(w);
    EXPECT_EQ(registry.Lookup(fp).workload.runs,
              static_cast<uint64_t>(kRunsPerThread));
    EXPECT_EQ(reopened.Lookup(fp).workload.runs,
              static_cast<uint64_t>(kRunsPerThread));
  }
  std::filesystem::remove(path);
}

TEST(CrossRunRegistryTest, ReadersNeverWaitOnLogIo) {
  std::string path = TempPath("readers_vs_log_io");
  std::filesystem::remove(path);
  Table t = Numbers(1000);
  PhysicalPlan plan = ScanFilterPlan(&t);
  const uint64_t kFp = 0x1a7c;

  // Once armed, the append fault hook parks the recording thread inside the
  // log append — where a slow fsync would hold it — until released.
  std::mutex latch_mu;
  std::condition_variable latch_cv;
  bool armed = false, parked = false, released = false;
  RegistryLogOptions options;
  options.fault_hook = [&](const char* site) {
    if (std::strcmp(site, kRegistryAppendSite) == 0) {
      std::unique_lock<std::mutex> lock(latch_mu);
      if (armed && !released) {
        parked = true;
        latch_cv.notify_all();
        latch_cv.wait(lock, [&] { return released; });
      }
    }
    return OkStatus();
  };
  CrossRunRegistry registry;
  ASSERT_TRUE(registry.OpenLog(path, options).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        registry.RecordRun(MakeObs(kFp, plan, 500, {{"pmax", 0.05}})).ok());
  }
  {
    std::lock_guard<std::mutex> lock(latch_mu);
    armed = true;
  }

  // No ASSERT between here and the release: every path unparks the
  // recorder, so a regression fails the test instead of hanging it.
  Status recorded;
  std::thread recorder([&] {
    recorded = registry.RecordRun(MakeObs(kFp, plan, 500, {{"pmax", 0.05}}));
  });
  bool recorder_parked = false;
  {
    std::unique_lock<std::mutex> lock(latch_mu);
    recorder_parked = latch_cv.wait_for(lock, std::chrono::seconds(10),
                                        [&] { return parked; });
  }
  std::future<std::pair<uint64_t, std::string>> reads =
      std::async(std::launch::async, [&] {
        WorkloadStats w = registry.LookupWorkload(kFp);
        return std::make_pair(w.runs, registry.SelectEstimator(kFp));
      });
  bool reads_returned =
      recorder_parked &&
      reads.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  {
    std::lock_guard<std::mutex> lock(latch_mu);
    released = true;
  }
  latch_cv.notify_all();
  recorder.join();

  EXPECT_TRUE(recorder_parked) << "append hook never reached";
  EXPECT_TRUE(reads_returned) << "readers blocked behind a parked log append";
  std::pair<uint64_t, std::string> seen = reads.get();
  EXPECT_EQ(seen.first, 4u) << "the parked run is folded before its append";
  EXPECT_EQ(seen.second, "pmax");
  EXPECT_TRUE(recorded.ok()) << recorded;
  std::filesystem::remove(path);
}

TEST(CrossRunRegistryTest, SelectEstimatorPicksLowestHistoricalRms) {
  Table t = Numbers(1000);
  PhysicalPlan plan = ScanFilterPlan(&t);
  CrossRunRegistry registry;
  const uint64_t kFp = 77;
  for (int i = 0; i < 3; ++i) {
    registry.Record(MakeObs(kFp, plan, 500,
                            {{"dne", 0.30},
                             {"dne_pessimistic", 0.25},
                             {"pmax", 0.04},
                             {"safe", 0.10},
                             {"hybrid", 0.15}}));
  }
  EXPECT_EQ(registry.SelectEstimator(kFp), "pmax");
  // Deterministic: the same state always yields the same pick.
  EXPECT_EQ(registry.SelectEstimator(kFp), "pmax");
}

TEST(CrossRunRegistryTest, SelectEstimatorColdFallback) {
  Table t = Numbers(1000);
  PhysicalPlan plan = ScanFilterPlan(&t);
  CrossRunRegistry registry;
  EXPECT_EQ(registry.SelectEstimator(999), CrossRunRegistry::kColdFallback);
  // Two completed runs is below the default warmth gate of three.
  registry.Record(MakeObs(999, plan, 500, {{"pmax", 0.01}}));
  registry.Record(MakeObs(999, plan, 500, {{"pmax", 0.01}}));
  EXPECT_EQ(registry.SelectEstimator(999), CrossRunRegistry::kColdFallback);
  registry.Record(MakeObs(999, plan, 500, {{"pmax", 0.01}}));
  EXPECT_EQ(registry.SelectEstimator(999), "pmax");
}

TEST(CrossRunRegistryTest, SelectEstimatorTieBreaksOnCanonicalOrder) {
  Table t = Numbers(1000);
  PhysicalPlan plan = ScanFilterPlan(&t);
  CrossRunRegistry registry;
  std::vector<std::pair<std::string, double>> tied;
  for (const std::string& name : CrossRunRegistry::SelectionCandidates()) {
    tied.emplace_back(name, 0.2);
  }
  for (int i = 0; i < 3; ++i) registry.Record(MakeObs(5, plan, 500, tied));
  EXPECT_EQ(registry.SelectEstimator(5),
            CrossRunRegistry::SelectionCandidates().front());
}

TEST(CrossRunRegistryTest, SignatureDriftRelearnsNodesKeepsWorkload) {
  Table t = Numbers(1000);
  PhysicalPlan plan_a = ScanFilterPlan(&t);
  auto scan = std::make_unique<SeqScan>(&t);
  PhysicalPlan plan_b{std::move(scan)};  // different shape, same template
  ASSERT_NE(PlanSignature(plan_a), PlanSignature(plan_b));

  CrossRunRegistry registry;
  for (int i = 0; i < 3; ++i) {
    registry.Record(MakeObs(1, plan_a, 500, {{"pmax", 0.01}}));
  }
  registry.Record(MakeObs(1, plan_b, 900));
  CrossRunTemplateStats stats = registry.Lookup(1);
  // Node and estimator history described the old tree — relearned.
  EXPECT_EQ(stats.plan_signature, PlanSignature(plan_b));
  EXPECT_EQ(stats.estimators.count("pmax"), 0u);
  EXPECT_NEAR(stats.nodes.begin()->second.MeanActualRows(), 900.0, 1e-9);
  // Workload history keys on the template's resource profile, not the plan
  // shape; admission priors survive the drift.
  EXPECT_EQ(stats.workload.runs, 4u);
  EXPECT_EQ(registry.SelectEstimator(1), CrossRunRegistry::kColdFallback);
}

TEST(CrossRunRegistryTest, ApplyPriorsReseedsEstimatedRows) {
  Table t = Numbers(1000);
  PhysicalPlan learned = ScanFilterPlan(&t);
  CrossRunRegistry registry;
  for (int i = 0; i < 3; ++i) registry.Record(MakeObs(9, learned, 500));

  PhysicalPlan fresh = ScanFilterPlan(&t);
  for (const PhysicalOperator* op : fresh.nodes()) {
    ASSERT_LT(op->estimated_rows(), 0) << "fresh plan should be unseeded";
  }
  CrossRunPriorReport report = registry.ApplyPriors(9, &fresh);
  EXPECT_TRUE(report.had_history);
  EXPECT_FALSE(report.signature_mismatch);
  EXPECT_EQ(report.nodes_reseeded, static_cast<int>(fresh.num_nodes()));
  EXPECT_EQ(report.priors_rejected, 0);
  for (const PhysicalOperator* op : fresh.nodes()) {
    EXPECT_DOUBLE_EQ(op->estimated_rows(), 500.0);
  }
}

TEST(CrossRunRegistryTest, ApplyPriorsRejectsSignatureMismatch) {
  Table t = Numbers(1000);
  PhysicalPlan learned = ScanFilterPlan(&t);
  CrossRunRegistry registry;
  for (int i = 0; i < 3; ++i) registry.Record(MakeObs(9, learned, 500));

  auto scan = std::make_unique<SeqScan>(&t);
  PhysicalPlan drifted{std::move(scan)};
  CrossRunPriorReport report = registry.ApplyPriors(9, &drifted);
  EXPECT_TRUE(report.signature_mismatch);
  EXPECT_FALSE(report.had_history);
  EXPECT_EQ(report.nodes_reseeded, 0);
  for (const PhysicalOperator* op : drifted.nodes()) {
    EXPECT_LT(op->estimated_rows(), 0) << "mismatched priors must not land";
  }
}

TEST(CrossRunRegistryTest, ApplyPriorsRejectsPoisonedPrior) {
  Table t = Numbers(1000);
  PhysicalPlan learned = ScanFilterPlan(&t);
  CrossRunRegistry registry;
  // An "observed" cardinality far above what the plan can statically produce
  // in one pass — a poisoned or stale record must not be trusted.
  for (int i = 0; i < 3; ++i) {
    registry.Record(MakeObs(9, learned, 50'000'000));
  }
  PhysicalPlan fresh = ScanFilterPlan(&t);
  CrossRunPriorReport report = registry.ApplyPriors(9, &fresh);
  EXPECT_TRUE(report.had_history);
  EXPECT_EQ(report.nodes_reseeded, 0);
  EXPECT_EQ(report.priors_rejected, static_cast<int>(fresh.num_nodes()));
  for (const PhysicalOperator* op : fresh.nodes()) {
    EXPECT_LT(op->estimated_rows(), 0);
  }
}

TEST(CrossRunRegistryTest, ApplyPriorsColdTemplateIsANoOp) {
  Table t = Numbers(1000);
  PhysicalPlan fresh = ScanFilterPlan(&t);
  CrossRunRegistry registry;
  CrossRunPriorReport report = registry.ApplyPriors(424242, &fresh);
  EXPECT_FALSE(report.had_history);
  EXPECT_EQ(report.nodes_reseeded, 0);
}

TEST(CrossRunRegistryTest, WorstOffendersRankedByRmsLogError) {
  Table t = Numbers(1000);
  PhysicalPlan plan = ScanFilterPlan(&t);
  CrossRunRegistry registry;
  // Template 1 estimates perfectly; template 2 is off by 10x on every node.
  CrossRunObservation good = MakeObs(1, plan, 500);
  CrossRunObservation bad = MakeObs(2, plan, 500);
  for (auto& node : bad.nodes) node.estimated_rows = 50;
  registry.Record(good);
  registry.Record(bad);

  std::vector<CrossRunRegistry::Offender> offenders =
      registry.WorstOffenders(4);
  ASSERT_EQ(offenders.size(), 4u);
  // Both of the bad template's nodes outrank both of the good template's.
  EXPECT_EQ(offenders[0].fingerprint, 2u);
  EXPECT_EQ(offenders[1].fingerprint, 2u);
  EXPECT_GT(offenders[1].rms_log_error, offenders[2].rms_log_error);
  EXPECT_EQ(offenders[3].fingerprint, 1u);
  EXPECT_DOUBLE_EQ(offenders[3].rms_log_error, 0.0);
}

TEST(CrossRunRegistryTest, ToJsonIsDeterministic) {
  Table t = Numbers(1000);
  PhysicalPlan plan = ScanFilterPlan(&t);
  CrossRunRegistry registry;
  registry.Record(MakeObs(0xb, plan, 500, {{"dne", 0.2}}));
  registry.Record(MakeObs(0xa, plan, 300, {{"safe", 0.1}}));
  std::string json = registry.ToJson();
  EXPECT_EQ(json, registry.ToJson());
  EXPECT_NE(json.find("\"templates\""), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// Auto selection end to end: session and server
// ---------------------------------------------------------------------------

class RegistrySqlTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    std::vector<Row> rows;
    for (int64_t i = 0; i < 2000; ++i) {
      rows.push_back({testutil::I(i / 40), testutil::I(i)});
    }
    Table t = testutil::MakeTable("t", {"k", "v"}, std::move(rows));
    QPROG_CHECK(db_->AddTable(std::move(t)).ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static Database* db_;
};

Database* RegistrySqlTest::db_ = nullptr;

const char kRegistryQuery[] = "SELECT k, count(*) FROM t GROUP BY k";

TEST_F(RegistrySqlTest, SessionResolvesAutoAfterWarmup) {
  CrossRunRegistry registry;
  MetricsRegistry metrics;
  sql::SessionOptions so;
  so.cross_run = &registry;
  so.metrics_registry = &metrics;
  so.checkpoint_interval = 200;
  so.estimators = CrossRunRegistry::SelectionCandidates();
  sql::SqlSession session(db_, so);

  // Cold: "auto" wraps the fallback before any history exists.
  sql::QueryOptions auto_q;
  auto_q.estimators = {"auto"};
  StatusOr<ProgressReport> cold = session.ExecuteMonitored(kRegistryQuery,
                                                           auto_q);
  ASSERT_TRUE(cold.ok()) << cold.status();
  ASSERT_TRUE(cold.value().completed());
  ASSERT_EQ(cold.value().names.size(), 1u);
  EXPECT_EQ(cold.value().names[0], "auto");

  // Warm-up: three runs scoring every candidate on this template.
  for (int i = 0; i < 3; ++i) {
    StatusOr<ProgressReport> r = session.ExecuteMonitored(kRegistryQuery);
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_TRUE(r.value().completed());
  }
  uint64_t fp = sql::TemplateFingerprint(kRegistryQuery);
  std::string pick = registry.SelectEstimator(fp);
  const auto& candidates = CrossRunRegistry::SelectionCandidates();
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), pick),
            candidates.end())
      << "warm template must pick a real candidate, got " << pick;

  // Warm: the auto run resolves to the pick and the plan is re-seeded from
  // observed priors (visible via the metrics breadcrumb).
  StatusOr<ProgressReport> warm = session.ExecuteMonitored(kRegistryQuery,
                                                           auto_q);
  ASSERT_TRUE(warm.ok()) << warm.status();
  ASSERT_TRUE(warm.value().completed());
  EXPECT_GT(metrics.counter("cross_run.nodes_reseeded"), 0u);
  EXPECT_EQ(metrics.counter("cross_run.signature_mismatch"), 0u);
}

TEST_F(RegistrySqlTest, SessionSurvivesRegistryRestart) {
  std::string path = TempPath("session_restart");
  std::filesystem::remove(path);
  uint64_t fp = sql::TemplateFingerprint(kRegistryQuery);
  std::string pick_before;
  {
    CrossRunRegistry registry;
    ASSERT_TRUE(registry.OpenLog(path).ok());
    sql::SessionOptions so;
    so.cross_run = &registry;
    so.checkpoint_interval = 200;
    so.estimators = CrossRunRegistry::SelectionCandidates();
    sql::SqlSession session(db_, so);
    for (int i = 0; i < 3; ++i) {
      StatusOr<ProgressReport> r = session.ExecuteMonitored(kRegistryQuery);
      ASSERT_TRUE(r.ok()) << r.status();
    }
    pick_before = registry.SelectEstimator(fp);
  }
  // "Restart": a fresh registry replays the log and reaches the same pick —
  // the selection history survived the process boundary.
  CrossRunRegistry recovered;
  ASSERT_TRUE(recovered.OpenLog(path).ok());
  EXPECT_EQ(recovered.Lookup(fp).workload.completed_runs, 3u);
  EXPECT_EQ(recovered.SelectEstimator(fp), pick_before);
  std::filesystem::remove(path);
}

TEST_F(RegistrySqlTest, ServerResolvesAutoPickAtSubmitTime) {
  CrossRunRegistry registry;
  ServerOptions opts;
  opts.sessions = 1;
  opts.checkpoint_interval = 200;
  opts.cross_run = &registry;
  QueryServer server(db_, opts);

  // Warm-up submissions score every candidate.
  SubmitOptions warmup;
  warmup.estimators = CrossRunRegistry::SelectionCandidates();
  for (int i = 0; i < 3; ++i) {
    QueryResult r = server.Wait(server.Submit("acme", kRegistryQuery, warmup));
    ASSERT_TRUE(r.status.ok()) << r.status;
    ASSERT_TRUE(r.report.completed());
  }
  uint64_t fp = sql::TemplateFingerprint(kRegistryQuery);
  std::string expected = registry.SelectEstimator(fp);

  SubmitOptions auto_opts;
  auto_opts.estimators = {"auto"};
  QueryResult r = server.Wait(server.Submit("acme", kRegistryQuery,
                                            auto_opts));
  ASSERT_TRUE(r.status.ok()) << r.status;
  ASSERT_TRUE(r.report.completed());
  ASSERT_EQ(r.report.names.size(), 1u);
  EXPECT_EQ(r.report.names[0], "auto");
  // The submit-time pick is stable against later registry updates.
  EXPECT_EQ(registry.SelectEstimator(fp), expected);
}

TEST_F(RegistrySqlTest, ServerRestartKeepsUnmonitoredPriors) {
  std::string path = TempPath("server_restart_unmonitored");
  std::filesystem::remove(path);
  SubmitOptions plain;
  plain.monitored = false;
  uint64_t predicted = 0;
  {
    CrossRunRegistry registry;
    ASSERT_TRUE(registry.OpenLog(path).ok());
    ServerOptions opts;
    opts.sessions = 1;
    opts.cross_run = &registry;
    QueryServer server(db_, opts);
    QueryResult cold = server.Wait(server.Submit("acme", kRegistryQuery,
                                                 plain));
    ASSERT_TRUE(cold.status.ok()) << cold.status;
    EXPECT_FALSE(cold.admission.predicted_from_prior);
    QueryResult warm = server.Wait(server.Submit("acme", kRegistryQuery,
                                                 plain));
    ASSERT_TRUE(warm.status.ok()) << warm.status;
    ASSERT_TRUE(warm.admission.predicted_from_prior);
    predicted = warm.admission.predicted_peak_rows;
    server.Shutdown();
  }
  // Restart on the reopened log: the template has only ever run
  // unmonitored, and its memory prior must still be there.
  CrossRunRegistry reopened;
  ASSERT_TRUE(reopened.OpenLog(path).ok());
  ServerOptions opts;
  opts.sessions = 1;
  opts.cross_run = &reopened;
  QueryServer server(db_, opts);
  QueryResult r = server.Wait(server.Submit("acme", kRegistryQuery, plain));
  ASSERT_TRUE(r.status.ok()) << r.status;
  EXPECT_TRUE(r.admission.predicted_from_prior);
  EXPECT_EQ(r.admission.predicted_peak_rows, predicted);
  server.Shutdown();
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// CreateEstimator("auto") surface
// ---------------------------------------------------------------------------

TEST(AutoEstimatorTest, FactoryWrapsInnerSpec) {
  auto bare = CreateEstimator("auto");
  ASSERT_TRUE(bare.ok()) << bare.status();
  EXPECT_EQ(bare.value()->name(), "auto");
  auto* wrapped = static_cast<AutoEstimator*>(bare.value().get());
  EXPECT_EQ(wrapped->pick(), CrossRunRegistry::kColdFallback);

  auto picked = CreateEstimator("auto:pmax");
  ASSERT_TRUE(picked.ok()) << picked.status();
  EXPECT_EQ(static_cast<AutoEstimator*>(picked.value().get())->pick(),
            "pmax");

  EXPECT_FALSE(CreateEstimator("auto:auto").ok());
  EXPECT_FALSE(CreateEstimator("auto:auto:pmax").ok());
  EXPECT_FALSE(CreateEstimator("auto:not_an_estimator").ok());
}

}  // namespace
}  // namespace qprog

namespace qprog {
namespace {

/// Crash-child protocol: append + fsync records forever, acking each durable
/// record on stdout. The parent SIGKILLs us mid-stream; exit codes signal
/// setup failures only.
int RunCrashChild(const char* path) {
  auto log = RegistryLog::Open(path);
  if (!log.ok()) return 2;
  for (int i = 0; i < 1000000; ++i) {
    if (!log.value()->Append(CrashChildPayload(i)).ok()) return 3;
    if (!log.value()->Sync().ok()) return 4;
    std::printf("ACK %d\n", i);
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace
}  // namespace qprog

int main(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "--crash-child") == 0) {
    return qprog::RunCrashChild(argv[2]);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
