// ETA calibration harness (DESIGN.md §13): does the claimed ~90% band
// actually contain the observed completion time?
//
// Runs the TPC-H query suite and the Section-5.4 zipf join matrix (INL and
// hash plans, skew-first / skew-last / random R1 orders) under a monitored
// execution with a real-clock EtaModel attached. At every checkpoint the
// model's [eta_lo, eta, eta_hi] claim is recorded together with the
// wall-clock instant it was made; once the query finishes, the observed
// remaining time at each claim is scored against the band (EtaCalibration),
// bucketed by progress decile.
//
// Prints the decile table and writes BENCH_eta.json, under a provenance
// header, in the working directory. With --min-coverage X
// the process exits nonzero when the overall observed coverage of the
// claimed interval falls below X — the CI tripwire. --quick shrinks the
// matrix for a fast smoke run.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/macros.h"
#include "common/strings.h"
#include "core/monitor.h"
#include "obs/eta_model.h"
#include "obs/telemetry.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "workload/zipf_join.h"

namespace qprog {
namespace {

struct RunOutcome {
  std::string name;
  bool completed = false;
  size_t checkpoints = 0;
  double wall_s = 0;
};

/// Monitored run with a real-clock EtaModel; every checkpoint's claimed band
/// is scored against the completion time observed afterwards.
RunOutcome RunAndScore(const std::string& name, PhysicalPlan* plan,
                       uint64_t interval, EtaCalibration* cal) {
  struct Claim {
    uint64_t work = 0;
    EtaBand band;
    uint64_t at_ns = 0;
  };
  std::vector<Claim> claims;
  EtaModel model;  // real clock, trace off
  MonitorOptions mo;
  mo.eta_model = &model;
  mo.checkpoint_listener = [&claims](const Checkpoint& cp) {
    Claim c;
    c.work = cp.work;
    c.band.eta_s = cp.eta_seconds;
    c.band.eta_lo_s = cp.eta_lo_seconds;
    c.band.eta_hi_s = cp.eta_hi_seconds;
    c.at_ns = MonotonicNanos();
    claims.push_back(c);
  };
  ProgressMonitor m =
      ProgressMonitor::WithEstimators(plan, {"dne", "safe"}, std::move(mo));
  uint64_t start_ns = MonotonicNanos();
  ProgressReport report = m.Run(interval);
  uint64_t end_ns = MonotonicNanos();

  RunOutcome outcome;
  outcome.name = name;
  outcome.completed = report.completed();
  outcome.checkpoints = claims.size();
  outcome.wall_s = static_cast<double>(end_ns - start_ns) / 1e9;
  if (!report.completed() || report.total_work == 0) return outcome;
  for (const Claim& c : claims) {
    EtaCalibrationSample sample;
    sample.progress = static_cast<double>(c.work) /
                      static_cast<double>(report.total_work);
    sample.band = c.band;
    sample.actual_remaining_s =
        static_cast<double>(end_ns - c.at_ns) / 1e9;
    cal->Add(sample);
  }
  return outcome;
}

void PrintDecileTable(const EtaCalibration& cal) {
  std::printf("%-10s %-9s %-10s %-14s %-14s\n", "decile", "samples",
              "coverage", "mean_abs_err_s", "mean_rel_width");
  for (size_t d = 0; d < 10; ++d) {
    const EtaCalibration::DecileStats& s = cal.decile(d);
    std::printf("%zu0-%zu0%%     %-9llu %-10.3f %-14.4f %-14.3f\n", d, d + 1,
                static_cast<unsigned long long>(s.samples), s.coverage(),
                s.mean_abs_err_s(), s.mean_rel_width());
  }
  EtaCalibration::DecileStats overall = cal.Overall();
  std::printf("%-10s %-9llu %-10.3f %-14.4f %-14.3f\n", "overall",
              static_cast<unsigned long long>(overall.samples),
              overall.coverage(), overall.mean_abs_err_s(),
              overall.mean_rel_width());
  std::printf("infinite (pre-warm-up) bands: %llu\n",
              static_cast<unsigned long long>(cal.infinite_bands()));
}

}  // namespace
}  // namespace qprog

int main(int argc, char** argv) {
  using namespace qprog;  // NOLINT(build/namespaces)

  bool quick = false;
  double min_coverage = -1.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--min-coverage") == 0 && i + 1 < argc) {
      min_coverage = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--min-coverage X]\n", argv[0]);
      return 2;
    }
  }

  bench::PrintHeader(
      "eta_calibration: claimed ~90% ETA bands vs. observed completion",
      "wall-clock trustworthiness, the time-domain analogue of Sections 2.5 "
      "and 5's estimator scoring");

  EtaCalibration cal;
  std::vector<RunOutcome> outcomes;

  // TPC-H suite: every available query at a scale that yields a meaningful
  // checkpoint count per run.
  {
    Database db;
    tpch::TpchConfig config;
    config.scale_factor = quick ? 0.002 : 0.01;
    QPROG_CHECK(tpch::GenerateTpch(config, &db).ok());
    uint64_t interval = quick ? 500 : 2000;
    for (int q : tpch::AvailableQueries()) {
      auto plan = tpch::BuildQuery(q, db);
      QPROG_CHECK(plan.ok());
      outcomes.push_back(RunAndScore(StringPrintf("tpch_q%d", q),
                                     &plan.value(), interval, &cal));
    }
  }

  // Zipf join matrix (Section 5.4): the adversarial skew orders whose rate
  // drift is exactly what the variance term must absorb.
  {
    const double zs[] = {1.0, 2.0};
    const R1Order orders[] = {R1Order::kSkewFirst, R1Order::kSkewLast,
                              R1Order::kRandom};
    const char* order_names[] = {"skew_first", "skew_last", "random"};
    for (double z : zs) {
      ZipfJoinConfig config;
      config.r1_rows = quick ? 5000 : 30000;
      config.r2_rows = quick ? 5000 : 30000;
      config.z = z;
      for (size_t oi = 0; oi < 3; ++oi) {
        config.order = orders[oi];
        ZipfJoinData data(config);
        uint64_t interval = quick ? 400 : 1500;
        PhysicalPlan inl = data.BuildInlPlan();
        outcomes.push_back(
            RunAndScore(StringPrintf("zipf_inl_z%.0f_%s", z, order_names[oi]),
                        &inl, interval, &cal));
        PhysicalPlan hash = data.BuildHashPlan();
        outcomes.push_back(RunAndScore(
            StringPrintf("zipf_hash_z%.0f_%s", z, order_names[oi]), &hash,
            interval, &cal));
      }
    }
  }

  std::printf("%-24s %-10s %-12s %-9s\n", "run", "complete", "checkpoints",
              "wall_s");
  for (const RunOutcome& o : outcomes) {
    std::printf("%-24s %-10s %-12llu %-9.3f\n", o.name.c_str(),
                o.completed ? "yes" : "NO",
                static_cast<unsigned long long>(o.checkpoints), o.wall_s);
  }
  std::printf("\n");
  PrintDecileTable(cal);

  // One pass over the matrix: the decile table is the measurement.
  std::string json =
      "{\"bench\":\"eta_calibration\"," + bench::ProvenanceJson(1);
  json += StringPrintf(",\"quick\":%s", quick ? "true" : "false");
  json += StringPrintf(",\"runs\":%zu", outcomes.size());
  json += ",\"calibration\":" + cal.ToJson() + "}\n";
  std::FILE* out = std::fopen("BENCH_eta.json", "w");
  if (out != nullptr) {
    std::fwrite(json.data(), 1, json.size(), out);
    std::fclose(out);
    std::printf("\nwrote BENCH_eta.json\n");
  }

  double coverage = cal.Overall().coverage();
  if (min_coverage >= 0.0) {
    if (coverage < min_coverage) {
      std::fprintf(stderr,
                   "FAIL: observed coverage %.3f below floor %.3f\n",
                   coverage, min_coverage);
      return 1;
    }
    std::printf("coverage %.3f >= floor %.3f\n", coverage, min_coverage);
  }
  return 0;
}
