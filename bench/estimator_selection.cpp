// Robust estimator selection (König et al., PAPERS.md): does picking the
// historically-best fixed estimator per query template beat committing to
// any single fixed estimator across a workload?
//
// Phase 1 (train): every workload query — the TPC-H suite, the synthetic
// SkyServer analysis queries, and the Section-5.4 zipf join matrix — runs
// once under all five selection candidates, and the terminal progress-error
// series feeds a CrossRunRegistry exactly as a SqlSession would feed it.
//
// Phase 2 (eval): each query re-runs with "auto:<pick>" alongside every
// fixed candidate, scoring the per-run average |claimed - true| per
// estimator. The deterministic engine makes this a clean replay: the pick's
// column is what auto would have delivered on the next arrival of the
// template.
//
// Prints the per-query table and the workload aggregate, and writes
// BENCH_selection.json under a provenance header. Exit code is the CI tripwire: nonzero when auto is
// worse than the worst fixed candidate on any query, or when auto's
// workload-level RMS exceeds the best single fixed estimator's. --quick
// shrinks the matrix for a fast smoke run.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/macros.h"
#include "common/strings.h"
#include "core/monitor.h"
#include "obs/cross_run_registry.h"
#include "skyserver/skyserver.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "workload/zipf_join.h"

namespace qprog {
namespace {

struct Workload {
  std::string name;
  std::function<PhysicalPlan()> build;
  uint64_t interval = 1000;
};

struct QueryScore {
  std::string name;
  std::string pick;
  double auto_err = 0;
  std::vector<double> candidate_errs;  // parallel to SelectionCandidates()
  bool completed = false;
};

/// One monitored run; returns per-estimator average |claimed - true|.
bool RunOnce(const Workload& w, const std::vector<std::string>& specs,
             std::vector<double>* errs, ProgressReport* out = nullptr) {
  PhysicalPlan plan = w.build();
  ProgressMonitor m = ProgressMonitor::WithEstimators(&plan, specs);
  ProgressReport r = m.Run(w.interval);
  if (!r.completed()) return false;
  errs->clear();
  for (size_t i = 0; i < r.names.size(); ++i) {
    errs->push_back(r.Metrics(i).avg_abs_err);
  }
  if (out != nullptr) *out = std::move(r);
  return true;
}

}  // namespace
}  // namespace qprog

int main(int argc, char** argv) {
  using namespace qprog;  // NOLINT(build/namespaces)

  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
      return 2;
    }
  }

  bench::PrintHeader(
      "estimator_selection: per-template auto pick vs. fixed estimators",
      "the robust-selection idea of Koenig et al. over the paper's Section 5 "
      "workloads");

  const std::vector<std::string>& candidates =
      CrossRunRegistry::SelectionCandidates();

  // --- assemble the workload matrix -----------------------------------------
  std::vector<Workload> workloads;

  Database tpch_db;
  {
    tpch::TpchConfig config;
    config.scale_factor = quick ? 0.002 : 0.01;
    QPROG_CHECK(tpch::GenerateTpch(config, &tpch_db).ok());
    std::vector<int> queries = tpch::AvailableQueries();
    if (quick) queries.resize(std::min<size_t>(queries.size(), 3));
    for (int q : queries) {
      workloads.push_back({StringPrintf("tpch_q%d", q),
                           [q, &tpch_db] {
                             auto plan = tpch::BuildQuery(q, tpch_db);
                             QPROG_CHECK(plan.ok());
                             return std::move(plan).value();
                           },
                           quick ? 500u : 2000u});
    }
  }

  Database sky_db;
  {
    skyserver::SkyServerConfig config;
    config.num_photoobj = quick ? 4000 : 40000;
    QPROG_CHECK(skyserver::GenerateSkyServer(config, &sky_db).ok());
    std::vector<int> queries = skyserver::AvailableSkyQueries();
    if (quick) queries.resize(std::min<size_t>(queries.size(), 2));
    for (int q : queries) {
      workloads.push_back({StringPrintf("sky_q%d", q),
                           [q, &sky_db] {
                             auto plan = skyserver::BuildSkyQuery(q, sky_db);
                             QPROG_CHECK(plan.ok());
                             return std::move(plan).value();
                           },
                           quick ? 500u : 2000u});
    }
  }

  std::vector<std::unique_ptr<ZipfJoinData>> zipf_data;
  {
    const double zs[] = {1.0, 2.0};
    const R1Order orders[] = {R1Order::kSkewFirst, R1Order::kSkewLast,
                              R1Order::kRandom};
    const char* order_names[] = {"skew_first", "skew_last", "random"};
    for (double z : zs) {
      for (size_t oi = 0; oi < 3; ++oi) {
        if (quick && !(z == 2.0 && oi == 0)) continue;
        ZipfJoinConfig config;
        config.r1_rows = quick ? 4000 : 30000;
        config.r2_rows = quick ? 4000 : 30000;
        config.z = z;
        config.order = orders[oi];
        zipf_data.push_back(std::make_unique<ZipfJoinData>(config));
        ZipfJoinData* data = zipf_data.back().get();
        workloads.push_back(
            {StringPrintf("zipf_inl_z%.0f_%s", z, order_names[oi]),
             [data] { return data->BuildInlPlan(); }, quick ? 400u : 1500u});
        workloads.push_back(
            {StringPrintf("zipf_hash_z%.0f_%s", z, order_names[oi]),
             [data] { return data->BuildHashPlan(); }, quick ? 400u : 1500u});
      }
    }
  }

  // --- phase 1: train the registry ------------------------------------------
  CrossRunRegistry registry;
  std::vector<double> errs;
  for (size_t i = 0; i < workloads.size(); ++i) {
    ProgressReport report;
    if (!RunOnce(workloads[i], candidates, &errs, &report)) {
      std::fprintf(stderr, "training run %s did not complete\n",
                   workloads[i].name.c_str());
      return 1;
    }
    registry.Record(
        BuildCrossRunObservation(/*fingerprint=*/i + 1, report, 0));
  }

  // --- phase 2: evaluate auto against every fixed candidate -----------------
  // The engine is deterministic, so one training run is a faithful history;
  // selection warms at min_runs=1 here (the server default of 3 guards
  // against nondeterministic production workloads, not this replay).
  std::vector<QueryScore> scores;
  for (size_t i = 0; i < workloads.size(); ++i) {
    QueryScore score;
    score.name = workloads[i].name;
    score.pick = registry.SelectEstimator(i + 1, /*min_runs=*/1);
    std::vector<std::string> specs;
    specs.push_back("auto:" + score.pick);
    for (const std::string& c : candidates) specs.push_back(c);
    score.completed = RunOnce(workloads[i], specs, &errs);
    if (!score.completed) {
      std::fprintf(stderr, "eval run %s did not complete\n",
                   score.name.c_str());
      return 1;
    }
    score.auto_err = errs[0];
    score.candidate_errs.assign(errs.begin() + 1, errs.end());
    scores.push_back(std::move(score));
  }

  // --- report ---------------------------------------------------------------
  std::printf("%-24s %-16s %-9s", "query", "auto_pick", "auto");
  for (const std::string& c : candidates) std::printf(" %-9.9s", c.c_str());
  std::printf("\n");
  int per_query_failures = 0;
  for (const QueryScore& s : scores) {
    std::printf("%-24s %-16s %-9.4f", s.name.c_str(), s.pick.c_str(),
                s.auto_err);
    double worst = 0;
    for (double e : s.candidate_errs) {
      std::printf(" %-9.4f", e);
      worst = std::max(worst, e);
    }
    // Tripwire 1: auto must never be worse than the worst fixed candidate.
    if (s.auto_err > worst + 1e-9) {
      std::printf("  <-- WORSE THAN WORST FIXED");
      ++per_query_failures;
    }
    std::printf("\n");
  }

  // Workload aggregate: RMS of per-query average errors, the same score
  // SelectEstimator minimizes per template.
  auto rms = [&](std::function<double(const QueryScore&)> err) {
    double sum_sq = 0;
    for (const QueryScore& s : scores) {
      double e = err(s);
      sum_sq += e * e;
    }
    return std::sqrt(sum_sq / static_cast<double>(scores.size()));
  };
  double auto_rms = rms([](const QueryScore& s) { return s.auto_err; });
  double best_fixed_rms = 0;
  std::string best_fixed;
  for (size_t c = 0; c < candidates.size(); ++c) {
    double r = rms([c](const QueryScore& s) { return s.candidate_errs[c]; });
    std::printf("%-24s %-16s %.4f\n",
                c == 0 ? "workload rms:" : "", candidates[c].c_str(), r);
    if (best_fixed.empty() || r < best_fixed_rms) {
      best_fixed_rms = r;
      best_fixed = candidates[c];
    }
  }
  std::printf("%-24s %-16s %.4f\n", "", "auto", auto_rms);
  std::printf("\nauto rms %.4f vs best fixed (%s) %.4f\n", auto_rms,
              best_fixed.c_str(), best_fixed_rms);

  // --- JSON artifact --------------------------------------------------------
  // One pass: the errors are work-based, so a rerun reproduces them exactly.
  std::string json =
      "{\"bench\":\"estimator_selection\"," + bench::ProvenanceJson(1);
  json += StringPrintf(",\"quick\":%s", quick ? "true" : "false");
  json += ",\"queries\":[";
  for (size_t i = 0; i < scores.size(); ++i) {
    const QueryScore& s = scores[i];
    if (i > 0) json += ',';
    json += StringPrintf("{\"name\":\"%s\",\"pick\":\"%s\",\"auto_err\":%.6g",
                         s.name.c_str(), s.pick.c_str(), s.auto_err);
    json += ",\"fixed\":{";
    for (size_t c = 0; c < candidates.size(); ++c) {
      if (c > 0) json += ',';
      json += StringPrintf("\"%s\":%.6g", candidates[c].c_str(),
                           s.candidate_errs[c]);
    }
    json += "}}";
  }
  json += StringPrintf(
      "],\"auto_rms\":%.6g,\"best_fixed\":\"%s\",\"best_fixed_rms\":%.6g}\n",
      auto_rms, best_fixed.c_str(), best_fixed_rms);
  std::FILE* out = std::fopen("BENCH_selection.json", "w");
  if (out != nullptr) {
    std::fwrite(json.data(), 1, json.size(), out);
    std::fclose(out);
    std::printf("wrote BENCH_selection.json\n");
  }

  // Tripwire 2: per-template selection must do at least as well as the best
  // single fixed estimator over the whole workload — the point of the
  // exercise.
  if (per_query_failures > 0) {
    std::fprintf(stderr, "FAIL: auto worse than worst fixed on %d queries\n",
                 per_query_failures);
    return 1;
  }
  if (auto_rms > best_fixed_rms + 1e-9) {
    std::fprintf(stderr,
                 "FAIL: auto workload rms %.4f above best fixed %.4f\n",
                 auto_rms, best_fixed_rms);
    return 1;
  }
  std::printf("PASS: auto <= worst fixed per query, "
              "auto rms <= best fixed rms\n");
  return 0;
}
