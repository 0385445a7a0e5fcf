#include "obs/cross_run_registry.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/macros.h"
#include "common/strings.h"
#include "core/bounds.h"
#include "exec/plan.h"
#include "obs/accuracy.h"

namespace qprog {

namespace {

// ---- wire helpers (little-endian memcpy, matching the spill codec) --------

constexpr uint8_t kRecordObservation = 1;
constexpr uint8_t kRecordAggregate = 2;
constexpr uint8_t kRecordVersion = 1;

void PutU8(std::string* out, uint8_t v) { out->push_back(static_cast<char>(v)); }

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void PutDouble(std::string* out, double v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Bounds-checked sequential reader over a record payload. Every Get*
/// returns false once the payload runs short; decode routines bail out then
/// — a record that lies about its own length is skipped, never trusted.
class Cursor {
 public:
  explicit Cursor(const std::string& data) : data_(data) {}

  bool GetU8(uint8_t* v) {
    if (pos_ + 1 > data_.size()) return false;
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }
  bool GetU32(uint32_t* v) { return Raw(v, 4); }
  bool GetU64(uint64_t* v) { return Raw(v, 8); }
  bool GetDouble(double* v) { return Raw(v, 8); }
  bool GetString(std::string* s) {
    uint32_t len = 0;
    if (!GetU32(&len)) return false;
    if (pos_ + len > data_.size()) return false;
    s->assign(data_, pos_, len);
    pos_ += len;
    return true;
  }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  bool Raw(void* v, size_t n) {
    if (pos_ + n > data_.size()) return false;
    std::memcpy(v, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  const std::string& data_;
  size_t pos_ = 0;
};

void PutWorkloadObservation(std::string* out, const WorkloadObservation& w) {
  PutU8(out, w.completed ? 1 : 0);
  PutU64(out, w.work);
  PutU64(out, w.spill_work);
  PutU64(out, w.peak_buffered_rows);
  PutU64(out, w.root_rows);
  PutU64(out, w.wall_ns);
}

bool GetWorkloadObservation(Cursor* c, WorkloadObservation* w) {
  uint8_t completed = 0;
  if (!c->GetU8(&completed)) return false;
  w->completed = completed != 0;
  return c->GetU64(&w->work) && c->GetU64(&w->spill_work) &&
         c->GetU64(&w->peak_buffered_rows) && c->GetU64(&w->root_rows) &&
         c->GetU64(&w->wall_ns);
}

void PutWorkloadStats(std::string* out, const WorkloadStats& s) {
  PutU64(out, s.runs);
  PutU64(out, s.completed_runs);
  PutU64(out, s.total_work);
  PutU64(out, s.total_spill_work);
  PutU64(out, s.total_root_rows);
  PutU64(out, s.total_wall_ns);
  PutU64(out, s.total_peak_buffered_rows);
  PutU64(out, s.max_peak_buffered_rows);
  PutU64(out, s.max_work);
}

bool GetWorkloadStats(Cursor* c, WorkloadStats* s) {
  return c->GetU64(&s->runs) && c->GetU64(&s->completed_runs) &&
         c->GetU64(&s->total_work) && c->GetU64(&s->total_spill_work) &&
         c->GetU64(&s->total_root_rows) && c->GetU64(&s->total_wall_ns) &&
         c->GetU64(&s->total_peak_buffered_rows) &&
         c->GetU64(&s->max_peak_buffered_rows) && c->GetU64(&s->max_work);
}

/// JSON number at telemetry precision (accuracy.cc idiom).
std::string Num(double v) {
  if (std::isnan(v) || std::isinf(v)) return "null";
  return StringPrintf("%.6g", v);
}

}  // namespace

double CrossRunNodeStats::RmsLogError() const {
  return runs > 0 ? std::sqrt(sum_sq_log_err / static_cast<double>(runs)) : 0;
}

double CrossRunEstimatorStats::RmsError() const {
  return runs > 0 ? std::sqrt(sum_sq_avg_abs_err / static_cast<double>(runs))
                  : 0;
}

double CrossRunEstimatorStats::DecileError(int d) const {
  if (d < 0 || d >= kProgressDeciles || decile_count[d] == 0) return -1;
  return decile_sum[d] / static_cast<double>(decile_count[d]);
}

CrossRunObservation BuildCrossRunObservation(uint64_t fingerprint,
                                             const ProgressReport& report,
                                             uint64_t wall_ns) {
  CrossRunObservation obs;
  obs.fingerprint = fingerprint;
  obs.plan_signature = report.plan_signature;
  obs.workload.completed = report.completed();
  obs.workload.work = report.total_work;
  obs.workload.spill_work = report.spill_work;
  obs.workload.peak_buffered_rows = report.peak_buffered_rows;
  obs.workload.root_rows = report.root_rows;
  obs.workload.wall_ns = wall_ns;
  if (!report.completed()) return obs;

  obs.nodes.reserve(report.node_stats.size());
  for (const NodeRunStat& n : report.node_stats) {
    CrossRunObservation::Node node;
    node.node_id = n.node_id;
    node.actual_rows = n.actual_rows;
    node.estimated_rows = n.estimated_rows;
    node.next_ns = n.next_ns;
    obs.nodes.push_back(node);
  }

  obs.estimators.reserve(report.names.size());
  for (size_t i = 0; i < report.names.size(); ++i) {
    CrossRunObservation::Estimator e;
    e.name = report.names[i];
    EstimatorMetrics m = report.Metrics(i);
    e.avg_abs_err = m.avg_abs_err;
    e.max_abs_err = m.max_abs_err;
    // Decile series: mean |claimed - true| over the checkpoints falling in
    // each true-progress decile (d/10, (d+1)/10].
    double sums[kProgressDeciles] = {0};
    uint64_t counts[kProgressDeciles] = {0};
    for (const Checkpoint& cp : report.checkpoints) {
      int bucket = cp.true_progress >= 1.0
                       ? kProgressDeciles - 1
                       : static_cast<int>(cp.true_progress * kProgressDeciles);
      if (bucket < 0) bucket = 0;
      sums[bucket] += std::fabs(cp.estimates[i] - cp.true_progress);
      ++counts[bucket];
    }
    for (int d = 0; d < kProgressDeciles; ++d) {
      e.decile_err[d] =
          counts[d] > 0 ? sums[d] / static_cast<double>(counts[d]) : -1;
    }
    obs.estimators.push_back(std::move(e));
  }
  return obs;
}

// ---- serialization --------------------------------------------------------

std::string EncodeCrossRunObservation(const CrossRunObservation& obs) {
  std::string out;
  PutU8(&out, kRecordObservation);
  PutU8(&out, kRecordVersion);
  PutU64(&out, obs.fingerprint);
  PutU64(&out, obs.plan_signature);
  PutU8(&out, obs.workload.completed ? 1 : 0);  // v1's duplicate slot
  PutWorkloadObservation(&out, obs.workload);
  PutU32(&out, static_cast<uint32_t>(obs.nodes.size()));
  for (const CrossRunObservation::Node& n : obs.nodes) {
    PutU32(&out, static_cast<uint32_t>(n.node_id));
    PutU64(&out, n.actual_rows);
    PutDouble(&out, n.estimated_rows);
    PutU64(&out, n.next_ns);
  }
  PutU32(&out, static_cast<uint32_t>(obs.estimators.size()));
  for (const CrossRunObservation::Estimator& e : obs.estimators) {
    PutString(&out, e.name);
    PutDouble(&out, e.avg_abs_err);
    PutDouble(&out, e.max_abs_err);
    for (double d : e.decile_err) PutDouble(&out, d);
  }
  return out;
}

bool DecodeCrossRunObservation(const std::string& payload,
                               CrossRunObservation* obs) {
  Cursor c(payload);
  uint8_t type = 0, version = 0, duplicate_completed = 0;
  if (!c.GetU8(&type) || type != kRecordObservation) return false;
  if (!c.GetU8(&version) || version != kRecordVersion) return false;
  if (!c.GetU64(&obs->fingerprint) || !c.GetU64(&obs->plan_signature) ||
      !c.GetU8(&duplicate_completed) ||
      !GetWorkloadObservation(&c, &obs->workload)) {
    return false;
  }
  uint32_t num_nodes = 0;
  if (!c.GetU32(&num_nodes)) return false;
  obs->nodes.clear();
  for (uint32_t i = 0; i < num_nodes; ++i) {
    CrossRunObservation::Node n;
    uint32_t id = 0;
    if (!c.GetU32(&id) || !c.GetU64(&n.actual_rows) ||
        !c.GetDouble(&n.estimated_rows) || !c.GetU64(&n.next_ns)) {
      return false;
    }
    n.node_id = static_cast<int>(id);
    obs->nodes.push_back(n);
  }
  uint32_t num_estimators = 0;
  if (!c.GetU32(&num_estimators)) return false;
  obs->estimators.clear();
  for (uint32_t i = 0; i < num_estimators; ++i) {
    CrossRunObservation::Estimator e;
    if (!c.GetString(&e.name) || !c.GetDouble(&e.avg_abs_err) ||
        !c.GetDouble(&e.max_abs_err)) {
      return false;
    }
    for (double& d : e.decile_err) {
      if (!c.GetDouble(&d)) return false;
    }
    obs->estimators.push_back(std::move(e));
  }
  return c.AtEnd();
}

std::string EncodeCrossRunAggregate(const CrossRunTemplateStats& stats) {
  std::string out;
  PutU8(&out, kRecordAggregate);
  PutU8(&out, kRecordVersion);
  PutU64(&out, stats.fingerprint);
  PutU64(&out, stats.plan_signature);
  PutU64(&out, stats.workload.runs);  // v1's duplicate slots
  PutU64(&out, stats.workload.completed_runs);
  PutWorkloadStats(&out, stats.workload);
  PutU32(&out, static_cast<uint32_t>(stats.nodes.size()));
  for (const auto& [node_id, n] : stats.nodes) {
    PutU32(&out, static_cast<uint32_t>(node_id));
    PutU64(&out, n.runs);
    PutDouble(&out, n.sum_log_err);
    PutDouble(&out, n.sum_sq_log_err);
    PutDouble(&out, n.sum_time_weighted);
    PutDouble(&out, n.sum_time_weight);
    PutDouble(&out, n.sum_cost_weighted);
    PutDouble(&out, n.sum_cost_weight);
    PutU64(&out, n.rows_runs);
    PutDouble(&out, n.sum_actual_rows);
    PutDouble(&out, n.max_actual_rows);
  }
  PutU32(&out, static_cast<uint32_t>(stats.estimators.size()));
  for (const auto& [name, e] : stats.estimators) {
    PutString(&out, name);
    PutU64(&out, e.runs);
    PutDouble(&out, e.sum_avg_abs_err);
    PutDouble(&out, e.sum_sq_avg_abs_err);
    PutDouble(&out, e.max_abs_err);
    for (double d : e.decile_sum) PutDouble(&out, d);
    for (uint64_t n : e.decile_count) PutU64(&out, n);
  }
  return out;
}

bool DecodeCrossRunAggregate(const std::string& payload,
                             CrossRunTemplateStats* stats) {
  Cursor c(payload);
  uint8_t type = 0, version = 0;
  uint64_t duplicate_runs = 0, duplicate_completed_runs = 0;
  if (!c.GetU8(&type) || type != kRecordAggregate) return false;
  if (!c.GetU8(&version) || version != kRecordVersion) return false;
  if (!c.GetU64(&stats->fingerprint) || !c.GetU64(&stats->plan_signature) ||
      !c.GetU64(&duplicate_runs) || !c.GetU64(&duplicate_completed_runs) ||
      !GetWorkloadStats(&c, &stats->workload)) {
    return false;
  }
  uint32_t num_nodes = 0;
  if (!c.GetU32(&num_nodes)) return false;
  stats->nodes.clear();
  for (uint32_t i = 0; i < num_nodes; ++i) {
    uint32_t id = 0;
    CrossRunNodeStats n;
    if (!c.GetU32(&id) || !c.GetU64(&n.runs) || !c.GetDouble(&n.sum_log_err) ||
        !c.GetDouble(&n.sum_sq_log_err) || !c.GetDouble(&n.sum_time_weighted) ||
        !c.GetDouble(&n.sum_time_weight) || !c.GetDouble(&n.sum_cost_weighted) ||
        !c.GetDouble(&n.sum_cost_weight) || !c.GetU64(&n.rows_runs) ||
        !c.GetDouble(&n.sum_actual_rows) || !c.GetDouble(&n.max_actual_rows)) {
      return false;
    }
    stats->nodes[static_cast<int>(id)] = n;
  }
  uint32_t num_estimators = 0;
  if (!c.GetU32(&num_estimators)) return false;
  stats->estimators.clear();
  for (uint32_t i = 0; i < num_estimators; ++i) {
    std::string name;
    CrossRunEstimatorStats e;
    if (!c.GetString(&name) || !c.GetU64(&e.runs) ||
        !c.GetDouble(&e.sum_avg_abs_err) ||
        !c.GetDouble(&e.sum_sq_avg_abs_err) || !c.GetDouble(&e.max_abs_err)) {
      return false;
    }
    for (double& d : e.decile_sum) {
      if (!c.GetDouble(&d)) return false;
    }
    for (uint64_t& n : e.decile_count) {
      if (!c.GetU64(&n)) return false;
    }
    stats->estimators[name] = e;
  }
  return c.AtEnd();
}

// ---- registry -------------------------------------------------------------

const std::vector<std::string>& CrossRunRegistry::SelectionCandidates() {
  static const std::vector<std::string>* kCandidates =
      new std::vector<std::string>{"dne", "dne_pessimistic", "pmax", "safe",
                                   "hybrid"};
  return *kCandidates;
}

void CrossRunRegistry::RecordLocked(const CrossRunObservation& obs) {
  CrossRunTemplateStats& stats = by_template_[obs.fingerprint];
  stats.fingerprint = obs.fingerprint;
  WorkloadStats& w = stats.workload;
  if (w.runs > 0 && obs.plan_signature != stats.plan_signature) {
    // The template's plan shape drifted (new index, reordered join): the old
    // shape's node and estimator history describes different operators, so
    // the template relearns from scratch. Workload figures stay — they
    // describe the template's resource profile, which admission keys on
    // regardless of shape.
    stats.nodes.clear();
    stats.estimators.clear();
  }
  stats.plan_signature = obs.plan_signature;

  ++w.runs;
  if (obs.workload.completed) ++w.completed_runs;
  w.total_work += obs.workload.work;
  w.total_spill_work += obs.workload.spill_work;
  w.total_root_rows += obs.workload.root_rows;
  w.total_wall_ns += obs.workload.wall_ns;
  w.total_peak_buffered_rows += obs.workload.peak_buffered_rows;
  w.max_peak_buffered_rows =
      std::max(w.max_peak_buffered_rows, obs.workload.peak_buffered_rows);
  w.max_work = std::max(w.max_work, obs.workload.work);

  // Partial counts would bias the priors.
  if (!obs.workload.completed) return;

  for (const CrossRunObservation::Node& n : obs.nodes) {
    CrossRunNodeStats& ns = stats.nodes[n.node_id];
    ++ns.rows_runs;
    double actual = static_cast<double>(n.actual_rows);
    ns.sum_actual_rows += actual;
    ns.max_actual_rows = std::max(ns.max_actual_rows, actual);
    double err = LogScaleError(actual, n.estimated_rows);
    if (err < 0) continue;  // no planner estimate -> no error term
    ++ns.runs;
    ns.sum_log_err += err;
    ns.sum_sq_log_err += err * err;
    ns.sum_time_weighted += err * static_cast<double>(n.next_ns);
    ns.sum_time_weight += static_cast<double>(n.next_ns);
    ns.sum_cost_weighted += err * actual;
    ns.sum_cost_weight += actual;
  }

  for (const CrossRunObservation::Estimator& e : obs.estimators) {
    CrossRunEstimatorStats& es = stats.estimators[e.name];
    ++es.runs;
    es.sum_avg_abs_err += e.avg_abs_err;
    es.sum_sq_avg_abs_err += e.avg_abs_err * e.avg_abs_err;
    es.max_abs_err = std::max(es.max_abs_err, e.max_abs_err);
    for (int d = 0; d < kProgressDeciles; ++d) {
      if (e.decile_err[d] < 0) continue;
      es.decile_sum[d] += e.decile_err[d];
      ++es.decile_count[d];
    }
  }
}

void CrossRunRegistry::MergeAggregateLocked(
    const CrossRunTemplateStats& incoming) {
  CrossRunTemplateStats& stats = by_template_[incoming.fingerprint];
  stats.fingerprint = incoming.fingerprint;
  WorkloadStats& w = stats.workload;
  if (w.runs > 0 && incoming.plan_signature != stats.plan_signature) {
    stats.nodes.clear();
    stats.estimators.clear();
  }
  stats.plan_signature = incoming.plan_signature;

  w.runs += incoming.workload.runs;
  w.completed_runs += incoming.workload.completed_runs;
  w.total_work += incoming.workload.total_work;
  w.total_spill_work += incoming.workload.total_spill_work;
  w.total_root_rows += incoming.workload.total_root_rows;
  w.total_wall_ns += incoming.workload.total_wall_ns;
  w.total_peak_buffered_rows += incoming.workload.total_peak_buffered_rows;
  w.max_peak_buffered_rows = std::max(w.max_peak_buffered_rows,
                                      incoming.workload.max_peak_buffered_rows);
  w.max_work = std::max(w.max_work, incoming.workload.max_work);

  for (const auto& [node_id, in] : incoming.nodes) {
    CrossRunNodeStats& ns = stats.nodes[node_id];
    ns.runs += in.runs;
    ns.sum_log_err += in.sum_log_err;
    ns.sum_sq_log_err += in.sum_sq_log_err;
    ns.sum_time_weighted += in.sum_time_weighted;
    ns.sum_time_weight += in.sum_time_weight;
    ns.sum_cost_weighted += in.sum_cost_weighted;
    ns.sum_cost_weight += in.sum_cost_weight;
    ns.rows_runs += in.rows_runs;
    ns.sum_actual_rows += in.sum_actual_rows;
    ns.max_actual_rows = std::max(ns.max_actual_rows, in.max_actual_rows);
  }
  for (const auto& [name, in] : incoming.estimators) {
    CrossRunEstimatorStats& es = stats.estimators[name];
    es.runs += in.runs;
    es.sum_avg_abs_err += in.sum_avg_abs_err;
    es.sum_sq_avg_abs_err += in.sum_sq_avg_abs_err;
    es.max_abs_err = std::max(es.max_abs_err, in.max_abs_err);
    for (int d = 0; d < kProgressDeciles; ++d) {
      es.decile_sum[d] += in.decile_sum[d];
      es.decile_count[d] += in.decile_count[d];
    }
  }
}

Status CrossRunRegistry::OpenLog(const std::string& path,
                                 RegistryLogOptions options,
                                 RegistryRecoveryReport* recovery) {
  std::lock_guard<std::mutex> log_lock(log_mu_);
  if (log_ != nullptr) return Internal("cross-run registry log already open");
  auto visitor = [this](const std::string& payload) {
    // A record whose checksum passed but whose body does not decode —
    // version skew, a short serialization — is skipped like checksum
    // corruption: the registry never trusts bytes it cannot fully parse.
    std::lock_guard<std::mutex> lock(mu_);
    if (payload.empty()) {
      ++decode_skipped_;
      return;
    }
    uint8_t type = static_cast<uint8_t>(payload[0]);
    if (type == kRecordObservation) {
      CrossRunObservation obs;
      if (DecodeCrossRunObservation(payload, &obs)) {
        RecordLocked(obs);
        return;
      }
    } else if (type == kRecordAggregate) {
      CrossRunTemplateStats stats;
      if (DecodeCrossRunAggregate(payload, &stats)) {
        MergeAggregateLocked(stats);
        return;
      }
    }
    ++decode_skipped_;
  };
  QPROG_ASSIGN_OR_RETURN(log_, RegistryLog::Open(path, std::move(options),
                                                 visitor, recovery));
  return OkStatus();
}

Status CrossRunRegistry::RecordRun(const CrossRunObservation& obs) {
  // The fold happens under log_mu_ too, so a Compact cannot snapshot it
  // and then have this append land a second copy behind the rewrite.
  std::lock_guard<std::mutex> log_lock(log_mu_);
  Record(obs);
  if (log_ == nullptr) return OkStatus();
  QPROG_RETURN_IF_ERROR(log_->Append(EncodeCrossRunObservation(obs)));
  return log_->Sync();
}

void CrossRunRegistry::Record(const CrossRunObservation& obs) {
  std::lock_guard<std::mutex> lock(mu_);
  RecordLocked(obs);
}

Status CrossRunRegistry::Compact() {
  std::lock_guard<std::mutex> log_lock(log_mu_);
  if (log_ == nullptr) return Internal("cross-run registry has no log");
  std::vector<std::string> records;
  {
    std::lock_guard<std::mutex> lock(mu_);
    records.reserve(by_template_.size());
    for (const auto& [fingerprint, stats] : by_template_) {
      records.push_back(EncodeCrossRunAggregate(stats));
    }
  }
  return log_->Compact(records);
}

bool CrossRunRegistry::log_open() const {
  std::lock_guard<std::mutex> lock(log_mu_);
  return log_ != nullptr;
}

uint64_t CrossRunRegistry::log_bytes() const {
  std::lock_guard<std::mutex> lock(log_mu_);
  return log_ != nullptr ? log_->bytes() : 0;
}

uint64_t CrossRunRegistry::log_io_retries() const {
  std::lock_guard<std::mutex> lock(log_mu_);
  return log_ != nullptr ? log_->io_retries() : 0;
}

uint64_t CrossRunRegistry::decode_skipped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return decode_skipped_;
}

CrossRunTemplateStats CrossRunRegistry::Lookup(uint64_t fingerprint,
                                               bool* found) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_template_.find(fingerprint);
  if (found != nullptr) *found = it != by_template_.end();
  return it != by_template_.end() ? it->second : CrossRunTemplateStats();
}

WorkloadStats CrossRunRegistry::LookupWorkload(uint64_t fingerprint,
                                               bool* found) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_template_.find(fingerprint);
  if (found != nullptr) *found = it != by_template_.end();
  return it != by_template_.end() ? it->second.workload : WorkloadStats();
}

size_t CrossRunRegistry::num_templates() const {
  std::lock_guard<std::mutex> lock(mu_);
  return by_template_.size();
}

std::string CrossRunRegistry::SelectLocked(uint64_t fingerprint,
                                           uint64_t min_runs) const {
  auto it = by_template_.find(fingerprint);
  if (it == by_template_.end()) return kColdFallback;
  const CrossRunTemplateStats& stats = it->second;
  const std::string* best = nullptr;
  double best_score = 0;
  for (const std::string& candidate : SelectionCandidates()) {
    auto es = stats.estimators.find(candidate);
    if (es == stats.estimators.end() || es->second.runs < min_runs) continue;
    double score = es->second.RmsError();
    // Strict < keeps the first (canonical-order) candidate on ties.
    if (best == nullptr || score < best_score) {
      best = &candidate;
      best_score = score;
    }
  }
  return best != nullptr ? *best : kColdFallback;
}

std::string CrossRunRegistry::SelectEstimator(uint64_t fingerprint,
                                              uint64_t min_runs) const {
  std::lock_guard<std::mutex> lock(mu_);
  return SelectLocked(fingerprint, min_runs);
}

CrossRunPriorReport CrossRunRegistry::ApplyPriors(uint64_t fingerprint,
                                                  PhysicalPlan* plan,
                                                  uint64_t min_runs) const {
  CrossRunPriorReport report;
  QPROG_CHECK(plan != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_template_.find(fingerprint);
  if (it == by_template_.end() ||
      it->second.workload.completed_runs < min_runs) {
    return report;
  }
  const CrossRunTemplateStats& stats = it->second;
  if (PlanSignature(*plan) != stats.plan_signature) {
    // Shape drift: the recorded node ids describe a different tree. Touch
    // nothing — a wrong prior is worse than no prior.
    report.signature_mismatch = true;
    return report;
  }
  report.had_history = true;
  for (PhysicalOperator* op : plan->nodes()) {
    auto ns = stats.nodes.find(op->node_id());
    if (ns == stats.nodes.end() || ns->second.rows_runs < min_runs) continue;
    double prior = ns->second.MeanActualRows();
    // Sanity clamp: a prior inconsistent with what the plan can statically
    // produce in one pass is rejected, not trusted. estimated_rows only
    // feeds the dne family's driver totals (never the BoundsTracker), so an
    // accepted prior cannot violate Curr <= LB <= UB.
    double static_ub = StaticPerPassUpperBound(op);
    if (!std::isfinite(prior) || prior < 0 ||
        (std::isfinite(static_ub) && static_ub >= 0 && prior > static_ub)) {
      ++report.priors_rejected;
      continue;
    }
    op->set_estimated_rows(prior);
    ++report.nodes_reseeded;
  }
  return report;
}

std::vector<CrossRunRegistry::Offender> CrossRunRegistry::WorstOffenders(
    size_t limit) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Offender> all;
  for (const auto& [fingerprint, stats] : by_template_) {
    for (const auto& [node_id, ns] : stats.nodes) {
      if (ns.runs == 0) continue;
      all.push_back({fingerprint, node_id, ns.RmsLogError(), ns.runs});
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Offender& a, const Offender& b) {
                     return a.rms_log_error > b.rms_log_error;
                   });
  if (all.size() > limit) all.resize(limit);
  return all;
}

std::string CrossRunRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"templates\":[";
  bool first_template = true;
  for (const auto& [fingerprint, stats] : by_template_) {
    if (!first_template) out += ',';
    first_template = false;
    out += StringPrintf(
        "{\"fingerprint\":%llu,\"plan_signature\":%llu,\"runs\":%llu,"
        "\"completed_runs\":%llu",
        static_cast<unsigned long long>(fingerprint),
        static_cast<unsigned long long>(stats.plan_signature),
        static_cast<unsigned long long>(stats.workload.runs),
        static_cast<unsigned long long>(stats.workload.completed_runs));
    out += ",\"nodes\":[";
    bool first = true;
    for (const auto& [node_id, ns] : stats.nodes) {
      if (!first) out += ',';
      first = false;
      out += StringPrintf(
          "{\"node\":%d,\"runs\":%llu,\"avg_log_error\":%s,"
          "\"rms_log_error\":%s,\"twa_log_error\":%s,\"cwa_log_error\":%s,"
          "\"mean_actual_rows\":%s}",
          node_id, static_cast<unsigned long long>(ns.runs),
          Num(ns.AvgLogError()).c_str(), Num(ns.RmsLogError()).c_str(),
          Num(ns.TimeWeightedLogError()).c_str(),
          Num(ns.CostWeightedLogError()).c_str(),
          Num(ns.MeanActualRows()).c_str());
    }
    out += "],\"estimators\":[";
    first = true;
    for (const auto& [name, es] : stats.estimators) {
      if (!first) out += ',';
      first = false;
      out += StringPrintf(
          "{\"name\":\"%s\",\"runs\":%llu,\"avg_err\":%s,\"rms_err\":%s,"
          "\"max_err\":%s,\"deciles\":[",
          name.c_str(), static_cast<unsigned long long>(es.runs),
          Num(es.AvgError()).c_str(), Num(es.RmsError()).c_str(),
          Num(es.max_abs_err).c_str());
      for (int d = 0; d < kProgressDeciles; ++d) {
        if (d > 0) out += ',';
        double err = es.DecileError(d);
        out += err < 0 ? "null" : Num(err);
      }
      out += "]}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace qprog
