#include "core/estimators.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "common/macros.h"
#include "common/strings.h"

namespace qprog {

namespace {

double Clamp01(double x) { return std::clamp(x, 0.0, 1.0); }

}  // namespace

double DneEstimator::Estimate(const ProgressContext& pc) const {
  QPROG_CHECK(pc.pipelines != nullptr && pc.exec != nullptr);
  double done = 0;
  double total = 0;
  for (const Pipeline& p : *pc.pipelines) {
    for (const PhysicalOperator* d : p.drivers) {
      DriverStatus s = ComputeDriverStatus(d, *pc.exec);
      done += s.rows_done;
      total += s.rows_total;
    }
  }
  if (total <= 0) return 0;
  return Clamp01(done / total);
}

double PmaxProgress(double curr, double lb) {
  return lb > 0 ? Clamp01(curr / lb) : 0;
}

double SafeProgress(double curr, double lb, double ub) {
  return lb > 0 && ub > 0 ? Clamp01(curr / std::sqrt(lb * ub)) : 0;
}

double PmaxEstimator::Estimate(const ProgressContext& pc) const {
  QPROG_CHECK(pc.bounds != nullptr && pc.exec != nullptr);
  return PmaxProgress(static_cast<double>(pc.exec->work()),
                      pc.bounds->work_lb);
}

double SafeEstimator::Estimate(const ProgressContext& pc) const {
  QPROG_CHECK(pc.bounds != nullptr && pc.exec != nullptr);
  return SafeProgress(static_cast<double>(pc.exec->work()),
                      pc.bounds->work_lb, pc.bounds->work_ub);
}

double BoundedDneEstimator::Estimate(const ProgressContext& pc) const {
  QPROG_CHECK(pc.bounds != nullptr && pc.exec != nullptr);
  double dne = DneEstimator().Estimate(pc);
  double curr = static_cast<double>(pc.exec->work());
  double lb = pc.bounds->work_lb;
  double ub = pc.bounds->work_ub;
  // The true progress lies in [Curr/UB, Curr/LB]; clamp dne into it.
  double lo = ub > 0 ? curr / ub : 0.0;
  double hi = lb > 0 ? curr / lb : 1.0;
  return Clamp01(std::clamp(dne, lo, hi));
}

double PessimisticDneEstimator::Estimate(const ProgressContext& pc) const {
  QPROG_CHECK(pc.pipelines != nullptr && pc.exec != nullptr &&
              pc.bounds != nullptr);
  double done = 0;
  double total = 0;
  for (const Pipeline& p : *pc.pipelines) {
    for (const PhysicalOperator* d : p.drivers) {
      DriverStatus s = ComputeDriverStatus(d, *pc.exec);
      done += s.rows_done;
      total += s.rows_total;
    }
  }
  // Fold the engine's outstanding spill debt into the denominator: every
  // pending unit is work the drivers' totals know nothing about, so the raw
  // fraction can only shrink relative to dne — and the shared clamp below is
  // monotone, so the clamped estimate never exceeds dne_bounded either.
  double pending =
      pc.spill != nullptr ? static_cast<double>(pc.spill->spill_rows_pending)
                          : 0.0;
  double denom = total + pending;
  double raw = denom > 0 ? done / denom : 0.0;
  double curr = static_cast<double>(pc.exec->work());
  double lo = pc.bounds->work_ub > 0 ? curr / pc.bounds->work_ub : 0.0;
  double hi = pc.bounds->work_lb > 0 ? curr / pc.bounds->work_lb : 1.0;
  return Clamp01(std::clamp(raw, lo, hi));
}

double HybridEstimator::Estimate(const ProgressContext& pc) const {
  QPROG_CHECK(pc.bounds != nullptr);
  if (pc.scanned_leaf_cardinality > 0) {
    double mu_ub = pc.bounds->work_ub / pc.scanned_leaf_cardinality;
    if (mu_ub <= mu_threshold_) return PmaxEstimator().Estimate(pc);
  }
  return SafeEstimator().Estimate(pc);
}

double WindowEstimator::Estimate(const ProgressContext& pc) const {
  QPROG_CHECK(pc.pipelines != nullptr && pc.exec != nullptr &&
              pc.bounds != nullptr);
  double done = 0;
  double total = 0;
  for (const Pipeline& p : *pc.pipelines) {
    for (const PhysicalOperator* d : p.drivers) {
      DriverStatus s = ComputeDriverStatus(d, *pc.exec);
      done += s.rows_done;
      total += s.rows_total;
    }
  }
  double curr = static_cast<double>(pc.exec->work());
  history_.emplace_back(done, curr);
  if (history_.size() > window_ + 1) {
    history_.erase(history_.begin(),
                   history_.end() - static_cast<long>(window_ + 1));
  }

  // Recent per-driver-tuple work; falls back to the lifetime average, then
  // to 1 (a fresh query).
  double mu_recent;
  double dk = history_.back().first - history_.front().first;
  double dw = history_.back().second - history_.front().second;
  if (history_.size() >= 2 && dk > 0) {
    mu_recent = dw / dk;
  } else if (done > 0) {
    mu_recent = curr / done;
  } else {
    mu_recent = 1.0;
  }
  double remaining = std::max(0.0, total - done);
  double projected_total = curr + remaining * mu_recent;
  double estimate = projected_total > 0 ? curr / projected_total : 0.0;

  // Never leave the feasible interval the bounds guarantee.
  double lo = pc.bounds->work_ub > 0 ? curr / pc.bounds->work_ub : 0.0;
  double hi = pc.bounds->work_lb > 0 ? curr / pc.bounds->work_lb : 1.0;
  return Clamp01(std::clamp(estimate, lo, hi));
}

namespace {

// Parses the whole of `text` as a finite double; false on trailing junk,
// empty input, or non-finite values.
bool ParseFullDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  const char* begin = text.c_str();
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(begin, &end);
  if (end != begin + text.size() || errno == ERANGE || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

// Parses the whole of `text` as an unsigned integer; rejects signs so
// "window:-4" fails instead of wrapping.
bool ParseFullSize(const std::string& text, size_t* out) {
  if (text.empty() || text[0] == '-' || text[0] == '+') return false;
  const char* begin = text.c_str();
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(begin, &end, 10);
  if (end != begin + text.size() || errno == ERANGE) return false;
  *out = static_cast<size_t>(v);
  return true;
}

}  // namespace

AutoEstimator::AutoEstimator(std::unique_ptr<ProgressEstimator> inner)
    : inner_(std::move(inner)) {
  QPROG_CHECK(inner_ != nullptr);
  pick_ = inner_->name();
}

double AutoEstimator::Estimate(const ProgressContext& pc) const {
  return inner_->Estimate(pc);
}

StatusOr<std::unique_ptr<ProgressEstimator>> CreateEstimator(
    const std::string& spec) {
  // "name" or "name:param" — only hybrid, window and auto take a parameter.
  const size_t colon = spec.find(':');
  const bool has_param = colon != std::string::npos;
  const std::string name = has_param ? spec.substr(0, colon) : spec;
  const std::string param = has_param ? spec.substr(colon + 1) : std::string();

  if (name == "auto") {
    // "auto" = the cold fallback; "auto:<spec>" wraps the resolved pick.
    // Only fixed estimators may be wrapped — nesting auto would hide which
    // concrete estimator a report column came from.
    const std::string inner_spec = has_param ? param : "dne_bounded";
    if (inner_spec == "auto" || inner_spec.rfind("auto:", 0) == 0) {
      return InvalidArgument(StringPrintf(
          "estimator spec '%s': auto cannot wrap auto", spec.c_str()));
    }
    auto inner = CreateEstimator(inner_spec);
    if (!inner.ok()) {
      return InvalidArgument(StringPrintf(
          "estimator spec '%s': bad inner spec: %s", spec.c_str(),
          inner.status().message().c_str()));
    }
    return std::unique_ptr<ProgressEstimator>(
        new AutoEstimator(std::move(inner).value()));
  }
  if (name == "hybrid") {
    double mu_threshold = 3.0;
    if (has_param &&
        (!ParseFullDouble(param, &mu_threshold) || mu_threshold <= 0)) {
      return InvalidArgument(StringPrintf(
          "estimator spec '%s': hybrid takes a positive mu threshold "
          "(e.g. 'hybrid:2.5')",
          spec.c_str()));
    }
    return std::unique_ptr<ProgressEstimator>(
        new HybridEstimator(mu_threshold));
  }
  if (name == "window") {
    size_t window = 16;
    if (has_param && (!ParseFullSize(param, &window) || window == 0)) {
      return InvalidArgument(StringPrintf(
          "estimator spec '%s': window takes a positive integer history "
          "length (e.g. 'window:32')",
          spec.c_str()));
    }
    return std::unique_ptr<ProgressEstimator>(new WindowEstimator(window));
  }
  if (has_param) {
    return InvalidArgument(StringPrintf(
        "estimator spec '%s': '%s' takes no parameter", spec.c_str(),
        name.c_str()));
  }
  if (name == "dne") {
    return std::unique_ptr<ProgressEstimator>(new DneEstimator());
  }
  if (name == "pmax") {
    return std::unique_ptr<ProgressEstimator>(new PmaxEstimator());
  }
  if (name == "safe") {
    return std::unique_ptr<ProgressEstimator>(new SafeEstimator());
  }
  if (name == "dne_bounded") {
    return std::unique_ptr<ProgressEstimator>(new BoundedDneEstimator());
  }
  if (name == "dne_pessimistic") {
    return std::unique_ptr<ProgressEstimator>(new PessimisticDneEstimator());
  }
  // Name the offending token explicitly: with parameterized specs the
  // failing part of "hybird:2.5" is 'hybird', not the whole spec, and the
  // valid-name list turns a typo into a one-glance fix.
  std::string known;
  for (const std::string& n : AllEstimatorNames()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  return InvalidArgument(StringPrintf(
      "estimator spec '%s': unknown estimator name '%s' (known: %s, auto)",
      spec.c_str(), name.c_str(), known.c_str()));
}

std::vector<std::string> AllEstimatorNames() {
  return {"dne",    "pmax",   "safe", "dne_bounded", "dne_pessimistic",
          "hybrid", "window"};
}

std::vector<EstimatorSpecInfo> ListEstimatorSpecs() {
  return {
      {"dne", "dne",
       "Driver-node estimator: work done over dynamically refined total(Q)"},
      {"pmax", "pmax",
       "Pessimistic per-pipeline maximum over driver completion fractions"},
      {"safe", "safe",
       "Conservative lower-bound estimator: Curr over the upper bound UB"},
      {"dne_bounded", "dne_bounded",
       "dne with its total clamped into the refined [LB, UB] interval"},
      {"dne_pessimistic", "dne_pessimistic",
       "dne against the upper bound UB alone (never overestimates progress)"},
      {"hybrid", "hybrid[:mu]",
       "dne_bounded until bounds widen past mu, then safe (default mu 3.0)"},
      {"window", "window[:n]",
       "Rate extrapolation over the last n checkpoints (default n 16)"},
      {"auto", "auto[:spec]",
       "Cross-run pick of the template's historically best fixed estimator "
       "(cold fallback dne_bounded)"},
  };
}

}  // namespace qprog
