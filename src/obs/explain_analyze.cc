#include "obs/explain_analyze.h"

#include <cmath>

#include "common/strings.h"
#include "core/explain.h"
#include "obs/accuracy.h"

namespace qprog {

namespace {

std::string FormatNanos(uint64_t ns) {
  double v = static_cast<double>(ns);
  if (v >= 1e9) return StringPrintf("%.2fs", v / 1e9);
  if (v >= 1e6) return StringPrintf("%.1fms", v / 1e6);
  if (v >= 1e3) return StringPrintf("%.1fus", v / 1e3);
  return StringPrintf("%lluns", static_cast<unsigned long long>(ns));
}

void RenderNode(const PhysicalOperator* op, const ExecContext& ctx,
                const ExplainAnalyzeOptions& opts,
                const CrossRunTemplateStats* xrun, int depth,
                std::string* out) {
  int id = op->node_id();
  ProgressState state;
  op->FillProgressState(ctx, &state);

  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(StringPrintf("#%d %s  rows=%llu", id, op->label().c_str(),
                           static_cast<unsigned long long>(
                               state.rows_produced)));
  if (op->estimated_rows() >= 0) {
    double err = LogScaleError(static_cast<double>(state.rows_produced),
                               op->estimated_rows());
    out->append(StringPrintf(" (est=%.0f logerr=%.2f)", op->estimated_rows(),
                             err));
  }
  if (xrun != nullptr) {
    auto it = xrun->nodes.find(id);
    if (it != xrun->nodes.end() && it->second.runs > 0) {
      out->append(StringPrintf(
          " xrun_err=%.2f runs=%llu", it->second.RmsLogError(),
          static_cast<unsigned long long>(it->second.runs)));
    }
  }
  // Work attribution uses the raw getnext counter: for a merged-predicate
  // scan that counts examined rows, which is what the work model charges.
  if (!op->is_root() && ctx.work() > 0) {
    out->append(StringPrintf(
        " work=%.1f%%",
        100.0 * static_cast<double>(ctx.rows_produced(id)) /
            static_cast<double>(ctx.work())));
  }
  if (opts.telemetry != nullptr) {
    const OperatorStats& s = opts.telemetry->stats(id);
    out->append(StringPrintf(" calls=%llu", static_cast<unsigned long long>(
                                                s.next_calls)));
    if (opts.include_timing) {
      out->append(StringPrintf(
          " time(open=%s next=%s close=%s)", FormatNanos(s.open_ns).c_str(),
          FormatNanos(s.next_ns).c_str(), FormatNanos(s.close_ns).c_str()));
    }
    if (s.guard_trips > 0) {
      out->append(StringPrintf(" guard_trips=%llu",
                               static_cast<unsigned long long>(s.guard_trips)));
    }
    if (s.faults > 0) {
      out->append(StringPrintf(
          " faults=%llu", static_cast<unsigned long long>(s.faults)));
    }
    if (s.spills > 0) {
      out->append(StringPrintf(
          " spills=%llu spilled_rows=%llu reread_rows=%llu",
          static_cast<unsigned long long>(s.spills),
          static_cast<unsigned long long>(s.spill_rows_written),
          static_cast<unsigned long long>(s.spill_rows_read)));
      if (s.io_retries > 0) {
        out->append(StringPrintf(
            " io_retries=%llu",
            static_cast<unsigned long long>(s.io_retries)));
      }
    }
  }
  if (op->is_root()) out->append("  (root, excluded from work)");
  out->push_back('\n');
  for (size_t i = 0; i < op->num_children(); ++i) {
    RenderNode(op->child(i), ctx, opts, xrun, depth + 1, out);
  }
}

}  // namespace

std::string FormatRemainingSeconds(double seconds) {
  if (std::isnan(seconds) || std::isinf(seconds) || seconds < 0) return "--";
  if (seconds >= 1.0) return StringPrintf("%.1fs", seconds);
  return StringPrintf("%.0fms", seconds * 1e3);
}

std::string ExplainAnalyze(const PhysicalPlan& plan, const ExecContext& ctx,
                           const ExplainAnalyzeOptions& opts) {
  std::string out =
      StringPrintf("work=%llu", static_cast<unsigned long long>(ctx.work()));
  if (!plan.nodes().empty()) {
    const PhysicalOperator* root = plan.root();
    out += StringPrintf(
        "  root_rows=%llu",
        static_cast<unsigned long long>(ctx.rows_produced(root->node_id())));
  }
  if (opts.progress_estimate >= 0) {
    out += StringPrintf("  progress=%.1f%%", 100.0 * opts.progress_estimate);
    if (opts.elapsed_seconds >= 0) {
      out += StringPrintf(
          "  remaining=%s",
          FormatRemainingSeconds(
              EstimateRemainingSeconds(opts.progress_estimate,
                                       opts.elapsed_seconds))
              .c_str());
    }
  }
  if (opts.show_eta) {
    out += StringPrintf("  eta=%s band=[%s,%s]",
                        FormatRemainingSeconds(opts.eta_seconds).c_str(),
                        FormatRemainingSeconds(opts.eta_lo_seconds).c_str(),
                        FormatRemainingSeconds(opts.eta_hi_seconds).c_str());
  }
  if (opts.telemetry != nullptr && opts.include_timing) {
    out += StringPrintf(
        "  elapsed=%s",
        FormatNanos(opts.telemetry->run_elapsed_ns()).c_str());
  }
  if (!ctx.ok()) {
    out += StringPrintf("  ERROR: %s", ctx.status().ToString().c_str());
  }
  out += '\n';
  if (!plan.nodes().empty()) {
    // One registry lookup for the whole tree; nodes render from the copy.
    CrossRunTemplateStats xrun;
    bool have_xrun = false;
    if (opts.cross_run != nullptr) {
      xrun = opts.cross_run->Lookup(opts.fingerprint, &have_xrun);
    }
    RenderNode(plan.root(), ctx, opts, have_xrun ? &xrun : nullptr, 0, &out);
  }
  return out;
}

}  // namespace qprog
