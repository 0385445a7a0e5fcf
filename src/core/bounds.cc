#include "core/bounds.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "exec/aggregate.h"
#include "exec/join.h"
#include "exec/scan.h"

namespace qprog {

namespace {

// Products of cardinalities can overflow anything sensible; bounds saturate
// here. (The safe estimator degrades gracefully: a huge UB just means a very
// conservative estimate, which is the paper's point about worst cases.)
constexpr double kCap = 1e18;

double CapMul(double a, double b) {
  if (a <= 0 || b <= 0) return 0;
  if (a > kCap / b) return kCap;
  return a * b;
}

double CapAdd(double a, double b) { return std::min(kCap, a + b); }

JoinType JoinTypeOf(const PhysicalOperator* op) {
  switch (op->kind()) {
    case OpKind::kNestedLoopsJoin:
      return static_cast<const NestedLoopsJoin*>(op)->join_type();
    case OpKind::kIndexNestedLoopsJoin:
      return static_cast<const IndexNestedLoopsJoin*>(op)->join_type();
    case OpKind::kHashJoin:
      return static_cast<const HashJoin*>(op)->join_type();
    default:
      return JoinType::kInner;
  }
}

class Walker {
 public:
  Walker(const ExecContext& ctx, std::vector<CardBounds>* out)
      : ctx_(ctx), out_(out) {}

  /// Computes bounds for `op`, records them in out_, and returns them.
  /// `under_limit`: an ancestor Limit may stop pulling, so lower bounds
  /// degrade to rows-produced-so-far. `rescan_remaining`: >= 0 when this
  /// subtree is the inner of a nested-loops join that may re-open it up to
  /// that many more times.
  CardBounds Visit(const PhysicalOperator* op, bool under_limit,
                   double rescan_remaining) {
    ProgressState s;
    op->FillProgressState(ctx_, &s);
    const double produced = static_cast<double>(s.rows_produced);
    CardBounds b;

    if (rescan_remaining >= 0) {
      // Re-executed subtree: only generic per-pass reasoning applies. Work
      // accumulates in the node counter across passes (for scans that is
      // rows examined, which can exceed single-pass production).
      for (size_t i = 0; i < op->num_children(); ++i) {
        Visit(op->child(i), under_limit, rescan_remaining);
      }
      double counted = Produced(op);
      b.lb = counted;
      b.ub = CapAdd(counted,
                    CapMul(rescan_remaining, StaticPerPassUpperBound(op)));
      return Record(op, under_limit, counted, b);
    }

    switch (op->kind()) {
      case OpKind::kSeqScan: {
        // Work bounds: every base row is examined exactly once, so the
        // node's total work is the table cardinality — known a priori from
        // the catalog (the heart of Section 5.2's LB >= sum of leaves).
        // Under a Limit the scan may stop early, degrading the lower bound
        // to rows examined so far.
        double examined = static_cast<double>(s.input_examined);
        double base = static_cast<double>(s.base_rows);
        CardBounds work;
        if (s.finished) {
          work.lb = work.ub = examined;
        } else {
          work.lb = under_limit ? examined : base;
          work.ub = base;
        }
        (*out_)[static_cast<size_t>(op->node_id())] = work;
        // Production bounds (what the parent will consume): exact for an
        // unfiltered scan; otherwise emitted-so-far plus remaining rows.
        if (s.finished) {
          b.lb = b.ub = produced;
        } else if (s.exact_total >= 0) {
          b.lb = under_limit ? produced : s.exact_total;
          b.ub = s.exact_total;
        } else {
          b.lb = produced;
          b.ub = produced + (base - examined);
        }
        b.lb = std::max(b.lb, produced);
        b.ub = std::max(b.ub, b.lb);
        return b;
      }
      case OpKind::kIndexSeek: {
        // A standalone (range-mode) seek; the INL inner seek is handled by
        // its parent join below and never reaches this path.
        if (s.finished) {
          b.lb = b.ub = produced;
        } else if (s.exact_total >= 0) {
          b.lb = b.ub = std::max(produced, s.exact_total);
        } else {
          b.lb = produced;
          b.ub = kCap;
        }
        break;
      }
      case OpKind::kFilter: {
        CardBounds c = Visit(op->child(0), under_limit, -1);
        if (s.finished) {
          b.lb = b.ub = produced;
        } else {
          b.lb = produced;
          b.ub = produced + RemainingInput(op->child(0), c);
        }
        break;
      }
      case OpKind::kProject: {
        CardBounds c = Visit(op->child(0), under_limit, -1);
        if (s.finished) {
          b.lb = b.ub = produced;
        } else {
          b.lb = std::max(produced, c.lb);
          b.ub = std::max(produced, c.ub);
        }
        break;
      }
      case OpKind::kLimit: {
        CardBounds c = Visit(op->child(0), /*under_limit=*/true, -1);
        if (s.finished) {
          b.lb = b.ub = produced;
        } else {
          b.lb = produced;
          b.ub = std::min(produced + static_cast<double>(s.limit_remaining),
                          std::max(produced, c.ub));
        }
        break;
      }
      case OpKind::kNestedLoopsJoin: {
        CardBounds outer = Visit(op->child(0), under_limit, -1);
        double outer_produced = ProductionOf(op->child(0));
        double remaining_outer = RemainingInput(op->child(0), outer);
        double per_pass = StaticPerPassUpperBound(op->child(1));
        Visit(op->child(1), under_limit, remaining_outer);
        JoinType jt = JoinTypeOf(op);
        if (s.finished) {
          b.lb = b.ub = produced;
          break;
        }
        b.lb = produced;
        switch (jt) {
          case JoinType::kInner:
            b.ub = CapAdd(produced, CapMul(remaining_outer, per_pass));
            if (op->is_linear()) {
              b.ub = std::min(b.ub, std::max(produced,
                                             std::max(outer.ub, per_pass)));
            }
            break;
          case JoinType::kLeftOuter:
            b.lb = produced + std::max(0.0, outer.lb - outer_produced);
            b.ub = CapAdd(produced,
                          CapMul(remaining_outer, std::max(1.0, per_pass)));
            break;
          case JoinType::kLeftSemi:
          case JoinType::kLeftAnti:
            b.ub = produced + remaining_outer;
            break;
        }
        break;
      }
      case OpKind::kIndexNestedLoopsJoin: {
        CardBounds outer = Visit(op->child(0), under_limit, -1);
        double outer_produced = ProductionOf(op->child(0));
        double remaining_outer = RemainingInput(op->child(0), outer);
        const PhysicalOperator* seek = op->child(1);
        ProgressState ss;
        seek->FillProgressState(ctx_, &ss);
        double seek_produced = static_cast<double>(ss.rows_produced);
        double per_probe = static_cast<double>(ss.max_per_probe);

        CardBounds sb;
        if (s.finished) {
          sb.lb = sb.ub = seek_produced;
        } else {
          sb.lb = seek_produced;
          sb.ub = CapAdd(seek_produced, CapMul(remaining_outer, per_probe));
          if (op->is_linear()) {
            sb.ub = std::min(
                sb.ub, std::max(seek_produced,
                                std::max(outer.ub,
                                         static_cast<double>(ss.base_rows))));
          }
        }
        Record(seek, under_limit, seek_produced, sb);

        JoinType jt = JoinTypeOf(op);
        if (s.finished) {
          b.lb = b.ub = produced;
          break;
        }
        b.lb = produced;
        switch (jt) {
          case JoinType::kInner:
            b.ub = produced + RemainingInput(seek, sb);
            break;
          case JoinType::kLeftOuter:
            b.lb = produced + std::max(0.0, outer.lb - outer_produced);
            b.ub = CapAdd(produced,
                          CapMul(remaining_outer, std::max(1.0, per_probe)));
            if (op->is_linear()) {
              b.ub = std::min(
                  b.ub, std::max(produced,
                                 std::max(outer.ub,
                                          static_cast<double>(ss.base_rows))));
              b.ub = std::max(b.ub, b.lb);
            }
            break;
          case JoinType::kLeftSemi:
          case JoinType::kLeftAnti:
            b.ub = produced + remaining_outer;
            break;
        }
        break;
      }
      case OpKind::kHashJoin: {
        CardBounds probe = Visit(op->child(0), under_limit, -1);
        // The build side is fully consumed before the first output.
        CardBounds build = Visit(op->child(1), /*under_limit=*/false, -1);
        double probe_produced = ProductionOf(op->child(0));
        JoinType jt = JoinTypeOf(op);
        if (s.finished) {
          b.lb = b.ub = produced;
          break;
        }
        if (!s.build_done) {
          b.lb = produced;
          double matches_ub = op->is_linear() ? std::max(probe.ub, build.ub)
                                              : CapMul(probe.ub, build.ub);
          switch (jt) {
            case JoinType::kInner:
              b.ub = matches_ub;
              break;
            case JoinType::kLeftOuter:
              b.lb = std::max(produced, probe.lb);
              b.ub = CapAdd(matches_ub, probe.ub);
              break;
            case JoinType::kLeftSemi:
            case JoinType::kLeftAnti:
              b.ub = probe.ub;
              break;
          }
          b.ub = std::max(b.ub, b.lb);
          break;
        }
        // Build finished: the key multiset is known.
        double remaining_probe = RemainingInput(op->child(0), probe);
        double m = static_cast<double>(s.max_multiplicity);
        b.lb = produced;
        switch (jt) {
          case JoinType::kInner:
            b.ub = CapAdd(produced, CapMul(remaining_probe, m));
            if (op->is_linear()) {
              b.ub = std::min(b.ub,
                              std::max(produced, std::max(probe.ub, build.ub)));
            }
            break;
          case JoinType::kLeftOuter:
            b.lb = produced + std::max(0.0, probe.lb - probe_produced);
            b.ub = CapAdd(produced, CapMul(remaining_probe, std::max(1.0, m)));
            b.ub = std::max(b.ub, b.lb);
            break;
          case JoinType::kLeftSemi:
            b.ub = produced + (m > 0 ? remaining_probe : 0.0);
            break;
          case JoinType::kLeftAnti:
            if (s.build_rows == 0) {
              b.lb = produced + std::max(0.0, probe.lb - probe_produced);
            }
            b.ub = produced + remaining_probe;
            b.ub = std::max(b.ub, b.lb);
            break;
        }
        break;
      }
      case OpKind::kMergeJoin: {
        CardBounds left = Visit(op->child(0), under_limit, -1);
        CardBounds right = Visit(op->child(1), under_limit, -1);
        if (s.finished) {
          b.lb = b.ub = produced;
          break;
        }
        b.lb = produced;
        b.ub = op->is_linear() ? std::max(left.ub, right.ub)
                               : CapMul(left.ub, right.ub);
        b.ub = std::max(b.ub, produced);
        break;
      }
      case OpKind::kSort: {
        // A sort drains its input completely before emitting its first row,
        // so an ancestor Limit cannot cut the subtree below it short.
        CardBounds c = Visit(op->child(0), /*under_limit=*/false, -1);
        if (s.finished) {
          b.lb = b.ub = produced;
        } else if (s.build_done) {
          b.lb = b.ub = static_cast<double>(s.build_rows);
        } else {
          b.lb = std::max(produced, c.lb);
          b.ub = std::max(produced, c.ub);
        }
        break;
      }
      case OpKind::kHashAggregate:
      case OpKind::kStreamAggregate: {
        // The hash aggregate's build drains its input regardless of limits;
        // a stream aggregate passes demand through, so it propagates.
        bool child_under_limit =
            op->kind() == OpKind::kStreamAggregate ? under_limit : false;
        CardBounds c = Visit(op->child(0), child_under_limit, -1);
        double groups = static_cast<double>(s.groups_so_far);
        if (s.finished) {
          b.lb = b.ub = produced;
        } else if (s.scalar_aggregate) {
          b.lb = std::max(produced, 1.0);
          b.ub = 1.0;
        } else if (s.build_done && op->kind() == OpKind::kHashAggregate) {
          b.lb = b.ub = groups;
        } else {
          // Each spilled-but-unread row may still open a fresh group, so it
          // keeps the upper bound honest even after the child is drained.
          // spill_rows_unread is a true row count; the old work-unit pending
          // counter overstated the unseen rows by the unfinished write pass.
          double unread = static_cast<double>(s.spill_rows_unread);
          b.lb = std::max(produced, groups);
          b.ub = std::min(
              CapAdd(groups + RemainingInput(op->child(0), c), unread),
              std::max(c.ub, groups));
        }
        break;
      }
    }
    return Record(op, under_limit, produced, b);
  }

 private:
  double Produced(const PhysicalOperator* op) const {
    return static_cast<double>(ctx_.rows_produced(op->node_id()));
  }

  // Rows the operator has handed to its parent. Identical to the work
  // counter except for scans, whose counter tallies examined rows.
  double ProductionOf(const PhysicalOperator* op) const {
    ProgressState st;
    op->FillProgressState(ctx_, &st);
    return static_cast<double>(st.rows_produced);
  }

  // Upper bound on the rows the parent will still receive from `child`.
  // Checkpoints fire from inside a child's Emit, so the child's counter can
  // include one row its parent has not processed yet ("in flight"); that row
  // may still expand in the parent, hence the +1 while the child is live.
  double RemainingInput(const PhysicalOperator* child,
                        const CardBounds& cb) const {
    ProgressState cs;
    child->FillProgressState(ctx_, &cs);
    // cs.rows_produced is the child's *production* (scans report emitted
    // rows here, not examined rows), matching cb's production bounds.
    double remaining =
        std::max(0.0, cb.ub - static_cast<double>(cs.rows_produced));
    if (!cs.finished) remaining += 1;
    return remaining;
  }

  CardBounds Record(const PhysicalOperator* op, bool under_limit,
                    double produced, CardBounds b) {
    if (under_limit) b.lb = produced;  // an ancestor may stop pulling
    b.lb = std::max(b.lb, produced);
    b.ub = std::max(b.ub, b.lb);
    (*out_)[static_cast<size_t>(op->node_id())] = b;
    return b;
  }

  const ExecContext& ctx_;
  std::vector<CardBounds>* out_;
};

}  // namespace

BoundsTracker::BoundsTracker(const PhysicalPlan* plan) : plan_(plan) {
  QPROG_CHECK(plan != nullptr);
}

PlanBounds BoundsTracker::Compute(const ExecContext& ctx) const {
  PlanBounds bounds;
  bounds.node_bounds.resize(plan_->num_nodes());
  Walker walker(ctx, &bounds.node_bounds);
  walker.Visit(plan_->root(), /*under_limit=*/false, /*rescan_remaining=*/-1);
  for (const PhysicalOperator* op : plan_->nodes()) {
    if (op->is_root()) continue;
    const CardBounds& b = bounds.node_bounds[static_cast<size_t>(op->node_id())];
    bounds.work_lb = CapAdd(bounds.work_lb, b.lb);
    bounds.work_ub = CapAdd(bounds.work_ub, b.ub);
  }
  // Spill passes revise total(Q) upward mid-query: work already spent on
  // spill I/O plus the guaranteed re-read of every spilled-but-unread row.
  // Unlike getnext work, spill work counts at every node including the root
  // (a spilling root sort really performs extra passes), and it lands in
  // both bounds — it is work that will happen, not work that might.
  for (const PhysicalOperator* op : plan_->nodes()) {
    ProgressState s;
    op->FillProgressState(ctx, &s);
    double spill =
        static_cast<double>(s.spill_work_done + s.spill_rows_pending);
    if (spill > 0) {
      bounds.work_lb = CapAdd(bounds.work_lb, spill);
      bounds.work_ub = CapAdd(bounds.work_ub, spill);
    }
  }
  return bounds;
}

double StaticPerPassUpperBound(const PhysicalOperator* op) {
  switch (op->kind()) {
    case OpKind::kSeqScan:
      return static_cast<double>(
          static_cast<const SeqScan*>(op)->table()->num_rows());
    case OpKind::kIndexSeek: {
      const auto* seek = static_cast<const IndexSeek*>(op);
      return static_cast<double>(seek->index()->num_entries());
    }
    case OpKind::kFilter:
    case OpKind::kProject:
    case OpKind::kSort:
      return StaticPerPassUpperBound(op->child(0));
    case OpKind::kLimit:
      return StaticPerPassUpperBound(op->child(0));
    case OpKind::kHashAggregate:
    case OpKind::kStreamAggregate:
      return std::max(1.0, StaticPerPassUpperBound(op->child(0)));
    case OpKind::kNestedLoopsJoin:
    case OpKind::kIndexNestedLoopsJoin:
    case OpKind::kHashJoin:
    case OpKind::kMergeJoin: {
      double a = StaticPerPassUpperBound(op->child(0));
      double b = StaticPerPassUpperBound(op->child(1));
      JoinType jt = JoinTypeOf(op);
      if (jt == JoinType::kLeftSemi || jt == JoinType::kLeftAnti) return a;
      if (jt == JoinType::kLeftOuter) return CapMul(a, std::max(1.0, b));
      if (op->is_linear()) return std::max(a, b);
      return CapMul(a, b);
    }
  }
  return kCap;
}

namespace {

void SumScannedLeaves(const PhysicalOperator* op, double* sum) {
  switch (op->kind()) {
    case OpKind::kSeqScan:
      *sum += static_cast<double>(
          static_cast<const SeqScan*>(op)->table()->num_rows());
      return;
    case OpKind::kIndexSeek:
      // Range-mode seeks are scanned once; count the index entries as the
      // (conservative) leaf cardinality. Equality seeks under INL joins are
      // excluded by their parent below.
      *sum += static_cast<double>(
          static_cast<const IndexSeek*>(op)->index()->num_entries());
      return;
    case OpKind::kNestedLoopsJoin:
    case OpKind::kIndexNestedLoopsJoin:
      // The inner input is probed/rescanned, not scanned exactly once.
      SumScannedLeaves(op->child(0), sum);
      return;
    default:
      for (size_t i = 0; i < op->num_children(); ++i) {
        SumScannedLeaves(op->child(i), sum);
      }
      return;
  }
}

}  // namespace

double ScannedLeafCardinality(const PhysicalPlan& plan) {
  double sum = 0;
  SumScannedLeaves(plan.root(), &sum);
  return sum;
}

}  // namespace qprog
