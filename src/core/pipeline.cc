#include "core/pipeline.h"

#include "common/macros.h"
#include "common/strings.h"
#include "core/bounds.h"
#include "exec/scan.h"

namespace qprog {

namespace {

// Adds every node of `op`'s subtree to `pipeline` as a member only (no
// drivers). Used for NL/INL inner inputs, which are (re)driven by the outer
// rows rather than by their own leaves.
void AddSubtreeAsMembers(const PhysicalOperator* op, Pipeline* pipeline) {
  pipeline->members.push_back(op);
  for (size_t i = 0; i < op->num_children(); ++i) {
    AddSubtreeAsMembers(op->child(i), pipeline);
  }
}

// `current` is the index (into *out) of the pipeline `op` belongs to.
void Decompose(const PhysicalOperator* op, size_t current,
               std::vector<Pipeline>* out) {
  (*out)[current].members.push_back(op);
  switch (op->kind()) {
    case OpKind::kSeqScan:
    case OpKind::kIndexSeek:
      (*out)[current].drivers.push_back(op);
      return;
    case OpKind::kFilter:
    case OpKind::kProject:
    case OpKind::kLimit:
    case OpKind::kStreamAggregate:
      Decompose(op->child(0), current, out);
      return;
    case OpKind::kSort:
    case OpKind::kHashAggregate: {
      // Blocking: this node is the source (driver) feeding the current
      // pipeline; its input subtree forms a fresh pipeline.
      (*out)[current].drivers.push_back(op);
      out->push_back(Pipeline{});
      Decompose(op->child(0), out->size() - 1, out);
      return;
    }
    case OpKind::kHashJoin: {
      // Probe side streams through this pipeline; build side is blocking.
      out->push_back(Pipeline{});
      size_t build_pipeline = out->size() - 1;
      Decompose(op->child(1), build_pipeline, out);
      Decompose(op->child(0), current, out);
      return;
    }
    case OpKind::kMergeJoin:
      // Both inputs stream; a two-driver pipeline (paper footnote 1).
      Decompose(op->child(0), current, out);
      Decompose(op->child(1), current, out);
      return;
    case OpKind::kNestedLoopsJoin:
    case OpKind::kIndexNestedLoopsJoin:
      Decompose(op->child(0), current, out);
      AddSubtreeAsMembers(op->child(1), &(*out)[current]);
      return;
  }
}

}  // namespace

std::vector<Pipeline> DecomposePipelines(const PhysicalPlan& plan) {
  std::vector<Pipeline> pipelines;
  pipelines.push_back(Pipeline{});
  Decompose(plan.root(), 0, &pipelines);
  return pipelines;
}

DriverStatus ComputeDriverStatus(const PhysicalOperator* driver,
                                 const ExecContext& ctx) {
  DriverStatus status;
  status.node = driver;
  ProgressState s;
  driver->FillProgressState(ctx, &s);

  if (driver->kind() == OpKind::kSeqScan) {
    // "Fraction of the tuples read at the input node" (Definition 1): for a
    // scan the natural measure is rows examined over the (exactly known)
    // table cardinality, predicate or not.
    status.rows_done = static_cast<double>(s.input_examined);
    status.rows_total = static_cast<double>(s.base_rows);
    status.total_exact = true;
    return status;
  }

  status.rows_done = static_cast<double>(s.rows_produced);
  if (s.finished) {
    status.rows_total = static_cast<double>(s.rows_produced);
    status.total_exact = true;
  } else if (s.scalar_aggregate) {
    // A grouping-free aggregate produces exactly one row, knowable a priori.
    status.rows_total = 1;
    status.total_exact = true;
  } else if (s.build_done &&
             (driver->kind() == OpKind::kSort ||
              driver->kind() == OpKind::kHashAggregate)) {
    status.rows_total =
        static_cast<double>(driver->kind() == OpKind::kHashAggregate
                                ? s.groups_so_far
                                : s.build_rows);
    status.total_exact = true;
  } else if (s.exact_total >= 0) {
    status.rows_total = s.exact_total;
    status.total_exact = true;
  } else if (driver->estimated_rows() >= 0) {
    status.rows_total = std::max(driver->estimated_rows(), status.rows_done);
  } else if (s.base_rows > 0) {
    status.rows_total =
        std::max(static_cast<double>(s.base_rows), status.rows_done);
  } else {
    status.rows_total =
        std::max(StaticPerPassUpperBound(driver), status.rows_done);
  }
  if (status.rows_total <= 0) status.rows_total = 1;
  return status;
}

std::string PipelinesToString(const std::vector<Pipeline>& pipelines) {
  std::string out;
  for (size_t i = 0; i < pipelines.size(); ++i) {
    out += StringPrintf("pipeline %zu: drivers={", i);
    std::vector<std::string> names;
    for (const PhysicalOperator* d : pipelines[i].drivers) {
      names.push_back(StringPrintf("#%d %s", d->node_id(), d->label().c_str()));
    }
    out += JoinStrings(names, ", ") + "} members={";
    names.clear();
    for (const PhysicalOperator* m : pipelines[i].members) {
      names.push_back(StringPrintf("#%d", m->node_id()));
    }
    out += JoinStrings(names, ",") + "}\n";
  }
  return out;
}

}  // namespace qprog
