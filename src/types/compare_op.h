// Comparison operators shared by the expression layer, the SQL frontend and
// the statistics/selectivity machinery.

#ifndef QPROG_TYPES_COMPARE_OP_H_
#define QPROG_TYPES_COMPARE_OP_H_

namespace qprog {

enum class CompareOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
};

/// "=", "<>", "<", "<=", ">", ">=".
const char* CompareOpToString(CompareOp op);

/// Applies `op` to a three-way comparison result (negative/zero/positive).
/// Inline: scans apply it to every row a compiled predicate tests.
inline bool EvalCompareOp(CompareOp op, int cmp) {
  switch (op) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kNe:
      return cmp != 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
  }
  return false;
}

}  // namespace qprog

#endif  // QPROG_TYPES_COMPARE_OP_H_
