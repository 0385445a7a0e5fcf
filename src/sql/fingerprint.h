// Query-template fingerprinting for the admission predictor (LearnedWMP
// direction, PAPERS.md): two queries that differ only in their literal
// values share a template, and per-template telemetry from past runs
// (obs/cross_run_registry.h) is the prior for a new query's peak memory and
// work. The template is the lexed token stream with every literal replaced
// by '?' — identifiers are already lower-cased by the lexer, so the mapping
// is insensitive to case and whitespace but deliberately *not* to join
// order or predicate structure (those change the plan, and with it the
// resource profile).

#ifndef QPROG_SQL_FINGERPRINT_H_
#define QPROG_SQL_FINGERPRINT_H_

#include <cstdint>
#include <string>

#include "common/statusor.h"

namespace qprog {
namespace sql {

/// Canonical template text of `query`: tokens joined by single spaces,
/// integer/float/string literals replaced by '?'. kInvalidArgument when the
/// query does not lex (the caller decides whether that is fatal — the
/// planner will reject it anyway).
StatusOr<std::string> QueryTemplate(const std::string& query);

/// 64-bit FNV-1a of QueryTemplate(query). Queries that do not lex hash
/// their raw text instead, so every string gets *some* stable fingerprint
/// (a malformed query still reaches the planner and fails there; its
/// fingerprint only ever keys an error-count entry).
uint64_t TemplateFingerprint(const std::string& query);

}  // namespace sql
}  // namespace qprog

#endif  // QPROG_SQL_FINGERPRINT_H_
