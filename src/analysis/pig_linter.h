#ifndef LIPSTICK_ANALYSIS_PIG_LINTER_H_
#define LIPSTICK_ANALYSIS_PIG_LINTER_H_

#include <map>
#include <set>
#include <string>

#include "analysis/diagnostics.h"
#include "pig/ast.h"
#include "pig/udf.h"
#include "relational/schema.h"

namespace lipstick::analysis {

/// Configuration for one LintProgram pass.
struct PigLintOptions {
  /// Relations bound before the program runs (module inputs and state),
  /// name -> schema. These may be read and rebound freely.
  std::map<std::string, SchemaPtr> env;

  /// Names whose final binding is consumed by the caller (module outputs,
  /// state relations): they are exempt from the unused-alias check.
  std::set<std::string> required_outputs;

  const pig::UdfRegistry* udfs = nullptr;

  /// Prefix for messages, e.g. "Qout of module stats: " (may be empty).
  std::string context;
};

/// Pre-execution semantic lint of a Pig Latin program: nested-schema type
/// inference over every statement plus use/def bookkeeping the engine does
/// not track. Schemas come from the interpreter run over empty relations
/// and expression types from the interpreter's own checker
/// (pig::CheckExprType), so the linter can never disagree with execution.
/// Unlike pig::AnalyzeProgram, the linter recovers after an error: a
/// statement with an undefined source poisons its target instead of
/// aborting, so one mistake yields one diagnostic.
///
/// Diagnostic codes:
///   L0101  reference to an alias that is never bound           (error)
///   L0102  rebinding an alias whose previous value was unread  (warning)
///   L0103  unknown or ambiguous field name                     (error)
///   L0104  operator type mismatch (arith/logic/compare/cond)   (error)
///   L0105  call to an unknown function                         (error)
///   L0106  aggregate/UDF arity or argument-type error          (error)
///   L0107  alias bound but never used                          (warning)
///   L0108  positional reference $n out of range                (error)
///   L0109  duplicate field alias in a GENERATE list            (warning)
///   L0110  statement rejected by schema inference (other)      (error)
void LintProgram(const pig::Program& program, const PigLintOptions& options,
                 DiagnosticSink* sink);

}  // namespace lipstick::analysis

#endif  // LIPSTICK_ANALYSIS_PIG_LINTER_H_
