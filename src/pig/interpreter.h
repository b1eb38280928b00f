#ifndef LIPSTICK_PIG_INTERPRETER_H_
#define LIPSTICK_PIG_INTERPRETER_H_

#include <functional>
#include <map>
#include <optional>
#include <string>

#include "common/result.h"
#include "common/timer.h"
#include "pig/ast.h"
#include "pig/udf.h"
#include "provenance/graph.h"
#include "relational/value.h"

namespace lipstick::pig {

/// Name -> relation binding environment for program execution. Statements
/// rebind their target name; rebinding an existing name is allowed (used
/// e.g. for accumulating state: `R = UNION R, New;`).
class Environment {
 public:
  void Bind(const std::string& name, Relation relation) {
    relations_[name] = std::move(relation);
  }
  Result<const Relation*> Lookup(const std::string& name) const;
  /// The relation bound to `name`, for moving its bag out; null if unbound.
  Relation* MutableLookup(const std::string& name) {
    auto it = relations_.find(name);
    return it == relations_.end() ? nullptr : &it->second;
  }
  bool Contains(const std::string& name) const {
    return relations_.count(name) > 0;
  }
  const std::map<std::string, Relation>& relations() const {
    return relations_;
  }

 private:
  std::map<std::string, Relation> relations_;
};

/// Interprets Pig Latin programs over annotated nested relations, with
/// optional fine-grained provenance tracking.
///
/// When a ShardWriter is supplied, every operator emits provenance-graph
/// structure per Section 3.2 of the paper:
///   FOREACH (projection)  -> + node per output tuple
///   JOIN / CROSS          -> · node joining the source tuples
///   GROUP / COGROUP       -> δ node over the group members
///   DISTINCT              -> δ node over the equal tuples
///   FOREACH (aggregation) -> aggregate v-node fed by ⊗ pairs
///   FOREACH (UDF)         -> black-box node labeled with the function
///   FLATTEN               -> joint (·-style) dependence on outer + inner
///   FILTER / UNION / ORDER / LIMIT -> annotations pass through
class Interpreter {
 public:
  explicit Interpreter(const UdfRegistry* udfs) : udfs_(udfs) {}

  /// Executes all statements, binding each target into `env`. If `writer`
  /// is non-null, provenance is recorded into its graph. If `deadline` is
  /// non-null, execution stops with kDeadlineExceeded once it expires
  /// (checked between statements — a cooperative, not preemptive, budget).
  Status Run(const Program& program, Environment* env, ShardWriter* writer,
             const Deadline* deadline = nullptr) const;

  /// Executes one statement and returns the produced relation (also bound
  /// into `env`). Consults the global FaultInjector at the "pig.statement"
  /// failure point (key = target relation) before evaluating.
  Result<const Relation*> RunStatement(const Statement& stmt,
                                       Environment* env,
                                       ShardWriter* writer) const;

 private:
  const UdfRegistry* udfs_;
};

/// Static semantic analysis: infers the schema of every statement target
/// given the schemas of the free input relations. Detects unknown
/// relations/fields and type errors without executing. Returns the map of
/// all bound names (inputs included).
Result<std::map<std::string, SchemaPtr>> AnalyzeProgram(
    const Program& program, std::map<std::string, SchemaPtr> schemas,
    const UdfRegistry* udfs);

/// The rule an expression type error breaks.
enum class ExprErrorKind : uint8_t {
  kUnknownField,     // a field or Bag.field name does not resolve
  kOperandType,      // an operator over operands of the wrong type
  kUnknownFunction,  // neither a built-in aggregate nor a registered UDF
  kBadCall,          // aggregate/UDF arity or argument-type error
  kPositionalRange,  // $n past the last field
};

/// One type error found by CheckExprType.
struct ExprError {
  ExprErrorKind kind;
  StatusCode code;  // kNotFound (field), the UDF's own code, or kTypeError
  SourceLoc loc;
  std::string message;
  std::string note;  // context for a diagnostic (may be empty)
};

using ExprErrorFn = std::function<void(ExprError)>;

/// `expr` bound to one input schema: field names resolved to columns,
/// aggregate names to an operator, UDF names to registry entries. The
/// interpreter evaluates only this form (defined in interpreter.cc).
struct BoundExpr;

/// Infers the result type of `expr` against tuples of `schema`, reporting
/// every type error to `on_error` and going on past it: both operands of a
/// binary operator are checked even when the first one fails. A failed
/// subexpression yields nullopt, which suppresses the checks that depend on
/// its type. When `bound` is non-null the same walk emits the bound form
/// into it; it is meaningful only when a type is returned.
std::optional<FieldType> CheckExprType(const Expr& expr, const Schema& schema,
                                       const UdfRegistry* udfs,
                                       const ExprErrorFn& on_error,
                                       BoundExpr* bound = nullptr);

/// CheckExprType that fails with the first error. Its message carries the
/// "line L:C: " prefix, except for a field that does not resolve.
Result<FieldType> InferExprType(const Expr& expr, const Schema& schema,
                                const UdfRegistry* udfs,
                                BoundExpr* bound = nullptr);

/// True if `name` is one of the built-in aggregates COUNT/SUM/MIN/MAX/AVG.
bool IsAggregateFunction(const std::string& name);

}  // namespace lipstick::pig

#endif  // LIPSTICK_PIG_INTERPRETER_H_
