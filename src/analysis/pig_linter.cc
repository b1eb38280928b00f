#include "analysis/pig_linter.h"

#include <optional>
#include <vector>

#include "common/str_util.h"
#include "pig/interpreter.h"

namespace lipstick::analysis {

namespace {

using pig::Expr;
using pig::Statement;
using pig::StatementKind;

/// Diagnostic code of each kind of expression type error.
const char* ExprErrorCode(pig::ExprErrorKind kind) {
  switch (kind) {
    case pig::ExprErrorKind::kUnknownField:
      return "L0103";
    case pig::ExprErrorKind::kOperandType:
      return "L0104";
    case pig::ExprErrorKind::kUnknownFunction:
      return "L0105";
    case pig::ExprErrorKind::kBadCall:
      return "L0106";
    case pig::ExprErrorKind::kPositionalRange:
      return "L0108";
  }
  return "L0104";
}

struct BindInfo {
  SourceLoc loc;
  bool used_since = false;
};

class Linter {
 public:
  Linter(const PigLintOptions& options, DiagnosticSink* sink)
      : options_(options), sink_(sink), interp_(options.udfs) {
    for (const auto& [name, schema] : options.env) {
      env_.Bind(name, Relation(name, schema));
    }
  }

  void Run(const pig::Program& program) {
    for (const Statement& stmt : program.statements) {
      LintStatement(stmt);
    }
    // Final sweep: aliases whose last binding was never read and is not
    // consumed by the caller.
    for (const auto& [name, bind] : binds_) {
      if (bind.used_since || options_.required_outputs.count(name)) continue;
      Warn("L0107", bind.loc, StrCat("alias '", name, "' is never used"),
           "it is not an output or state relation; drop the statement or "
           "consume the alias");
    }
  }

 private:
  void Report(const char* code, Severity severity, SourceLoc loc,
              std::string message, std::string note = "") {
    sink_->Report(code, severity, loc, options_.context + std::move(message),
                  std::move(note));
  }
  void Error(const char* code, SourceLoc loc, std::string message,
             std::string note = "") {
    Report(code, Severity::kError, loc, std::move(message), std::move(note));
  }
  void Warn(const char* code, SourceLoc loc, std::string message,
            std::string note = "") {
    Report(code, Severity::kWarning, loc, std::move(message),
           std::move(note));
  }

  bool Known(const std::string& name) const { return env_.Contains(name); }

  const Schema* SchemaOf(const std::string& name) const {
    auto rel = env_.Lookup(name);
    return rel.ok() ? (*rel)->schema.get() : nullptr;
  }

  /// Registers a read of `name` at `loc`. Returns true if its schema is
  /// available for expression checking.
  bool ReadAlias(const std::string& name, SourceLoc loc) {
    if (auto it = binds_.find(name); it != binds_.end()) {
      it->second.used_since = true;
    }
    if (Known(name)) return true;
    if (!poisoned_.count(name)) {
      Error("L0101", loc, StrCat("undefined alias '", name, "'"),
            "it is not a module input/state relation and no earlier "
            "statement binds it");
      // Poison so later readers of the same name stay quiet.
      poisoned_.insert(name);
    }
    return false;
  }

  /// Registers the binding of `target` by the statement at `loc`.
  void BindAlias(const std::string& target, SourceLoc loc) {
    auto it = binds_.find(target);
    if (it != binds_.end() && !it->second.used_since) {
      Warn("L0102", loc,
           StrCat("alias '", target, "' is rebound but its previous value "
                  "was never read"),
           StrCat("previous binding at ", it->second.loc.ToString(),
                  " is dead"));
    }
    binds_[target] = BindInfo{loc, false};
  }

  /// Type-checks `expr` with the interpreter's own checker and reports
  /// each error as a diagnostic. Nullopt when the type is unknown.
  std::optional<FieldType> CheckExpr(const Expr& expr, const Schema& schema) {
    return pig::CheckExprType(expr, schema, options_.udfs,
                              [this](pig::ExprError e) {
                                Error(ExprErrorCode(e.kind), e.loc,
                                      std::move(e.message), std::move(e.note));
                              });
  }

  /// ------------------------ statement checking ------------------------

  void LintStatement(const Statement& stmt) {
    // 1. Register reads (before the bind, so `S = UNION S, In;` counts as
    //    a use of the previous S) and find out whether every source
    //    relation has a usable schema.
    bool sources_ok = true;
    std::vector<std::string> sources = stmt.inputs;
    for (const pig::ByClause& by : stmt.by_clauses) {
      sources.push_back(by.relation);
    }
    for (const std::string& name : sources) {
      sources_ok = ReadAlias(name, stmt.loc) && sources_ok;
    }

    // 2. Expression-level checks against the source schemas.
    size_t before = sink_->size();
    if (sources_ok) LintStatementExprs(stmt);
    bool reported = sink_->size() > before;

    // 3. Schema propagation: run the statement over empty relations using
    //    the engine's own interpreter (the authority on schema rules). On
    //    failure the target is poisoned, and a generic L0110 is emitted
    //    unless a more specific diagnostic already covers the statement.
    std::vector<std::string> targets;
    if (stmt.kind == StatementKind::kSplit) {
      for (const auto& [name, cond] : stmt.split_targets) {
        targets.push_back(name);
      }
    } else {
      targets.push_back(stmt.target);
    }
    bool bound = false;
    if (sources_ok) {
      Result<const Relation*> result =
          interp_.RunStatement(stmt, &env_, nullptr);
      if (result.ok()) {
        bound = true;
      } else if (!reported) {
        Error("L0110", stmt.loc, result.status().message());
      }
    }
    for (const std::string& target : targets) {
      BindAlias(target, stmt.loc);
      if (!bound) poisoned_.insert(target);
      else poisoned_.erase(target);
    }
  }

  void LintStatementExprs(const Statement& stmt) {
    switch (stmt.kind) {
      case StatementKind::kForEach: {
        const Schema* schema = SchemaOf(stmt.inputs[0]);
        if (schema == nullptr) return;
        std::map<std::string, SourceLoc> aliases;
        for (const pig::GenItem& item : stmt.gen_items) {
          CheckExpr(*item.expr, *schema);
          if (item.alias.empty()) continue;
          auto [it, inserted] = aliases.emplace(item.alias, item.expr->loc);
          if (!inserted) {
            Warn("L0109", item.expr->loc,
                 StrCat("duplicate field alias '", item.alias,
                        "' in GENERATE list"),
                 StrCat("first defined at ", it->second.ToString()));
          }
        }
        break;
      }
      case StatementKind::kFilter: {
        const Schema* schema = SchemaOf(stmt.inputs[0]);
        if (schema == nullptr || stmt.condition == nullptr) return;
        std::optional<FieldType> t = CheckExpr(*stmt.condition, *schema);
        if (t && t->kind() != FieldType::Kind::kBool) {
          Error("L0104", stmt.condition->loc,
                "FILTER condition must be boolean",
                StrCat("condition has type ", t->ToString()));
        }
        break;
      }
      case StatementKind::kGroup:
      case StatementKind::kCogroup:
      case StatementKind::kJoin: {
        for (const pig::ByClause& by : stmt.by_clauses) {
          const Schema* schema = SchemaOf(by.relation);
          if (schema == nullptr) continue;
          for (const pig::ExprPtr& key : by.keys) {
            CheckExpr(*key, *schema);
          }
        }
        break;
      }
      case StatementKind::kOrderBy: {
        const Schema* schema = SchemaOf(stmt.inputs[0]);
        if (schema == nullptr) return;
        for (const pig::OrderKey& key : stmt.order_keys) {
          if (!schema->FindField(key.field)) {
            Error("L0103", stmt.loc,
                  StrCat("unknown or ambiguous field '", key.field,
                         "' in ORDER BY"),
                  StrCat("available fields: ", schema->ToString()));
          }
        }
        break;
      }
      case StatementKind::kSplit: {
        const Schema* schema = SchemaOf(stmt.inputs[0]);
        if (schema == nullptr) return;
        for (const auto& [name, cond] : stmt.split_targets) {
          std::optional<FieldType> t = CheckExpr(*cond, *schema);
          if (t && t->kind() != FieldType::Kind::kBool) {
            Error("L0104", cond->loc,
                  StrCat("SPLIT condition for '", name, "' must be boolean"),
                  StrCat("condition has type ", t->ToString()));
          }
        }
        break;
      }
      case StatementKind::kCross:
      case StatementKind::kUnion:
      case StatementKind::kDistinct:
      case StatementKind::kLimit:
      case StatementKind::kAlias:
        break;  // no embedded expressions
    }
  }

  const PigLintOptions& options_;
  DiagnosticSink* sink_;
  pig::Interpreter interp_;
  pig::Environment env_;                  // empty relations, schema truth
  std::set<std::string> poisoned_;        // bound, but schema unknown
  std::map<std::string, BindInfo> binds_; // statement-bound aliases
};

}  // namespace

void LintProgram(const pig::Program& program, const PigLintOptions& options,
                 DiagnosticSink* sink) {
  Linter linter(options, sink);
  linter.Run(program);
}

}  // namespace lipstick::analysis
