#include "pig/interpreter.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <unordered_map>

#include "common/fault.h"
#include "common/str_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lipstick::pig {

namespace {

Status ExecErr(const SourceLoc& loc, const std::string& msg) {
  return Status::ExecutionError(
      StrCat("line ", loc.line, ":", loc.column, ": ", msg));
}

Status TypeErr(const SourceLoc& loc, const std::string& msg) {
  return Status::TypeError(
      StrCat("line ", loc.line, ":", loc.column, ": ", msg));
}

/// Unqualified tail of a possibly "A::B::f"-qualified name.
std::string Unqualify(const std::string& name) {
  size_t pos = name.rfind("::");
  return pos == std::string::npos ? name : name.substr(pos + 2);
}

/// Hashable key wrapper for grouping / joining on evaluated key values.
struct ValueVec {
  std::vector<Value> values;

  bool operator==(const ValueVec& other) const {
    if (values.size() != other.values.size()) return false;
    for (size_t i = 0; i < values.size(); ++i) {
      if (!values[i].Equals(other.values[i])) return false;
    }
    return true;
  }
};

struct ValueVecHash {
  size_t operator()(const ValueVec& key) const {
    size_t h = 0x9e3779b9;
    for (const Value& v : key.values) {
      h ^= v.Hash() + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    }
    return h;
  }
};

}  // namespace

/// An expression bound by CheckExprType. Evaluating it per tuple does no
/// name work: columns, the aggregate operator and the UDF entry were found
/// once, when the statement started. `expr` is the source node, which still
/// supplies the literal, the operator, and the location and name that
/// messages quote.
struct BoundExpr {
  enum class Op : uint8_t {
    kConst,
    kColumn,      // a named field or $n
    kBagProject,  // Bag.field
    kUnary,
    kBinary,
    kAggregate,
    kUdf,
  };
  enum class Aggregate : uint8_t { kCount, kSum, kMin, kMax, kAvg };

  const Expr* expr = nullptr;
  Op op = Op::kConst;
  Aggregate aggregate = Aggregate::kCount;  // kAggregate
  size_t column = 0;      // kColumn; kBagProject: the bag
  size_t sub_column = 0;  // kBagProject: the projected field of the bag
  const UdfEntry* udf = nullptr;  // kUdf
  std::string udf_name;  // kUdf: lower-cased; the pig.udf fault key and
                         // the black-box label
  std::vector<BoundExpr> children;
};

namespace {

/// Each aggregate's name, in BoundExpr::Aggregate order; also the payload
/// of its graph node.
constexpr const char* kAggregateNames[] = {"COUNT", "SUM", "MIN", "MAX",
                                           "AVG"};

/// The built-in aggregate that `name` names, case-insensitively.
std::optional<BoundExpr::Aggregate> AggregateOf(const std::string& name) {
  std::string upper = ToUpper(name);
  for (size_t i = 0; i < std::size(kAggregateNames); ++i) {
    if (upper == kAggregateNames[i]) {
      return static_cast<BoundExpr::Aggregate>(i);
    }
  }
  return std::nullopt;
}

}  // namespace

bool IsAggregateFunction(const std::string& name) {
  return AggregateOf(name).has_value();
}

/// ------------------------- type inference ------------------------------

std::optional<FieldType> CheckExprType(const Expr& expr, const Schema& schema,
                                       const UdfRegistry* udfs,
                                       const ExprErrorFn& on_error,
                                       BoundExpr* bound) {
  // Reports one error at `expr`; notes are built only on this path.
  auto fail = [&](ExprErrorKind kind, std::string message,
                  std::string note = "",
                  StatusCode code = StatusCode::kTypeError) {
    on_error(ExprError{kind, code, expr.loc, std::move(message),
                       std::move(note)});
    return std::nullopt;
  };
  if (bound != nullptr) {
    bound->expr = &expr;
    bound->children.resize(expr.children.size());
  }
  // Records the bound operator; a no-op when not binding.
  auto bind = [bound](BoundExpr::Op op) {
    if (bound != nullptr) bound->op = op;
    return bound;
  };
  // Checks child `i`, binding it into the same child of `bound`.
  auto check = [&](size_t i) {
    return CheckExprType(*expr.children[i], schema, udfs, on_error,
                         bound != nullptr ? &bound->children[i] : nullptr);
  };
  switch (expr.kind) {
    case ExprKind::kConst: {
      bind(BoundExpr::Op::kConst);
      const Value& v = expr.literal;
      if (v.is_bool()) return FieldType::Bool();
      if (v.is_int()) return FieldType::Int();
      if (v.is_double()) return FieldType::Double();
      return FieldType::String();  // strings and null literals
    }
    case ExprKind::kFieldRef: {
      Result<size_t> idx = schema.ResolveField(expr.name);
      if (!idx.ok()) {
        return fail(ExprErrorKind::kUnknownField, idx.status().message(),
                    StrCat("available fields: ", schema.ToString()),
                    idx.status().code());
      }
      if (BoundExpr* b = bind(BoundExpr::Op::kColumn)) b->column = *idx;
      return schema.field(*idx).type;
    }
    case ExprKind::kPositional: {
      if (expr.position < 0 ||
          static_cast<size_t>(expr.position) >= schema.num_fields()) {
        return fail(ExprErrorKind::kPositionalRange,
                    StrCat("positional reference $", expr.position,
                           " out of range"),
                    StrCat("the input has ", schema.num_fields(),
                           " field(s): ", schema.ToString()));
      }
      if (BoundExpr* b = bind(BoundExpr::Op::kColumn)) {
        b->column = static_cast<size_t>(expr.position);
      }
      return schema.field(expr.position).type;
    }
    case ExprKind::kBagProject: {
      Result<size_t> idx = schema.ResolveField(expr.name);
      if (!idx.ok()) {
        return fail(ExprErrorKind::kUnknownField, idx.status().message(),
                    StrCat("available fields: ", schema.ToString()),
                    idx.status().code());
      }
      const FieldType& bag_type = schema.field(*idx).type;
      if (bag_type.kind() != FieldType::Kind::kBag || !bag_type.nested()) {
        return fail(ExprErrorKind::kOperandType,
                    StrCat("'", expr.name, "' is not a bag field"),
                    "Bag.field projection needs a bag-valued operand");
      }
      Result<size_t> sub = bag_type.nested()->ResolveField(expr.sub_name);
      if (!sub.ok()) {
        return fail(ExprErrorKind::kUnknownField, sub.status().message(),
                    StrCat("fields of bag '", expr.name,
                           "': ", bag_type.nested()->ToString()),
                    sub.status().code());
      }
      if (BoundExpr* b = bind(BoundExpr::Op::kBagProject)) {
        b->column = *idx;
        b->sub_column = *sub;
      }
      return FieldType::Bag(Schema::Make(
          {Field(expr.sub_name, bag_type.nested()->field(*sub).type)}));
    }
    case ExprKind::kUnaryOp: {
      bind(BoundExpr::Op::kUnary);
      std::optional<FieldType> t = check(0);
      if (!t) return std::nullopt;
      if (expr.un_op == UnOp::kIsNull || expr.un_op == UnOp::kIsNotNull) {
        if (!t->is_scalar()) {
          return fail(ExprErrorKind::kOperandType,
                      "IS NULL requires a scalar operand");
        }
        return FieldType::Bool();
      }
      if (expr.un_op == UnOp::kNot) {
        if (t->kind() != FieldType::Kind::kBool) {
          return fail(ExprErrorKind::kOperandType,
                      "NOT requires a boolean operand",
                      StrCat("operand has type ", t->ToString()));
        }
        return FieldType::Bool();
      }
      if (!t->is_numeric()) {
        return fail(ExprErrorKind::kOperandType,
                    "unary '-' requires a numeric operand",
                    StrCat("operand has type ", t->ToString()));
      }
      return t;
    }
    case ExprKind::kBinaryOp: {
      bind(BoundExpr::Op::kBinary);
      std::optional<FieldType> lt = check(0);
      std::optional<FieldType> rt = check(1);
      if (!lt || !rt) return std::nullopt;
      const char* problem;
      switch (expr.bin_op) {
        case BinOp::kAdd:
        case BinOp::kSub:
        case BinOp::kMul:
        case BinOp::kDiv:
          if (lt->is_numeric() && rt->is_numeric()) {
            // Pig semantics: int op int stays int (including '/').
            if (lt->kind() == FieldType::Kind::kDouble ||
                rt->kind() == FieldType::Kind::kDouble) {
              return FieldType::Double();
            }
            return FieldType::Int();
          }
          problem = "arithmetic requires numeric operands";
          break;
        case BinOp::kMod:
          if (lt->kind() == FieldType::Kind::kInt &&
              rt->kind() == FieldType::Kind::kInt) {
            return FieldType::Int();
          }
          problem = "'%' requires integer operands";
          break;
        case BinOp::kAnd:
        case BinOp::kOr:
          if (lt->kind() == FieldType::Kind::kBool &&
              rt->kind() == FieldType::Kind::kBool) {
            return FieldType::Bool();
          }
          problem = "AND/OR require boolean operands";
          break;
        default:  // comparisons
          if (lt->is_scalar() && rt->is_scalar()) return FieldType::Bool();
          problem = "comparisons require scalar operands";
      }
      return fail(ExprErrorKind::kOperandType, problem,
                  StrCat("operands have types ", lt->ToString(), " and ",
                         rt->ToString()));
    }
    case ExprKind::kFuncCall: {
      if (std::optional<BoundExpr::Aggregate> agg = AggregateOf(expr.name)) {
        if (BoundExpr* b = bind(BoundExpr::Op::kAggregate)) {
          b->aggregate = *agg;
        }
        if (expr.children.size() != 1) {
          return fail(ExprErrorKind::kBadCall,
                      StrCat(expr.name, " takes exactly one argument, got ",
                             expr.children.size()));
        }
        std::optional<FieldType> arg = check(0);
        if (!arg) return std::nullopt;
        if (arg->kind() != FieldType::Kind::kBag || !arg->nested()) {
          return fail(ExprErrorKind::kBadCall,
                      StrCat(expr.name, " requires a bag argument"),
                      StrCat("argument has type ", arg->ToString(),
                             "; aggregates run after GROUP"));
        }
        if (*agg == BoundExpr::Aggregate::kCount) return FieldType::Int();
        if (*agg == BoundExpr::Aggregate::kAvg) return FieldType::Double();
        if (arg->nested()->num_fields() != 1) {
          return fail(ExprErrorKind::kBadCall,
                      StrCat(expr.name, " requires a single-attribute bag "
                                        "(use Bag.field)"));
        }
        const FieldType& elem = arg->nested()->field(0).type;
        if (!elem.is_numeric()) {
          return fail(ExprErrorKind::kBadCall,
                      StrCat(expr.name, " requires numeric values"),
                      StrCat("bag elements have type ", elem.ToString()));
        }
        return elem;
      }
      const UdfEntry* udf = udfs ? udfs->Lookup(expr.name) : nullptr;
      if (udf == nullptr) {
        return fail(ExprErrorKind::kUnknownFunction,
                    StrCat("unknown function '", expr.name, "'"),
                    "not a built-in aggregate and not in the UDF registry");
      }
      if (BoundExpr* b = bind(BoundExpr::Op::kUdf)) {
        b->udf = udf;
        b->udf_name = ToLower(expr.name);
      }
      std::vector<FieldType> arg_types;
      for (size_t i = 0; i < expr.children.size(); ++i) {
        std::optional<FieldType> t = check(i);
        if (!t) return std::nullopt;
        arg_types.push_back(std::move(*t));
      }
      Result<FieldType> ret = udf->return_type(arg_types);
      if (!ret.ok()) {
        return fail(ExprErrorKind::kBadCall,
                    StrCat("bad call to UDF '", expr.name,
                           "': ", ret.status().message()),
                    "", ret.status().code());
      }
      return std::move(ret).value();
    }
  }
  return fail(ExprErrorKind::kOperandType, "unhandled expression kind", "",
              StatusCode::kInternal);
}

Result<FieldType> InferExprType(const Expr& expr, const Schema& schema,
                                const UdfRegistry* udfs, BoundExpr* bound) {
  Status first;
  std::optional<FieldType> type = CheckExprType(
      expr, schema, udfs,
      [&first](ExprError e) {
        if (!first.ok()) return;
        first = Status(e.code, e.kind == ExprErrorKind::kUnknownField
                                   ? std::move(e.message)
                                   : StrCat("line ", e.loc.line, ":",
                                            e.loc.column, ": ", e.message));
      },
      bound);
  if (!type) return first;
  return *std::move(type);
}

/// --------------------------- evaluation --------------------------------

namespace {

struct EvalContext {
  const Tuple* tuple = nullptr;
  ProvAnnotation annot = kNoProvenance;
  ShardWriter* writer = nullptr;           // null -> no tracking
  std::vector<NodeId>* specials = nullptr; // agg/BB nodes for this tuple
};

void AddSpecial(EvalContext& ctx, NodeId node) {
  if (ctx.specials != nullptr) ctx.specials->push_back(node);
}

/// Evaluates `e` against the context's tuple. A column or a constant is
/// returned in place; any other result is computed into `*scratch`.
Result<const Value*> Eval(const BoundExpr& e, EvalContext& ctx,
                          Value* scratch);

/// Eval that leaves the result in `*out`.
Status EvalTo(const BoundExpr& e, EvalContext& ctx, Value* out) {
  LIPSTICK_ASSIGN_OR_RETURN(const Value* v, Eval(e, ctx, out));
  if (v != out) *out = *v;
  return Status::OK();
}

Result<const Value*> EvalAggregate(const BoundExpr& e, EvalContext& ctx,
                                   Value* scratch) {
  using Agg = BoundExpr::Aggregate;
  const Expr& expr = *e.expr;
  Value arg_value;
  LIPSTICK_ASSIGN_OR_RETURN(const Value* arg,
                            Eval(e.children[0], ctx, &arg_value));
  if (!arg->is_bag()) {
    return ExecErr(expr.loc, StrCat(expr.name, " requires a bag argument"));
  }
  const Bag& bag = *arg->bag();

  Value result;
  if (e.aggregate == Agg::kCount) {
    result = Value::Int(static_cast<int64_t>(bag.size()));
  } else {
    // Single-attribute bags: aggregate field 0. Nulls are skipped, so an
    // all-null bag sums to 0 and has no minimum, maximum or average.
    bool all_int = true;
    double dsum = 0;
    int64_t isum = 0;
    size_t non_null = 0;
    const Value* best = nullptr;
    for (const AnnotatedTuple& t : bag) {
      if (t.tuple.size() != 1) {
        return ExecErr(expr.loc,
                       StrCat(expr.name, " requires single-attribute tuples"));
      }
      const Value& v = t.tuple.at(0);
      if (v.is_null()) continue;
      if (!v.is_numeric()) {
        return ExecErr(expr.loc, StrCat(expr.name, " over non-numeric value"));
      }
      ++non_null;
      if (v.is_double()) all_int = false;
      dsum += v.AsDouble();
      if (v.is_int()) isum += v.int_value();
      if (e.aggregate == Agg::kMin && (best == nullptr || v.Compare(*best) < 0)) {
        best = &v;
      }
      if (e.aggregate == Agg::kMax && (best == nullptr || v.Compare(*best) > 0)) {
        best = &v;
      }
    }
    if (e.aggregate == Agg::kSum) {
      result = all_int ? Value::Int(isum) : Value::Double(dsum);
    } else if (e.aggregate == Agg::kAvg) {
      result = non_null == 0
                   ? Value::Null()
                   : Value::Double(dsum / static_cast<double>(non_null));
    } else {
      result = best == nullptr ? Value::Null() : *best;
    }
  }

  if (ctx.writer != nullptr) {
    // Provenance (Section 3.2, FOREACH-aggregation): the aggregate result
    // is a v-node; each contributing tuple feeds it through a ⊗ v-node
    // pairing the aggregated value with the tuple's provenance. COUNT uses
    // the paper's simplified construction with direct tuple edges.
    std::vector<NodeId> parents;
    for (const AnnotatedTuple& t : bag) {
      if (t.annot == kNoProvenance) continue;
      NodeId tannot = ctx.writer->ResolveParent(t.annot);
      if (e.aggregate == Agg::kCount) {
        parents.push_back(tannot);
      } else {
        NodeId vnode = ctx.writer->ConstValue(t.tuple.at(0));
        parents.push_back(ctx.writer->Tensor(vnode, tannot));
      }
    }
    if (parents.empty() && ctx.annot != kNoProvenance) {
      // Empty group: the (zero/null) aggregate derives from the group tuple.
      parents.push_back(ctx.writer->ResolveParent(ctx.annot));
    }
    NodeId agg = ctx.writer->Aggregate(
        kAggregateNames[static_cast<size_t>(e.aggregate)], std::move(parents),
        result);
    AddSpecial(ctx, agg);
  }
  *scratch = std::move(result);
  return scratch;
}

Result<const Value*> EvalUdf(const BoundExpr& e, EvalContext& ctx,
                             Value* scratch) {
  const Expr& expr = *e.expr;
  // UDFs are external black boxes — the boundary most likely to fail in a
  // real deployment, and the one tests inject failures into.
  Status fault = FaultInjector::Fire("pig.udf", e.udf_name);
  if (!fault.ok()) {
    return fault.WithContext(
        StrCat("UDF ", expr.name, " at line ", expr.loc.line));
  }
  std::vector<Value> args(e.children.size());
  for (size_t i = 0; i < e.children.size(); ++i) {
    LIPSTICK_RETURN_IF_ERROR(EvalTo(e.children[i], ctx, &args[i]));
  }
  Result<Value> result = e.udf->fn(args);
  if (!result.ok()) {
    return result.status().WithContext(
        StrCat("UDF ", expr.name, " at line ", expr.loc.line));
  }
  Value value = std::move(result).value();

  if (ctx.writer != nullptr) {
    // Black-box rule: one node labeled with the function name, fed by the
    // provenance of every tuple the arguments carry (bag arguments), plus
    // the current tuple for scalar arguments derived from it.
    std::vector<NodeId> parents;
    bool scalar_arg = false;
    for (const Value& arg : args) {
      if (arg.is_bag()) {
        for (const AnnotatedTuple& t : *arg.bag()) {
          if (t.annot != kNoProvenance) {
            parents.push_back(ctx.writer->ResolveParent(t.annot));
          }
        }
      } else {
        scalar_arg = true;
      }
    }
    if (scalar_arg && ctx.annot != kNoProvenance) {
      parents.push_back(ctx.writer->ResolveParent(ctx.annot));
    }
    NodeId bb = ctx.writer->BlackBox(e.udf_name, std::move(parents));
    AddSpecial(ctx, bb);
    if (value.is_bag()) {
      // Returned tuples derive from the black box.
      auto annotated = std::make_shared<Bag>();
      annotated->Reserve(value.bag()->size());
      for (const AnnotatedTuple& t : *value.bag()) {
        annotated->Add(t.tuple, bb);
      }
      value = Value::OfBag(std::move(annotated));
    }
  }
  *scratch = std::move(value);
  return scratch;
}

Result<const Value*> Eval(const BoundExpr& e, EvalContext& ctx,
                          Value* scratch) {
  const Expr& expr = *e.expr;
  auto put = [scratch](Value v) {
    *scratch = std::move(v);
    return scratch;
  };
  switch (e.op) {
    case BoundExpr::Op::kConst:
      return &expr.literal;
    case BoundExpr::Op::kColumn:
      if (e.column >= ctx.tuple->size()) {
        return ExecErr(expr.loc, expr.kind == ExprKind::kPositional
                                     ? "positional reference out of range"
                                     : "field reference out of range");
      }
      return &ctx.tuple->at(e.column);
    case BoundExpr::Op::kBagProject: {
      if (e.column >= ctx.tuple->size() || !ctx.tuple->at(e.column).is_bag()) {
        return ExecErr(expr.loc, StrCat("'", expr.name, "' is not a bag"));
      }
      const Bag& bag = *ctx.tuple->at(e.column).bag();
      auto out = std::make_shared<Bag>();
      out->Reserve(bag.size());
      for (const AnnotatedTuple& t : bag) {
        if (e.sub_column >= t.tuple.size()) {
          return ExecErr(expr.loc, StrCat("'", expr.name, ".", expr.sub_name,
                                          "' is out of range"));
        }
        out->Add(Tuple({t.tuple.at(e.sub_column)}), t.annot);
      }
      return put(Value::OfBag(std::move(out)));
    }
    case BoundExpr::Op::kUnary: {
      Value operand;
      LIPSTICK_ASSIGN_OR_RETURN(const Value* v,
                                Eval(e.children[0], ctx, &operand));
      if (expr.un_op == UnOp::kIsNull) return put(Value::Bool(v->is_null()));
      if (expr.un_op == UnOp::kIsNotNull) {
        return put(Value::Bool(!v->is_null()));
      }
      if (v->is_null()) return put(Value::Null());
      if (expr.un_op == UnOp::kNot) {
        if (!v->is_bool()) return ExecErr(expr.loc, "NOT of non-boolean");
        return put(Value::Bool(!v->bool_value()));
      }
      if (v->is_int()) return put(Value::Int(-v->int_value()));
      if (v->is_double()) return put(Value::Double(-v->double_value()));
      return ExecErr(expr.loc, "unary '-' of non-numeric");
    }
    case BoundExpr::Op::kBinary: {
      Value left, right;
      LIPSTICK_ASSIGN_OR_RETURN(const Value* l,
                                Eval(e.children[0], ctx, &left));
      // AND/OR: short-circuit on the left operand.
      if (expr.bin_op == BinOp::kAnd || expr.bin_op == BinOp::kOr) {
        if (l->is_null()) return put(Value::Bool(false));
        if (!l->is_bool()) return ExecErr(expr.loc, "AND/OR of non-boolean");
        if (expr.bin_op == BinOp::kAnd && !l->bool_value()) {
          return put(Value::Bool(false));
        }
        if (expr.bin_op == BinOp::kOr && l->bool_value()) {
          return put(Value::Bool(true));
        }
        LIPSTICK_ASSIGN_OR_RETURN(const Value* r,
                                  Eval(e.children[1], ctx, &right));
        if (r->is_null()) return put(Value::Bool(false));
        if (!r->is_bool()) return ExecErr(expr.loc, "AND/OR of non-boolean");
        return put(Value::Bool(r->bool_value()));
      }
      LIPSTICK_ASSIGN_OR_RETURN(const Value* r,
                                Eval(e.children[1], ctx, &right));
      switch (expr.bin_op) {
        case BinOp::kEq:
          return put(Value::Bool(l->Equals(*r)));
        case BinOp::kNe:
          return put(Value::Bool(!l->Equals(*r)));
        case BinOp::kLt:
          return put(Value::Bool(l->Compare(*r) < 0));
        case BinOp::kLe:
          return put(Value::Bool(l->Compare(*r) <= 0));
        case BinOp::kGt:
          return put(Value::Bool(l->Compare(*r) > 0));
        case BinOp::kGe:
          return put(Value::Bool(l->Compare(*r) >= 0));
        default:
          break;
      }
      // Arithmetic.
      if (l->is_null() || r->is_null()) return put(Value::Null());
      if (!l->is_numeric() || !r->is_numeric()) {
        return ExecErr(expr.loc, "arithmetic on non-numeric operands");
      }
      if (expr.bin_op == BinOp::kMod) {
        if (!l->is_int() || !r->is_int()) {
          return ExecErr(expr.loc, "'%' requires integers");
        }
        if (r->int_value() == 0) return put(Value::Null());
        return put(Value::Int(l->int_value() % r->int_value()));
      }
      if (expr.bin_op == BinOp::kDiv) {
        if (l->is_int() && r->is_int()) {
          if (r->int_value() == 0) return put(Value::Null());
          return put(Value::Int(l->int_value() / r->int_value()));
        }
        double denom = r->AsDouble();
        if (denom == 0) return put(Value::Null());
        return put(Value::Double(l->AsDouble() / denom));
      }
      bool use_double = l->is_double() || r->is_double();
      switch (expr.bin_op) {
        case BinOp::kAdd:
          return put(use_double
                         ? Value::Double(l->AsDouble() + r->AsDouble())
                         : Value::Int(l->int_value() + r->int_value()));
        case BinOp::kSub:
          return put(use_double
                         ? Value::Double(l->AsDouble() - r->AsDouble())
                         : Value::Int(l->int_value() - r->int_value()));
        case BinOp::kMul:
          return put(use_double
                         ? Value::Double(l->AsDouble() * r->AsDouble())
                         : Value::Int(l->int_value() * r->int_value()));
        default:
          return Status::Internal("unhandled arithmetic op");
      }
    }
    case BoundExpr::Op::kAggregate:
      return EvalAggregate(e, ctx, scratch);
    case BoundExpr::Op::kUdf:
      return EvalUdf(e, ctx, scratch);
  }
  return Status::Internal("unhandled expression kind");
}

/// --------------------------- operators ---------------------------------

struct OpContext {
  const Environment* env;
  ShardWriter* writer;
  const UdfRegistry* udfs;
};

Result<const Relation*> LookupInput(const Statement& stmt,
                                    const Environment& env,
                                    const std::string& name) {
  Result<const Relation*> rel = env.Lookup(name);
  if (!rel.ok()) {
    return ExecErr(stmt.loc, StrCat("unknown relation '", name, "'"));
  }
  return rel;
}

/// Output field name for an unaliased GENERATE item.
std::string DefaultItemName(const Expr& expr, const Schema& schema,
                            size_t index) {
  switch (expr.kind) {
    case ExprKind::kFieldRef:
      return Unqualify(expr.name);
    case ExprKind::kBagProject:
      return expr.sub_name;
    case ExprKind::kPositional:
      if (expr.position >= 0 &&
          static_cast<size_t>(expr.position) < schema.num_fields()) {
        return Unqualify(schema.field(expr.position).name);
      }
      return StrCat("f", index);
    default:
      return StrCat("f", index);
  }
}

/// Types the GENERATE items against `input`, binding each into `items`.
Result<SchemaPtr> InferForEachSchema(const Statement& stmt,
                                     const Schema& input,
                                     const UdfRegistry* udfs,
                                     std::vector<BoundExpr>* items) {
  items->resize(stmt.gen_items.size());
  std::vector<Field> fields;
  for (size_t i = 0; i < stmt.gen_items.size(); ++i) {
    const GenItem& item = stmt.gen_items[i];
    LIPSTICK_ASSIGN_OR_RETURN(
        FieldType type, InferExprType(*item.expr, input, udfs, &(*items)[i]));
    if (item.flatten) {
      if (type.kind() == FieldType::Kind::kBag ||
          type.kind() == FieldType::Kind::kTuple) {
        if (!type.nested()) {
          return TypeErr(item.expr->loc, "FLATTEN of schemaless collection");
        }
        for (const Field& f : type.nested()->fields()) {
          fields.emplace_back(Unqualify(f.name), f.type);
        }
        continue;
      }
      return TypeErr(item.expr->loc, "FLATTEN requires a bag or tuple");
    }
    std::string name = item.alias.empty()
                           ? DefaultItemName(*item.expr, input, i)
                           : item.alias;
    fields.emplace_back(std::move(name), std::move(type));
  }
  return Schema::Make(std::move(fields));
}

Result<Relation> ExecForEach(const Statement& stmt, const Relation& input,
                             OpContext& op) {
  std::vector<BoundExpr> items;
  LIPSTICK_ASSIGN_OR_RETURN(
      SchemaPtr out_schema,
      InferForEachSchema(stmt, *input.schema, op.udfs, &items));
  Relation out(stmt.target, out_schema);
  out.bag.Reserve(input.bag.size());
  const size_t width = out_schema->num_fields();

  // Per-tuple scratch, reused: each item's value, the agg/BB nodes its
  // evaluation created, and the cross-product odometer over FLATTENed
  // bags (`indices[k]` selects a tuple of the k-th flattened bag).
  std::vector<Value> values(items.size());
  std::vector<NodeId> specials;
  std::vector<size_t> flat_positions;
  std::vector<size_t> indices;
  for (const AnnotatedTuple& src : input.bag) {
    specials.clear();
    EvalContext ctx{&src.tuple, src.annot, op.writer, &specials};

    // Evaluate all items; flatten items collect their bags for expansion.
    bool any_field_flatten = false;
    for (size_t i = 0; i < items.size(); ++i) {
      LIPSTICK_RETURN_IF_ERROR(EvalTo(items[i], ctx, &values[i]));
      if (stmt.gen_items[i].flatten && values[i].is_bag()) {
        any_field_flatten = true;
      }
    }

    flat_positions.clear();
    for (size_t i = 0; i < values.size(); ++i) {
      if (stmt.gen_items[i].flatten && values[i].is_bag()) {
        flat_positions.push_back(i);
        if (values[i].bag()->empty()) {
          // FLATTEN of an empty bag produces no output for this tuple.
          flat_positions.clear();
          break;
        }
      }
    }
    if (any_field_flatten && flat_positions.empty()) continue;

    indices.assign(flat_positions.size(), 0);
    while (true) {
      Tuple tuple;
      tuple.mutable_values().reserve(width);
      std::vector<NodeId> flatten_annots;
      size_t flat_k = 0;
      for (size_t i = 0; i < values.size(); ++i) {
        const Value& v = values[i];
        if (!stmt.gen_items[i].flatten) {
          tuple.Append(v);
          continue;
        }
        if (v.is_bag()) {
          const AnnotatedTuple& inner = v.bag()->at(indices[flat_k++]);
          for (const Value& f : inner.tuple.values()) tuple.Append(f);
          if (inner.annot != kNoProvenance) {
            flatten_annots.push_back(inner.annot);
          }
        } else if (v.is_tuple()) {
          for (const Value& f : v.tuple()->values()) tuple.Append(f);
        } else {
          tuple.Append(v);  // FLATTEN of scalar: identity
        }
      }

      ProvAnnotation annot = kNoProvenance;
      if (op.writer != nullptr) {
        std::vector<NodeId> parents;
        if (src.annot != kNoProvenance) {
          parents.push_back(op.writer->ResolveParent(src.annot));
        }
        parents.insert(parents.end(), specials.begin(), specials.end());
        for (NodeId fa : flatten_annots) {
          parents.push_back(op.writer->ResolveParent(fa));
        }
        std::sort(parents.begin(), parents.end());
        parents.erase(std::unique(parents.begin(), parents.end()),
                      parents.end());
        // Projection yields a + node; FLATTEN makes derivation joint (·).
        annot = flatten_annots.empty() ? op.writer->Plus(std::move(parents))
                                       : op.writer->Times(std::move(parents));
      }
      out.bag.Add(std::move(tuple), annot);

      // Advance the cross-product odometer.
      if (indices.empty()) break;
      size_t k = indices.size();
      while (k > 0) {
        --k;
        if (++indices[k] < values[flat_positions[k]].bag()->size()) break;
        indices[k] = 0;
        if (k == 0) {
          k = SIZE_MAX;
          break;
        }
      }
      if (k == SIZE_MAX) break;
    }
  }
  return out;
}

Result<Relation> ExecFilter(const Statement& stmt, const Relation& input,
                            OpContext& op) {
  BoundExpr condition;
  LIPSTICK_ASSIGN_OR_RETURN(
      FieldType cond_type,
      InferExprType(*stmt.condition, *input.schema, op.udfs, &condition));
  if (cond_type.kind() != FieldType::Kind::kBool) {
    return TypeErr(stmt.loc, "FILTER condition must be boolean");
  }
  Relation out(stmt.target, input.schema);
  Value scratch;
  for (const AnnotatedTuple& src : input.bag) {
    EvalContext ctx{&src.tuple, src.annot, op.writer, nullptr};
    LIPSTICK_ASSIGN_OR_RETURN(const Value* cond,
                              Eval(condition, ctx, &scratch));
    if (cond->is_null()) continue;
    if (!cond->is_bool()) {
      return ExecErr(stmt.loc, "FILTER condition is not boolean");
    }
    if (cond->bool_value()) out.bag.Add(src);
  }
  return out;
}

/// Looks up the relation of every BY clause, in clause order.
Result<std::vector<const Relation*>> LookupByInputs(const Statement& stmt,
                                                    const Environment& env) {
  std::vector<const Relation*> inputs;
  for (const ByClause& clause : stmt.by_clauses) {
    LIPSTICK_ASSIGN_OR_RETURN(const Relation* rel,
                              LookupInput(stmt, env, clause.relation));
    inputs.push_back(rel);
  }
  return inputs;
}

/// Binds the key expressions of a BY clause against its input's schema
/// and returns the group key's type: 'all' (a string) for no keys, the
/// key's type for one, a tuple type for several. With `require_scalar` a
/// bag- or tuple-valued key is a type error.
Result<FieldType> BindKeys(const ByClause& clause, const Schema& schema,
                           const UdfRegistry* udfs, SourceLoc loc,
                           bool require_scalar, std::vector<BoundExpr>* keys) {
  keys->resize(clause.keys.size());
  std::vector<Field> fields;
  for (size_t i = 0; i < clause.keys.size(); ++i) {
    LIPSTICK_ASSIGN_OR_RETURN(
        FieldType t, InferExprType(*clause.keys[i], schema, udfs, &(*keys)[i]));
    if (require_scalar && !t.is_scalar()) {
      return TypeErr(loc, "group/join key must be scalar");
    }
    fields.emplace_back(StrCat("k", i), std::move(t));
  }
  if (fields.empty()) return FieldType::String();  // GROUP ALL
  if (fields.size() == 1) return std::move(fields[0].type);
  return FieldType::Tuple(Schema::Make(std::move(fields)));
}

/// Evaluates bound keys against one tuple into `key`, reusing its storage.
/// Keys are evaluated without provenance.
Status EvalKeys(const std::vector<BoundExpr>& keys, const Tuple& tuple,
                ValueVec* key) {
  key->values.resize(keys.size());
  EvalContext ctx{&tuple, kNoProvenance, nullptr, nullptr};
  for (size_t i = 0; i < keys.size(); ++i) {
    LIPSTICK_RETURN_IF_ERROR(EvalTo(keys[i], ctx, &key->values[i]));
  }
  return Status::OK();
}

Value KeyToValue(const ValueVec& key) {
  if (key.values.empty()) return Value::String("all");  // GROUP ALL
  if (key.values.size() == 1) return key.values[0];
  return Value::OfTuple(std::make_shared<Tuple>(key.values));
}

/// GROUP / COGROUP share this implementation; GROUP is the 1-input case.
Result<Relation> ExecCogroup(const Statement& stmt, OpContext& op) {
  LIPSTICK_ASSIGN_OR_RETURN(std::vector<const Relation*> inputs,
                            LookupByInputs(stmt, *op.env));
  // Every clause binds before any tuple is read; the first clause's key
  // type names the "group" field and must be scalar.
  std::vector<std::vector<BoundExpr>> keys(inputs.size());
  FieldType key_type;
  for (size_t in = 0; in < inputs.size(); ++in) {
    LIPSTICK_ASSIGN_OR_RETURN(
        FieldType t, BindKeys(stmt.by_clauses[in], *inputs[in]->schema,
                              op.udfs, stmt.loc, in == 0, &keys[in]));
    if (in == 0) key_type = std::move(t);
  }

  struct GroupData {
    const ValueVec* key;  // owned by `index`
    std::vector<std::vector<const AnnotatedTuple*>> members;  // per input
  };
  std::unordered_map<ValueVec, size_t, ValueVecHash> index;
  std::vector<GroupData> groups;
  ValueVec key;
  for (size_t in = 0; in < inputs.size(); ++in) {
    for (const AnnotatedTuple& t : inputs[in]->bag) {
      LIPSTICK_RETURN_IF_ERROR(EvalKeys(keys[in], t.tuple, &key));
      auto [it, inserted] = index.try_emplace(key, groups.size());
      if (inserted) {
        groups.push_back(GroupData{&it->first, {}});
        groups.back().members.resize(inputs.size());
      }
      groups[it->second].members[in].push_back(&t);
    }
  }

  // Schema: "group" key field, then one bag field per input named after it.
  std::vector<Field> fields;
  fields.emplace_back("group", key_type);
  for (size_t in = 0; in < inputs.size(); ++in) {
    fields.emplace_back(stmt.by_clauses[in].relation,
                        FieldType::Bag(inputs[in]->schema));
  }
  Relation out(stmt.target, Schema::Make(std::move(fields)));
  out.bag.Reserve(groups.size());

  for (const GroupData& g : groups) {
    Tuple tuple;
    tuple.Append(KeyToValue(*g.key));
    std::vector<NodeId> member_annots;
    for (size_t in = 0; in < g.members.size(); ++in) {
      auto bag = std::make_shared<Bag>();
      bag->Reserve(g.members[in].size());
      for (const AnnotatedTuple* t : g.members[in]) {
        bag->Add(*t);
        if (t->annot != kNoProvenance && op.writer != nullptr) {
          member_annots.push_back(op.writer->ResolveParent(t->annot));
        }
      }
      tuple.Append(Value::OfBag(std::move(bag)));
    }
    ProvAnnotation annot = kNoProvenance;
    if (op.writer != nullptr) {
      // δ over the members (shorthand for δ(t1 + ... + tn)).
      annot = op.writer->Delta(std::move(member_annots));
    }
    out.bag.Add(std::move(tuple), annot);
  }
  return out;
}

/// Adds one JOIN's work to the `pig.join_rows_indexed` and
/// `pig.join_rows_probed` counters, when metrics are armed.
void RecordJoinWork(size_t indexed, size_t probed) {
  if (!obs::MetricsRegistry::Enabled()) return;
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  static const obs::MetricId kIndexed =
      metrics.RegisterCounter("pig.join_rows_indexed");
  static const obs::MetricId kProbed =
      metrics.RegisterCounter("pig.join_rows_probed");
  metrics.CounterAdd(kIndexed, indexed);
  metrics.CounterAdd(kProbed, probed);
}

/// Hash join that indexes its smallest input (the first on a tie) and
/// streams every other input through the index once. The output is what a
/// nested loop over the inputs yields: input 0's tuples in order, each
/// followed by the cross product of its matches, the last input varying
/// fastest and every match list in its input's order.
Result<Relation> ExecJoin(const Statement& stmt, OpContext& op) {
  LIPSTICK_ASSIGN_OR_RETURN(std::vector<const Relation*> inputs,
                            LookupByInputs(stmt, *op.env));
  const size_t n = inputs.size();
  // Key lists must agree in arity and kind across all join inputs.
  std::vector<std::vector<BoundExpr>> keys(n);
  for (size_t in = 0; in < n; ++in) {
    if (stmt.by_clauses[in].keys.size() != stmt.by_clauses[0].keys.size()) {
      return TypeErr(stmt.loc, "JOIN key lists differ in length");
    }
    LIPSTICK_RETURN_IF_ERROR(BindKeys(stmt.by_clauses[in], *inputs[in]->schema,
                                      op.udfs, stmt.loc,
                                      /*require_scalar=*/true, &keys[in])
                                 .status());
  }
  // Output schema: fields of every input, qualified "Rel::field".
  std::vector<Field> fields;
  for (size_t in = 0; in < n; ++in) {
    for (const Field& f : inputs[in]->schema->fields()) {
      fields.emplace_back(StrCat(stmt.by_clauses[in].relation, "::", f.name),
                          f.type);
    }
  }
  const size_t width = fields.size();
  Relation out(stmt.target, Schema::Make(std::move(fields)));

  size_t smallest = 0;
  for (size_t in = 1; in < n; ++in) {
    if (inputs[in]->bag.size() < inputs[smallest]->bag.size()) smallest = in;
  }
  if (inputs[smallest]->bag.empty()) return out;

  // A group per distinct key of the indexed input, holding each input's
  // matching tuples (input 0 instead records each tuple's group).
  using Matches = std::vector<const AnnotatedTuple*>;
  constexpr uint32_t kNoGroup = UINT32_MAX;
  std::unordered_map<ValueVec, uint32_t, ValueVecHash> index;
  std::vector<std::vector<Matches>> groups;
  std::vector<uint32_t> group_of(inputs[0]->bag.size(), kNoGroup);
  // The indexed input goes first; the others follow in input order.
  std::vector<size_t> order = {smallest};
  for (size_t in = 0; in < n; ++in) {
    if (in != smallest) order.push_back(in);
  }
  ValueVec key;
  size_t probed = 0;
  for (size_t in : order) {
    const Bag& bag = inputs[in]->bag;
    if (in != smallest) probed += bag.size();
    for (size_t i = 0; i < bag.size(); ++i) {
      LIPSTICK_RETURN_IF_ERROR(EvalKeys(keys[in], bag.at(i).tuple, &key));
      uint32_t group;
      if (in == smallest) {
        auto [it, inserted] =
            index.try_emplace(key, static_cast<uint32_t>(groups.size()));
        if (inserted) groups.emplace_back(n);
        group = it->second;
      } else {
        auto it = index.find(key);
        if (it == index.end()) continue;
        group = it->second;
      }
      if (in == 0) {
        group_of[i] = group;
      } else {
        groups[group][in].push_back(&bag.at(i));
      }
    }
  }
  RecordJoinWork(inputs[smallest]->bag.size(), probed);

  std::vector<size_t> indices(n - 1);
  for (size_t i = 0; i < group_of.size(); ++i) {
    if (group_of[i] == kNoGroup) continue;
    const std::vector<Matches>& g = groups[group_of[i]];
    if (std::any_of(g.begin() + 1, g.end(),
                    [](const Matches& m) { return m.empty(); })) {
      continue;
    }
    const AnnotatedTuple& t0 = inputs[0]->bag.at(i);
    std::fill(indices.begin(), indices.end(), 0);
    while (true) {
      Tuple tuple;
      tuple.mutable_values().reserve(width);
      std::vector<NodeId> parents;
      for (const Value& v : t0.tuple.values()) tuple.Append(v);
      if (t0.annot != kNoProvenance && op.writer != nullptr) {
        parents.push_back(op.writer->ResolveParent(t0.annot));
      }
      for (size_t k = 0; k < indices.size(); ++k) {
        const AnnotatedTuple* t = g[k + 1][indices[k]];
        for (const Value& v : t->tuple.values()) tuple.Append(v);
        if (t->annot != kNoProvenance && op.writer != nullptr) {
          parents.push_back(op.writer->ResolveParent(t->annot));
        }
      }
      ProvAnnotation annot = kNoProvenance;
      if (op.writer != nullptr) {
        annot = op.writer->Times(std::move(parents));  // joint derivation
      }
      out.bag.Add(std::move(tuple), annot);

      size_t k = indices.size();
      bool done = indices.empty();
      while (k > 0) {
        --k;
        if (++indices[k] < g[k + 1].size()) break;
        indices[k] = 0;
        if (k == 0) done = true;
      }
      if (done) break;
    }
  }
  return out;
}

Result<Relation> ExecCross(const Statement& stmt, OpContext& op) {
  std::vector<const Relation*> inputs;
  for (const std::string& name : stmt.inputs) {
    LIPSTICK_ASSIGN_OR_RETURN(const Relation* rel,
                              LookupInput(stmt, *op.env, name));
    inputs.push_back(rel);
  }
  std::vector<Field> fields;
  for (size_t in = 0; in < inputs.size(); ++in) {
    for (const Field& f : inputs[in]->schema->fields()) {
      fields.emplace_back(StrCat(stmt.inputs[in], "::", f.name), f.type);
    }
  }
  Relation out(stmt.target, Schema::Make(std::move(fields)));

  std::vector<size_t> indices(inputs.size(), 0);
  for (const Relation* rel : inputs) {
    if (rel->bag.empty()) return out;  // empty cross product
  }
  while (true) {
    Tuple tuple;
    std::vector<NodeId> parents;
    for (size_t in = 0; in < inputs.size(); ++in) {
      const AnnotatedTuple& t = inputs[in]->bag.at(indices[in]);
      for (const Value& v : t.tuple.values()) tuple.Append(v);
      if (t.annot != kNoProvenance && op.writer != nullptr) {
        parents.push_back(op.writer->ResolveParent(t.annot));
      }
    }
    ProvAnnotation annot = kNoProvenance;
    if (op.writer != nullptr) annot = op.writer->Times(std::move(parents));
    out.bag.Add(std::move(tuple), annot);

    size_t k = indices.size();
    bool done = false;
    while (k > 0) {
      --k;
      if (++indices[k] < inputs[k]->bag.size()) break;
      indices[k] = 0;
      if (k == 0) done = true;
    }
    if (done) break;
  }
  return out;
}

Result<Relation> ExecUnion(const Statement& stmt, OpContext& op) {
  std::vector<const Relation*> inputs;
  for (const std::string& name : stmt.inputs) {
    LIPSTICK_ASSIGN_OR_RETURN(const Relation* rel,
                              LookupInput(stmt, *op.env, name));
    inputs.push_back(rel);
  }
  for (size_t in = 1; in < inputs.size(); ++in) {
    if (!inputs[in]->schema->EqualsIgnoreNames(*inputs[0]->schema)) {
      return TypeErr(stmt.loc,
                     StrCat("UNION schema mismatch: ",
                            inputs[0]->schema->ToString(), " vs ",
                            inputs[in]->schema->ToString()));
    }
  }
  Relation out(stmt.target, inputs[0]->schema);
  for (const Relation* rel : inputs) {
    for (const AnnotatedTuple& t : rel->bag) out.bag.Add(t);
  }
  return out;
}

Result<Relation> ExecDistinct(const Statement& stmt, const Relation& input,
                              OpContext& op) {
  Relation out(stmt.target, input.schema);
  std::unordered_map<ValueVec, size_t, ValueVecHash> index;
  std::vector<std::vector<NodeId>> member_annots;
  std::vector<const Tuple*> reps;
  for (const AnnotatedTuple& t : input.bag) {
    ValueVec key{t.tuple.values()};
    auto [it, inserted] = index.try_emplace(std::move(key), reps.size());
    if (inserted) {
      reps.push_back(&t.tuple);
      member_annots.emplace_back();
    }
    if (t.annot != kNoProvenance && op.writer != nullptr) {
      member_annots[it->second].push_back(op.writer->ResolveParent(t.annot));
    }
  }
  for (size_t i = 0; i < reps.size(); ++i) {
    ProvAnnotation annot = kNoProvenance;
    if (op.writer != nullptr) {
      annot = op.writer->Delta(std::move(member_annots[i]));
    }
    out.bag.Add(*reps[i], annot);
  }
  return out;
}

Result<Relation> ExecOrderBy(const Statement& stmt, const Relation& input) {
  std::vector<std::pair<size_t, bool>> keys;  // field index, ascending
  for (const OrderKey& k : stmt.order_keys) {
    LIPSTICK_ASSIGN_OR_RETURN(size_t idx,
                              input.schema->ResolveField(k.field));
    keys.emplace_back(idx, k.ascending);
  }
  Relation out(stmt.target, input.schema, input.bag);
  std::vector<AnnotatedTuple> tuples = out.bag.tuples();
  std::stable_sort(tuples.begin(), tuples.end(),
                   [&keys](const AnnotatedTuple& a, const AnnotatedTuple& b) {
                     for (const auto& [idx, asc] : keys) {
                       int c = a.tuple.at(idx).Compare(b.tuple.at(idx));
                       if (c != 0) return asc ? c < 0 : c > 0;
                     }
                     return false;
                   });
  out.bag = Bag(std::move(tuples));
  return out;
}

}  // namespace

/// SPLIT A INTO B IF c1, C IF c2: every tuple is routed (copied) into each
/// target whose condition holds; annotations pass through like FILTER.
Result<std::vector<Relation>> ExecSplit(const Statement& stmt,
                                        const Relation& input,
                                        OpContext& op) {
  std::vector<Relation> outs;
  std::vector<BoundExpr> conds(stmt.split_targets.size());
  for (size_t i = 0; i < stmt.split_targets.size(); ++i) {
    const auto& [name, cond] = stmt.split_targets[i];
    LIPSTICK_ASSIGN_OR_RETURN(
        FieldType t, InferExprType(*cond, *input.schema, op.udfs, &conds[i]));
    if (t.kind() != FieldType::Kind::kBool) {
      return TypeErr(stmt.loc,
                     StrCat("SPLIT condition for '", name,
                            "' must be boolean"));
    }
    outs.emplace_back(name, input.schema);
  }
  Value scratch;
  for (const AnnotatedTuple& src : input.bag) {
    EvalContext ctx{&src.tuple, src.annot, op.writer, nullptr};
    for (size_t i = 0; i < conds.size(); ++i) {
      LIPSTICK_ASSIGN_OR_RETURN(const Value* v, Eval(conds[i], ctx, &scratch));
      if (v->is_bool() && v->bool_value()) outs[i].bag.Add(src);
    }
  }
  return outs;
}

/// ------------------------- interpreter API -----------------------------

Result<const Relation*> Environment::Lookup(const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound(StrCat("relation '", name, "' is not bound"));
  }
  return &it->second;
}

Result<const Relation*> Interpreter::RunStatement(const Statement& stmt,
                                                  Environment* env,
                                                  ShardWriter* writer) const {
  LIPSTICK_RETURN_IF_ERROR(
      FaultInjector::Fire("pig.statement", stmt.target));
  // Observability: a span per Pig statement (named after its target
  // relation) and a latency histogram. Disarmed cost: two relaxed loads.
  obs::ObsSpan obs_span("pig", stmt.target);
  static const obs::MetricId kStatements =
      obs::MetricsRegistry::Global().RegisterCounter("pig.statements");
  static const obs::MetricId kStatementUs =
      obs::MetricsRegistry::Global().RegisterHistogram("pig.statement_us");
  obs::MetricsRegistry::Global().CounterAdd(kStatements);
  obs::ScopedHistTimer obs_timer(kStatementUs);
  OpContext op{env, writer, udfs_};
  Result<Relation> result = Status::Internal("unhandled statement");
  switch (stmt.kind) {
    case StatementKind::kForEach:
    case StatementKind::kFilter:
    case StatementKind::kDistinct:
    case StatementKind::kOrderBy:
    case StatementKind::kLimit:
    case StatementKind::kAlias: {
      LIPSTICK_ASSIGN_OR_RETURN(const Relation* input,
                                LookupInput(stmt, *env, stmt.inputs[0]));
      switch (stmt.kind) {
        case StatementKind::kForEach:
          result = ExecForEach(stmt, *input, op);
          break;
        case StatementKind::kFilter:
          result = ExecFilter(stmt, *input, op);
          break;
        case StatementKind::kDistinct:
          result = ExecDistinct(stmt, *input, op);
          break;
        case StatementKind::kOrderBy:
          result = ExecOrderBy(stmt, *input);
          break;
        case StatementKind::kLimit: {
          Relation out(stmt.target, input->schema);
          for (size_t i = 0;
               i < input->bag.size() && i < static_cast<size_t>(stmt.limit);
               ++i) {
            out.bag.Add(input->bag.at(i));
          }
          result = std::move(out);
          break;
        }
        default:  // kAlias
          result = Relation(stmt.target, input->schema, input->bag);
          break;
      }
      break;
    }
    case StatementKind::kGroup:
    case StatementKind::kCogroup:
      result = ExecCogroup(stmt, op);
      break;
    case StatementKind::kJoin:
      result = ExecJoin(stmt, op);
      break;
    case StatementKind::kCross:
      result = ExecCross(stmt, op);
      break;
    case StatementKind::kUnion:
      result = ExecUnion(stmt, op);
      break;
    case StatementKind::kSplit: {
      LIPSTICK_ASSIGN_OR_RETURN(const Relation* input,
                                LookupInput(stmt, *env, stmt.inputs[0]));
      LIPSTICK_ASSIGN_OR_RETURN(std::vector<Relation> outs,
                                ExecSplit(stmt, *input, op));
      std::string first = outs.front().name;
      for (Relation& rel : outs) {
        std::string name = rel.name;
        env->Bind(name, std::move(rel));
      }
      return env->Lookup(first);
    }
  }
  if (!result.ok()) return result.status();
  env->Bind(stmt.target, std::move(result).value());
  return env->Lookup(stmt.target);
}

Status Interpreter::Run(const Program& program, Environment* env,
                        ShardWriter* writer,
                        const Deadline* deadline) const {
  for (const Statement& stmt : program.statements) {
    if (deadline != nullptr && deadline->Expired()) {
      return Status::DeadlineExceeded(
          StrCat("statement '", stmt.target, "' not started: wall-clock ",
                 "budget of ", deadline->limit_seconds(), "s exhausted"));
    }
    LIPSTICK_RETURN_IF_ERROR(RunStatement(stmt, env, writer).status());
  }
  return Status::OK();
}

/// ------------------------ schema-only analysis -------------------------

Result<std::map<std::string, SchemaPtr>> AnalyzeProgram(
    const Program& program, std::map<std::string, SchemaPtr> schemas,
    const UdfRegistry* udfs) {
  // Analysis executes the program over empty relations: every operator's
  // schema logic is exercised with zero tuples, reusing the interpreter
  // itself so analysis and execution can never disagree.
  Environment env;
  for (const auto& [name, schema] : schemas) {
    env.Bind(name, Relation(name, schema));
  }
  Interpreter interp(udfs);
  LIPSTICK_RETURN_IF_ERROR(interp.Run(program, &env, nullptr));
  std::map<std::string, SchemaPtr> out;
  for (const auto& [name, rel] : env.relations()) out[name] = rel.schema;
  return out;
}

}  // namespace lipstick::pig
