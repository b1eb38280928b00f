#include "pig/interpreter.h"

#include <algorithm>
#include <cassert>
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

bool IsAggregateFunction(const std::string& name) {
  std::string lower = ToLower(name);
  return lower == "count" || lower == "sum" || lower == "min" ||
         lower == "max" || lower == "avg";
}

/// ------------------------- type inference ------------------------------

std::optional<FieldType> CheckExprType(const Expr& expr, const Schema& schema,
                                       const UdfRegistry* udfs,
                                       const ExprErrorFn& on_error) {
  // Reports one error at `expr`; notes are built only on this path.
  auto fail = [&](ExprErrorKind kind, std::string message,
                  std::string note = "",
                  StatusCode code = StatusCode::kTypeError) {
    on_error(ExprError{kind, code, expr.loc, std::move(message),
                       std::move(note)});
    return std::nullopt;
  };
  auto check = [&](const Expr& child) {
    return CheckExprType(child, schema, udfs, on_error);
  };
  switch (expr.kind) {
    case ExprKind::kConst: {
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
      return FieldType::Bag(Schema::Make(
          {Field(expr.sub_name, bag_type.nested()->field(*sub).type)}));
    }
    case ExprKind::kUnaryOp: {
      std::optional<FieldType> t = check(*expr.children[0]);
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
      std::optional<FieldType> lt = check(*expr.children[0]);
      std::optional<FieldType> rt = check(*expr.children[1]);
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
      if (IsAggregateFunction(expr.name)) {
        if (expr.children.size() != 1) {
          return fail(ExprErrorKind::kBadCall,
                      StrCat(expr.name, " takes exactly one argument, got ",
                             expr.children.size()));
        }
        std::optional<FieldType> arg = check(*expr.children[0]);
        if (!arg) return std::nullopt;
        if (arg->kind() != FieldType::Kind::kBag || !arg->nested()) {
          return fail(ExprErrorKind::kBadCall,
                      StrCat(expr.name, " requires a bag argument"),
                      StrCat("argument has type ", arg->ToString(),
                             "; aggregates run after GROUP"));
        }
        std::string op = ToUpper(expr.name);
        if (op == "COUNT") return FieldType::Int();
        if (op == "AVG") return FieldType::Double();
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
      std::vector<FieldType> arg_types;
      for (const ExprPtr& child : expr.children) {
        std::optional<FieldType> t = check(*child);
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
                                const UdfRegistry* udfs) {
  Status first;
  std::optional<FieldType> type =
      CheckExprType(expr, schema, udfs, [&first](ExprError e) {
        if (!first.ok()) return;
        first = Status(e.code, e.kind == ExprErrorKind::kUnknownField
                                   ? std::move(e.message)
                                   : StrCat("line ", e.loc.line, ":",
                                            e.loc.column, ": ", e.message));
      });
  if (!type) return first;
  return *std::move(type);
}

/// --------------------------- evaluation --------------------------------

namespace {

struct EvalContext {
  const Schema* schema = nullptr;
  const Tuple* tuple = nullptr;
  ProvAnnotation annot = kNoProvenance;
  ShardWriter* writer = nullptr;           // null -> no tracking
  std::vector<NodeId>* specials = nullptr; // agg/BB nodes for this tuple
  const UdfRegistry* udfs = nullptr;
};

void AddSpecial(EvalContext& ctx, NodeId node) {
  if (ctx.specials != nullptr) ctx.specials->push_back(node);
}

Result<Value> EvalExpr(const Expr& expr, EvalContext& ctx);

Result<Value> EvalAggregate(const Expr& expr, EvalContext& ctx) {
  LIPSTICK_ASSIGN_OR_RETURN(Value arg, EvalExpr(*expr.children[0], ctx));
  if (!arg.is_bag()) {
    return ExecErr(expr.loc, StrCat(expr.name, " requires a bag argument"));
  }
  const Bag& bag = *arg.bag();
  std::string op = ToUpper(expr.name);

  Value result;
  if (op == "COUNT") {
    result = Value::Int(static_cast<int64_t>(bag.size()));
  } else if (bag.empty()) {
    result = op == "SUM" ? Value::Int(0) : Value::Null();
  } else {
    // Single-attribute bags: aggregate field 0.
    bool all_int = true;
    double dsum = 0;
    int64_t isum = 0;
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
      if (v.is_double()) all_int = false;
      dsum += v.AsDouble();
      if (v.is_int()) isum += v.int_value();
      if (op == "MIN" && (best == nullptr || v.Compare(*best) < 0)) best = &v;
      if (op == "MAX" && (best == nullptr || v.Compare(*best) > 0)) best = &v;
    }
    if (op == "SUM") {
      result = all_int ? Value::Int(isum) : Value::Double(dsum);
    } else if (op == "AVG") {
      result = Value::Double(dsum / static_cast<double>(bag.size()));
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
      if (op == "COUNT") {
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
    NodeId agg = ctx.writer->Aggregate(op, std::move(parents), result);
    AddSpecial(ctx, agg);
  }
  return result;
}

Result<Value> EvalUdf(const Expr& expr, EvalContext& ctx) {
  const UdfEntry* udf = ctx.udfs ? ctx.udfs->Lookup(expr.name) : nullptr;
  if (udf == nullptr) {
    return ExecErr(expr.loc, StrCat("unknown function '", expr.name, "'"));
  }
  // UDFs are external black boxes — the boundary most likely to fail in a
  // real deployment, and the one tests inject failures into.
  LIPSTICK_RETURN_IF_ERROR(FaultInjector::Fire("pig.udf", ToLower(expr.name))
                               .WithContext(StrCat("UDF ", expr.name,
                                                   " at line ",
                                                   expr.loc.line)));
  std::vector<Value> args;
  args.reserve(expr.children.size());
  for (const ExprPtr& child : expr.children) {
    LIPSTICK_ASSIGN_OR_RETURN(Value v, EvalExpr(*child, ctx));
    args.push_back(std::move(v));
  }
  Result<Value> result = udf->fn(args);
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
    NodeId bb = ctx.writer->BlackBox(ToLower(expr.name), std::move(parents));
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
  return value;
}

Result<Value> EvalExpr(const Expr& expr, EvalContext& ctx) {
  switch (expr.kind) {
    case ExprKind::kConst:
      return expr.literal;
    case ExprKind::kFieldRef: {
      LIPSTICK_ASSIGN_OR_RETURN(size_t idx,
                                ctx.schema->ResolveField(expr.name));
      return ctx.tuple->at(idx);
    }
    case ExprKind::kPositional: {
      if (expr.position < 0 ||
          static_cast<size_t>(expr.position) >= ctx.tuple->size()) {
        return ExecErr(expr.loc, "positional reference out of range");
      }
      return ctx.tuple->at(expr.position);
    }
    case ExprKind::kBagProject: {
      LIPSTICK_ASSIGN_OR_RETURN(size_t idx,
                                ctx.schema->ResolveField(expr.name));
      const Value& v = ctx.tuple->at(idx);
      if (!v.is_bag()) {
        return ExecErr(expr.loc, StrCat("'", expr.name, "' is not a bag"));
      }
      const FieldType& ft = ctx.schema->field(idx).type;
      if (!ft.nested()) return ExecErr(expr.loc, "bag without schema");
      LIPSTICK_ASSIGN_OR_RETURN(size_t sub,
                                ft.nested()->ResolveField(expr.sub_name));
      auto out = std::make_shared<Bag>();
      out->Reserve(v.bag()->size());
      for (const AnnotatedTuple& t : *v.bag()) {
        out->Add(Tuple({t.tuple.at(sub)}), t.annot);
      }
      return Value::OfBag(std::move(out));
    }
    case ExprKind::kUnaryOp: {
      LIPSTICK_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr.children[0], ctx));
      if (expr.un_op == UnOp::kIsNull) return Value::Bool(v.is_null());
      if (expr.un_op == UnOp::kIsNotNull) return Value::Bool(!v.is_null());
      if (v.is_null()) return Value::Null();
      if (expr.un_op == UnOp::kNot) {
        if (!v.is_bool()) return ExecErr(expr.loc, "NOT of non-boolean");
        return Value::Bool(!v.bool_value());
      }
      if (v.is_int()) return Value::Int(-v.int_value());
      if (v.is_double()) return Value::Double(-v.double_value());
      return ExecErr(expr.loc, "unary '-' of non-numeric");
    }
    case ExprKind::kBinaryOp: {
      // AND/OR: short-circuit on the left operand.
      if (expr.bin_op == BinOp::kAnd || expr.bin_op == BinOp::kOr) {
        LIPSTICK_ASSIGN_OR_RETURN(Value l, EvalExpr(*expr.children[0], ctx));
        if (l.is_null()) return Value::Bool(false);
        if (!l.is_bool()) return ExecErr(expr.loc, "AND/OR of non-boolean");
        if (expr.bin_op == BinOp::kAnd && !l.bool_value()) {
          return Value::Bool(false);
        }
        if (expr.bin_op == BinOp::kOr && l.bool_value()) {
          return Value::Bool(true);
        }
        LIPSTICK_ASSIGN_OR_RETURN(Value r, EvalExpr(*expr.children[1], ctx));
        if (r.is_null()) return Value::Bool(false);
        if (!r.is_bool()) return ExecErr(expr.loc, "AND/OR of non-boolean");
        return Value::Bool(r.bool_value());
      }
      LIPSTICK_ASSIGN_OR_RETURN(Value l, EvalExpr(*expr.children[0], ctx));
      LIPSTICK_ASSIGN_OR_RETURN(Value r, EvalExpr(*expr.children[1], ctx));
      switch (expr.bin_op) {
        case BinOp::kEq:
          return Value::Bool(l.Equals(r));
        case BinOp::kNe:
          return Value::Bool(!l.Equals(r));
        case BinOp::kLt:
          return Value::Bool(l.Compare(r) < 0);
        case BinOp::kLe:
          return Value::Bool(l.Compare(r) <= 0);
        case BinOp::kGt:
          return Value::Bool(l.Compare(r) > 0);
        case BinOp::kGe:
          return Value::Bool(l.Compare(r) >= 0);
        default:
          break;
      }
      // Arithmetic.
      if (l.is_null() || r.is_null()) return Value::Null();
      if (!l.is_numeric() || !r.is_numeric()) {
        return ExecErr(expr.loc, "arithmetic on non-numeric operands");
      }
      if (expr.bin_op == BinOp::kMod) {
        if (!l.is_int() || !r.is_int()) {
          return ExecErr(expr.loc, "'%' requires integers");
        }
        if (r.int_value() == 0) return Value::Null();
        return Value::Int(l.int_value() % r.int_value());
      }
      if (expr.bin_op == BinOp::kDiv) {
        if (l.is_int() && r.is_int()) {
          if (r.int_value() == 0) return Value::Null();
          return Value::Int(l.int_value() / r.int_value());
        }
        double denom = r.AsDouble();
        if (denom == 0) return Value::Null();
        return Value::Double(l.AsDouble() / denom);
      }
      bool use_double = l.is_double() || r.is_double();
      switch (expr.bin_op) {
        case BinOp::kAdd:
          return use_double ? Value::Double(l.AsDouble() + r.AsDouble())
                            : Value::Int(l.int_value() + r.int_value());
        case BinOp::kSub:
          return use_double ? Value::Double(l.AsDouble() - r.AsDouble())
                            : Value::Int(l.int_value() - r.int_value());
        case BinOp::kMul:
          return use_double ? Value::Double(l.AsDouble() * r.AsDouble())
                            : Value::Int(l.int_value() * r.int_value());
        default:
          return Status::Internal("unhandled arithmetic op");
      }
    }
    case ExprKind::kFuncCall:
      if (IsAggregateFunction(expr.name)) return EvalAggregate(expr, ctx);
      return EvalUdf(expr, ctx);
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

Result<SchemaPtr> InferForEachSchema(const Statement& stmt,
                                     const Schema& input,
                                     const UdfRegistry* udfs) {
  std::vector<Field> fields;
  for (size_t i = 0; i < stmt.gen_items.size(); ++i) {
    const GenItem& item = stmt.gen_items[i];
    LIPSTICK_ASSIGN_OR_RETURN(FieldType type,
                              InferExprType(*item.expr, input, udfs));
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
  LIPSTICK_ASSIGN_OR_RETURN(SchemaPtr out_schema,
                            InferForEachSchema(stmt, *input.schema, op.udfs));
  Relation out(stmt.target, out_schema);
  out.bag.Reserve(input.bag.size());

  for (const AnnotatedTuple& src : input.bag) {
    std::vector<NodeId> specials;
    EvalContext ctx{input.schema.get(), &src.tuple, src.annot,
                    op.writer,          &specials,  op.udfs};

    // Evaluate all items; flatten items collect their bags for expansion.
    struct ItemResult {
      bool flatten = false;
      Value value;
    };
    std::vector<ItemResult> results;
    results.reserve(stmt.gen_items.size());
    bool any_field_flatten = false;
    for (const GenItem& item : stmt.gen_items) {
      LIPSTICK_ASSIGN_OR_RETURN(Value v, EvalExpr(*item.expr, ctx));
      if (item.flatten && v.is_bag()) any_field_flatten = true;
      results.push_back(ItemResult{item.flatten, std::move(v)});
    }

    // Expand the cross product over flattened bags. `indices[k]` selects a
    // tuple from the k-th flattened bag.
    std::vector<size_t> flat_positions;
    for (size_t i = 0; i < results.size(); ++i) {
      if (results[i].flatten && results[i].value.is_bag()) {
        flat_positions.push_back(i);
        if (results[i].value.bag()->empty()) {
          // FLATTEN of an empty bag produces no output for this tuple.
          flat_positions.clear();
          break;
        }
      }
    }
    if (any_field_flatten && flat_positions.empty()) continue;

    std::vector<size_t> indices(flat_positions.size(), 0);
    while (true) {
      Tuple tuple;
      std::vector<NodeId> flatten_annots;
      size_t flat_k = 0;
      for (size_t i = 0; i < results.size(); ++i) {
        const ItemResult& r = results[i];
        if (!r.flatten) {
          tuple.Append(r.value);
          continue;
        }
        if (r.value.is_bag()) {
          const AnnotatedTuple& inner =
              r.value.bag()->at(indices[flat_k++]);
          for (const Value& v : inner.tuple.values()) tuple.Append(v);
          if (inner.annot != kNoProvenance) {
            flatten_annots.push_back(inner.annot);
          }
        } else if (r.value.is_tuple()) {
          for (const Value& v : r.value.tuple()->values()) tuple.Append(v);
        } else {
          tuple.Append(r.value);  // FLATTEN of scalar: identity
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
        if (++indices[k] <
            results[flat_positions[k]].value.bag()->size()) {
          break;
        }
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
  LIPSTICK_ASSIGN_OR_RETURN(
      FieldType cond_type,
      InferExprType(*stmt.condition, *input.schema, op.udfs));
  if (cond_type.kind() != FieldType::Kind::kBool) {
    return TypeErr(stmt.loc, "FILTER condition must be boolean");
  }
  Relation out(stmt.target, input.schema);
  for (const AnnotatedTuple& src : input.bag) {
    EvalContext ctx{input.schema.get(), &src.tuple, src.annot,
                    op.writer,          nullptr,    op.udfs};
    LIPSTICK_ASSIGN_OR_RETURN(Value cond, EvalExpr(*stmt.condition, ctx));
    if (cond.is_null()) continue;
    if (!cond.is_bool()) {
      return ExecErr(stmt.loc, "FILTER condition is not boolean");
    }
    if (cond.bool_value()) out.bag.Add(src);
  }
  return out;
}

/// Evaluates the key expressions of a ByClause against one tuple.
Result<ValueVec> EvalKeys(const ByClause& clause, const Schema& schema,
                          const Tuple& tuple, const UdfRegistry* udfs) {
  ValueVec key;
  key.values.reserve(clause.keys.size());
  EvalContext ctx{&schema, &tuple, kNoProvenance, nullptr, nullptr, udfs};
  for (const ExprPtr& k : clause.keys) {
    LIPSTICK_ASSIGN_OR_RETURN(Value v, EvalExpr(*k, ctx));
    key.values.push_back(std::move(v));
  }
  return key;
}

Result<FieldType> KeyFieldType(const ByClause& clause, const Schema& schema,
                               const UdfRegistry* udfs, SourceLoc loc) {
  if (clause.keys.empty()) {
    return FieldType::String();  // GROUP ALL: the group key is 'all'
  }
  if (clause.keys.size() == 1) {
    LIPSTICK_ASSIGN_OR_RETURN(FieldType t,
                              InferExprType(*clause.keys[0], schema, udfs));
    if (!t.is_scalar()) return TypeErr(loc, "group/join key must be scalar");
    return t;
  }
  std::vector<Field> fields;
  for (size_t i = 0; i < clause.keys.size(); ++i) {
    LIPSTICK_ASSIGN_OR_RETURN(FieldType t,
                              InferExprType(*clause.keys[i], schema, udfs));
    if (!t.is_scalar()) return TypeErr(loc, "group/join key must be scalar");
    fields.emplace_back(StrCat("k", i), std::move(t));
  }
  return FieldType::Tuple(Schema::Make(std::move(fields)));
}

Value KeyToValue(const ValueVec& key) {
  if (key.values.empty()) return Value::String("all");  // GROUP ALL
  if (key.values.size() == 1) return key.values[0];
  return Value::OfTuple(std::make_shared<Tuple>(key.values));
}

/// GROUP / COGROUP share this implementation; GROUP is the 1-input case.
Result<Relation> ExecCogroup(const Statement& stmt, OpContext& op) {
  struct GroupData {
    ValueVec key;
    std::vector<std::vector<const AnnotatedTuple*>> members;  // per input
  };
  std::unordered_map<ValueVec, size_t, ValueVecHash> index;
  std::vector<GroupData> groups;
  std::vector<const Relation*> inputs;

  for (size_t in = 0; in < stmt.by_clauses.size(); ++in) {
    const ByClause& clause = stmt.by_clauses[in];
    LIPSTICK_ASSIGN_OR_RETURN(const Relation* rel,
                              LookupInput(stmt, *op.env, clause.relation));
    inputs.push_back(rel);
    for (const AnnotatedTuple& t : rel->bag) {
      LIPSTICK_ASSIGN_OR_RETURN(
          ValueVec key, EvalKeys(clause, *rel->schema, t.tuple, op.udfs));
      auto [it, inserted] = index.try_emplace(key, groups.size());
      if (inserted) {
        groups.push_back(GroupData{std::move(key), {}});
        groups.back().members.resize(stmt.by_clauses.size());
      }
      groups[it->second].members[in].push_back(&t);
    }
  }

  // Schema: "group" key field, then one bag field per input named after it.
  LIPSTICK_ASSIGN_OR_RETURN(
      FieldType key_type,
      KeyFieldType(stmt.by_clauses[0], *inputs[0]->schema, op.udfs, stmt.loc));
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
    tuple.Append(KeyToValue(g.key));
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

Result<Relation> ExecJoin(const Statement& stmt, OpContext& op) {
  std::vector<const Relation*> inputs;
  for (const ByClause& clause : stmt.by_clauses) {
    LIPSTICK_ASSIGN_OR_RETURN(const Relation* rel,
                              LookupInput(stmt, *op.env, clause.relation));
    inputs.push_back(rel);
  }
  // Key lists must agree in arity and kind across all join inputs.
  for (size_t in = 0; in < inputs.size(); ++in) {
    if (stmt.by_clauses[in].keys.size() != stmt.by_clauses[0].keys.size()) {
      return TypeErr(stmt.loc, "JOIN key lists differ in length");
    }
    LIPSTICK_RETURN_IF_ERROR(
        KeyFieldType(stmt.by_clauses[in], *inputs[in]->schema, op.udfs,
                     stmt.loc)
            .status());
  }
  // Output schema: fields of every input, qualified "Rel::field".
  std::vector<Field> fields;
  for (size_t in = 0; in < inputs.size(); ++in) {
    for (const Field& f : inputs[in]->schema->fields()) {
      fields.emplace_back(StrCat(stmt.by_clauses[in].relation, "::", f.name),
                          f.type);
    }
  }
  Relation out(stmt.target, Schema::Make(std::move(fields)));

  // Hash each non-first input by key.
  using Matches = std::vector<const AnnotatedTuple*>;
  std::vector<std::unordered_map<ValueVec, Matches, ValueVecHash>> tables(
      inputs.size());
  for (size_t in = 1; in < inputs.size(); ++in) {
    for (const AnnotatedTuple& t : inputs[in]->bag) {
      LIPSTICK_ASSIGN_OR_RETURN(
          ValueVec key,
          EvalKeys(stmt.by_clauses[in], *inputs[in]->schema, t.tuple,
                   op.udfs));
      tables[in][std::move(key)].push_back(&t);
    }
  }

  // Probe with the first input; emit the cross product of matches.
  for (const AnnotatedTuple& t0 : inputs[0]->bag) {
    LIPSTICK_ASSIGN_OR_RETURN(
        ValueVec key,
        EvalKeys(stmt.by_clauses[0], *inputs[0]->schema, t0.tuple, op.udfs));
    std::vector<const Matches*> match_lists;
    bool missing = false;
    for (size_t in = 1; in < inputs.size(); ++in) {
      auto it = tables[in].find(key);
      if (it == tables[in].end()) {
        missing = true;
        break;
      }
      match_lists.push_back(&it->second);
    }
    if (missing) continue;

    std::vector<size_t> indices(match_lists.size(), 0);
    while (true) {
      Tuple tuple;
      std::vector<NodeId> parents;
      for (const Value& v : t0.tuple.values()) tuple.Append(v);
      if (t0.annot != kNoProvenance && op.writer != nullptr) {
        parents.push_back(op.writer->ResolveParent(t0.annot));
      }
      for (size_t k = 0; k < match_lists.size(); ++k) {
        const AnnotatedTuple* t = (*match_lists[k])[indices[k]];
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
        if (++indices[k] < match_lists[k]->size()) break;
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
  for (const auto& [name, cond] : stmt.split_targets) {
    LIPSTICK_ASSIGN_OR_RETURN(FieldType t,
                              InferExprType(*cond, *input.schema, op.udfs));
    if (t.kind() != FieldType::Kind::kBool) {
      return TypeErr(stmt.loc,
                     StrCat("SPLIT condition for '", name,
                            "' must be boolean"));
    }
    outs.emplace_back(name, input.schema);
  }
  for (const AnnotatedTuple& src : input.bag) {
    EvalContext ctx{input.schema.get(), &src.tuple, src.annot,
                    op.writer,          nullptr,    op.udfs};
    for (size_t i = 0; i < stmt.split_targets.size(); ++i) {
      LIPSTICK_ASSIGN_OR_RETURN(Value v,
                                EvalExpr(*stmt.split_targets[i].second, ctx));
      if (v.is_bool() && v.bool_value()) outs[i].bag.Add(src);
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
