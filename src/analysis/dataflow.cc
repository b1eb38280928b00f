#include "analysis/dataflow.h"

#include <algorithm>
#include <set>

#include "analysis/cost_model.h"
#include "common/str_util.h"
#include "pig/ast.h"
#include "pig/interpreter.h"
#include "provenance/graph.h"
#include "workflow/executor.h"

namespace lipstick::analysis {

/// ------------------------- interval arithmetic -------------------------

namespace {

uint64_t AddSat(uint64_t a, uint64_t b) {
  if (a == kCardInf || b == kCardInf) return kCardInf;
  uint64_t s = a + b;
  return s < a ? kCardInf : s;
}

uint64_t MulSat(uint64_t a, uint64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a == kCardInf || b == kCardInf) return kCardInf;
  if (a > kCardInf / b) return kCardInf;
  return a * b;
}

uint64_t SubFloor(uint64_t a, uint64_t b) {
  if (a == kCardInf) return kCardInf;
  return a > b ? a - b : 0;
}

}  // namespace

CardInterval CardInterval::operator+(const CardInterval& o) const {
  return {AddSat(lo, o.lo), AddSat(hi, o.hi)};
}

CardInterval CardInterval::operator*(const CardInterval& o) const {
  return {MulSat(lo, o.lo), MulSat(hi, o.hi)};
}

CardInterval CardInterval::Join(const CardInterval& o) const {
  return {std::min(lo, o.lo), std::max(hi, o.hi)};
}

CardInterval CardInterval::CapAt(const CardInterval& o) const {
  return {std::min(lo, o.lo), std::min(hi, o.hi)};
}

std::string CardInterval::ToString() const {
  if (exact()) return StrCat(lo);
  if (hi == kCardInf) return StrCat("[", lo, ", inf)");
  return StrCat("[", lo, ", ", hi, "]");
}

CardSet CardSet::Add(const CardSet& o) const {
  CardSet out{total + o.total, state};
  for (const auto& [rel, c] : o.state) {
    auto [it, fresh] = out.state.try_emplace(rel, c);
    if (!fresh) it->second += c;
  }
  return out;
}

CardSet CardSet::Join(const CardSet& o) const {
  CardSet out{total.Join(o.total), {}};
  // A state origin absent on one side joins against zero.
  for (const auto& [rel, c] : state) {
    auto it = o.state.find(rel);
    out.state[rel] =
        c.Join(it == o.state.end() ? CardInterval::Zero() : it->second);
  }
  for (const auto& [rel, c] : o.state) {
    if (!state.count(rel)) out.state[rel] = CardInterval::Zero().Join(c);
  }
  return out;
}

CardSet CardSet::Filtered() const {
  CardSet out{{0, total.hi}, {}};
  for (const auto& [rel, c] : state) out.state[rel] = {0, c.hi};
  return out;
}

Emission& Emission::operator+=(const Emission& o) {
  nodes += o.nodes;
  edges += o.edges;
  wide_nodes += o.wide_nodes;
  wide_edges += o.wide_edges;
  values += o.values;
  input_nodes += o.input_nodes;
  output_nodes += o.output_nodes;
  state_nodes += o.state_nodes;
  interned_strings += o.interned_strings;
  interned_chars += o.interned_chars;
  est_nodes += o.est_nodes;
  est_edges += o.est_edges;
  return *this;
}

Emission WorkflowFacts::Total() const {
  Emission total = shared;
  for (const InvocationProfile& p : invocations) total += p.emission;
  return total;
}

namespace {

using pig::ByClause;
using pig::Expr;
using pig::ExprKind;
using pig::GenItem;
using pig::Statement;
using pig::StatementKind;

/// Sum of decimal-digit counts of 0..n-1 (bytes the index part of token
/// payloads like "I0.src.Ext[17]" contributes when n tuples are named).
uint64_t DigitChars(uint64_t n) {
  if (n == kCardInf) return kCardInf;
  uint64_t total = 0;
  uint64_t low = 1;
  for (int digits = 1; low < n || (digits == 1 && n > 0); ++digits) {
    uint64_t high = (low > kCardInf / 10) ? kCardInf : low * 10;  // 10^digits
    uint64_t first = (digits == 1) ? 0 : low;
    if (first >= n) break;
    uint64_t count = std::min(n, high) - first;
    total = AddSat(total, MulSat(count, static_cast<uint64_t>(digits)));
    low = high;
  }
  return total;
}

/// Interned bytes of n tokens "<prefix><i>]" for i in 0..n-1.
CardInterval TokenChars(size_t prefix_len, CardInterval n) {
  uint64_t fixed = static_cast<uint64_t>(prefix_len) + 1;  // prefix + ']'
  return {AddSat(MulSat(n.lo, fixed), DigitChars(n.lo)),
          AddSat(MulSat(n.hi, fixed), DigitChars(n.hi))};
}

double EstOf(const CardInterval& c, double fallback) {
  if (c.exact()) return static_cast<double>(c.lo);
  return fallback;
}

/// Scalar type family for D0401/D0407: numeric kinds compare by value
/// (Value::Compare ranks int and double together), everything else only
/// matches its own kind.
enum class TypeFamily { kNumeric, kString, kBool, kOther };

TypeFamily FamilyOf(const FieldType& t) {
  switch (t.kind()) {
    case FieldType::Kind::kInt:
    case FieldType::Kind::kDouble:
      return TypeFamily::kNumeric;
    case FieldType::Kind::kString:
      return TypeFamily::kString;
    case FieldType::Kind::kBool:
      return TypeFamily::kBool;
    default:
      return TypeFamily::kOther;
  }
}

const char* FamilyName(TypeFamily f) {
  switch (f) {
    case TypeFamily::kNumeric: return "numeric";
    case TypeFamily::kString: return "string";
    case TypeFamily::kBool: return "boolean";
    case TypeFamily::kOther: return "non-scalar";
  }
  return "?";
}

/// ----------------------- expression site scanning ----------------------

struct AggSite {
  std::string op;         // upper-cased
  const Expr* arg;        // children[0]
  SourceLoc loc;
};

struct UdfSite {
  const Expr* expr;
  SourceLoc loc;
};

void ScanSites(const Expr& e, std::vector<AggSite>* aggs,
               std::vector<UdfSite>* udfs) {
  if (e.kind == ExprKind::kFuncCall) {
    if (pig::IsAggregateFunction(e.name)) {
      if (!e.children.empty()) {
        aggs->push_back(AggSite{ToUpper(e.name), e.children[0].get(), e.loc});
      }
    } else {
      udfs->push_back(UdfSite{&e, e.loc});
    }
  }
  for (const pig::ExprPtr& c : e.children) ScanSites(*c, aggs, udfs);
}

bool ExprReferencesData(const Expr& e) {
  if (e.kind == ExprKind::kFieldRef || e.kind == ExprKind::kPositional ||
      e.kind == ExprKind::kBagProject || e.kind == ExprKind::kFuncCall) {
    return true;
  }
  for (const pig::ExprPtr& c : e.children) {
    if (ExprReferencesData(*c)) return true;
  }
  return false;
}

void CollectFieldRefs(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind == ExprKind::kFieldRef || e.kind == ExprKind::kBagProject) {
    out->push_back(&e);
  }
  for (const pig::ExprPtr& c : e.children) CollectFieldRefs(*c, out);
}

/// Collects every name an expression reads: field refs (with the bare
/// field of "A::f" qualifications), bag-project bases and projected
/// fields. Used to decide whether a pruned field was ever consumed.
void CollectReadNames(const Expr& e, std::set<std::string>* out) {
  if (e.kind == ExprKind::kFieldRef) {
    out->insert(e.name);
    size_t sep = e.name.rfind("::");
    if (sep != std::string::npos) out->insert(e.name.substr(sep + 2));
  } else if (e.kind == ExprKind::kBagProject) {
    out->insert(e.name);
    out->insert(e.sub_name);
  }
  for (const pig::ExprPtr& c : e.children) CollectReadNames(*c, out);
}

bool IsComparison(pig::BinOp op) {
  switch (op) {
    case pig::BinOp::kEq:
    case pig::BinOp::kNe:
    case pig::BinOp::kLt:
    case pig::BinOp::kLe:
    case pig::BinOp::kGt:
    case pig::BinOp::kGe:
      return true;
    default:
      return false;
  }
}

/// -------------------------- module interpretation ----------------------

/// Abstract interpretation context for one module invocation.
struct ModuleCtx {
  const Workflow* wf = nullptr;
  const WorkflowNode* node = nullptr;
  const ModuleSpec* spec = nullptr;
  const AnalyzeOptions* opt = nullptr;
  /// Schema truth: the real interpreter over empty relations, statement by
  /// statement (the AnalyzeProgram trick, interleaved with the abstract
  /// transfer so each statement sees authoritative input schemas).
  pig::Environment schema_env;
  std::map<std::string, RelationFacts> facts;
  /// Current state population and how much of it is already s-wrapped in
  /// this invocation (ResolveParent caches per invocation).
  std::map<std::string, CardInterval> state_card;
  std::map<std::string, CardInterval> wrapped;
  Emission em;
  DiagnosticSink* sink = nullptr;  // diagnostics pass only
  std::string file;
  std::set<std::string>* static_names = nullptr;

  RelationFacts GetFacts(const std::string& name) const {
    auto it = facts.find(name);
    if (it != facts.end()) return it->second;
    RelationFacts unknown;
    unknown.card.total = CardInterval::Unknown();
    return unknown;
  }

  void Report(std::string code, Severity sev, SourceLoc loc, std::string msg,
              std::string note = "") {
    if (sink == nullptr) return;
    Diagnostic d{std::move(code), sev, loc, std::move(msg), std::move(note),
                 file};
    sink->Report(std::move(d));
  }

  void InternStatic(const std::string& name) {
    if (static_names != nullptr) static_names->insert(name);
  }

  /// Every name read by any expression across the module's programs
  /// (memoized; used by the D0405 pruned-without-reading check).
  const std::set<std::string>& ReadNames() {
    if (!read_names_ready_) {
      read_names_ready_ = true;
      auto scan = [&](const pig::Program& prog) {
        for (const Statement& s : prog.statements) {
          for (const pig::GenItem& g : s.gen_items) {
            CollectReadNames(*g.expr, &read_names_);
          }
          if (s.condition != nullptr) {
            CollectReadNames(*s.condition, &read_names_);
          }
          for (const pig::ByClause& c : s.by_clauses) {
            for (const pig::ExprPtr& k : c.keys) {
              CollectReadNames(*k, &read_names_);
            }
          }
          for (const auto& [unused, cond] : s.split_targets) {
            CollectReadNames(*cond, &read_names_);
          }
          for (const pig::OrderKey& k : s.order_keys) {
            read_names_.insert(k.field);
          }
        }
      };
      if (spec != nullptr) {
        scan(spec->qstate);
        scan(spec->qout);
      }
    }
    return read_names_;
  }

  /// Accounts the lazy "s" wrappers created when `consumed` state-origin
  /// tuples feed a derivation: each un-wrapped one costs a ·(base, m) node.
  void ConsumeState(const CardSet& consumed) {
    for (const auto& [rel, c] : consumed.state) {
      CardInterval have = state_card.count(rel) ? state_card[rel]
                                                : CardInterval::Zero();
      CardInterval& w = wrapped[rel];
      CardInterval fresh{SubFloor(c.lo, w.hi),
                         std::min(c.hi, SubFloor(have.hi, w.lo))};
      if (fresh.hi == 0) continue;
      em.nodes += fresh;
      em.edges += fresh * CardInterval::Exact(2);
      em.state_nodes += fresh;
      em.est_nodes += EstOf(fresh, 0);
      em.est_edges += 2 * EstOf(fresh, 0);
      w = (w + fresh).CapAt(have);
    }
  }

 private:
  std::set<std::string> read_names_;
  bool read_names_ready_ = false;
};

/// Resolves the bag facts an aggregate/flatten argument ranges over.
BagFacts ArgBagFacts(const ModuleCtx& cx, const RelationFacts& in,
                     const Expr& arg) {
  if ((arg.kind == ExprKind::kFieldRef || arg.kind == ExprKind::kBagProject) &&
      in.schema != nullptr) {
    if (auto idx = in.schema->FindField(arg.name)) {
      auto it = in.bags.find(*idx);
      if (it != in.bags.end()) return it->second;
    }
  }
  BagFacts unknown;
  unknown.members.total = CardInterval::Unknown();
  unknown.est = cx.opt->selectivities.flatten;
  return unknown;
}

/// Emission of the per-tuple "specials" (aggregate and black-box nodes)
/// the expressions of one statement create. `n` is the statement's input
/// cardinality: each input tuple evaluates every site once.
void TallySpecials(ModuleCtx& cx, const RelationFacts& in, CardInterval n,
                   double n_est, const std::vector<AggSite>& aggs,
                   const std::vector<UdfSite>& udfs) {
  for (const AggSite& a : aggs) {
    BagFacts bag = ArgBagFacts(cx, in, *a.arg);
    CardInterval t = bag.members.total;
    double t_est = bag.est;
    // Input tuples whose bag is empty fall back to one edge from the
    // group tuple itself.
    CardInterval empties = CardInterval::Zero();
    if (t.hi == 0) {
      empties = n;
    } else if (!bag.min_one) {
      empties = {0, n.hi};
    }
    cx.InternStatic(a.op);
    if (a.op == "COUNT") {
      cx.em.nodes += n;
      cx.em.edges += t + empties;
      cx.em.values += n;
      cx.em.est_nodes += n_est;
      cx.em.est_edges += t_est;
    } else {
      // Per member: a const v-node and a ⊗ pairing it with the tuple
      // (2 nodes, 2 edges), plus one aggregate edge; per input tuple: the
      // aggregate v-node itself.
      cx.em.nodes += n + t * CardInterval::Exact(2);
      cx.em.edges += t * CardInterval::Exact(3) + empties;
      cx.em.values += CardInterval{0, AddSat(t.hi, n.hi)};
      cx.em.est_nodes += n_est + 2 * t_est;
      cx.em.est_edges += 3 * t_est;
    }
    cx.ConsumeState(bag.members);
  }
  for (const UdfSite& u : udfs) {
    CardSet bag_members;
    bool scalar_arg = false;
    for (const pig::ExprPtr& child : u.expr->children) {
      bool is_bag_arg = false;
      if (in.schema != nullptr &&
          (child->kind == ExprKind::kFieldRef ||
           child->kind == ExprKind::kBagProject)) {
        if (auto idx = in.schema->FindField(child->name)) {
          if (in.schema->field(*idx).type.kind() == FieldType::Kind::kBag ||
              child->kind == ExprKind::kBagProject) {
            is_bag_arg = true;
            bag_members = bag_members.Add(ArgBagFacts(cx, in, *child).members);
          }
        }
      }
      if (!is_bag_arg) scalar_arg = true;
    }
    cx.InternStatic(ToLower(u.expr->name));
    cx.em.nodes += n;
    cx.em.est_nodes += n_est;
    CardInterval edges = bag_members.total;
    if (scalar_arg) edges += n;
    cx.em.edges += edges;
    cx.em.est_edges += EstOf(edges, n_est);
    cx.ConsumeState(bag_members);
    if (scalar_arg) cx.ConsumeState(in.card);
  }
}

/// Checks comparisons in `e` for mismatched scalar type families (D0407).
void CheckComparisons(ModuleCtx& cx, const Expr& e, const Schema* schema) {
  if (schema != nullptr && e.kind == ExprKind::kBinaryOp &&
      IsComparison(e.bin_op) && e.children.size() == 2) {
    Result<FieldType> lt =
        pig::InferExprType(*e.children[0], *schema, cx.opt->udfs);
    Result<FieldType> rt =
        pig::InferExprType(*e.children[1], *schema, cx.opt->udfs);
    if (lt.ok() && rt.ok()) {
      TypeFamily lf = FamilyOf(lt.value());
      TypeFamily rf = FamilyOf(rt.value());
      if (lf != rf && lf != TypeFamily::kOther && rf != TypeFamily::kOther) {
        cx.Report("D0407", Severity::kWarning, e.loc,
                  StrCat("comparison mixes ", FamilyName(lf), " and ",
                         FamilyName(rf), " operands"),
                  "values of different kinds never compare equal; the "
                  "condition is constant in practice");
      }
    }
  }
  for (const pig::ExprPtr& c : e.children) CheckComparisons(cx, *c, schema);
}

/// Checks field references in `e` against facts (D0405: pruned upstream).
void CheckFieldRefs(ModuleCtx& cx, const Expr& e, const RelationFacts& in) {
  if (in.schema == nullptr) return;
  std::vector<const Expr*> refs;
  CollectFieldRefs(e, &refs);
  for (const Expr* ref : refs) {
    if (in.schema->FindField(ref->name)) continue;
    auto it = in.pruned.find(ref->name);
    if (it == in.pruned.end()) continue;
    cx.Report("D0405", Severity::kNote, ref->loc,
              StrCat("field '", ref->name,
                     "' was pruned by the FOREACH at line ", it->second.line),
              "add the field to that statement's GENERATE list to keep it");
  }
}

/// Reports D0403 when a derivation consumes a statically-empty relation.
void CheckEmptyInput(ModuleCtx& cx, const Statement& stmt,
                     const std::string& name) {
  auto it = cx.facts.find(name);
  if (it == cx.facts.end()) return;  // unbound: the linter's department
  if (it->second.card.total.hi == 0) {
    cx.Report("D0403", Severity::kWarning, stmt.loc,
              StrCat("relation '", name, "' is statically empty here"),
              "every upstream path yields zero tuples; this derivation "
              "can never produce output");
  }
}

/// Key type family per BY clause, for D0401.
void CheckKeyFamilies(ModuleCtx& cx, const Statement& stmt) {
  if (cx.sink == nullptr || stmt.by_clauses.size() < 2) return;
  size_t arity = stmt.by_clauses[0].keys.size();
  for (size_t pos = 0; pos < arity; ++pos) {
    TypeFamily first = TypeFamily::kOther;
    const Expr* first_expr = nullptr;
    for (const ByClause& clause : stmt.by_clauses) {
      if (pos >= clause.keys.size()) break;
      RelationFacts in = cx.GetFacts(clause.relation);
      if (in.schema == nullptr) continue;
      Result<FieldType> t =
          pig::InferExprType(*clause.keys[pos], *in.schema, cx.opt->udfs);
      if (!t.ok()) continue;
      TypeFamily f = FamilyOf(t.value());
      if (f == TypeFamily::kOther) continue;
      if (first_expr == nullptr) {
        first = f;
        first_expr = clause.keys[pos].get();
      } else if (f != first) {
        cx.Report("D0401", Severity::kWarning, clause.keys[pos]->loc,
                  StrCat("key #", pos + 1, " is ", FamilyName(f), " here but ",
                         FamilyName(first), " in the first BY clause"),
                  "keys of different kinds never match, so this "
                  "join/cogroup degenerates");
      }
    }
  }
}

/// Schema of the statement's target per the real interpreter (empty-
/// relation execution); null when the statement does not type-check.
SchemaPtr InferTargetSchema(ModuleCtx& cx, const Statement& stmt) {
  pig::Interpreter interp(cx.opt->udfs);
  Result<const Relation*> bound =
      interp.RunStatement(stmt, &cx.schema_env, nullptr);
  if (!bound.ok()) return nullptr;
  return bound.value()->schema;
}

FieldFact FieldFactOfItem(const RelationFacts& in, const GenItem& item,
                          bool out_is_input_bijection) {
  FieldFact f;
  const Expr& e = *item.expr;
  if (e.kind == ExprKind::kConst) {
    f.nullable = e.literal.is_null();
    f.unique = false;
    return f;
  }
  if (e.kind == ExprKind::kFieldRef && in.schema != nullptr) {
    if (auto idx = in.schema->FindField(e.name)) {
      FieldFact src = in.FieldAt(*idx);
      f.nullable = src.nullable;
      f.unique = src.unique && out_is_input_bijection;
      return f;
    }
  }
  if (e.kind == ExprKind::kFuncCall && pig::IsAggregateFunction(e.name)) {
    std::string op = ToUpper(e.name);
    // COUNT and SUM always produce a value; MIN/MAX/AVG are null on an
    // empty bag.
    if (op == "COUNT" || op == "SUM") f.nullable = false;
    return f;
  }
  return f;  // nullable, not unique
}

void TransferForEach(ModuleCtx& cx, const Statement& stmt) {
  RelationFacts in = cx.GetFacts(stmt.inputs[0]);
  CardInterval n = in.card.total;
  double n_est = in.est;

  std::vector<AggSite> aggs;
  std::vector<UdfSite> udfs;
  for (const GenItem& item : stmt.gen_items) {
    ScanSites(*item.expr, &aggs, &udfs);
    if (cx.sink != nullptr) {
      CheckComparisons(cx, *item.expr, in.schema.get());
      CheckFieldRefs(cx, *item.expr, in);
    }
  }
  TallySpecials(cx, in, n, n_est, aggs, udfs);
  size_t specials = aggs.size() + udfs.size();

  // FLATTEN of bag-typed items drives the output cross product.
  size_t flat_bags = 0;       // bag-flatten items (join-style parents)
  size_t flat_known = 0;      // ... whose parent annots are distinct
  CardInterval out = n;
  double out_est = n_est;
  for (const GenItem& item : stmt.gen_items) {
    if (!item.flatten || in.schema == nullptr) continue;
    Result<FieldType> t =
        pig::InferExprType(*item.expr, *in.schema, cx.opt->udfs);
    if (!t.ok() || t.value().kind() != FieldType::Kind::kBag) continue;
    ++flat_bags;
    BagFacts f = ArgBagFacts(cx, in, *item.expr);
    bool udf_origin = item.expr->kind == ExprKind::kFuncCall;
    if (!udf_origin) ++flat_known;
    if (flat_bags == 1) {
      out = f.members.total;
      out_est = f.est;
    } else {
      out = CardInterval{0, MulSat(out.hi, f.members.total.hi)};
      out_est *= f.est / std::max(1.0, n_est);
    }
    if (!udf_origin) cx.ConsumeState(f.members);
  }
  if (flat_bags == 0) {
    cx.ConsumeState(in.card);  // src resolved for every tuple
  } else {
    cx.ConsumeState(in.card.Filtered());  // only tuples that emit output
  }

  // Output + / · nodes: parents = src, the specials, one per distinct
  // flattened inner annotation (UDF-returned bags dedup against their
  // black-box special).
  uint64_t p = 1 + specials + flat_known;
  uint64_t p_min = 1 + specials + (flat_bags > 0 ? 1u : 0u);
  cx.em.nodes += out;
  cx.em.edges += CardInterval{MulSat(out.lo, p_min), MulSat(out.hi, p)};
  cx.em.est_nodes += out_est;
  cx.em.est_edges += out_est * static_cast<double>(p);
  if (p > internal::kInlineParents) {
    if (flat_bags <= 1) {
      cx.em.wide_nodes += out;
      cx.em.wide_edges += out * CardInterval::Exact(p);
    } else {
      cx.em.wide_nodes += CardInterval{0, out.hi};
      cx.em.wide_edges += CardInterval{0, MulSat(out.hi, p)};
    }
  }

  RelationFacts target;
  target.schema = InferTargetSchema(cx, stmt);
  target.card.total = out;
  target.est = out_est;
  bool bijection = flat_bags == 0;
  if (target.schema != nullptr) {
    size_t out_idx = 0;
    for (const GenItem& item : stmt.gen_items) {
      if (item.flatten && in.schema != nullptr) {
        Result<FieldType> t =
            pig::InferExprType(*item.expr, *in.schema, cx.opt->udfs);
        if (t.ok() && t.value().nested() != nullptr &&
            (t.value().kind() == FieldType::Kind::kBag ||
             t.value().kind() == FieldType::Kind::kTuple)) {
          out_idx += t.value().nested()->num_fields();
          continue;
        }
      }
      if (out_idx < target.schema->num_fields()) {
        while (target.fields.size() < out_idx) target.fields.push_back({});
        target.fields.push_back(FieldFactOfItem(in, item, bijection));
        // Bag-valued pass-through keeps its member facts only when the
        // output is tuple-per-tuple (no flatten multiplying rows).
        if (bijection &&
            target.schema->field(out_idx).type.kind() ==
                FieldType::Kind::kBag &&
            (item.expr->kind == ExprKind::kFieldRef ||
             item.expr->kind == ExprKind::kBagProject)) {
          target.bags[out_idx] = ArgBagFacts(cx, in, *item.expr);
        }
      }
      ++out_idx;
    }
    while (target.fields.size() < target.schema->num_fields()) {
      target.fields.push_back({});
    }
    // Fields of the input that no longer resolve in the output were pruned
    // here; remember the site, and flag D0405 when a field that crossed
    // the module boundary (declared input/state schema) is dropped without
    // any expression in the module ever reading it — the upstream work
    // that produced and shipped the field is wasted.
    target.pruned = in.pruned;
    if (in.schema != nullptr) {
      bool from_declared =
          cx.spec != nullptr &&
          (cx.spec->input_schemas.count(stmt.inputs[0]) > 0 ||
           cx.spec->state_schemas.count(stmt.inputs[0]) > 0);
      for (const Field& f : in.schema->fields()) {
        if (!target.schema->FindField(f.name)) {
          target.pruned[f.name] = stmt.loc;
          if (from_declared && cx.ReadNames().count(f.name) == 0) {
            cx.Report("D0405", Severity::kNote, stmt.loc,
                      StrCat("field '", f.name, "' of '", stmt.inputs[0],
                             "' is dropped here without ever being read"),
                      "the upstream module pays to produce and ship it; "
                      "drop it from the schema instead");
          }
        }
      }
    }
  }
  cx.facts[stmt.target] = std::move(target);
}

void TransferGroup(ModuleCtx& cx, const Statement& stmt) {
  if (stmt.by_clauses.empty()) return;
  CheckKeyFamilies(cx, stmt);
  std::vector<RelationFacts> ins;
  CardSet total;
  double total_est = 0;
  for (const ByClause& clause : stmt.by_clauses) {
    ins.push_back(cx.GetFacts(clause.relation));
    total = total.Add(ins.back().card);
    total_est += ins.back().est;
  }
  bool group_all = stmt.by_clauses[0].keys.empty();
  bool single = ins.size() == 1;

  CardInterval g;
  double g_est;
  bool unique_key = false;
  if (single && !group_all && stmt.by_clauses[0].keys.size() == 1 &&
      stmt.by_clauses[0].keys[0]->kind == ExprKind::kFieldRef &&
      ins[0].schema != nullptr) {
    if (auto idx = ins[0].schema->FindField(stmt.by_clauses[0].keys[0]->name)) {
      unique_key = ins[0].FieldAt(*idx).unique;
    }
  }
  if (group_all) {
    g = CardInterval{total.total.lo > 0 ? 1u : 0u, total.total.hi > 0 ? 1u : 0u};
    g_est = total.total.hi > 0 ? 1 : 0;
  } else if (unique_key) {
    g = total.total;
    g_est = total_est;
  } else {
    g = CardInterval{total.total.lo > 0 ? 1u : 0u, total.total.hi};
    g_est = std::max(1.0, total_est * cx.opt->selectivities.group);
  }

  cx.em.nodes += g;
  cx.em.edges += total.total;
  cx.em.est_nodes += g_est;
  cx.em.est_edges += total_est;
  if (g.hi <= 1 && g.exact() && total.total.exact()) {
    if (total.total.lo > internal::kInlineParents) {
      cx.em.wide_nodes += g;
      cx.em.wide_edges += total.total;
    }
  } else if (unique_key && single) {
    // each group has exactly one member: never wide
  } else {
    cx.em.wide_nodes += CardInterval{0, g.hi};
    cx.em.wide_edges += CardInterval{0, total.total.hi};
  }
  cx.ConsumeState(total);

  RelationFacts target;
  target.schema = InferTargetSchema(cx, stmt);
  target.card.total = g;
  target.est = g_est;
  if (target.schema != nullptr) {
    target.fields.resize(target.schema->num_fields());
    target.fields[0] = FieldFact{/*nullable=*/!group_all, /*unique=*/true};
    for (size_t i = 0; i < ins.size() && i + 1 < target.schema->num_fields();
         ++i) {
      BagFacts bag;
      bag.members = ins[i].card;  // member annotations survive into the bag
      bag.est = ins[i].est;
      bag.min_one = single;
      target.bags[i + 1] = std::move(bag);
    }
  }
  cx.facts[stmt.target] = std::move(target);
}

void TransferJoin(ModuleCtx& cx, const Statement& stmt) {
  if (stmt.by_clauses.empty()) return;
  CheckKeyFamilies(cx, stmt);
  std::vector<RelationFacts> ins;
  std::vector<bool> unique;
  for (const ByClause& clause : stmt.by_clauses) {
    ins.push_back(cx.GetFacts(clause.relation));
    bool u = false;
    if (clause.keys.size() == 1 &&
        clause.keys[0]->kind == ExprKind::kFieldRef &&
        ins.back().schema != nullptr) {
      if (auto idx = ins.back().schema->FindField(clause.keys[0]->name)) {
        u = ins.back().FieldAt(*idx).unique;
      }
    }
    unique.push_back(u);
  }
  size_t k = ins.size();

  uint64_t hi = 1;
  for (const RelationFacts& in : ins) hi = MulSat(hi, in.card.total.hi);
  // A clause with a unique key contributes at most one match per probe:
  // the output is bounded by each input whose counterparts are all unique.
  for (size_t j = 0; j < k; ++j) {
    uint64_t bound = ins[j].card.total.hi;
    bool all_unique = true;
    for (size_t i = 0; i < k; ++i) {
      if (i != j && !unique[i]) all_unique = false;
    }
    if (all_unique) hi = std::min(hi, bound);
  }
  CardInterval out{0, hi};
  double out_est = ins.empty() ? 0 : ins[0].est;
  for (size_t i = 1; i < k; ++i) {
    out_est *= ins[i].est * cx.opt->selectivities.join;
  }

  cx.em.nodes += out;
  cx.em.edges += out * CardInterval::Exact(k);
  cx.em.est_nodes += out_est;
  cx.em.est_edges += out_est * static_cast<double>(k);
  if (k > internal::kInlineParents) {
    cx.em.wide_nodes += out;
    cx.em.wide_edges += out * CardInterval::Exact(k);
  }
  for (const RelationFacts& in : ins) cx.ConsumeState(in.card.Filtered());

  RelationFacts target;
  target.schema = InferTargetSchema(cx, stmt);
  target.card.total = out;
  target.est = out_est;
  if (target.schema != nullptr) {
    for (const RelationFacts& in : ins) {
      for (size_t i = 0; in.schema != nullptr && i < in.schema->num_fields();
           ++i) {
        FieldFact f = in.FieldAt(i);
        f.unique = false;
        target.fields.push_back(f);
      }
    }
    target.fields.resize(target.schema->num_fields());
    for (const RelationFacts& in : ins) {
      for (const auto& [name, loc] : in.pruned) target.pruned[name] = loc;
    }
  }
  cx.facts[stmt.target] = std::move(target);
}

void TransferCross(ModuleCtx& cx, const Statement& stmt) {
  std::vector<RelationFacts> ins;
  CardInterval out = CardInterval::Exact(1);
  double out_est = 1;
  for (const std::string& name : stmt.inputs) {
    ins.push_back(cx.GetFacts(name));
    out = out * ins.back().card.total;
    out_est *= ins.back().est;
  }
  size_t k = ins.size();
  if (cx.sink != nullptr &&
      (out.hi == kCardInf || out_est >= 100000.0)) {
    cx.Report("D0402", Severity::kWarning, stmt.loc,
              StrCat("CROSS may produce ", out.ToString(),
                     " tuples (estimated ", static_cast<uint64_t>(out_est),
                     ")"),
              "every output tuple is a · node with one edge per input; "
              "consider a keyed JOIN");
  }
  cx.em.nodes += out;
  cx.em.edges += out * CardInterval::Exact(k);
  cx.em.est_nodes += out_est;
  cx.em.est_edges += out_est * static_cast<double>(k);
  if (k > internal::kInlineParents) {
    cx.em.wide_nodes += out;
    cx.em.wide_edges += out * CardInterval::Exact(k);
  }
  for (const RelationFacts& in : ins) cx.ConsumeState(in.card.Filtered());

  RelationFacts target;
  target.schema = InferTargetSchema(cx, stmt);
  target.card.total = out;
  target.est = out_est;
  cx.facts[stmt.target] = std::move(target);
}

void TransferUnion(ModuleCtx& cx, const Statement& stmt) {
  RelationFacts target;
  target.schema = InferTargetSchema(cx, stmt);
  CardSet card;
  double est = 0;
  bool first = true;
  for (const std::string& name : stmt.inputs) {
    RelationFacts in = cx.GetFacts(name);
    card = card.Add(in.card);
    est += in.est;
    if (first) {
      target.fields = in.fields;
      target.bags = in.bags;
      target.pruned = in.pruned;
      first = false;
    } else {
      for (size_t i = 0; i < target.fields.size(); ++i) {
        FieldFact other = in.FieldAt(i);
        target.fields[i].nullable |= other.nullable;
        target.fields[i].unique = false;
      }
      for (auto& [idx, bag] : target.bags) {
        auto it = in.bags.find(idx);
        if (it != in.bags.end()) {
          bag.members = bag.members.Add(it->second.members);
          bag.est += it->second.est;
          bag.min_one &= it->second.min_one;
        } else {
          bag.min_one = false;
        }
      }
      for (const auto& [name2, loc] : in.pruned) target.pruned[name2] = loc;
    }
  }
  target.card = card;
  target.est = est;
  cx.facts[stmt.target] = std::move(target);
}

void TransferFilterLike(ModuleCtx& cx, const Expr& condition,
                        const std::string& target_name,
                        const RelationFacts& in, bool tally_condition) {
  if (cx.sink != nullptr) {
    CheckComparisons(cx, condition, in.schema.get());
    CheckFieldRefs(cx, condition, in);
    if (!ExprReferencesData(condition)) {
      cx.Report("D0406", Severity::kWarning, condition.loc,
                "condition is statically constant",
                "it references no field, so it keeps either every tuple or "
                "none");
    }
  }
  if (tally_condition) {
    std::vector<AggSite> aggs;
    std::vector<UdfSite> udfs;
    ScanSites(condition, &aggs, &udfs);
    TallySpecials(cx, in, in.card.total, in.est, aggs, udfs);
  }

  // Uniqueness survives a subset; nullability is unchanged.
  RelationFacts target = in;
  target.card = in.card.Filtered();
  target.est = in.est * cx.opt->selectivities.filter;
  for (auto& [idx, bag] : target.bags) {
    bag.members = bag.members.Filtered();
    bag.est *= cx.opt->selectivities.filter;
  }
  cx.facts[target_name] = std::move(target);
}

void TransferStatement(ModuleCtx& cx, const Statement& stmt) {
  if (cx.sink != nullptr) {
    // D0403 on every consumed relation.
    if (stmt.kind == StatementKind::kGroup ||
        stmt.kind == StatementKind::kCogroup ||
        stmt.kind == StatementKind::kJoin) {
      for (const ByClause& c : stmt.by_clauses) CheckEmptyInput(cx, stmt, c.relation);
    } else if (stmt.kind == StatementKind::kForEach ||
               stmt.kind == StatementKind::kDistinct ||
               stmt.kind == StatementKind::kCross) {
      for (const std::string& name : stmt.inputs) CheckEmptyInput(cx, stmt, name);
    }
  }
  switch (stmt.kind) {
    case StatementKind::kForEach:
      TransferForEach(cx, stmt);
      break;
    case StatementKind::kGroup:
    case StatementKind::kCogroup:
      TransferGroup(cx, stmt);
      break;
    case StatementKind::kJoin:
      TransferJoin(cx, stmt);
      break;
    case StatementKind::kCross:
      TransferCross(cx, stmt);
      break;
    case StatementKind::kUnion:
      TransferUnion(cx, stmt);
      break;
    case StatementKind::kFilter: {
      RelationFacts in = cx.GetFacts(stmt.inputs[0]);
      TransferFilterLike(cx, *stmt.condition, stmt.target, in, true);
      break;
    }
    case StatementKind::kSplit: {
      RelationFacts in = cx.GetFacts(stmt.inputs[0]);
      for (const auto& [name, cond] : stmt.split_targets) {
        TransferFilterLike(cx, *cond, name, in, true);
      }
      break;
    }
    case StatementKind::kDistinct: {
      RelationFacts in = cx.GetFacts(stmt.inputs[0]);
      CardInterval n = in.card.total;
      CardInterval out{n.lo > 0 ? 1u : 0u, n.hi};
      cx.em.nodes += out;
      cx.em.edges += n;
      cx.em.est_nodes += std::max(n.lo > 0 ? 1.0 : 0.0,
                                  in.est * cx.opt->selectivities.group);
      cx.em.est_edges += in.est;
      cx.em.wide_nodes += CardInterval{0, out.hi};
      cx.em.wide_edges += CardInterval{0, n.hi};
      cx.ConsumeState(in.card);
      RelationFacts target = in;
      target.card = CardSet{out, {}};
      target.est = std::max(1.0, in.est * cx.opt->selectivities.group);
      target.bags.clear();
      if (target.fields.size() == 1) target.fields[0].unique = true;
      cx.facts[stmt.target] = std::move(target);
      break;
    }
    case StatementKind::kOrderBy:
    case StatementKind::kAlias: {
      cx.facts[stmt.target] = cx.GetFacts(stmt.inputs[0]);
      break;
    }
    case StatementKind::kLimit: {
      RelationFacts in = cx.GetFacts(stmt.inputs[0]);
      uint64_t limit = stmt.limit < 0 ? 0 : static_cast<uint64_t>(stmt.limit);
      RelationFacts target = in;
      target.card.total = {std::min(in.card.total.lo, limit),
                           std::min(in.card.total.hi, limit)};
      for (auto& [rel, c] : target.card.state) c = {0, c.hi};
      target.est = std::min(in.est, static_cast<double>(limit));
      for (auto& [idx, bag] : target.bags) {
        bag.members = bag.members.Filtered();
      }
      cx.facts[stmt.target] = std::move(target);
      break;
    }
  }
  // Keep the schema environment in sync for statements whose transfer did
  // not call InferTargetSchema (pass-through kinds bind their target too).
  if (!cx.schema_env.Contains(stmt.target) ||
      cx.facts.count(stmt.target) == 0 ||
      cx.facts[stmt.target].schema == nullptr) {
    pig::Interpreter interp(cx.opt->udfs);
    Result<const Relation*> bound =
        interp.RunStatement(stmt, &cx.schema_env, nullptr);
    if (bound.ok() && cx.facts.count(stmt.target) &&
        cx.facts[stmt.target].schema == nullptr) {
      cx.facts[stmt.target].schema = bound.value()->schema;
    }
  }
}

/// ----------------------- D0404: dead relations -------------------------

void CheckDeadRelations(const ModuleSpec& spec, const std::string& file,
                        DiagnosticSink* sink) {
  std::vector<const Statement*> stmts;
  for (const Statement& s : spec.qstate.statements) stmts.push_back(&s);
  for (const Statement& s : spec.qout.statements) stmts.push_back(&s);

  std::set<std::string> live;
  for (const auto& [name, schema] : spec.output_schemas) live.insert(name);
  for (const auto& [name, schema] : spec.state_schemas) live.insert(name);

  auto stmt_inputs = [](const Statement& s) {
    std::vector<std::string> in = s.inputs;
    for (const ByClause& c : s.by_clauses) in.push_back(c.relation);
    return in;
  };
  auto stmt_targets = [](const Statement& s) {
    std::vector<std::string> t;
    if (s.kind == StatementKind::kSplit) {
      for (const auto& [name, cond] : s.split_targets) t.push_back(name);
    } else {
      t.push_back(s.target);
    }
    return t;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (const Statement* s : stmts) {
      bool any_live = false;
      for (const std::string& t : stmt_targets(*s)) {
        if (live.count(t)) any_live = true;
      }
      if (!any_live) continue;
      for (const std::string& in : stmt_inputs(*s)) {
        if (live.insert(in).second) changed = true;
      }
    }
  }
  for (const Statement* s : stmts) {
    for (const std::string& t : stmt_targets(*s)) {
      if (!live.count(t)) {
        Diagnostic d{"D0404", Severity::kWarning, s->loc,
                     StrCat("relation '", t, "' never reaches an output or "
                            "state relation"),
                     StrCat("module '", spec.name, "' computes it and drops "
                            "it; its provenance nodes are dead weight"),
                     file};
        sink->Report(std::move(d));
      }
    }
  }
}

/// -------------------- deletion-propagation analysis --------------------

struct TaintResult {
  std::set<std::string> outputs;  // tainted output relations
  std::set<std::string> state;    // tainted state relations (as persisted)
  bool bounded = true;
  bool consumed = false;  // a tainted relation fed a node-creating operator
  std::string site;       // first unbounded witness
  SourceLoc loc;
};

bool IsNodeCreating(StatementKind k) {
  switch (k) {
    case StatementKind::kForEach:
    case StatementKind::kGroup:
    case StatementKind::kCogroup:
    case StatementKind::kJoin:
    case StatementKind::kCross:
    case StatementKind::kDistinct:
      return true;
    default:
      return false;
  }
}

/// Taints `source` and pushes it through the module's statements under
/// Definition 4.2 (· and ⊗ die on any parent death; +, δ, aggregates and
/// black boxes only when all parents die — still a possible singleton, so
/// taint continues but stays bounded).
TaintResult TaintModule(const ModuleSpec& spec, const std::string& source,
                        const std::map<std::string, RelationFacts>& facts) {
  TaintResult r;
  std::set<std::string> tainted{source};

  auto is_unique_key = [&facts](const ByClause& clause) {
    if (clause.keys.size() != 1 ||
        clause.keys[0]->kind != ExprKind::kFieldRef) {
      return false;
    }
    auto it = facts.find(clause.relation);
    if (it == facts.end() || it->second.schema == nullptr) return false;
    auto idx = it->second.schema->FindField(clause.keys[0]->name);
    return idx.has_value() && it->second.FieldAt(*idx).unique;
  };

  auto process = [&](const Statement& s) {
    std::vector<std::string> inputs = s.inputs;
    for (const ByClause& c : s.by_clauses) inputs.push_back(c.relation);
    bool any = false;
    std::vector<bool> in_tainted;
    for (const std::string& in : inputs) {
      bool t = tainted.count(in) > 0;
      in_tainted.push_back(t);
      any |= t;
    }
    auto mark_unbounded = [&](const char* what) {
      if (r.bounded) {
        r.bounded = false;
        r.site = what;
        r.loc = s.loc;
      }
    };
    if (any) {
      if (IsNodeCreating(s.kind)) r.consumed = true;
      switch (s.kind) {
        case StatementKind::kForEach:
          for (const GenItem& item : s.gen_items) {
            if (item.flatten) mark_unbounded("FLATTEN fan-out");
          }
          break;
        case StatementKind::kJoin: {
          // Deleting a tuple of input j kills one · node per match
          // combination of the other inputs — bounded only when every
          // other clause has a unique key.
          for (size_t j = 0; j < s.by_clauses.size(); ++j) {
            if (!in_tainted[j]) continue;
            for (size_t i = 0; i < s.by_clauses.size(); ++i) {
              if (i != j && !is_unique_key(s.by_clauses[i])) {
                mark_unbounded("JOIN fan-out");
              }
            }
          }
          break;
        }
        case StatementKind::kCross:
          if (s.inputs.size() > 1) mark_unbounded("CROSS fan-out");
          break;
        default:
          break;
      }
    }
    // Rebind target taint (last binding wins for later statements).
    if (s.kind == StatementKind::kSplit) {
      for (const auto& [name, cond] : s.split_targets) {
        bool keep = name == source && tainted.count(name) > 0;
        if (any || keep) {
          tainted.insert(name);
        } else {
          tainted.erase(name);
        }
      }
    } else {
      if (any) {
        tainted.insert(s.target);
      } else if (s.target != source) {
        tainted.erase(s.target);
      }
    }
  };
  for (const Statement& s : spec.qstate.statements) process(s);
  for (const Statement& s : spec.qout.statements) process(s);

  for (const auto& [name, schema] : spec.output_schemas) {
    if (tainted.count(name)) r.outputs.insert(name);
  }
  for (const auto& [name, schema] : spec.state_schemas) {
    if (tainted.count(name)) r.state.insert(name);
  }
  return r;
}

}  // namespace

/// --------------------------- the driver --------------------------------

namespace {

struct NodeRound {
  std::map<std::string, RelationFacts> outputs;  // output rel -> facts
  Emission em;
};

/// Interval interpretation of one workflow round (one execution). Mutates
/// `state_facts`; returns per-node output facts and per-node emission.
class IntervalDriver {
 public:
  IntervalDriver(const Workflow& wf, const AnalyzeOptions& opt,
                 const std::vector<std::string>& topo,
                 std::set<std::string>* static_names)
      : wf_(wf), opt_(opt), topo_(topo), static_names_(static_names) {}

  /// State facts: instance -> state relation -> facts.
  using StateFacts = std::map<std::string, std::map<std::string, RelationFacts>>;

  StateFacts InitialState() const {
    StateFacts state;
    for (const WorkflowNode& n : wf_.nodes()) {
      const ModuleSpec* spec = *wf_.FindModule(n.module);
      for (const auto& [rel, schema] : spec->state_schemas) {
        RelationFacts f;
        f.schema = schema;
        f.fields.resize(schema->num_fields());
        auto inst = opt_.initial_state.find(n.instance);
        if (inst != opt_.initial_state.end() &&
            inst->second.count(rel)) {
          uint64_t sz = inst->second.at(rel).size();
          f.card.total = CardInterval::Exact(sz);
          f.est = static_cast<double>(sz);
          for (FieldFact& ff : f.fields) ff.nullable = false;
        } else {
          f.card.total = CardInterval::Zero();
        }
        state[n.instance][rel] = std::move(f);
      }
    }
    return state;
  }

  /// Runs one round. `exec` tags profiles; negative exec = fixpoint round
  /// (no base-token accounting, since first-bind bookkeeping is unknown).
  std::map<std::string, NodeRound> RunRound(
      StateFacts* state, int exec, DiagnosticSink* sink,
      const std::string& file,
      std::map<std::string, std::map<std::string, RelationFacts>>* merged) {
    std::map<std::string, NodeRound> rounds;
    for (const std::string& node_id : topo_) {
      const WorkflowNode* node = *wf_.FindNode(node_id);
      const ModuleSpec* spec = *wf_.FindModule(node->module);
      ModuleCtx cx;
      cx.wf = &wf_;
      cx.node = node;
      cx.spec = spec;
      cx.opt = &opt_;
      cx.sink = sink;
      cx.file = file;
      cx.static_names = static_names_;
      cx.InternStatic(spec->name);
      cx.InternStatic(node->instance);

      cx.em.nodes += CardInterval::Exact(1);  // the "m" node
      cx.em.est_nodes += 1;

      bool is_input_node = wf_.IncomingEdges(node_id).empty();

      // Bind inputs.
      for (const auto& [rel, schema] : spec->input_schemas) {
        RelationFacts f;
        f.schema = schema;
        f.fields.resize(schema->num_fields());
        if (is_input_node) {
          auto node_it = opt_.inputs.find(node_id);
          bool have = node_it != opt_.inputs.end() &&
                      node_it->second.count(rel);
          if (have) {
            uint64_t sz = node_it->second.at(rel).size();
            f.card.total = CardInterval::Exact(sz);
            f.est = static_cast<double>(sz);
            for (FieldFact& ff : f.fields) ff.nullable = false;
          } else if (opt_.inputs.empty()) {
            f.card.total = CardInterval::Unknown();
            f.est = opt_.selectivities.input_rows;
          } else {
            // Inputs were given but not for this port: it receives none.
            f.card.total = CardInterval::Zero();
          }
        } else {
          int contributions = 0;
          for (const WorkflowEdge* e : wf_.IncomingEdges(node_id)) {
            for (const EdgeRelation& er : e->relations) {
              if (er.to_relation != rel) continue;
              auto up = rounds.find(e->from);
              if (up == rounds.end()) continue;
              auto out_it = up->second.outputs.find(er.from_relation);
              if (out_it == up->second.outputs.end()) continue;
              const RelationFacts& src = out_it->second;
              f.card = f.card.Add(src.card.WithoutState());
              f.est += src.est;
              ++contributions;
              for (size_t i = 0; i < f.fields.size(); ++i) {
                FieldFact sf = src.FieldAt(i);
                if (contributions == 1) {
                  f.fields[i] = sf;
                } else {
                  f.fields[i].nullable |= sf.nullable;
                  f.fields[i].unique &= sf.unique;
                }
              }
              for (const auto& [idx, bag] : src.bags) {
                BagFacts b = bag;
                b.members = b.members.WithoutState();
                f.bags[idx] = std::move(b);
              }
            }
          }
          if (contributions != 1) {
            // Unions of several upstream ports (or none) lose key facts.
            for (FieldFact& ff : f.fields) ff.unique = false;
          }
        }
        // Wrapping: I tokens (input nodes) + i nodes for every tuple.
        CardInterval c = f.card.total;
        double c_est = f.est;
        if (is_input_node) {
          cx.em.nodes += c;  // "I" tokens
          cx.em.est_nodes += c_est;
          size_t prefix = StrCat("I", exec < 0 ? 0 : exec, ".", node_id, ".",
                                 rel, "[")
                              .size();
          cx.em.interned_strings += c;
          cx.em.interned_chars += TokenChars(prefix, c);
        }
        cx.em.nodes += c;  // "i" wrappers
        cx.em.edges += c * CardInterval::Exact(2);
        cx.em.input_nodes += c;
        cx.em.est_nodes += c_est;
        cx.em.est_edges += 2 * c_est;
        cx.facts[rel] = std::move(f);
      }

      // Bind state.
      auto& inst_state = (*state)[node->instance];
      for (auto& [rel, f] : inst_state) {
        cx.state_card[rel] = f.card.total;
        RelationFacts bound = f;
        bound.card.state.clear();
        bound.card.state[rel] = f.card.total;
        if (exec == 0) {
          // Initial tuples have never been annotated: base tokens.
          CardInterval c = f.card.total;
          cx.em.nodes += c;
          cx.em.est_nodes += EstOf(c, f.est);
          size_t prefix =
              StrCat(node->instance, ".", rel, "[").size();
          cx.em.interned_strings += c;
          cx.em.interned_chars += TokenChars(prefix, c);
        }
        cx.facts[rel] = std::move(bound);
      }

      // Seed the schema environment with empty relations.
      for (const auto& [rel, f] : cx.facts) {
        if (f.schema != nullptr) {
          cx.schema_env.Bind(rel, Relation(rel, f.schema));
        }
      }

      for (const pig::Program* prog : {&spec->qstate, &spec->qout}) {
        for (const Statement& stmt : prog->statements) {
          TransferStatement(cx, stmt);
        }
      }

      // Persist state facts.
      for (auto& [rel, f] : inst_state) {
        auto it = cx.facts.find(rel);
        if (it != cx.facts.end()) {
          f = it->second;
          f.card.state.clear();
        }
      }

      // Wrap outputs.
      NodeRound round;
      for (const auto& [rel, schema] : spec->output_schemas) {
        RelationFacts f = cx.GetFacts(rel);
        CardInterval c = f.card.total;
        cx.em.nodes += c;
        cx.em.edges += c * CardInterval::Exact(2);
        cx.em.output_nodes += c;
        cx.em.est_nodes += f.est;
        cx.em.est_edges += 2 * f.est;
        f.card.state.clear();
        round.outputs[rel] = std::move(f);
      }
      round.em = cx.em;

      if (merged != nullptr) {
        auto& dst = (*merged)[node_id];
        for (const auto& [rel, f] : cx.facts) {
          auto [it, fresh] = dst.try_emplace(rel, f);
          if (!fresh) {
            RelationFacts& m = it->second;
            m.card = m.card.Join(f.card);
            m.est = std::max(m.est, f.est);
            if (m.schema == nullptr) m.schema = f.schema;
            if (m.fields.size() < f.fields.size()) {
              m.fields.resize(f.fields.size());
            }
            for (size_t i = 0; i < f.fields.size(); ++i) {
              m.fields[i].nullable |= f.fields[i].nullable;
              m.fields[i].unique &= f.fields[i].unique;
            }
            for (const auto& [idx, bag] : f.bags) {
              auto bit = m.bags.find(idx);
              if (bit == m.bags.end()) {
                m.bags[idx] = bag;
              } else {
                bit->second.members = bit->second.members.Join(bag.members);
                bit->second.est = std::max(bit->second.est, bag.est);
                bit->second.min_one &= bag.min_one;
              }
            }
            for (const auto& [name, loc] : f.pruned) m.pruned[name] = loc;
          }
        }
      }
      rounds[node_id] = std::move(round);
    }
    return rounds;
  }

 private:
  const Workflow& wf_;
  const AnalyzeOptions& opt_;
  const std::vector<std::string>& topo_;
  std::set<std::string>* static_names_;
};

bool StateEquals(const IntervalDriver::StateFacts& a,
                 const IntervalDriver::StateFacts& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [inst, rels] : a) {
    auto it = b.find(inst);
    if (it == b.end() || it->second.size() != rels.size()) return false;
    for (const auto& [rel, f] : rels) {
      auto rit = it->second.find(rel);
      if (rit == it->second.end()) return false;
      if (!(f.card.total == rit->second.card.total)) return false;
      for (const auto& [idx, bag] : f.bags) {
        auto bit = rit->second.bags.find(idx);
        if (bit == rit->second.bags.end() ||
            !(bag.members.total == bit->second.members.total)) {
          return false;
        }
      }
    }
  }
  return true;
}

/// Joins `next` into `cur`, widening intervals that are still growing to
/// infinity so the state fixpoint always terminates.
void JoinState(IntervalDriver::StateFacts* cur,
               const IntervalDriver::StateFacts& next, bool widen) {
  for (auto& [inst, rels] : *cur) {
    auto nit = next.find(inst);
    if (nit == next.end()) continue;
    for (auto& [rel, f] : rels) {
      auto rit = nit->second.find(rel);
      if (rit == nit->second.end()) continue;
      const RelationFacts& nf = rit->second;
      CardInterval joined = f.card.total.Join(nf.card.total);
      if (widen && !(joined == f.card.total)) joined.hi = kCardInf;
      f.card.total = joined;
      f.est = std::max(f.est, nf.est);
      if (f.schema == nullptr) f.schema = nf.schema;
      for (const auto& [idx, bag] : nf.bags) {
        auto bit = f.bags.find(idx);
        if (bit == f.bags.end()) {
          f.bags[idx] = bag;
        } else {
          CardInterval bj = bit->second.members.total.Join(bag.members.total);
          if (widen && !(bj == bit->second.members.total)) bj.hi = kCardInf;
          bit->second.members.total = bj;
          bit->second.min_one &= bag.min_one;
        }
      }
    }
  }
}

void RunDeletionPass(const Workflow& wf, const WorkflowFacts& facts,
                     const std::string& file, WorkflowFacts* out,
                     DiagnosticSink* sink) {
  // Taint summaries are computed per (node, source relation) on demand.
  auto node_facts = [&facts](const std::string& node_id)
      -> const std::map<std::string, RelationFacts>& {
    static const std::map<std::string, RelationFacts> kEmpty;
    auto it = facts.relations.find(node_id);
    return it == facts.relations.end() ? kEmpty : it->second;
  };

  for (const std::string& input_node : wf.InputNodes()) {
    const WorkflowNode* node = *wf.FindNode(input_node);
    const ModuleSpec* spec = *wf.FindModule(node->module);
    for (const auto& [input_rel, schema] : spec->input_schemas) {
      DeletionFact fact;
      fact.node_id = input_node;
      fact.relation = input_rel;
      fact.loc = node->loc;

      // BFS over (node, tainted module-input relation).
      std::set<std::pair<std::string, std::string>> seen;
      std::vector<std::pair<std::string, std::string>> frontier{
          {input_node, input_rel}};
      while (!frontier.empty() && !fact.amplifying) {
        auto [nid, rel] = frontier.back();
        frontier.pop_back();
        if (!seen.insert({nid, rel}).second) continue;
        const WorkflowNode* n = *wf.FindNode(nid);
        const ModuleSpec* sp = *wf.FindModule(n->module);
        TaintResult t = TaintModule(*sp, rel, node_facts(nid));
        if (!t.bounded) {
          fact.amplifying = true;
          fact.reason = StrCat(t.site, " in module '", sp->name, "'");
          fact.loc = t.loc;
          break;
        }
        for (const std::string& srel : t.state) {
          fact.reaches_state = true;
          // A tuple parked in state is consumed (or re-exported) afresh by
          // every later execution: unbounded fan-out over the execution
          // sequence.
          TaintResult st = TaintModule(*sp, srel, node_facts(nid));
          if (st.consumed || !st.outputs.empty()) {
            fact.amplifying = true;
            fact.reason = StrCat("state accumulation in '", n->instance, ".",
                                 srel, "' (used by every later execution)");
            fact.loc = n->loc;
            break;
          }
        }
        if (fact.amplifying) break;
        for (const std::string& orel : t.outputs) {
          for (const WorkflowEdge* e : wf.OutgoingEdges(nid)) {
            for (const EdgeRelation& er : e->relations) {
              if (er.from_relation == orel) {
                frontier.push_back({e->to, er.to_relation});
              }
            }
          }
        }
      }
      if (fact.amplifying && sink != nullptr) {
        Diagnostic d{"D0408", Severity::kNote, fact.loc,
                     StrCat("deleting a tuple of input '", input_node, ".",
                            input_rel, "' propagates without bound: ",
                            fact.reason),
                     "deletion propagation (Definition 4.2) may cascade "
                     "through · and ⊗ nodes; budget reruns accordingly",
                     file};
        sink->Report(std::move(d));
      }
      out->deletion.push_back(std::move(fact));
    }
  }
}

/// The concrete (value) domain: runs the real WorkflowExecutor, serial
/// path with default options, into a scratch graph, so every transfer
/// function is the concrete semantics and the predicted emission is exact.
/// Relation facts merge into `out` only after every execution committed:
/// a failed run leaves the interval facts as they were.
Status RunConcrete(const Workflow& wf, const AnalyzeOptions& opt,
                   WorkflowFacts* out) {
  WorkflowExecutor executor(&wf, opt.udfs);
  LIPSTICK_RETURN_IF_ERROR(executor.Initialize());
  for (const auto& [instance, rels] : opt.initial_state) {
    for (const auto& [rel, bag] : rels) {
      LIPSTICK_RETURN_IF_ERROR(executor.SetInitialState(instance, rel, bag));
    }
  }
  ProvenanceGraph scratch;
  std::map<uint32_t, std::string> owner;  // invocation -> workflow node
  struct Rows {
    CardInterval all;  // joined over the executions
    size_t last = 0;   // in the latest execution
  };
  std::map<std::string, std::map<std::string, Rows>> rows;  // node -> rel
  for (int e = 0; e < opt.executions; ++e) {
    ExecutionReport report;
    LIPSTICK_RETURN_IF_ERROR(
        executor.Execute(opt.inputs, &scratch, ExecutionOptions{}, &report)
            .status());
    for (const auto& [node_id, node] : report.nodes) {
      owner[node.invocation] = node_id;
      for (const auto& [rel, n] : node.relation_rows) {
        CardInterval card = CardInterval::Exact(n);
        auto [it, fresh] = rows[node_id].try_emplace(rel, Rows{card, n});
        if (!fresh) it->second = {it->second.all.Join(card), n};
      }
    }
  }
  scratch.Seal();

  out->invocations = MeasureInvocations(scratch);
  for (const auto& [inv, node_id] : owner) {
    out->invocations[inv].node_id = node_id;
  }
  scratch.ForEachNode([&](NodeId id) {
    uint32_t inv = scratch.node(id).invocation();
    if (inv == kNoInvocation) {
      // "I" tokens are created untagged; the only child of each is the
      // "i" node of the invocation that consumed it.
      std::span<const NodeId> children = scratch.ChildrenOf(id);
      if (children.size() != 1) return;
      inv = scratch.node(children[0]).invocation();
    }
    if (inv >= out->invocations.size()) return;
    Emission& em = out->invocations[inv].emission;
    NodeView n = scratch.node(id);
    size_t parents = n.num_parents();
    em.nodes += CardInterval::Exact(1);
    em.edges += CardInterval::Exact(parents);
    em.est_nodes += 1;
    em.est_edges += static_cast<double>(parents);
    if (parents > internal::kInlineParents) {
      em.wide_nodes += CardInterval::Exact(1);
      em.wide_edges += CardInterval::Exact(parents);
    }
    if (n.is_value_node() && !n.value().is_null()) {
      em.values += CardInterval::Exact(1);
    }
  });
  for (const auto& [node_id, rels] : rows) {
    for (const auto& [rel, r] : rels) {
      RelationFacts& f = out->relations[node_id][rel];
      f.card = CardSet{r.all, {}};
      f.est = static_cast<double>(r.last);
    }
  }
  // Interner totals are global (payloads dedup across invocations).
  const StringPool& pool = scratch.strings();
  uint64_t chars = 0;
  for (size_t i = 1; i < pool.size(); ++i) {
    chars += pool.Get(static_cast<StrId>(i)).size();
  }
  out->shared = Emission{};
  out->shared.interned_strings = CardInterval::Exact(pool.size() - 1);
  out->shared.interned_chars = CardInterval::Exact(chars);
  out->concrete = true;
  return Status::OK();
}

}  // namespace

Result<WorkflowFacts> AnalyzeDataflow(const Workflow& workflow,
                                      const AnalyzeOptions& options,
                                      DiagnosticSink* sink) {
  LIPSTICK_RETURN_IF_ERROR(workflow.Validate(options.udfs));
  LIPSTICK_ASSIGN_OR_RETURN(std::vector<std::string> topo,
                            workflow.TopologicalOrder());

  WorkflowFacts facts;
  facts.executions = std::max(1, options.executions);
  AnalyzeOptions opt = options;
  opt.executions = facts.executions;

  std::set<std::string> static_names;
  IntervalDriver driver(workflow, opt, topo, &static_names);

  // Per-execution interval profiles (state accumulates across rounds).
  {
    auto state = driver.InitialState();
    for (int e = 0; e < facts.executions; ++e) {
      auto rounds = driver.RunRound(&state, e, nullptr, "", &facts.relations);
      for (const std::string& node_id : topo) {
        const WorkflowNode* node = *workflow.FindNode(node_id);
        InvocationProfile p;
        p.node_id = node_id;
        p.module = node->module;
        p.instance = node->instance;
        p.execution = e;
        p.emission = rounds[node_id].em;
        facts.invocations.push_back(std::move(p));
      }
    }
  }

  // Fixpoint over an unbounded execution sequence: diagnostics and the
  // deletion pass must hold for any number of executions, not just the
  // modeled ones (state is empty on round one but grows later).
  {
    auto state = driver.InitialState();
    for (int round = 0; round < 12; ++round) {
      auto prev = state;
      driver.RunRound(&state, -1, nullptr, "", nullptr);
      JoinState(&state, prev, /*widen=*/round >= 3);
      if (StateEquals(prev, state)) break;
    }
    // One diagnostic round over the fixpoint state; also merge its facts
    // so reported relations reflect all reachable executions.
    driver.RunRound(&state, -1, sink, "", &facts.relations);
  }

  if (sink != nullptr) {
    std::set<std::string> checked;
    for (const WorkflowNode& n : workflow.nodes()) {
      if (checked.insert(n.module).second) {
        const ModuleSpec* spec = *workflow.FindModule(n.module);
        CheckDeadRelations(*spec, "", sink);
      }
    }
  }

  RunDeletionPass(workflow, facts, "", &facts, sink);

  // Shared interned statics (module/instance/op names, one intern each).
  {
    uint64_t chars = 0;
    for (const std::string& s : static_names) chars += s.size();
    facts.shared.interned_strings =
        CardInterval::Exact(static_names.size());
    facts.shared.interned_chars = CardInterval::Exact(chars);
  }

  // Concrete refinement: with sample inputs the value domain collapses
  // every interval to a point.
  if (!opt.inputs.empty() && !opt.force_interval) {
    Status status = RunConcrete(workflow, opt, &facts);
    if (!status.ok()) {
      facts.notes.push_back(StrCat("concrete replay unavailable: ",
                                   status.message(),
                                   " — falling back to interval bounds"));
    }
  }
  return facts;
}

}  // namespace lipstick::analysis
