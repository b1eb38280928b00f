#include "service/ops.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "analysis/plan_cost.h"
#include "common/str_util.h"
#include "obs/json.h"

namespace lipstick::service {

namespace {

/// The first word of the op field (a pipeline may arrive whole in it).
std::string HeadOf(const std::string& op) {
  size_t end = op.find_first_of(" \t|");
  return end == std::string::npos ? op : op.substr(0, end);
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

std::string CardString(const analysis::CardInterval& rows) {
  return rows.ToString();
}

/// `lipstick explain`: the optimized plan tree with the PR-6 cost model's
/// predicted cardinalities and byte footprints per operator.
std::string RenderExplainText(const ParsedQuery& parsed,
                              const analysis::PlanCostReport& cost) {
  std::string out = StrCat("plan: ", parsed.canonical, "\n");
  out += StrCat("bytes/node: ", FormatDouble(cost.bytes_per_node), "\n");
  out += "rewrites:\n";
  if (parsed.optimized.rewrites.empty()) {
    out += "  (none)\n";
  }
  for (const PlanRewrite& rw : parsed.optimized.rewrites) {
    out += StrCat("  ", rw.rule, ": ", rw.detail, "\n");
  }
  out += "operators:\n";
  for (size_t i = 0; i < parsed.optimized.plan.ops.size(); ++i) {
    const PlanOp& op = parsed.optimized.plan.ops[i];
    std::string row_info;
    if (i < cost.rows.size()) {
      const analysis::PlanCostRow& row = cost.rows[i];
      row_info = StrCat("  rows=", CardString(row.rows),
                        "  est_rows=", FormatDouble(row.est_rows),
                        "  est_bytes=", row.est_bytes);
    }
    out += StrCat("  ", std::string(2 * i, ' '), op.IsViewOp() ? "-> " : "=> ",
                  op.Canonical(), row_info, "\n");
  }
  return out;
}

std::string RenderExplainJson(const ParsedQuery& parsed,
                              const analysis::PlanCostReport& cost) {
  std::string out =
      StrCat("{\"plan\":\"", obs::JsonEscape(parsed.canonical), "\",");
  out += StrCat("\"bytes_per_node\":", FormatDouble(cost.bytes_per_node),
                ",\"rewrites\":[");
  for (size_t i = 0; i < parsed.optimized.rewrites.size(); ++i) {
    const PlanRewrite& rw = parsed.optimized.rewrites[i];
    out += StrCat(i == 0 ? "" : ",", "{\"rule\":\"", obs::JsonEscape(rw.rule),
                  "\",\"detail\":\"", obs::JsonEscape(rw.detail), "\"}");
  }
  out += "],\"operators\":[";
  for (size_t i = 0; i < parsed.optimized.plan.ops.size(); ++i) {
    const PlanOp& op = parsed.optimized.plan.ops[i];
    out += StrCat(i == 0 ? "" : ",", "{\"op\":\"",
                  obs::JsonEscape(op.Canonical()), "\",\"view\":",
                  op.IsViewOp() ? "true" : "false");
    if (i < cost.rows.size()) {
      const analysis::PlanCostRow& row = cost.rows[i];
      out += StrCat(",\"rows\":\"", obs::JsonEscape(CardString(row.rows)),
                    "\",\"est_rows\":", FormatDouble(row.est_rows),
                    ",\"est_bytes\":", row.est_bytes);
    }
    out += "}";
  }
  out += "]}\n";
  return out;
}

}  // namespace

bool IsReadQueryOp(const std::string& op) {
  std::string head = HeadOf(op);
  return head == "stats" || head == "find" || head == "expr" ||
         head == "depends" || head == "subgraph" || head == "zoomout" ||
         head == "restrict" || head == "delete" || head == "explain";
}

Result<ParsedQuery> ParseQuery(const std::string& op,
                               const std::vector<std::string>& args) {
  ParsedQuery parsed;
  std::string plan_op = op;
  std::vector<std::string> plan_args = args;
  if (HeadOf(op) == "explain") {
    parsed.is_explain = true;
    // Strip the leading "explain" word, keep the rest of the op field.
    size_t head_end = op.find_first_of(" \t");
    plan_op = head_end == std::string::npos ? "" : op.substr(head_end + 1);
    if (!plan_args.empty() && plan_args.back() == "--json") {
      parsed.explain_json = true;
      plan_args.pop_back();
    }
    if (plan_op.find_first_not_of(" \t") == std::string::npos &&
        plan_args.empty()) {
      return Status::InvalidArgument("explain needs a query to explain");
    }
  }
  Result<Plan> plan = ParsePlan(plan_op, plan_args);
  if (!plan.ok()) return plan.status();
  parsed.optimized = OptimizePlan(*plan);
  parsed.canonical = StrCat(parsed.is_explain ? "explain " : "",
                            parsed.optimized.plan.Canonical(),
                            parsed.explain_json ? " --json" : "");
  return parsed;
}

Result<std::string> ExecuteParsedQuery(const GraphSnapshot& snap,
                                       const ParsedQuery& parsed,
                                       int /*threads*/,
                                       PlanViewCache* view_cache,
                                       const std::string& scope,
                                       std::shared_ptr<const void> pin) {
  if (parsed.is_explain) {
    analysis::PlanCostReport cost =
        analysis::EstimatePlanCost(snap, parsed.optimized.plan);
    return parsed.explain_json ? RenderExplainJson(parsed, cost)
                               : RenderExplainText(parsed, cost);
  }
  ExecOptions opts;
  opts.cache = view_cache;
  opts.scope = scope;
  opts.pin = std::move(pin);
  return ExecutePlan(snap, parsed.optimized, opts);
}

Result<std::string> ExecuteReadQuery(const GraphSnapshot& snap,
                                     const std::string& op,
                                     const std::vector<std::string>& args,
                                     int /*threads*/) {
  Result<ParsedQuery> parsed = ParseQuery(op, args);
  if (!parsed.ok()) return parsed.status();
  return ExecuteParsedQuery(snap, *parsed, 1);
}

}  // namespace lipstick::service
