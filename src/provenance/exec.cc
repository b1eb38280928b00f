#include "provenance/exec.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <optional>
#include <utility>

#include "common/str_util.h"
#include "provenance/query.h"
#include "provenance/semiring.h"

namespace lipstick {

namespace {

// Query output is rendered to a string, so batch drivers and the wire
// protocol can ship it whole. Lines are appended piece by piece, with no
// fixed-size buffer to cut them short.

/// Appends `s` left-justified in a field of `width` bytes (printf's %-Ns).
void AppendPadded(std::string* out, std::string_view s, size_t width) {
  out->append(s);
  if (s.size() < width) out->append(width - s.size(), ' ');
}

std::string JoinIds(const std::vector<NodeId>& ids) {
  std::vector<std::string> parts;
  parts.reserve(ids.size());
  for (NodeId id : ids) parts.push_back(StrCat(id));
  return Join(parts, ",");
}

/// NodeLabel values ordered by name: the order the stats block lists its
/// label counts in.
const std::array<NodeLabel, kNumNodeLabels>& LabelsByName() {
  static const std::array<NodeLabel, kNumNodeLabels> order = [] {
    std::array<NodeLabel, kNumNodeLabels> labels;
    for (size_t i = 0; i < labels.size(); ++i) {
      labels[i] = static_cast<NodeLabel>(i);
    }
    std::sort(labels.begin(), labels.end(), [](NodeLabel a, NodeLabel b) {
      return std::strcmp(NodeLabelToString(a), NodeLabelToString(b)) < 0;
    });
    return labels;
  }();
  return order;
}

void RenderStatsBlock(std::string* out, const GraphStats& stats) {
  *out += StrCat("nodes:        ", stats.nodes, "\n",
                 "edges:        ", stats.edges, "\n",
                 "tokens:       ", stats.tokens, "\n",
                 "invocations:  ", stats.invocations, "\n",
                 "max fan-in:   ", stats.max_fan_in, "\n",
                 "max fan-out:  ", stats.max_fan_out, "\n",
                 "depth:        ", stats.depth, "\n");
  for (NodeLabel label : LabelsByName()) {
    size_t count = stats.labels[static_cast<size_t>(label)];
    if (count > 0) {
      out->append("  label ");
      AppendPadded(out, NodeLabelToString(label), 10);
      *out += StrCat(" ", count, "\n");
    }
  }
}

/// One `find` line: "<id>  <label, 9 wide> <role, 13 wide> <payload>".
/// Called once per matching node, so it formats without printf.
void RenderFindLine(std::string* out, NodeId id, NodeLabel label,
                    NodeRole role, std::string_view payload) {
  char digits[24];
  char* end = std::to_chars(digits, digits + sizeof(digits), id).ptr;
  out->append(digits, end);
  out->append("  ");
  AppendPadded(out, NodeLabelToString(label), 9);
  out->push_back(' ');
  AppendPadded(out, NodeRoleToString(role), 13);
  out->push_back(' ');
  out->append(payload);
  out->push_back('\n');
}

/// Runs the plan's terminal on the (composed) view.
Result<std::string> RenderTerminal(const GraphView& view, const PlanOp& op) {
  std::string out;
  switch (op.kind) {
    case PlanOpKind::kStats: {
      Result<GraphStats> stats = ComputeGraphStats(view);
      if (!stats.ok()) return stats.status();
      RenderStatsBlock(&out, *stats);
      return out;
    }
    case PlanOpKind::kFind: {
      size_t count = 0;
      view.ForEachVisibleNode(
          [&](NodeId id, const GraphView::SyntheticNode* syn) {
            NodeLabel label;
            NodeRole role;
            std::string_view payload;
            if (syn != nullptr) {
              label = NodeLabel::kZoomedModule;
              role = NodeRole::kZoom;
              payload = syn->module;
            } else {
              NodeView n = view.snapshot().node(id);
              label = n.label();
              role = n.role();
              payload = n.payload();
            }
            if (!op.pattern.Matches(label, role, payload)) return;
            ++count;
            RenderFindLine(&out, id, label, role, payload);
          });
      out += StrCat("(", count, " nodes)\n");
      return out;
    }
    case PlanOpKind::kExpr:
      out = ProvExpressionString(view, op.target, 12);
      out.push_back('\n');
      return out;
    case PlanOpKind::kDepends: {
      Result<bool> dep = DependsOnSet(view, op.target, {&op.source, 1});
      if (!dep.ok()) return dep.status();
      return std::string(*dep ? "yes\n" : "no\n");
    }
    default:
      return Status::InvalidArgument("not a terminal operation");
  }
}

/// A pipeline ending in a view operator renders that operator's summary
/// line — for the single-op forms, the historical output byte for byte.
std::string RenderViewSummary(const PlanOp& op, size_t num_visible,
                              size_t last_removed) {
  switch (op.kind) {
    case PlanOpKind::kZoomOut:
      return StrCat("zoomed out of ", op.modules.size(), " module(s); ",
                    num_visible, " nodes remain\n");
    case PlanOpKind::kSubgraph:
      return StrCat("subgraph of ", JoinIds(op.nodes), ": ", num_visible,
                    " nodes\n");
    case PlanOpKind::kRestrict:
      return StrCat("restricted to ", num_visible, " nodes\n");
    case PlanOpKind::kDeleteProp:
      return StrCat("deleted ", last_removed, " node(s); ", num_visible,
                    " nodes remain\n");
    default:
      return std::string();
  }
}

/// Applies one view stage; returns the DeleteProp removal count (0 for the
/// other stage kinds).
Result<size_t> ApplyStage(GraphView* view, const PlanOp& op) {
  switch (op.kind) {
    case PlanOpKind::kZoomOut:
      LIPSTICK_RETURN_IF_ERROR(view->ApplyZoomOut(op.modules));
      return size_t{0};
    case PlanOpKind::kSubgraph:
      LIPSTICK_RETURN_IF_ERROR(
          view->ApplySubgraph(op.nodes, op.dir != SubgraphDir::kDown,
                              op.dir != SubgraphDir::kUp));
      return size_t{0};
    case PlanOpKind::kRestrict: {
      const PlanPattern& pattern = op.pattern;
      LIPSTICK_RETURN_IF_ERROR(view->ApplyRestrict(
          [&pattern](NodeLabel l, NodeRole r, std::string_view p) {
            return pattern.Matches(l, r, p);
          }));
      return size_t{0};
    }
    case PlanOpKind::kDeleteProp: {
      size_t removed = 0;
      LIPSTICK_RETURN_IF_ERROR(view->ApplyDeleteProp(op.nodes, &removed));
      return removed;
    }
    default:
      return Status::InvalidArgument("not a view operation");
  }
}

/// The plan's output over its final view: the terminal's rendering, or
/// the last view stage's summary line.
Result<std::string> RenderOutput(const GraphView& view, const Plan& plan,
                                 size_t last_removed) {
  if (plan.HasTerminal()) return RenderTerminal(view, plan.ops.back());
  return RenderViewSummary(plan.ops[plan.NumViewOps() - 1],
                           view.num_visible(), last_removed);
}

std::string CacheKey(const std::string& scope, const std::string& prefix) {
  std::string key = scope;
  key.push_back('\x1f');
  key.append(prefix);
  return key;
}

}  // namespace

std::shared_ptr<const PlanViewCache::Entry> PlanViewCache::GetLongestPrefix(
    const std::string& scope, const std::vector<std::string>& prefixes,
    size_t* index) {
  std::vector<std::string> keys;
  keys.reserve(prefixes.size());
  for (size_t i = prefixes.size(); i-- > 0;) {
    keys.push_back(CacheKey(scope, prefixes[i]));
  }
  std::shared_ptr<const Entry> entry;
  size_t probe = 0;
  if (!lru_.Get(keys, &entry, &probe)) return nullptr;
  *index = prefixes.size() - 1 - probe;
  return entry;
}

void PlanViewCache::Put(const std::string& scope, const std::string& prefix,
                        Entry entry) {
  lru_.Put(CacheKey(scope, prefix),
           std::make_shared<const Entry>(std::move(entry)));
}

Result<std::string> ExecutePlan(const GraphSnapshot& snap,
                                const OptimizedPlan& opt,
                                const ExecOptions& opts) {
  const Plan& plan = opt.plan;
  if (plan.ops.empty()) {
    return Status::InvalidArgument("empty plan");
  }
  size_t view_ops = plan.NumViewOps();
  PlanViewCache* cache = view_ops > 0 ? opts.cache : nullptr;
  std::optional<GraphView> view;
  size_t start = 0;
  size_t last_removed = 0;
  if (cache != nullptr) {
    size_t idx = 0;
    std::shared_ptr<const PlanViewCache::Entry> hit =
        cache->GetLongestPrefix(opts.scope, opt.view_prefixes, &idx);
    if (hit != nullptr) {
      view = hit->view.Clone();
      last_removed = hit->last_stage_removed;
      start = idx + 1;
    }
  }
  if (!view.has_value()) view = GraphView::MakeIdentity(snap);
  std::vector<std::pair<size_t, PlanViewCache::Entry>> fresh;
  for (size_t i = start; i < view_ops; ++i) {
    Result<size_t> removed = ApplyStage(&*view, plan.ops[i]);
    if (!removed.ok()) return removed.status();
    last_removed = *removed;
    if (cache != nullptr) {
      fresh.emplace_back(
          i, PlanViewCache::Entry{view->Clone(), last_removed, opts.pin});
    }
  }
  // Every stage either ran whole or failed (the traversing stages return
  // the token's status when it fires), so each fresh view is complete.
  for (auto& [i, entry] : fresh) {
    cache->Put(opts.scope, opt.view_prefixes[i], std::move(entry));
  }
  return RenderOutput(*view, plan, last_removed);
}

Result<std::string> ExecutePlanNaive(const GraphSnapshot& snap,
                                     const Plan& plan) {
  if (plan.ops.empty()) {
    return Status::InvalidArgument("empty plan");
  }
  size_t view_ops = plan.NumViewOps();
  const GraphSnapshot* cur = &snap;
  std::optional<GraphSnapshot> owned_snap;
  size_t last_removed = 0;
  for (size_t i = 0; i < view_ops; ++i) {
    GraphView view = GraphView::MakeIdentity(*cur);
    Result<size_t> removed = ApplyStage(&view, plan.ops[i]);
    if (!removed.ok()) return removed.status();
    last_removed = *removed;
    Result<ProvenanceGraph> graph = view.Materialize();
    if (!graph.ok()) return graph.status();
    auto owner =
        std::make_shared<const ProvenanceGraph>(std::move(*graph));
    Result<GraphSnapshot> next = GraphSnapshot::Capture(owner);
    if (!next.ok()) return next.status();
    owned_snap = std::move(*next);
    cur = &*owned_snap;
  }
  return RenderOutput(GraphView::MakeIdentity(*cur), plan, last_removed);
}

Result<GraphView> BuildPlanView(const GraphSnapshot& snap, const Plan& plan,
                                int /*threads*/) {
  GraphView view = GraphView::MakeIdentity(snap);
  for (size_t i = 0; i < plan.NumViewOps(); ++i) {
    Result<size_t> removed = ApplyStage(&view, plan.ops[i]);
    if (!removed.ok()) return removed.status();
  }
  return view;
}

}  // namespace lipstick
