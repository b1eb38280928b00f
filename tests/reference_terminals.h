#ifndef LIPSTICK_TESTS_REFERENCE_TERMINALS_H_
#define LIPSTICK_TESTS_REFERENCE_TERMINALS_H_

// Reference implementations of the read terminals, written directly
// against a snapshot with plain containers: the stats block, find, expr
// and depends as a standalone graph renders them. Tests run these on a
// materialized view and compare with the one implementation in src/
// (GraphView operators and the plan engine), byte for byte. Also the
// full-scan ZoomOut planner and the eager, mutating ZoomOut built on it,
// which zoom views must materialize identical to.

#include <algorithm>
#include <array>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/str_util.h"
#include "provenance/plan.h"
#include "provenance/query.h"
#include "provenance/snapshot.h"
#include "provenance/zoom.h"

namespace lipstick::testing {

/// Definition 4.2 by the letter: a node dies when it is joint (· / ⊗) and
/// loses any in-edge, or when it has lost as many in-edges as it has
/// alive parents (recounted on every loss).
inline std::unordered_set<NodeId> ReferenceDeletionSet(
    const GraphSnapshot& snap, const std::vector<NodeId>& seeds) {
  std::unordered_set<NodeId> deleted;
  std::vector<NodeId> order;
  std::unordered_map<NodeId, size_t> lost_edges;
  for (NodeId s : seeds) {
    if (snap.Contains(s) && deleted.insert(s).second) order.push_back(s);
  }
  auto alive_parent_count = [&snap](NodeId id) {
    size_t n = 0;
    for (NodeId p : snap.ParentsOf(id)) n += snap.Contains(p) ? 1 : 0;
    return n;
  };
  for (size_t head = 0; head < order.size(); ++head) {
    for (NodeId child : snap.ChildrenOf(order[head])) {
      if (deleted.count(child)) continue;
      size_t lost = ++lost_edges[child];
      NodeLabel cl = snap.node(child).label();
      bool joint = cl == NodeLabel::kTimes || cl == NodeLabel::kTensor;
      if (joint || lost >= alive_parent_count(child)) {
        deleted.insert(child);
        order.push_back(child);
      }
    }
  }
  return deleted;
}

/// Stats from the sealed snapshot's own columns and CSR: fixpoint depth,
/// fan-out as CSR row length.
inline GraphStats ReferenceGraphStats(const GraphSnapshot& snap) {
  GraphStats stats;
  stats.invocations = snap.graph().num_live_invocations();
  std::unordered_map<NodeId, size_t> depth;
  bool changed = true;
  while (changed) {
    changed = false;
    snap.ForEachAliveNode([&](NodeId id) {
      size_t best = 0;
      for (NodeId p : snap.ParentsOf(id)) {
        if (snap.Contains(p)) best = std::max(best, depth[p] + 1);
      }
      if (best > depth[id]) {
        depth[id] = best;
        changed = true;
      }
    });
  }
  snap.ForEachAliveNode([&](NodeId id) {
    ++stats.nodes;
    size_t fan_in = 0;
    for (NodeId p : snap.ParentsOf(id)) fan_in += snap.Contains(p) ? 1 : 0;
    stats.edges += fan_in;
    stats.max_fan_in = std::max(stats.max_fan_in, fan_in);
    stats.max_fan_out =
        std::max(stats.max_fan_out, snap.ChildrenOf(id).size());
    NodeLabel label = snap.node(id).label();
    ++stats.labels[static_cast<size_t>(label)];
    stats.tokens += label == NodeLabel::kToken ? 1 : 0;
    stats.depth = std::max(stats.depth, depth[id]);
  });
  return stats;
}

/// The stats terminal as ComputeGraphStats computed it before it became
/// one pass: depth by relaxation rounds over the view until nothing
/// changes, then a second walk for fan-in, labels and fan-out read from
/// the view's child adjacency. Runs on the identity view of a
/// materialized view's snapshot; the one-pass version must match it on
/// every view.
inline Result<GraphStats> ReferenceStats(const GraphSnapshot& snapshot) {
  const GraphView view = GraphView::MakeIdentity(snapshot);
  const GraphSnapshot& snap = view.snapshot();
  LIPSTICK_RETURN_IF_ERROR(RequireSealed(snap.graph(), "ComputeGraphStats"));
  GraphStats stats;
  stats.invocations = snap.graph().num_live_invocations();
  // Longest path via DP over a topological order; the construction order
  // within each shard is already topological (parents precede children),
  // but cross-shard edges may go either way, so iterate to a fixpoint.
  // Depths live in dense per-shard columns (plus one for the synthetic
  // zoom nodes) instead of a hash map: the fixpoint reads every parent's
  // depth once per round.
  std::vector<std::vector<uint32_t>> depth(snap.num_shards());
  for (uint32_t s = 0; s < snap.num_shards(); ++s) {
    depth[s].assign(snap.ShardSize(s), 0);
  }
  std::vector<uint32_t> syn_depth(view.num_synthetic(), 0);
  auto depth_at = [&](NodeId id) -> uint32_t& {
    if (view.IsSynthetic(id)) return syn_depth[view.SyntheticIndex(id)];
    return depth[NodeShard(id)][NodeIndex(id)];
  };
  bool changed = true;
  while (changed) {
    changed = false;
    view.ForEachVisibleNode([&](NodeId id, const GraphView::SyntheticNode*) {
      uint32_t best = 0;
      for (NodeId p : view.ParentsOf(id)) {
        if (view.VisibleOrSynthetic(p)) {
          best = std::max(best, depth_at(p) + 1);
        }
      }
      if (best > depth_at(id)) {
        depth_at(id) = best;
        changed = true;
      }
    });
  }
  GraphView::ChildOverlay overlay = view.BuildChildOverlay();
  view.ForEachVisibleNode([&](NodeId id, const GraphView::SyntheticNode* syn) {
    ++stats.nodes;
    size_t fan_in = 0;
    for (NodeId p : view.ParentsOf(id)) {
      fan_in += view.VisibleOrSynthetic(p) ? 1 : 0;
    }
    stats.edges += fan_in;
    stats.max_fan_in = std::max(stats.max_fan_in, fan_in);
    size_t fan_out = 0;
    view.ForEachChild(id, overlay, [&fan_out](NodeId) { ++fan_out; });
    stats.max_fan_out = std::max(stats.max_fan_out, fan_out);
    NodeLabel label =
        syn != nullptr ? NodeLabel::kZoomedModule : snap.node(id).label();
    ++stats.labels[static_cast<size_t>(label)];
    stats.tokens += label == NodeLabel::kToken ? 1 : 0;
    stats.depth = std::max<size_t>(stats.depth, depth_at(id));
  });
  return stats;
}

inline std::string ReferenceExprString(const GraphSnapshot& g, NodeId id,
                                       int depth) {
  if (depth <= 0) return "...";
  NodeView n = g.node(id);
  auto join_parents = [&](const char* sep) {
    std::vector<std::string> parts;
    for (NodeId p : g.ParentsOf(id)) {
      if (g.Contains(p)) parts.push_back(ReferenceExprString(g, p, depth - 1));
    }
    return Join(parts, sep);
  };
  switch (n.label()) {
    case NodeLabel::kToken:
      return n.payload().empty() ? std::string("x?") : std::string(n.payload());
    case NodeLabel::kPlus:
      return StrCat("(", join_parents(" + "), ")");
    case NodeLabel::kTimes:
      return StrCat("(", join_parents(" * "), ")");
    case NodeLabel::kDelta:
      return StrCat("delta(", join_parents(" + "), ")");
    case NodeLabel::kTensor:
      return StrCat("(", join_parents(" (x) "), ")");
    case NodeLabel::kAggregate:
      return StrCat(n.payload(), "[", join_parents(", "), "]");
    case NodeLabel::kConstValue:
      return n.value().ToString();
    case NodeLabel::kBlackBox:
      return StrCat(n.payload(), "(", join_parents(", "), ")");
    case NodeLabel::kModuleInvocation:
      return StrCat("m<", n.payload(), ">");
    case NodeLabel::kZoomedModule:
      return StrCat("M<", n.payload(), ">(", join_parents(", "), ")");
  }
  return "?";
}

/// A ZoomOut plan with its removed nodes listed, in ascending id order.
struct ReferenceZoomPlan {
  std::vector<NodeId> removed;  // intermediates + state (+ base tokens)
  std::vector<internal::ZoomInvocationPlan> invocations;
};

/// ZoomOut planning (Definition 4.1, the ZoomOut steps of Section 4.1) by
/// two full scans of the snapshot, with no invocation-run index: what
/// internal::PlanZoomOut must agree with. Nodes marked in
/// `removed_so_far` are treated as dead, and this module's removals are
/// marked there too. An invocation whose m-node is not live gets no zoom
/// node.
inline Result<ReferenceZoomPlan> ReferencePlanZoomOut(
    const GraphSnapshot& snap, const std::string& module,
    VisitedSet& removed_so_far) {
  auto live = [&](NodeId id) {
    return snap.Contains(id) && !removed_so_far.Test(id);
  };
  StrId want = snap.strings().Find(module);
  std::vector<uint32_t> inv_ids;
  for (uint32_t i = 0; i < snap.invocations().size(); ++i) {
    const InvocationInfo& inv = snap.invocations()[i];
    if (want != kStrNotFound && inv.module_name == want && !inv.aborted()) {
      inv_ids.push_back(i);
    }
  }
  if (inv_ids.empty()) {
    return Status::NotFound(
        StrCat("no invocations of module '", module, "' in graph"));
  }
  std::unordered_set<uint32_t> inv_set(inv_ids.begin(), inv_ids.end());
  auto zoomed = [&](NodeId id) {
    uint32_t inv = snap.node(id).invocation();
    return inv != kNoInvocation && inv_set.count(inv) > 0;
  };
  ReferenceZoomPlan plan;
  // Intermediates; marks land after the scan.
  snap.ForEachNode([&](NodeId id) {
    if (live(id) && snap.node(id).role() == NodeRole::kIntermediate &&
        zoomed(id)) {
      plan.removed.push_back(id);
    }
  });
  for (NodeId id : plan.removed) removed_so_far.Set(id);
  for (uint32_t inv : inv_ids) {
    for (NodeId s : snap.invocations()[inv].state_nodes) {
      if (!live(s)) continue;
      removed_so_far.Set(s);
      plan.removed.push_back(s);
    }
  }
  // State-base tokens no live node derives from; marks land after the
  // scan.
  std::vector<NodeId> bases;
  snap.ForEachNode([&](NodeId id) {
    if (!live(id) || snap.node(id).role() != NodeRole::kStateBase ||
        !zoomed(id)) {
      return;
    }
    for (NodeId child : snap.ChildrenOf(id)) {
      if (live(child)) return;
    }
    bases.push_back(id);
  });
  for (NodeId id : bases) {
    removed_so_far.Set(id);
    plan.removed.push_back(id);
  }
  std::sort(plan.removed.begin(), plan.removed.end());
  for (uint32_t inv_id : inv_ids) {
    const InvocationInfo& inv = snap.invocations()[inv_id];
    if (!live(inv.m_node)) continue;
    internal::ZoomInvocationPlan ip;
    ip.invocation = inv_id;
    ip.m_node = inv.m_node;
    for (NodeId in : inv.input_nodes) {
      if (live(in)) ip.zoom_parents.push_back(in);
    }
    for (NodeId out : inv.output_nodes) {
      if (live(out)) ip.outputs.push_back(out);
    }
    plan.invocations.push_back(std::move(ip));
  }
  return plan;
}

/// ZoomOut (Section 4.1) applied to the graph by mutation, one module at a
/// time with a re-seal in between: each module is planned with
/// ReferencePlanZoomOut over a fresh snapshot, its collapsed p-nodes are
/// appended to shard 0, its outputs rewired to {zoom node, m node}, and
/// its removed nodes marked dead.
inline Status ReferenceZoomOut(ProvenanceGraph* graph,
                               const std::set<std::string>& modules) {
  ShardWriter writer = graph->writer();
  for (const std::string& module : modules) {
    graph->Seal();
    ReferenceZoomPlan plan;
    {
      LIPSTICK_ASSIGN_OR_RETURN(GraphSnapshot snap,
                                GraphSnapshot::Capture(*graph));
      VisitedLease removed = snap.AcquireVisited();
      LIPSTICK_ASSIGN_OR_RETURN(plan,
                                ReferencePlanZoomOut(snap, module, *removed));
    }
    for (internal::ZoomInvocationPlan& ip : plan.invocations) {
      NodeRecord zoom;
      zoom.label = NodeLabel::kZoomedModule;
      zoom.role = NodeRole::kZoom;
      zoom.alive = true;
      zoom.invocation = ip.invocation;
      zoom.parents = std::move(ip.zoom_parents);
      zoom.payload = module;
      std::array<NodeId, 2> rewired{writer.Restore(zoom), ip.m_node};
      for (NodeId out : ip.outputs) graph->SetParents(out, rewired);
    }
    for (NodeId id : plan.removed) graph->SetAlive(id, false);
  }
  graph->Seal();
  return Status::OK();
}

inline void ReferenceAppendf(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0) out->append(buf, std::min<size_t>(n, sizeof(buf) - 1));
}

/// Renders a plan terminal over a sealed standalone graph, exactly as the
/// plan engine's output format specifies (labels listed by name through a
/// string-keyed histogram).
inline std::string ReferenceRenderTerminal(const GraphSnapshot& snap,
                                           const PlanOp& op) {
  std::string out;
  switch (op.kind) {
    case PlanOpKind::kStats: {
      GraphStats stats = ReferenceGraphStats(snap);
      ReferenceAppendf(&out, "nodes:        %zu\n", stats.nodes);
      ReferenceAppendf(&out, "edges:        %zu\n", stats.edges);
      ReferenceAppendf(&out, "tokens:       %zu\n", stats.tokens);
      ReferenceAppendf(&out, "invocations:  %zu\n", stats.invocations);
      ReferenceAppendf(&out, "max fan-in:   %zu\n", stats.max_fan_in);
      ReferenceAppendf(&out, "max fan-out:  %zu\n", stats.max_fan_out);
      ReferenceAppendf(&out, "depth:        %zu\n", stats.depth);
      std::map<std::string, size_t> histogram;
      snap.ForEachAliveNode([&](NodeId id) {
        ++histogram[NodeLabelToString(snap.node(id).label())];
      });
      for (const auto& [label, count] : histogram) {
        ReferenceAppendf(&out, "  label %-10s %zu\n", label.c_str(), count);
      }
      return out;
    }
    case PlanOpKind::kFind: {
      size_t count = 0;
      snap.ForEachAliveNode([&](NodeId id) {
        NodeView n = snap.node(id);
        if (!op.pattern.Matches(n.label(), n.role(), n.payload())) return;
        ++count;
        ReferenceAppendf(&out, "%llu  %-9s %-13s ",
                         static_cast<unsigned long long>(id),
                         NodeLabelToString(n.label()),
                         NodeRoleToString(n.role()));
        out.append(n.payload());
        out.push_back('\n');
      });
      ReferenceAppendf(&out, "(%zu nodes)\n", count);
      return out;
    }
    case PlanOpKind::kExpr:
      out = snap.Contains(op.target)
                ? ReferenceExprString(snap, op.target, 12)
                : std::string("0");
      out.push_back('\n');
      return out;
    case PlanOpKind::kDepends: {
      bool dep = snap.Contains(op.target) && snap.Contains(op.source) &&
                 ReferenceDeletionSet(snap, {op.source}).count(op.target);
      return dep ? "yes\n" : "no\n";
    }
    default:
      return "not a terminal\n";
  }
}

}  // namespace lipstick::testing

#endif  // LIPSTICK_TESTS_REFERENCE_TERMINALS_H_
