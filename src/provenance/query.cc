#include "provenance/query.h"

#include <algorithm>
#include <array>
#include <unordered_map>

#include "provenance/traverse.h"

namespace lipstick {

NodePredicate ByLabel(NodeLabel label) {
  return [label](NodeId, const NodeView& n) { return n.label() == label; };
}

NodePredicate ByRole(NodeRole role) {
  return [role](NodeId, const NodeView& n) { return n.role() == role; };
}

NodePredicate ByPayload(const std::string& substring) {
  return [substring](NodeId, const NodeView& n) {
    return n.payload().find(substring) != std::string_view::npos;
  };
}

NodePredicate ByModule(const ProvenanceGraph& graph, std::string module) {
  const ProvenanceGraph* g = &graph;
  // Interned names make this an integer comparison per node; a module
  // name absent from the pool can never match.
  StrId module_id = graph.strings().Find(module);
  return [g, module_id](NodeId, const NodeView& n) {
    if (module_id == kStrNotFound) return false;
    uint32_t inv = n.invocation();
    if (inv == kNoInvocation) return false;
    if (inv >= g->invocations().size()) return false;
    return g->invocations()[inv].module_name == module_id;
  };
}

NodePredicate And(NodePredicate a, NodePredicate b) {
  return [a = std::move(a), b = std::move(b)](NodeId id, const NodeView& n) {
    return a(id, n) && b(id, n);
  };
}

NodePredicate Or(NodePredicate a, NodePredicate b) {
  return [a = std::move(a), b = std::move(b)](NodeId id, const NodeView& n) {
    return a(id, n) || b(id, n);
  };
}

NodePredicate Not(NodePredicate p) {
  return [p = std::move(p)](NodeId id, const NodeView& n) {
    return !p(id, n);
  };
}

std::vector<NodeId> FindNodes(const GraphSnapshot& snap,
                              const NodePredicate& pred) {
  std::vector<NodeId> out;
  snap.ForEachAliveNode([&](NodeId id) {
    if (pred(id, snap.node(id))) out.push_back(id);
  });
  return out;
}

Result<std::vector<NodeId>> ShortestDerivationPath(const GraphSnapshot& snap,
                                                   NodeId from, NodeId to) {
  LIPSTICK_RETURN_IF_ERROR(RequireSealed(snap.graph(), "path queries"));
  if (!snap.Contains(from) || !snap.Contains(to)) {
    return std::vector<NodeId>{};
  }
  if (from == to) return std::vector<NodeId>{from};
  std::unordered_map<NodeId, NodeId> parent_of;  // BFS predecessor
  parent_of[from] = from;
  VisitedLease visited = snap.AcquireVisited();
  visited->Set(from);
  std::array<NodeId, 1> seeds{from};
  bool found = false;
  // Traverse() is level-synchronous, so the first visit of `to` closes a
  // shortest derivation path.
  Traverse(snap, seeds, TraverseDirection::kForward, *visited,
           [&](NodeId child, NodeId via) {
             parent_of[child] = via;
             if (child == to) {
               found = true;
               return Visit::kStop;
             }
             return Visit::kExpand;
           });
  if (!found) return std::vector<NodeId>{};
  std::vector<NodeId> path{to};
  for (NodeId at = to; at != from;) {
    at = parent_of[at];
    path.push_back(at);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

Result<bool> PathExists(const GraphSnapshot& snap, NodeId from, NodeId to) {
  LIPSTICK_ASSIGN_OR_RETURN(std::vector<NodeId> path,
                            ShortestDerivationPath(snap, from, to));
  return !path.empty();
}

Result<bool> DependsOnSet(const GraphView& view, NodeId target,
                          std::span<const NodeId> sources) {
  if (!view.VisibleOrSynthetic(target)) return false;
  LIPSTICK_ASSIGN_OR_RETURN(std::vector<NodeId> deleted,
                            view.DeletionOrder(sources, target));
  return !deleted.empty() && deleted.back() == target;
}

Result<bool> DependsOnSet(const GraphSnapshot& snap, NodeId target,
                          const std::vector<NodeId>& sources) {
  return DependsOnSet(GraphView::MakeIdentity(snap), target, sources);
}

Result<GraphStats> ComputeGraphStats(const GraphView& view) {
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

Result<GraphStats> ComputeGraphStats(const GraphSnapshot& snap) {
  return ComputeGraphStats(GraphView::MakeIdentity(snap));
}

}  // namespace lipstick
