#include "provenance/query.h"

#include <algorithm>
#include <array>
#include <unordered_map>

#include "obs/metrics.h"
#include "provenance/traverse.h"

namespace lipstick {

namespace {

/// Later than every node id: a zoom node's first use after the pass.
constexpr NodeId kAfterEveryNode = ~NodeId{0};

/// Counts ComputeGraphStats' passes over a view's visible nodes (1 unless
/// the depth fallback ran), when metrics are armed.
void RecordStatsPasses(size_t passes) {
  if (!obs::MetricsRegistry::Enabled()) return;
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  static const obs::MetricId kPasses =
      metrics.RegisterCounter("query.stats_passes");
  metrics.CounterAdd(kPasses, passes);
}

}  // namespace

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
  // One slot per node in materialization order: shard 0, the synthetic
  // zoom nodes, shards 1..n. That is also NodeId order, so a node's slot
  // is its shard's first slot plus its index.
  std::vector<size_t> first_slot(snap.num_shards(), 0);
  size_t num_slots = snap.ShardSize(0) + view.num_synthetic();
  for (uint32_t s = 1; s < snap.num_shards(); ++s) {
    first_slot[s] = num_slots;
    num_slots += snap.ShardSize(s);
  }
  // A slot holds the node's level, the node count of its longest
  // derivation path (depth + 1; 0 until the pass reaches the node), and
  // its visible children. Fan-out is counted from the child side: each
  // visible parent of a visible node gains one, so the view's child
  // adjacency is never built, and hidden nodes stay at 0.
  struct Slot {
    uint32_t level = 0;
    uint32_t fan_out = 0;
  };
  std::vector<Slot> slots(num_slots);
  auto slot = [data = slots.data(), first = first_slot.data()](
                  NodeId id) -> Slot& {
    return data[first[NodeShard(id)] + NodeIndex(id)];
  };
  // The pass is complete when every visible parent precedes its child.
  bool complete = true;
  auto other_parent = [&](NodeId p, NodeId child) -> Slot* {
    if (!view.Visible(p)) return nullptr;
    complete = complete && p < child;
    return &slot(p);
  };
  // A parent that precedes its child in the child's own shard is in
  // range, and the pass reached it iff it is visible: its slot answers
  // the visibility test.
  auto visible_parent = [&](NodeId p, NodeId child) -> Slot* {
    if (p < child && NodeShard(p) == NodeShard(child)) {
      Slot& ps = slot(p);
      return ps.level != 0 ? &ps : nullptr;
    }
    return other_parent(p, child);
  };
  // A zoom node sits after shard 0, possibly after its own children (the
  // rewired outputs), so its level is taken on first use from its input
  // nodes, which precede the invocation's outputs by construction.
  auto zoom_level = [&](NodeId zoom, NodeId user) {
    Slot& z = slot(zoom);
    if (z.level == 0) {
      uint32_t longest = 0;
      for (NodeId q : view.ParentsOf(zoom)) {
        if (Slot* qs = visible_parent(q, user)) {
          longest = std::max(longest, qs->level);
        }
      }
      z.level = longest + 1;
    }
    return z.level;
  };
  view.ForEachVisibleNode([&](NodeId id, const GraphView::SyntheticNode* syn) {
    ++stats.nodes;
    size_t fan_in = 0;
    if (syn != nullptr) {
      ++stats.labels[static_cast<size_t>(NodeLabel::kZoomedModule)];
      // The level waits for the zoom node's first use (or the end).
      for (NodeId p : syn->parents) {
        if (!view.Visible(p)) continue;
        ++fan_in;
        ++slot(p).fan_out;
      }
    } else {
      NodeView n = snap.node(id);
      ++stats.labels[static_cast<size_t>(n.label())];
      uint32_t longest = 0;
      if (view.IsRewired(id)) {
        for (NodeId p : view.ParentsOf(id)) {
          if (view.IsSynthetic(p)) {
            if (!view.VisibleOrSynthetic(p)) continue;
            longest = std::max(longest, zoom_level(p, id));
            ++slot(p).fan_out;
          } else if (Slot* ps = visible_parent(p, id)) {
            longest = std::max(longest, ps->level);
            ++ps->fan_out;
          } else {
            continue;
          }
          ++fan_in;
        }
      } else {
        // Neither synthetic nor rewired: the snapshot's own parents, all
        // of them underlying nodes.
        for (NodeId p : n.parents()) {
          Slot* ps = visible_parent(p, id);
          if (ps == nullptr) continue;
          ++fan_in;
          ++ps->fan_out;
          longest = std::max(longest, ps->level);
        }
      }
      slot(id).level = longest + 1;
    }
    stats.edges += fan_in;
    stats.max_fan_in = std::max(stats.max_fan_in, fan_in);
  });
  // Zoom nodes that no visible output used.
  for (size_t k = 0; k < view.num_synthetic(); ++k) {
    NodeId zoom = view.SyntheticId(k);
    if (view.VisibleOrSynthetic(zoom)) zoom_level(zoom, kAfterEveryNode);
  }
  // Fallback when a visible parent sits at or after its child (a
  // cross-shard edge pointing backward): relaxation rounds over the view
  // until nothing changes, started from the pass's levels, which never
  // exceed the true ones.
  size_t passes = 1;
  bool changed = !complete;
  while (changed) {
    changed = false;
    ++passes;
    view.ForEachVisibleNode([&](NodeId id, const GraphView::SyntheticNode*) {
      uint32_t longest = 0;
      for (NodeId p : view.ParentsOf(id)) {
        if (view.VisibleOrSynthetic(p)) {
          longest = std::max(longest, slot(p).level);
        }
      }
      if (longest + 1 > slot(id).level) {
        slot(id).level = longest + 1;
        changed = true;
      }
    });
  }
  RecordStatsPasses(passes);
  stats.tokens = stats.labels[static_cast<size_t>(NodeLabel::kToken)];
  for (const Slot& s : slots) {
    stats.depth = std::max<size_t>(stats.depth, s.level);
    stats.max_fan_out = std::max<size_t>(stats.max_fan_out, s.fan_out);
  }
  if (stats.depth > 0) --stats.depth;  // levels count nodes, depth edges
  return stats;
}

Result<GraphStats> ComputeGraphStats(const GraphSnapshot& snap) {
  return ComputeGraphStats(GraphView::MakeIdentity(snap));
}

}  // namespace lipstick
