#include "provenance/zoom.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/str_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "provenance/traverse.h"

namespace lipstick {

Result<std::unordered_set<NodeId>> IntermediateNodesByDefinition(
    const GraphSnapshot& snap, const std::string& module_name) {
  LIPSTICK_RETURN_IF_ERROR(
      RequireSealed(snap.graph(), "IntermediateNodesByDefinition"));
  // Seed the reachability with the input and state nodes of every invocation
  // of the module; expand through children, stopping at (and excluding)
  // module output nodes, per Definition 4.1.
  StrId want = snap.strings().Find(module_name);
  std::vector<NodeId> seeds;
  for (const InvocationInfo& inv : snap.invocations()) {
    if (want == kStrNotFound || inv.module_name != want) continue;
    for (NodeId n : inv.input_nodes) {
      if (snap.Contains(n)) seeds.push_back(n);
    }
    for (NodeId n : inv.state_nodes) {
      if (snap.Contains(n)) seeds.push_back(n);
    }
  }
  std::unordered_set<NodeId> result;
  VisitedLease visited = snap.AcquireVisited();
  // Input/state seeds themselves are not intermediate nodes: pre-mark them
  // so the traversal never reports them.
  for (NodeId s : seeds) visited->Set(s);
  Traverse(snap, seeds, TraverseDirection::kForward, *visited,
           [&](NodeId n, NodeId) {
             if (snap.node(n).role() == NodeRole::kModuleOutput) {
               return Visit::kSkip;
             }
             result.insert(n);
             return Visit::kExpand;
           });
  // Closure for condition (iii): parentless value nodes (the constants
  // created for aggregation) belong to an intermediate computation when
  // everything they feed does.
  bool changed = true;
  while (changed) {
    changed = false;
    snap.ForEachAliveNode([&](NodeId id) {
      if (result.count(id)) return;
      if (snap.node(id).label() != NodeLabel::kConstValue) return;
      std::span<const NodeId> children = snap.ChildrenOf(id);
      if (children.empty()) return;
      bool all_intermediate = true;
      for (NodeId c : children) {
        if (snap.Contains(c) && !result.count(c)) {
          all_intermediate = false;
          break;
        }
      }
      if (all_intermediate) {
        result.insert(id);
        changed = true;
      }
    });
  }
  return result;
}

namespace internal {

namespace {

/// Counts the nodes a module's planning walks visit, when metrics are
/// armed.
void RecordZoomScan(uint64_t scanned) {
  if (!obs::MetricsRegistry::Enabled()) return;
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  static const obs::MetricId kScanned =
      metrics.RegisterCounter("query.zoom_nodes_scanned");
  metrics.CounterAdd(kScanned, scanned);
}

}  // namespace

Result<ZoomPlan> PlanZoomOut(const GraphSnapshot& snap,
                             const std::string& module,
                             VisitedSet& removed_so_far) {
  // A node is live for this plan iff it is alive in the snapshot and not
  // removed by a previously planned module of the same zoom (or hidden by
  // the view the zoom is applied to).
  auto live = [&](NodeId id) {
    return snap.Contains(id) && !removed_so_far.Test(id);
  };

  // All live invocation ids of this module. Aborted invocations (failed
  // attempts whose provenance was rolled back) carry no structure to
  // collapse.
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

  ZoomPlan plan;
  uint64_t scanned = 0;
  // Calls fn(id) for every node tagged with a zoomed invocation.
  auto for_each_tagged = [&](auto&& fn) {
    for (uint32_t inv : inv_ids) {
      for (const NodeRun& run : snap.InvocationRuns(inv)) {
        scanned += run.length;
        for (uint64_t k = 0; k < run.length; ++k) fn(run.first + k);
      }
    }
  };
  auto remove = [&](NodeId id) {
    removed_so_far.Set(id);
    ++plan.num_removed;
  };

  // Intermediate nodes are tagged with their invocation id during
  // tracking.
  for_each_tagged([&](NodeId id) {
    if (live(id) && snap.node(id).role() == NodeRole::kIntermediate) {
      remove(id);
    }
  });
  // State nodes, and state-base tokens used only by removed state nodes
  // ("the basic tuple nodes ... adjacent to those state nodes", ZoomOut
  // step 4). Marking as we go deduplicates state shared across
  // invocations of the module.
  for (uint32_t inv : inv_ids) {
    for (NodeId s : snap.invocations()[inv].state_nodes) {
      if (live(s)) remove(s);
    }
  }
  // State-base tokens of zoomed invocations go too, unless something
  // outside the removal set still derives from them. Bases that were never
  // used (lazy "s" wrapping means they have no children) are part of the
  // hidden module state and disappear with it. Bases are parentless tokens
  // and never children of other bases, so marking as we go is order-free.
  for_each_tagged([&](NodeId id) {
    if (!live(id) || snap.node(id).role() != NodeRole::kStateBase) return;
    for (NodeId child : snap.ChildrenOf(id)) {
      if (live(child)) return;
    }
    remove(id);
  });
  RecordZoomScan(scanned);

  // Per invocation, the collapsed module p-node's inputs and the outputs
  // to rewire through it. Input/output/m nodes are never in a zoom's
  // removal set; live() drops only those an earlier stage hid. An
  // invocation whose m-node an earlier stage hid collapses to nothing.
  for (uint32_t inv_id : inv_ids) {
    const InvocationInfo& inv = snap.invocations()[inv_id];
    if (!live(inv.m_node)) continue;
    ZoomInvocationPlan ip;
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

}  // namespace internal

Status Zoomer::ZoomOut(const std::set<std::string>& module_names) {
  obs::ObsSpan span("query", "zoomout");
  static const obs::MetricId kZoomOutUs =
      obs::MetricsRegistry::Global().RegisterHistogram("query.zoomout_us");
  obs::ScopedHistTimer obs_timer(kZoomOutUs);
  span.Arg("modules", static_cast<uint64_t>(module_names.size()));

  std::vector<std::string> group;
  for (const std::string& module : module_names) {
    if (!IsZoomedOut(module)) group.push_back(module);
  }
  if (group.empty()) return Status::OK();
  Status st = view_.ApplyZoomOut(group);
  if (!st.ok()) {
    // The failed stage may have collapsed some of the group's modules.
    view_ = Rebuild();
    return st;
  }
  groups_.push_back(std::move(group));
  return Status::OK();
}

Status Zoomer::ZoomIn(const std::set<std::string>& module_names) {
  obs::ObsSpan span("query", "zoomin");
  static const obs::MetricId kZoomInUs =
      obs::MetricsRegistry::Global().RegisterHistogram("query.zoomin_us");
  obs::ScopedHistTimer obs_timer(kZoomInUs);
  span.Arg("modules", static_cast<uint64_t>(module_names.size()));

  for (const std::string& module : module_names) {
    if (!IsZoomedOut(module)) {
      return Status::InvalidArgument(
          StrCat("module '", module, "' is not zoomed out"));
    }
  }
  for (std::vector<std::string>& group : groups_) {
    std::erase_if(group, [&](const std::string& module) {
      return module_names.count(module) > 0;
    });
  }
  std::erase_if(groups_, [](const std::vector<std::string>& group) {
    return group.empty();
  });
  view_ = Rebuild();
  return Status::OK();
}

Status Zoomer::ZoomOutAll() {
  const GraphSnapshot& snap = view_.snapshot();
  std::set<std::string> names;
  for (const InvocationInfo& inv : snap.invocations()) {
    names.insert(std::string(snap.str(inv.module_name)));
  }
  return ZoomOut(names);
}

bool Zoomer::IsZoomedOut(const std::string& module_name) const {
  for (const std::vector<std::string>& group : groups_) {
    if (std::find(group.begin(), group.end(), module_name) != group.end()) {
      return true;
    }
  }
  return false;
}

GraphView Zoomer::Rebuild() const {
  GraphView view = GraphView::MakeIdentity(view_.snapshot());
  for (const std::vector<std::string>& group : groups_) {
    // Every group succeeded on this snapshot before, in this order.
    LIPSTICK_CHECK(view.ApplyZoomOut(group).ok(),
                   "re-applying a zoom group failed");
  }
  return view;
}

}  // namespace lipstick
