#ifndef LIPSTICK_PROVENANCE_ZOOM_H_
#define LIPSTICK_PROVENANCE_ZOOM_H_

#include <map>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "provenance/graph.h"
#include "provenance/snapshot.h"

namespace lipstick {

/// Identifies the nodes that belong to intermediate computations of any
/// invocation of `module_name`, by the path-based criterion of
/// Definition 4.1: v is intermediate iff there is a directed path to v from
/// an input, state, or intermediate node of such an invocation with no
/// output node on the path (v included). Used to cross-validate the
/// tag-based identification ZoomOut relies on. Fails with kInvalidArgument
/// if the graph is not sealed.
Result<std::unordered_set<NodeId>> IntermediateNodesByDefinition(
    const GraphSnapshot& snap, const std::string& module_name);

namespace internal {

/// One invocation's share of a ZoomOut: the collapsed p-node to create and
/// the outputs to rewire through it.
struct ZoomInvocationPlan {
  uint32_t invocation = 0;
  NodeId m_node = kInvalidNode;
  std::vector<NodeId> zoom_parents;  // alive input nodes of the invocation
  std::vector<NodeId> outputs;       // alive output nodes to rewire
};

/// The full effect of collapsing one module, computed without mutating
/// anything. Shared by the eager Zoomer (which applies it to the graph)
/// and GraphView::ApplyZoomOut (which keeps it as a view); computing both
/// from one planner keeps the two paths equivalent by construction.
struct ZoomPlan {
  std::vector<NodeId> removed;  // intermediates + state (+ base tokens)
  std::vector<ZoomInvocationPlan> invocations;
};

/// Plans ZoomOut(module) over the snapshot, per Definition 4.1 / the
/// ZoomOut steps of Section 4.1. Nodes already marked in `removed_so_far`
/// (by previously planned modules of the same zoom) are treated as dead;
/// this module's removals are added to the mark set and returned in
/// ZoomPlan::removed in ascending id order. Column scans fan out over the
/// traversal engine's work-stealing scan when `num_threads` > 1. Fails
/// with kNotFound when the graph holds no live invocation of `module`.
Result<ZoomPlan> PlanZoomOut(const GraphSnapshot& snap,
                             const std::string& module,
                             VisitedSet& removed_so_far, int num_threads);

}  // namespace internal

/// Implements the ZoomOut / ZoomIn graph transformations of Section 4.1.
///
/// ZoomOut(M) removes, for every invocation of every module named in M, all
/// intermediate-computation nodes and state nodes (plus state-base tokens
/// used only by those state nodes), then adds one module p-node per
/// invocation wired input-nodes -> module-node -> output-nodes. Because
/// invocations of a module may share state, ZoomOut always applies to all
/// invocations of a module, never a proper subset.
///
/// The removed structure is retained in this object (the "detail store") so
/// that ZoomIn is an exact inverse: ZoomIn(ZoomOut(G, M), M) == G.
///
/// This is the eager, mutating form; for concurrent read-only zooming over
/// one snapshot, see GraphView::ApplyZoomOut (provenance/view.h).
class Zoomer {
 public:
  explicit Zoomer(ProvenanceGraph* graph) : graph_(graph) {}

  /// Collapses all invocations of the given module names. Modules already
  /// zoomed out are ignored. Re-seals the graph.
  Status ZoomOut(const std::set<std::string>& module_names);

  /// Restores all invocations of the given module names. It is an error to
  /// zoom in on a module that is not currently zoomed out.
  Status ZoomIn(const std::set<std::string>& module_names);

  /// Convenience: zoom out every module, producing the coarse-grained view.
  Status ZoomOutAll();

  bool IsZoomedOut(const std::string& module_name) const {
    return store_.count(module_name) > 0;
  }

  /// Worker count for the planning column scans (1 = sequential).
  void set_num_threads(int n) { num_threads_ = n < 1 ? 1 : n; }

 private:
  struct InvocationDetail {
    uint32_t invocation = 0;
    NodeId zoom_node = kInvalidNode;
    std::vector<NodeId> removed;  // intermediates + state (+ base tokens)
    // Original parent lists of the invocation's output nodes.
    std::vector<std::pair<NodeId, std::vector<NodeId>>> output_parents;
  };

  ProvenanceGraph* graph_;
  std::map<std::string, std::vector<InvocationDetail>> store_;
  int num_threads_ = 1;
};

}  // namespace lipstick

#endif  // LIPSTICK_PROVENANCE_ZOOM_H_
