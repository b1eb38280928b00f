#ifndef LIPSTICK_PROVENANCE_ZOOM_H_
#define LIPSTICK_PROVENANCE_ZOOM_H_

#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "provenance/graph.h"
#include "provenance/snapshot.h"
#include "provenance/view.h"

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

/// The effect of collapsing one module, computed without mutating the
/// snapshot: the removed nodes are the marks PlanZoomOut adds to its mark
/// set. GraphView::ApplyZoomOut keeps it as a view.
struct ZoomPlan {
  size_t num_removed = 0;  // intermediates + state (+ base tokens)
  // Invocations whose m-node is live: one zoom node each.
  std::vector<ZoomInvocationPlan> invocations;
};

/// Plans ZoomOut(module) over the snapshot, per Definition 4.1 / the
/// ZoomOut steps of Section 4.1, walking only the module's runs in the
/// snapshot's invocation-run index. Nodes already marked in
/// `removed_so_far` (hidden by the view, or removed by previously planned
/// modules of the same zoom) are treated as dead; this module's removals
/// are added to the mark set. An invocation whose m-node is not live gets
/// no zoom node. Fails with kNotFound when the graph holds no live
/// invocation of `module`.
Result<ZoomPlan> PlanZoomOut(const GraphSnapshot& snap,
                             const std::string& module,
                             VisitedSet& removed_so_far);

}  // namespace internal

/// Implements the ZoomOut / ZoomIn graph transformations of Section 4.1
/// as lazy views over one snapshot.
///
/// ZoomOut(M) removes, for every invocation of every module named in M, all
/// intermediate-computation nodes and state nodes (plus state-base tokens
/// used only by those state nodes), then adds one module p-node per
/// invocation wired input-nodes -> module-node -> output-nodes. Because
/// invocations of a module may share state, ZoomOut always applies to all
/// invocations of a module, never a proper subset.
///
/// Nothing is mutated: the zoomer keeps the zoom groups applied so far and
/// one GraphView composed from them with GraphView::ApplyZoomOut. ZoomIn
/// rebuilds the view from the identity view and re-applies the remaining
/// groups in their original order, so ZoomIn(ZoomOut(G, M), M) == G. The
/// snapshot must outlive the zoomer.
class Zoomer {
 public:
  explicit Zoomer(const GraphSnapshot& snap)
      : view_(GraphView::MakeIdentity(snap)) {}

  /// Collapses all invocations of the given module names as one zoom
  /// group. Modules already zoomed out are ignored. A failed ZoomOut
  /// (kNotFound for a module without live invocations, kInvalidArgument
  /// on an unsealed graph) leaves the zoomer unchanged.
  Status ZoomOut(const std::set<std::string>& module_names);

  /// Restores all invocations of the given module names. It is an error to
  /// zoom in on a module that is not currently zoomed out.
  Status ZoomIn(const std::set<std::string>& module_names);

  /// Convenience: zoom out every module, producing the coarse-grained view.
  Status ZoomOutAll();

  bool IsZoomedOut(const std::string& module_name) const;

  /// The current zoom level, as a view over the snapshot.
  const GraphView& view() const { return view_; }
  /// The current zoom level as a standalone sealed graph.
  Result<ProvenanceGraph> Materialize() const { return view_.Materialize(); }

 private:
  /// The identity view with every applied group re-applied in order.
  GraphView Rebuild() const;

  std::vector<std::vector<std::string>> groups_;
  GraphView view_;
};

}  // namespace lipstick

#endif  // LIPSTICK_PROVENANCE_ZOOM_H_
