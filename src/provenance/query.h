#ifndef LIPSTICK_PROVENANCE_QUERY_H_
#define LIPSTICK_PROVENANCE_QUERY_H_

#include <array>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "provenance/graph.h"
#include "provenance/snapshot.h"
#include "provenance/view.h"

namespace lipstick {

/// A small ProQL-style query layer over provenance graphs (the paper
/// defers to ProQL [20] for graph querying; these primitives cover the
/// selections and reachability patterns used in its examples, composed
/// with the zoom / deletion transformations of Section 4).
///
/// Every query reads a GraphSnapshot — safe for any number of concurrent
/// callers over one snapshot. Callers holding a ProvenanceGraph capture a
/// snapshot first (GraphSnapshot::Capture, or CaptureForParents for the
/// parent-only readers of an unsealed graph).

/// Predicate over nodes (views into the columnar storage).
using NodePredicate = std::function<bool(NodeId, const NodeView&)>;

/// Common predicate constructors.
NodePredicate ByLabel(NodeLabel label);
NodePredicate ByRole(NodeRole role);
/// Payload contains `substring` (token names, module names, agg ops...).
NodePredicate ByPayload(const std::string& substring);
/// Node belongs to an invocation of the given module name.
NodePredicate ByModule(const ProvenanceGraph& graph, std::string module);
NodePredicate And(NodePredicate a, NodePredicate b);
NodePredicate Or(NodePredicate a, NodePredicate b);
NodePredicate Not(NodePredicate p);

/// All alive nodes satisfying `pred`, in id order. Reads parent edges at
/// most, so parent-only snapshots work.
std::vector<NodeId> FindNodes(const GraphSnapshot& snap,
                              const NodePredicate& pred);

/// True if an alive directed path `from -> ... -> to` exists (derivation
/// order: edges point from inputs to results). Fails with kInvalidArgument
/// if the graph is not sealed.
Result<bool> PathExists(const GraphSnapshot& snap, NodeId from, NodeId to);

/// One shortest derivation path from `from` to `to` (node ids, inclusive),
/// or empty if none. Fails with kInvalidArgument if the graph is not sealed.
Result<std::vector<NodeId>> ShortestDerivationPath(const GraphSnapshot& snap,
                                                   NodeId from, NodeId to);

/// Set-dependency query (Section 4.3, "extended to sets of nodes"): does
/// the existence of `target` depend on the *joint* existence of `sources`,
/// i.e. is `target` deleted when all of `sources` are deleted together?
/// Fails with kInvalidArgument if the graph is not sealed.
Result<bool> DependsOnSet(const GraphSnapshot& snap, NodeId target,
                          const std::vector<NodeId>& sources);
/// The same question over a view's adjacency: the one implementation
/// behind DependsOnSet, DependsOn and the plan engine's depends terminal.
/// Stops propagating as soon as `target` is deleted.
Result<bool> DependsOnSet(const GraphView& view, NodeId target,
                          std::span<const NodeId> sources);

/// Summary statistics of the alive graph, for diagnostics and tests.
struct GraphStats {
  size_t nodes = 0;
  size_t edges = 0;
  size_t tokens = 0;
  size_t invocations = 0;
  size_t max_fan_in = 0;   // largest parent count
  size_t max_fan_out = 0;  // largest child count
  size_t depth = 0;        // longest derivation path length (edges)
  // Node count per label, indexed by NodeLabel.
  std::array<size_t, kNumNodeLabels> labels{};
};
/// The stats terminal over a view's visible nodes and edges (synthetic
/// zoom nodes count as kZoomedModule). One pass over the visible nodes,
/// plus relaxation rounds only when a visible parent follows its child in
/// NodeId order; armed metrics count the passes in `query.stats_passes`.
/// Fails with kInvalidArgument if the graph is not sealed.
Result<GraphStats> ComputeGraphStats(const GraphView& view);
/// ComputeGraphStats over the snapshot's identity view.
Result<GraphStats> ComputeGraphStats(const GraphSnapshot& snap);

}  // namespace lipstick

#endif  // LIPSTICK_PROVENANCE_QUERY_H_
