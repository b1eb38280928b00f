#ifndef LIPSTICK_PROVENANCE_SUBGRAPH_H_
#define LIPSTICK_PROVENANCE_SUBGRAPH_H_

#include <unordered_set>

#include "common/result.h"
#include "provenance/graph.h"
#include "provenance/snapshot.h"

namespace lipstick {

/// All transitive ancestors of `node` (derivation inputs), excluding itself.
/// Reads parent edges only, so parent-only snapshots of unsealed graphs
/// work too.
std::unordered_set<NodeId> Ancestors(const GraphSnapshot& snap, NodeId node);

/// All transitive descendants of `node` (derived data), excluding itself.
/// Fails with kInvalidArgument if the graph is not sealed.
Result<std::unordered_set<NodeId>> Descendants(const GraphSnapshot& snap,
                                               NodeId node);

/// The subgraph query of Section 5.1: given a node, returns the node itself,
/// all its ancestors and descendants, and all siblings of its descendants
/// (the co-parents needed to re-derive each descendant). Empty if `node`
/// is not alive. Runs GraphView::SubgraphMembers on the snapshot's
/// identity view. Fails with kInvalidArgument if the graph is not sealed.
Result<std::unordered_set<NodeId>> SubgraphQuery(const GraphSnapshot& snap,
                                                 NodeId node);

}  // namespace lipstick

#endif  // LIPSTICK_PROVENANCE_SUBGRAPH_H_
