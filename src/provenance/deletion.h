#ifndef LIPSTICK_PROVENANCE_DELETION_H_
#define LIPSTICK_PROVENANCE_DELETION_H_

#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "provenance/graph.h"
#include "provenance/snapshot.h"

namespace lipstick {

/// Deletion propagation (Definition 4.2): starting from the seed nodes,
/// repeatedly removes every node for which either
///   (1) all of its (originally existing) incoming edges were deleted, or
///   (2) it is labeled · or ⊗ and at least one incoming edge was deleted.
/// Nodes with no incoming edges (tokens, module invocations) survive unless
/// they are seeds — matching the paper's Example 4.4, where deleting the
/// bid request erases everything except state tuples and invocations.
/// Runs GraphView::DeletionOrder on the snapshot's identity view.
///
/// Returns the full set of deleted nodes (including the seeds). Fails with
/// kInvalidArgument if the graph is not sealed.
Result<std::unordered_set<NodeId>> ComputeDeletionSet(
    const GraphSnapshot& snap, const std::vector<NodeId>& seeds);

/// Dependency query (Section 4.3): does the existence of `target` depend on
/// the existence of `source`? Answered by checking whether `target` is
/// deleted when the deletion of `source` is propagated (DependsOnSet with
/// one source). Non-mutating. Fails with kInvalidArgument if the graph is
/// not sealed.
Result<bool> DependsOn(const GraphSnapshot& snap, NodeId target,
                       NodeId source);

}  // namespace lipstick

#endif  // LIPSTICK_PROVENANCE_DELETION_H_
