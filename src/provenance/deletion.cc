#include "provenance/deletion.h"

#include "provenance/query.h"
#include "provenance/view.h"

namespace lipstick {

Result<std::unordered_set<NodeId>> ComputeDeletionSet(
    const GraphSnapshot& snap, const std::vector<NodeId>& seeds) {
  LIPSTICK_ASSIGN_OR_RETURN(
      std::vector<NodeId> order,
      GraphView::MakeIdentity(snap).DeletionOrder(seeds));
  return std::unordered_set<NodeId>(order.begin(), order.end());
}

Result<bool> DependsOn(const GraphSnapshot& snap, NodeId target,
                       NodeId source) {
  return DependsOnSet(snap, target, {source});
}

}  // namespace lipstick
