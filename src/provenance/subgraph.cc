#include "provenance/subgraph.h"

#include <array>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "provenance/traverse.h"
#include "provenance/view.h"

namespace lipstick {

namespace {

/// Every alive node reachable from `start` (exclusive unless re-reached).
std::unordered_set<NodeId> ReachFrom(const GraphSnapshot& snap, NodeId start,
                                     TraverseDirection dir) {
  std::unordered_set<NodeId> reached;
  VisitedLease visited = snap.AcquireVisited();
  std::array<NodeId, 1> seeds{start};
  Traverse(snap, seeds, dir, *visited, [&reached](NodeId n, NodeId) {
    reached.insert(n);
    return Visit::kExpand;
  });
  return reached;
}

}  // namespace

std::unordered_set<NodeId> Ancestors(const GraphSnapshot& snap, NodeId node) {
  return ReachFrom(snap, node, TraverseDirection::kBackward);
}

Result<std::unordered_set<NodeId>> Descendants(const GraphSnapshot& snap,
                                               NodeId node) {
  LIPSTICK_RETURN_IF_ERROR(RequireSealed(snap.graph(), "descendant queries"));
  return ReachFrom(snap, node, TraverseDirection::kForward);
}

Result<std::unordered_set<NodeId>> SubgraphQuery(const GraphSnapshot& snap,
                                                 NodeId node) {
  obs::ObsSpan span("query", "subgraph");
  static const obs::MetricId kSubgraphUs =
      obs::MetricsRegistry::Global().RegisterHistogram("query.subgraph_us");
  obs::ScopedHistTimer obs_timer(kSubgraphUs);
  LIPSTICK_ASSIGN_OR_RETURN(
      std::vector<NodeId> members,
      GraphView::MakeIdentity(snap).SubgraphMembers({node}, /*up=*/true,
                                                    /*down=*/true));
  span.Arg("result_nodes", static_cast<uint64_t>(members.size()));
  std::unordered_set<NodeId> set;
  set.reserve(members.size());
  set.insert(members.begin(), members.end());
  return set;
}

}  // namespace lipstick
